import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towertalk import simulation
from towertalk.blockworld import GRID_WIDTH, HORIZONTAL, VERTICAL, BlockPlacement
from towertalk.cli import DEFAULT_ALPHA
from towertalk.dsl import Library, is_base_token, token_length
from towertalk.pragmatics import (
    PragmaticsConfig,
    _best_word,
    architect_choose,
    belief_entropy,
    builder_interpret,
    candidate_programs,
    extend_hypotheses,
    initial_belief,
    lenient_run,
    synthetic_word,
    update_belief,
)
from towertalk.dsl import canonical_program
from towertalk.blockworld import compose_scene, stimulus_towers
from towertalk.library_learning import library_trajectory
from towertalk.simulation import LearningConfig

from oracles import (_component_marginal, belief_cover, best_utterance, enumerate_hypotheses,
                     enumerated_extension, enumerated_update, joint_utility,
                     lexicon_distribution, make_fragment, marginal_listener,
                     point_mass_lexicon, uncached_architect_choose, uncached_lenient_run)

# The Builder's workspace at the start of a trial: every column empty.
EMPTY = (0,) * GRID_WIDTH


def bound_one_by_one(library):
    """The belief extended by the library one fragment at a time, so it is
    certain of every binding: chunkA to the first fragment, chunkB to the next, ..."""
    belief = initial_belief()
    for n in range(1, len(library.fragments) + 1):
        belief = extend_hypotheses(belief, Library(library.fragments[:n]))
    return belief


def test_synthetic_word_names():
    names = [synthetic_word(i) for i in range(28)]
    assert names[:3] == ["chunkA", "chunkB", "chunkC"]
    assert names[25] == "chunkZ"
    assert names[26] == "chunkAA"
    assert names[27] == "chunkAB"


def test_literal_listener_fixed_words(two_fragment_library):
    # Base-token words mean themselves under every belief.
    for belief in (initial_belief(), extend_hypotheses(initial_belief(), two_fragment_library)):
        assert marginal_listener("h", "h", belief) == 1.0
        assert marginal_listener("v", "h", belief) == 0.0
        assert marginal_listener("l3", "l3", belief) == 1.0


def test_literal_listener_synthetic_words(two_fragment_library):
    # A belief certain of one lexicon is that lexicon's literal listener.
    belief = extend_hypotheses(initial_belief(), Library(two_fragment_library.fragments[:1]))
    assert point_mass_lexicon(belief) == {"chunkA": "chunk1"}
    assert marginal_listener("chunk1", "chunkA", belief) == 1.0
    assert marginal_listener("chunk2", "chunkA", belief) == 0.0
    assert marginal_listener("chunk1", "chunkZ", belief) == 0.0


def test_marginal_listener_uniform_two_chunks(two_fragment_library):
    belief = extend_hypotheses(initial_belief(), two_fragment_library)
    assert marginal_listener("chunk1", "chunkA", belief) == pytest.approx(0.5)
    assert marginal_listener("chunk2", "chunkA", belief) == pytest.approx(0.5)


def test_marginal_listener_fixed_words_ignore_belief(two_fragment_library):
    belief = extend_hypotheses(initial_belief(), two_fragment_library)
    assert marginal_listener("h", "h", belief) == 1.0
    assert marginal_listener("v", "h", belief) == 0.0


def test_extend_first_chunk_is_certain(two_fragment_library):
    belief = extend_hypotheses(initial_belief(), Library(two_fragment_library.fragments[:1]))
    assert marginal_listener("chunk1", "chunkA", belief) == 1.0
    assert point_mass_lexicon(belief) == {"chunkA": "chunk1"}


def test_extend_known_plus_new_forces_binding(two_fragment_library):
    belief = bound_one_by_one(two_fragment_library)
    assert marginal_listener("chunk2", "chunkB", belief) == 1.0
    assert marginal_listener("chunk1", "chunkB", belief) == 0.0


def test_extend_two_at_once_splits_mass(two_fragment_library):
    belief = extend_hypotheses(initial_belief(), two_fragment_library)
    hypotheses = enumerate_hypotheses(belief)
    assert len(hypotheses) == 2
    assert all(p == pytest.approx(0.5) for _, p in hypotheses)
    lexicons = [lex for lex, _ in hypotheses]
    assert {"chunkA": "chunk1", "chunkB": "chunk2"} in lexicons
    assert {"chunkA": "chunk2", "chunkB": "chunk1"} in lexicons


def test_support_and_probs_properties(two_fragment_library):
    hypotheses = enumerate_hypotheses(extend_hypotheses(initial_belief(), two_fragment_library))
    assert len([lex for lex, _ in hypotheses]) == 2
    assert sum(p for _, p in hypotheses) == pytest.approx(1.0)


def test_update_belief_collapses_on_disambiguating_observation(two_fragment_library):
    belief = extend_hypotheses(initial_belief(), two_fragment_library)
    _, _, placed = lenient_run(("v", "v"), EMPTY, 0)  # chunk1's behavior
    updated, anomaly = update_belief(
        belief, "chunkA", placed, two_fragment_library, heights=EMPTY, hand=0)
    assert not anomaly
    assert point_mass_lexicon(updated) == {"chunkA": "chunk1", "chunkB": "chunk2"}


def test_update_belief_uninformative_observation_is_noop():
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v"), lib))
    lib = lib.with_fragment(make_fragment("chunk2", ("v", "v", "l1"), lib))
    belief = extend_hypotheses(initial_belief(), lib)
    _, _, placed = lenient_run(("v", "v"), EMPTY, 0)
    updated, anomaly = update_belief(belief, "chunkA", placed, lib, heights=EMPTY, hand=0)
    assert not anomaly
    assert updated.components == belief.components


def test_update_belief_resets_on_contradiction(two_fragment_library):
    belief = bound_one_by_one(two_fragment_library)
    _, _, chunk2_placed = lenient_run(("h", "r2", "h"), EMPTY, 0)
    # chunkA is certainly chunk1, but the builder produced chunk2's blocks
    updated, anomaly = update_belief(
        belief, "chunkA", chunk2_placed, two_fragment_library, heights=EMPTY, hand=0)
    assert anomaly
    assert len(enumerate_hypotheses(updated)) == 2
    assert belief_entropy(updated) == pytest.approx(1.0)


def test_belief_entropy_decreases_under_updates(two_fragment_library):
    belief = extend_hypotheses(initial_belief(), two_fragment_library)
    before = belief_entropy(belief)
    _, _, placed = lenient_run(("v", "v"), EMPTY, 0)
    updated, _ = update_belief(belief, "chunkA", placed, two_fragment_library,
                               heights=EMPTY, hand=0)
    assert belief_entropy(updated) <= before
    assert belief_entropy(updated) == 0.0


def test_candidate_programs_base_only_library(towers):
    scene = compose_scene(towers["A"], towers["B"])
    candidates = candidate_programs(canonical_program(scene), Library())
    assert candidates == (canonical_program(scene),)


def test_candidate_programs_include_chunk_pair(towers):
    scene = compose_scene(towers["A"], towers["B"])
    lib = Library()
    lib = lib.with_fragment(
        make_fragment("chunk1", canonical_program(towers["A"]), lib))
    lib = lib.with_fragment(
        make_fragment("chunk2", canonical_program(towers["B"]), lib))
    candidates = candidate_programs(canonical_program(scene), lib)
    assert ("chunk1", "r4", "chunk2") in candidates
    assert canonical_program(scene) in candidates


def test_candidate_programs_truncates_to_four(towers):
    scene = compose_scene(towers["A"], towers["B"])
    lib = Library()
    for i, body in enumerate([("v", "r1", "h"), ("h", "v"), ("v", "r2"),
                              canonical_program(towers["A"]),
                              canonical_program(towers["B"])]):
        lib = lib.with_fragment(make_fragment(f"chunk{i + 1}", body, lib))
    candidates = candidate_programs(canonical_program(scene), lib)
    assert len(candidates) <= 4
    assert canonical_program(scene) in candidates
    assert len(set(candidates)) == len(candidates)


def test_joint_utility_base_program_is_pure_length_cost(towers):
    scene = compose_scene(towers["A"], towers["C"])
    program = canonical_program(scene)
    utterance = best_utterance(program, initial_belief())
    cfg = PragmaticsConfig(alpha=5.0, beta=0.3)
    assert joint_utility(program, utterance, initial_belief(), cfg) == pytest.approx(
        -0.3 * token_length(program))


def test_joint_utility_beta_zero_prefers_unambiguous(two_fragment_library):
    belief = extend_hypotheses(initial_belief(), two_fragment_library)
    cfg = PragmaticsConfig(alpha=5.0, beta=0.0)
    base = ("v", "v", "h", "r2", "h")
    chunked = ("chunk1", "chunk2")
    base_u = joint_utility(base, best_utterance(base, belief), belief, cfg)
    chunk_u = joint_utility(chunked, best_utterance(chunked, belief), belief, cfg)
    assert base_u == pytest.approx(0.0)
    assert chunk_u < base_u


def test_joint_utility_beta_one_is_negative_length(two_fragment_library):
    belief = extend_hypotheses(initial_belief(), two_fragment_library)
    cfg = PragmaticsConfig(alpha=5.0, beta=1.0)
    program = ("chunk1", "chunk2")
    utterance = best_utterance(program, belief)
    assert joint_utility(program, utterance, belief, cfg) == pytest.approx(-2.0)


def test_joint_utility_misaligned_lengths_raises():
    cfg = PragmaticsConfig(alpha=5.0, beta=0.3)
    with pytest.raises(ValueError):
        joint_utility(("v", "v"), ("v",), initial_belief(), cfg)


def test_joint_utility_minus_infinity_on_zero_marginal(two_fragment_library):
    belief = bound_one_by_one(two_fragment_library)
    cfg = PragmaticsConfig(alpha=5.0, beta=0.3)
    # chunkA certainly means chunk1, so it cannot convey chunk2
    utility = joint_utility(("chunk2",), ("chunkA",), belief, cfg)
    assert utility == -math.inf


def test_architect_choose_argmax_at_infinite_alpha(towers):
    scene = compose_scene(towers["A"], towers["B"])
    lib = Library()
    lib = lib.with_fragment(
        make_fragment("chunk1", canonical_program(scene), lib))
    belief = extend_hypotheses(initial_belief(), lib)
    cfg = PragmaticsConfig(alpha=math.inf, beta=0.8)
    program, utterance = architect_choose(canonical_program(scene), lib, belief, cfg,
                                          random.Random(0))
    assert program == ("chunk1",)
    assert utterance == ("chunkA",)


def test_architect_choose_uniform_at_zero_alpha(towers):
    scene = compose_scene(towers["A"], towers["B"])
    lib = Library()
    lib = lib.with_fragment(
        make_fragment("chunk1", canonical_program(scene), lib))
    belief = extend_hypotheses(initial_belief(), lib)
    cfg = PragmaticsConfig(alpha=0.0, beta=0.8)
    rng = random.Random(0)
    counts = Counter(architect_choose(canonical_program(scene), lib, belief, cfg, rng)[0]
                     for _ in range(800))
    assert len(counts) == 2
    for count in counts.values():
        assert 300 < count < 500


def test_architect_choice_distribution_is_softmax(towers):
    scene = compose_scene(towers["A"], towers["B"])
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", canonical_program(scene), lib))
    belief = extend_hypotheses(initial_belief(), lib)
    cfg = PragmaticsConfig(alpha=1.0, beta=0.5)
    base = canonical_program(scene)
    utilities = {
        base: joint_utility(base, best_utterance(base, belief), belief, cfg),
        ("chunk1",): joint_utility(("chunk1",), ("chunkA",), belief, cfg),
    }
    top = max(utilities.values())
    weights = {p: math.exp(1.0 * (u - top)) for p, u in utilities.items()}
    total = sum(weights.values())
    expected = weights[("chunk1",)] / total
    rng = random.Random(1)
    picks = sum(architect_choose(base, lib, belief, cfg, rng)[0] == ("chunk1",)
                for _ in range(3000))
    assert picks / 3000 == pytest.approx(expected, abs=0.03)


def test_builder_interpret_fixed_words(two_fragment_library):
    for lib in (Library(), two_fragment_library):
        bindings = {}
        assert builder_interpret("v", bindings, lib, random.Random(0)) == ("v",)
        assert builder_interpret("l3", bindings, lib, random.Random(0)) == ("l3",)
        assert bindings == {}


def test_builder_interpret_first_binding_uniform(two_fragment_library):
    outcomes = Counter()
    for seed in range(400):
        bindings = {}
        builder_interpret("chunkA", bindings, two_fragment_library, random.Random(seed))
        outcomes[bindings["chunkA"]] += 1
    assert set(outcomes) == {"chunk1", "chunk2"}
    assert 140 < outcomes["chunk1"] < 260


def test_builder_interpret_binding_persists(two_fragment_library):
    bindings = {}
    rng = random.Random(3)
    first = builder_interpret("chunkA", bindings, two_fragment_library, rng)
    state = rng.getstate()
    for _ in range(5):
        assert builder_interpret("chunkA", bindings, two_fragment_library, rng) == first
    assert rng.getstate() == state  # only a first hearing draws


def test_builder_interpret_respects_taken_bindings(two_fragment_library):
    bindings = {"chunkA": "chunk2"}
    assert builder_interpret("chunkB", bindings, two_fragment_library,
                             random.Random(0)) == ("v", "v")
    assert bindings == {"chunkA": "chunk2", "chunkB": "chunk1"}


def test_builder_interpret_expands_chunk_words(two_fragment_library):
    bindings = {"chunkA": "chunk1"}
    tokens = builder_interpret("chunkA", bindings, two_fragment_library, random.Random(0))
    assert tokens == two_fragment_library.resolve("chunk1").expansion
    _, _, placed = lenient_run(tokens, EMPTY, 0)
    assert [b.orientation for b in placed] == [VERTICAL, VERTICAL]


def test_lenient_run_clamps_and_skips():
    tokens = ("l5",) + ("v",) * 5 + ("r9", "r9", "h")
    heights, hand, placed = lenient_run(tokens, EMPTY, 2)
    # The hand clamps at the left wall, four verticals fill column 0 and the
    # fifth does not fit; the hand clamps at the right wall, where a
    # horizontal would leave the grid.
    assert placed == tuple(BlockPlacement(0, y, VERTICAL) for y in (0, 2, 4, 6))
    assert hand == GRID_WIDTH - 1
    assert heights == (8,) + (0,) * (GRID_WIDTH - 1)


LENIENT_TOKENS = ("h", "v", "l1", "l2", "l9", "r1", "r3", "r9")


@st.composite
def lenient_runs(draw):
    """Column heights a prefix of tokens builds from an empty grid, a hand, and
    tokens to run from there."""
    prefix = draw(st.lists(st.sampled_from(LENIENT_TOKENS), max_size=24))
    start = draw(st.integers(min_value=0, max_value=GRID_WIDTH - 1))
    heights, _, _ = uncached_lenient_run(prefix, EMPTY, start)
    hand = draw(st.integers(min_value=0, max_value=GRID_WIDTH - 1))
    tokens = tuple(draw(st.lists(st.sampled_from(LENIENT_TOKENS), max_size=16)))
    return tokens, heights, hand


@given(lenient_runs())
# Clamps at both walls, a horizontal at the last column, and a full column.
@example((("r9", "r9", "h", "l9", "l9", "v"), EMPTY, 1))
@example((("v",) * 5, EMPTY, 3))
@settings(max_examples=300, deadline=None)
def test_execute_lenient_matches_uncached_loop(run):
    tokens, heights, hand = run
    result = lenient_run(tokens, heights, hand)
    assert result == uncached_lenient_run(tokens, heights, hand)
    # Running on from the result matches too, cached or not.
    assert lenient_run(tokens, *result[:2]) == uncached_lenient_run(tokens, *result[:2])


def test_execute_lenient_results_do_not_share_state_with_later_calls():
    tokens = ("v", "r1", "h", "l1", "v")
    expected = uncached_lenient_run(tokens, EMPTY, 0)
    result = lenient_run(tokens, EMPTY, 0)
    # A cached run hands out only immutable values, so no caller can change
    # what a later call with the same arguments returns.
    heights, hand, placed = result
    assert type(heights) is tuple and type(placed) is tuple
    for _ in range(2):  # building on a returned state, twice from the same one
        assert lenient_run(tokens, heights, hand) == uncached_lenient_run(
            tokens, heights, hand)
    assert lenient_run(tokens, EMPTY, 0) == expected
    assert EMPTY == (0,) * GRID_WIDTH


def _assert_choice_matches_oracle(base, library, belief, cfg, rng):
    oracle_rng = random.Random()
    oracle_rng.setstate(rng.getstate())
    expected = uncached_architect_choose(base, library, belief, cfg, oracle_rng)
    chosen = architect_choose(base, library, belief, cfg, rng)
    assert chosen == expected
    assert rng.getstate() == oracle_rng.getstate()
    return chosen


CHOICE_CONFIGS = [PragmaticsConfig(alpha=alpha, beta=beta)
                  for alpha in (0.0, 5.0, math.inf) for beta in (0.0, 0.3, 1.0)]


def test_architect_choose_matches_per_candidate_oracle_on_built_beliefs(
        towers):
    scene = compose_scene(towers["A"], towers["B"])
    base = canonical_program(scene)
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", canonical_program(towers["A"]), lib))
    tower_a = lib
    lib = lib.with_fragment(make_fragment("chunk2", canonical_program(towers["B"]), lib))
    lib = lib.with_fragment(make_fragment("chunk3", ("v", "r1", "h"), lib))
    certain = extend_hypotheses(initial_belief(), tower_a)
    uniform = extend_hypotheses(certain, lib)
    _, _, chunk3_placed = lenient_run(("v", "r1", "h"), EMPTY, 0)
    informed, anomaly = update_belief(uniform, "chunkB", chunk3_placed, lib,
                                      heights=EMPTY, hand=0)
    assert not anomaly
    reset, anomaly = update_belief(informed, "chunkA", chunk3_placed, lib,
                                   heights=EMPTY, hand=0)
    assert anomaly
    # One vertical block fits both "v r1" and "v r2", so seeing it for chunkA
    # splits the three-word pool into two components: the words left in each
    # pool have a marginal of two terms, one per component.
    split_lib = tower_a.with_fragment(make_fragment("chunk2", ("v", "r1"), tower_a))
    split_lib = split_lib.with_fragment(make_fragment("chunk3", ("v", "r2"), split_lib))
    _, _, one_block = lenient_run(("v", "r1"), EMPTY, 0)
    split, anomaly = update_belief(extend_hypotheses(initial_belief(), split_lib), "chunkA",
                                   one_block, split_lib, heights=EMPTY, hand=0)
    assert not anomaly
    assert len(split.components) >= 2
    words, fragments = belief_cover(split)
    assert any(sum(_component_marginal(c, word, token) > 0 for c in split.components) >= 2
               for word in words for token in fragments)
    cases = [(lib, uniform), (lib, informed), (lib, reset), (split_lib, split)]
    for library, belief in cases:
        for token in library.ids():
            (word,) = best_utterance((token,), belief)
            assert _best_word(token, belief) == (word, marginal_listener(token, word, belief))
    for cfg in CHOICE_CONFIGS:
        rng = random.Random(11)
        for library, belief in cases:
            for _ in range(5):
                _assert_choice_matches_oracle(base, library, belief, cfg, rng)


def _towers(*blocks):
    """Towers A, B and C, each from (x, y, orientation) triples, "h" or "v"."""
    orientation = {"h": HORIZONTAL, "v": VERTICAL}
    return {tower_id: frozenset(BlockPlacement(x, y, orientation[o]) for x, y, o in tower)
            for tower_id, tower in zip("ABC", blocks)}


# Buildable stimulus sets, with the largest number of components that the
# beliefs of each dyad test reach on them: (belief updates, choices). The
# default towers keep the belief in at most two components; the other two sets,
# found by random draws, split it further, and no belief either test reaches on
# them holds more than 5,040 lexicons.
DYAD_STIMULI = {
    "default": (stimulus_towers(), (2, 1)),
    "three-components": (_towers([(2, 0, "h"), (3, 1, "v"), (4, 0, "h"), (5, 1, "v")],
                                 [(0, 0, "v"), (1, 0, "h"), (1, 1, "h"), (5, 0, "v")],
                                 [(0, 0, "h"), (1, 1, "v"), (3, 0, "h"), (3, 1, "v")]), (3, 3)),
    "four-components": (_towers([(1, 0, "h"), (3, 0, "h"), (3, 1, "v"), (3, 3, "v")],
                                [(0, 0, "v"), (1, 0, "h"), (1, 1, "h"), (5, 0, "v")],
                                [(0, 0, "h"), (2, 0, "v"), (4, 0, "h"), (4, 1, "v")]), (4, 4)),
}


def assert_covers(belief, library):
    """The belief covers the library: in every component the pools' words are
    exactly chunkA, chunkB, ..., one per fragment, their fragments exactly the
    library's, and each pool has as many words as fragments."""
    words = sorted(synthetic_word(k) for k in range(len(library.fragments)))
    for comp in belief.components:
        assert sorted(word for pool_words, _ in comp for word in pool_words) == words, belief
        assert sorted(frag for _, frags in comp for frag in frags) == sorted(library.ids()), belief
        assert all(len(pool_words) == len(frags) for pool_words, frags in comp), belief


def test_architect_choose_matches_per_candidate_oracle_in_dyads(monkeypatch):
    """Every choice of whole dyads on each set of DYAD_STIMULI, on the beliefs
    their updates grow, resets included."""
    seen = Counter()
    anomaly_seen = [False]

    def checked_choose(base, library, belief, cfg, rng):
        # The belief covers the library, so every chunk has a word to say it.
        assert_covers(belief, library)
        program, utterance = _assert_choice_matches_oracle(base, library, belief, cfg, rng)
        seen["choices"] += 1
        seen["after an anomaly"] += anomaly_seen[0]
        seen["chunked"] += program != base
        return program, utterance

    def watched_update(*args, **kwargs):
        belief, anomaly = update_belief(*args, **kwargs)
        anomaly_seen[0] |= anomaly
        seen["peak components"] = max(seen["peak components"], len(belief.components))
        return belief, anomaly

    monkeypatch.setattr(simulation, "architect_choose", checked_choose)
    monkeypatch.setattr(simulation, "update_belief", watched_update)
    for name, (stimuli, (_, peak)) in DYAD_STIMULI.items():
        seen.clear()
        for cfg in CHOICE_CONFIGS:
            for seed in (3, 4):
                anomaly_seen[0] = False
                sequence, lcfg = simulation.generate_trial_sequence(seed), LearningConfig(w=1.5)
                simulation.run_dyad(sequence, 1.5, cfg, lcfg, random.Random(seed),
                                    library_trajectory(sequence, lcfg.w, stimuli))
        assert seen["choices"] == len(CHOICE_CONFIGS) * 2 * simulation.TRIALS_PER_SEQUENCE, name
        assert seen["chunked"] > 0, name
        assert seen["after an anomaly"] > 0, name
        assert seen["peak components"] == peak, (name, seen)


def assert_same_distribution(actual, expected):
    assert actual.keys() == expected.keys()
    for lexicon, probability in expected.items():
        assert abs(actual[lexicon] - probability) <= 1e-9, (lexicon, actual[lexicon], probability)


def assert_disjoint_with_shannon_entropy(belief):
    """No lexicon lies in two components, so the belief is uniform over its
    lexicons; and belief_entropy is the Shannon entropy of that distribution."""
    lexicons = [frozenset(lexicon.items()) for lexicon, _ in enumerate_hypotheses(belief)]
    assert len(set(lexicons)) == len(lexicons), belief
    shannon = -sum(p * math.log2(p) for p in lexicon_distribution(belief).values())
    assert abs(belief_entropy(belief) - shannon) <= 1e-9, (belief_entropy(belief), shannon)


def test_belief_updates_in_dyads_match_bayesian_enumeration(monkeypatch):
    """Every belief update and extension of real dyads on each set of
    DYAD_STIMULI, resets included, against explicit enumeration of the
    lexicons: 4 sequences x the 9 grid cells x 2 iterations, at master seeds 0
    and 7. Every belief seen, the initial one included, is checked for
    disjoint components and for its entropy."""
    seen = Counter()

    def checked_update(belief, word, observed, library, *, heights, hand):
        # A base word tells the belief nothing, so only chunk words are conditioned on.
        assert not is_base_token(word)
        assert_covers(belief, library)
        expected, expected_anomaly = enumerated_update(belief, word, observed, library,
                                                       heights, hand)
        posterior, anomaly = update_belief(belief, word, observed, library,
                                           heights=heights, hand=hand)
        assert anomaly == expected_anomaly
        assert_same_distribution(lexicon_distribution(posterior), expected)
        assert_disjoint_with_shannon_entropy(posterior)
        assert_covers(posterior, library)
        seen["updates"] += 1
        seen["informative"] += len(expected) < len(lexicon_distribution(belief))
        seen["anomalies"] += anomaly
        seen["peak components"] = max(seen["peak components"], len(posterior.components))
        seen["peak lexicons"] = max(seen["peak lexicons"], len(expected))
        return posterior, anomaly

    def checked_extend(belief, library):
        extended = extend_hypotheses(belief, library)
        distribution = lexicon_distribution(extended)
        assert_same_distribution(distribution, enumerated_extension(belief, library))
        assert_disjoint_with_shannon_entropy(belief)
        assert_disjoint_with_shannon_entropy(extended)
        assert_covers(extended, library)
        seen["extensions"] += 1
        seen["words added"] += len(belief_cover(extended)[0]) - len(belief_cover(belief)[0])
        seen["peak lexicons"] = max(seen["peak lexicons"], len(distribution))
        return extended

    monkeypatch.setattr(simulation, "update_belief", checked_update)
    monkeypatch.setattr(simulation, "extend_hypotheses", checked_extend)
    configs = [(PragmaticsConfig(DEFAULT_ALPHA, beta), LearningConfig(w=w))
               for w in (1.5, 3.2, 9.6) for beta in (0.0, 0.3, 0.8)]
    for name, (stimuli, (peak, _)) in DYAD_STIMULI.items():
        seen.clear()
        traces = [trace for master_seed in (0, 7)
                  for trace in simulation.run_experiment(configs, stimuli, n_sequences=4,
                                                         iterations=2, master_seed=master_seed)]
        assert len(traces) == 2 * 9 * 4 * 2
        assert seen["extensions"] == len(traces) * simulation.TRIALS_PER_SEQUENCE, name
        assert seen["updates"] == sum(
            not is_base_token(word) for t in traces for r in t.records for word in r.utterance)
        assert min(seen["updates"], seen["informative"], seen["anomalies"],
                   seen["words added"]) > 0, (name, seen)
        assert seen["peak components"] == peak, (name, seen)
        assert seen["peak lexicons"] <= 5040, (name, seen)


def test_scripted_dyad_converges_to_builder_bindings(two_fragment_library):
    """After one disambiguating observation per word, the belief is a point
    mass equal to the builder's actual bindings."""
    lib = two_fragment_library
    belief = extend_hypotheses(initial_belief(), two_fragment_library)
    bindings = {}
    heights, hand = EMPTY, 0
    rng = random.Random(17)
    entropies = [belief_entropy(belief)]
    for word in ("chunkA", "chunkB"):
        tokens = builder_interpret(word, bindings, lib, rng)
        after_heights, after_hand, placed = lenient_run(tokens, heights, hand)
        belief, anomaly = update_belief(belief, word, placed, lib, heights=heights, hand=hand)
        heights, hand = after_heights, after_hand
        assert not anomaly
        entropies.append(belief_entropy(belief))
    assert point_mass_lexicon(belief) == bindings
    assert all(a >= b for a, b in zip(entropies, entropies[1:]))


def test_pragmatics_config_validation():
    with pytest.raises(ValueError):
        PragmaticsConfig(alpha=-1.0, beta=0.3)
    with pytest.raises(ValueError):
        PragmaticsConfig(alpha=math.nan, beta=0.3)
    with pytest.raises(ValueError):
        PragmaticsConfig(alpha=5.0, beta=1.5)
    assert PragmaticsConfig(alpha=math.inf, beta=0.3).alpha == math.inf


@pytest.mark.parametrize("alpha, beta", [(-1.0, 0.3), (math.nan, 0.3), (5.0, 2.0), (5.0, math.nan)])
def test_pragmatics_config_checks_run_for_every_construction(alpha, beta):
    with pytest.raises(ValueError):
        PragmaticsConfig(alpha=alpha, beta=beta)
    with pytest.raises(ValueError):
        PragmaticsConfig(alpha, beta)


@pytest.mark.parametrize("cfg", [PragmaticsConfig(5.0, 0.3), PragmaticsConfig(math.inf, 1.0)])
def test_pragmatics_config_pickles_to_an_equal_config(cfg):
    # A --jobs pool sends each config to its workers by pickle.
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(cfg, protocol))
        assert copy == cfg and type(copy) is PragmaticsConfig
