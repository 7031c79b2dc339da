import math
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towertalk import blockworld, cli, dsl, library_learning, pragmatics, simulation, traces
from towertalk.blockworld import stimulus_towers
from towertalk.dsl import (
    Fragment,
    Library,
    count_placements,
    inline,
    token_length,
)
from towertalk.library_learning import (
    OTHER,
    SCENE,
    SUB_TOWER,
    TOWER,
    Adoption,
    _candidate_windows,
    _mdl_cost,
    _round,
    _scene_table,
    _scene_windows,
    _shape,
    check_w,
    classify_fragment,
    library_trajectory,
    shortest_tokenization,
    update_library_with_log,
)
from towertalk.dsl import canonical_program
from towertalk.blockworld import compose_scene
from towertalk.simulation import LearningConfig, generate_sequences, generate_trial_sequence

from oracles import (EMPTY_LIBRARY, buildable_stimuli, dense_update_library, greedy_count,
                     library_score, library_size, make_fragment, mdl,
                     reference_candidate_windows, reference_fragment_level,
                     reference_shortest_tokenization)


def brute_force_mdl(sequence, expansions):
    """Exhaustive search over all tokenizations of the base sequence."""

    @lru_cache(maxsize=None)
    def best(i):
        if i == len(sequence):
            return 0
        options = [token_cost_of(sequence[i]) + best(i + 1)]
        for expansion in expansions:
            j = i + len(expansion)
            if j <= len(sequence) and sequence[i:j] == expansion:
                options.append(1 + best(j))
        return min(options)

    def token_cost_of(token):
        return 2 if token[0] in "lr" and token not in ("h", "v") else 1

    return best(0)


def random_base_sequence(rng, max_units=12):
    tokens = []
    units = 0
    while units < max_units:
        if rng.random() < 0.6:
            token, cost = rng.choice(["h", "v"]), 1
        else:
            token, cost = f"{rng.choice('lr')}{rng.randint(1, 3)}", 2
        if units + cost > max_units:
            break
        tokens.append(token)
        units += cost
    return tuple(tokens)


def random_fragment_library(rng, max_fragments=3):
    lib = Library()
    for _ in range(rng.randint(0, max_fragments)):
        body = random_base_sequence(rng, max_units=rng.randint(2, 6))
        try:
            fragment = make_fragment(f"chunk{len(lib.fragments) + 1}", body, lib)
        except ValueError:
            continue
        if fragment.expansion in lib.expansions():
            continue
        lib = lib.with_fragment(fragment)
    return lib


def test_library_size_rules():
    lib = Library()
    assert library_size(lib) == 13
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "r2", "h"), lib))
    assert library_size(lib) == 17
    # Adopting a fragment grows the size by exactly its body's token length,
    # counting a chunk reference in the body as one unit.
    fragment = make_fragment("chunk2", ("chunk1", "l1", "v"), lib)
    assert library_size(lib.with_fragment(fragment)) - library_size(lib) == 4


def test_propose_single_place_yields_nothing():
    assert _scene_table((("v",),)) == ()


def test_propose_two_places_yields_one_window():
    # Each candidate carries its body's token length with the body, then the
    # scene it occurs in, its disjoint count and its starts.
    assert _scene_table((("v", "v"),)) == ((("v", "v"), (2, ("v", "v")), ((0, 1, (0,)),)),)


def test_propose_excludes_known_expansions():
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v"), lib))
    assert _round((("v", "v"),), lib).rows == ()


def test_propose_matches_brute_force_window_enumeration(towers):
    program = canonical_program(towers["A"])
    expected = set()
    for i in range(len(program)):
        for j in range(i + 1, len(program) + 1):
            window = program[i:j]
            if token_length(window) < 2:
                continue
            if not any(t in ("h", "v") for t in window):
                continue
            expected.add(window)
    assert {expansion for expansion, _, _ in _scene_table((program,))} == expected


def test_mdl_base_library_is_token_length():
    assert mdl(("v", "v"), EMPTY_LIBRARY) == 2
    assert mdl(("h", "l1", "v"), EMPTY_LIBRARY) == 4
    assert mdl((), EMPTY_LIBRARY) == 0


def test_mdl_single_fragment_substitution():
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "r1", "h", "r1", "v"), lib))
    sequence = ("v", "r1", "h", "r1", "v", "h")
    # 6-unit expansion replaced by one reference: 7 units -> 2
    assert mdl(sequence, EMPTY_LIBRARY) == 8
    assert mdl(sequence, lib) == 2


def test_mdl_rejects_chunk_refs():
    with pytest.raises(ValueError):
        mdl(("chunk1",), EMPTY_LIBRARY)


def test_mdl_matches_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(300):
        lib = random_fragment_library(rng)
        sequence = random_base_sequence(rng)
        expected = brute_force_mdl(sequence, lib.expansions())
        assert mdl(sequence, lib) == expected


def test_mdl_never_increases_with_new_fragment():
    rng = random.Random(5)
    for _ in range(200):
        lib = random_fragment_library(rng, max_fragments=2)
        sequence = random_base_sequence(rng)
        before = mdl(sequence, lib)
        body = random_base_sequence(rng, max_units=4)
        try:
            extended = lib.with_fragment(make_fragment("chunkX", body, lib))
        except ValueError:
            continue
        assert mdl(sequence, extended) <= before


def test_shortest_tokenization_base_identity():
    sequence = ("h", "r1", "v")
    assert shortest_tokenization(sequence, EMPTY_LIBRARY) == sequence


def test_shortest_tokenization_whole_sequence_fragment():
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("h", "r1", "v"), lib))
    assert shortest_tokenization(("h", "r1", "v"), lib) == ("chunk1",)


def test_shortest_tokenization_inlines_back():
    rng = random.Random(21)
    for _ in range(200):
        lib = random_fragment_library(rng)
        sequence = random_base_sequence(rng)
        witness = shortest_tokenization(sequence, lib)
        assert inline(witness, lib) == sequence
        assert token_length(witness) == mdl(sequence, lib)


def test_shortest_tokenization_deterministic_across_fragment_order():
    rng = random.Random(13)
    for _ in range(100):
        lib = random_fragment_library(rng, max_fragments=3)
        if len(lib.fragments) < 2:
            continue
        sequence = random_base_sequence(rng)
        reversed_lib = Library(tuple(reversed(lib.fragments)))
        a = shortest_tokenization(sequence, lib)
        b = shortest_tokenization(sequence, reversed_lib)
        assert [inline((t,), lib) for t in a] == [inline((t,), reversed_lib) for t in b]


def test_shortest_tokenization_tie_break_is_leftmost_longest():
    # (chunk2 v) and (h chunk1) both cost 2 units with one reference; the
    # walk takes the longest optimal advance at the leftmost position.
    chunk1 = make_fragment("chunk1", ("v", "h", "v"), Library())
    chunk2 = make_fragment("chunk2", ("h", "v", "h"), Library())
    for fragments in ((chunk1, chunk2), (chunk2, chunk1)):
        lib = Library(fragments)
        assert shortest_tokenization(("h", "v", "h", "v"), lib) == ("chunk2", "v")
        assert mdl(("h", "v", "h", "v"), lib) == 2


def test_library_score_empty_scene_list():
    w = 2.0
    assert library_score(EMPTY_LIBRARY, [], w) == -2.0 * 13


def test_library_score_unused_fragment_costs_w():
    w = 1.5
    scenes = [("h", "h")]
    base_score = library_score(EMPTY_LIBRARY, scenes, w)
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v"), lib))
    assert library_score(lib, scenes, w) == pytest.approx(base_score - 1.5 * 2)


def test_library_score_zero_w_rewards_any_compression():
    w = 0.0
    scenes = [("v", "v", "v", "v")]
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v", "v", "v"), lib))
    assert library_score(lib, scenes, w) > library_score(EMPTY_LIBRARY, scenes, w)


def test_update_library_huge_w_never_grows(towers):
    w = 1e6
    scenes = [canonical_program(compose_scene(towers[a], towers[b]))
              for a, b in [("A", "B"), ("B", "C"), ("A", "C")] * 4]
    lib = EMPTY_LIBRARY
    for t in range(1, len(scenes) + 1):
        lib = update_library_with_log(lib, scenes[:t], w)[0]
    assert lib.fragments == ()


def test_update_library_zero_w_adopts_whole_scene_on_duplicates():
    w = 0.0
    scene = ("v", "r1", "h", "r2", "v", "v")
    lib, adoptions = update_library_with_log(EMPTY_LIBRARY, [scene, scene], w)
    assert any(f.expansion == scene for f in lib.fragments)
    assert all(a.score_delta > 0 for a in adoptions)


def test_update_library_adoption_requires_strict_improvement():
    w = 1.5
    scene = ("v", "r1", "h")
    lib, adoptions = update_library_with_log(EMPTY_LIBRARY, [scene], w)
    # single occurrence of a 4-unit window saves 3 < 1.5 * 4
    assert lib.fragments == ()
    assert adoptions == []


def test_update_library_posterior_tradeoff(towers):
    w = 1.5
    scenes = []
    lib = EMPTY_LIBRARY
    for a, b in [("A", "B"), ("B", "C"), ("A", "C"), ("C", "B")]:
        scenes.append(canonical_program(compose_scene(towers[a], towers[b])))
        before = library_score(lib, scenes, w)
        lib, adoptions = update_library_with_log(lib, scenes, w)
        after = library_score(lib, scenes, w)
        if adoptions:
            assert after > before
        else:
            assert lib.fragments == () or after == before


def test_update_library_deterministic(towers):
    w = 1.5
    scenes = [canonical_program(compose_scene(towers[a], towers[b]))
              for a, b in [("A", "B"), ("B", "C"), ("A", "C")]]
    first = update_library_with_log(EMPTY_LIBRARY, scenes, w)[0]
    second = update_library_with_log(EMPTY_LIBRARY, scenes, w)[0]
    assert first == second


TOWER_SHAPES = frozenset(_shape(blocks) for blocks in stimulus_towers().values())


def test_classify_sub_tower_levels():
    assert classify_fragment(("v", "r1", "v"), TOWER_SHAPES) == SUB_TOWER
    assert classify_fragment(("v", "r1"), TOWER_SHAPES) == OTHER


def test_classify_tower_level(towers):
    for tower_id in "ABC":
        assert classify_fragment(canonical_program(towers[tower_id]), TOWER_SHAPES) == TOWER


def test_classify_tower_level_ignores_leading_move(towers):
    program = ("r3",) + canonical_program(towers["B"])
    assert classify_fragment(program, TOWER_SHAPES) == TOWER


def test_classify_scene_level(towers):
    program = canonical_program(compose_scene(towers["A"], towers["C"]))
    assert classify_fragment(program, TOWER_SHAPES) == SCENE
    # Eight placements of a scene's program are the whole scene, whatever the towers.
    assert classify_fragment(program, frozenset()) == SCENE


def test_classify_mismatched_four_blocks_is_other():
    assert classify_fragment(("v", "v", "v", "v"), TOWER_SHAPES) == OTHER


@given(buildable_stimuli,
       st.integers(0, 2 ** 32 - 1), st.sampled_from((1.5, 3.2, 9.6)))
@settings(max_examples=100, deadline=None)
def test_fragment_levels_match_the_pair_table(towers, seed, w):
    """Every adopted fragment's level is the one a table of the stimuli's shapes
    and of every side-by-side pair's gives, on random buildable towers."""
    for trial in library_trajectory(generate_trial_sequence(seed), w, towers):
        for snapshot in trial.adopted:
            expansion = trial.library.resolve(snapshot.id).expansion
            assert snapshot.level == reference_fragment_level(expansion, towers), snapshot


def test_learning_config_validation():
    for w in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            LearningConfig(w=w)
        with pytest.raises(ValueError, match="^w must be finite and nonnegative, got "):
            check_w(w)


def module_caches(*modules):
    """Every lru_cache the modules define (not the ones they import by name)."""
    return [fn for module in modules for fn in vars(module).values()
            if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__]


def learner_caches():
    """Every lru_cache in the learner's modules."""
    return module_caches(dsl, library_learning)


def test_learner_caches_are_bounded():
    names = {fn.__name__ for fn in learner_caches()}
    assert names == {"_learning_step", "_round", "_scene_table", "_scene_windows", "_mdl_cost",
                     "_base_scene"}
    for fn in learner_caches():
        assert fn.cache_parameters()["maxsize"] is not None, fn.__name__
    # Each round holds two cost columns per scene, so an evicted round costs two
    # DPs per scene again: the default grid's learning (49 sequences at each w)
    # fits in the round cache.
    for fn in learner_caches():
        fn.cache_clear()
    sequences, _ = generate_sequences(0, 49)
    for w in (1.5, 3.2, 9.6):
        for sequence in sequences:
            library_trajectory(sequence, w, stimulus_towers())
    rounds = _round.cache_info()
    assert rounds.misses == rounds.currsize < rounds.maxsize, rounds


def test_every_cache_in_the_package_is_bounded():
    modules = (blockworld, cli, dsl, library_learning, pragmatics, simulation, traces)
    names = {f"{fn.__module__}.{fn.__name__}" for fn in module_caches(*modules)}
    assert names == {f"towertalk.{name}" for name in (
        "library_learning._learning_step", "library_learning._round",
        "library_learning._scene_table", "library_learning._scene_windows",
        "library_learning._mdl_cost", "library_learning._base_scene",
        "pragmatics.candidate_programs", "pragmatics.lenient_run")}
    for fn in module_caches(*modules):
        assert fn.cache_parameters()["maxsize"] is not None, fn.__name__


def nested_fragment_library(rng, scenes):
    """random_fragment_library plus, where a scene's rewrite holds a chunk
    reference, one fragment whose body is a window of that rewrite."""
    lib = random_fragment_library(rng)
    for scene in rng.sample(scenes, len(scenes)):
        rewrite = shortest_tokenization(scene, lib)
        bodies = [rewrite[i:j] for i in range(len(rewrite)) for j in range(i + 1, len(rewrite) + 1)
                  if any(t not in scene for t in rewrite[i:j])]
        for body in rng.sample(bodies, len(bodies)):
            try:
                fragment = make_fragment(f"chunk{len(lib.fragments) + 1}", body, lib)
            except ValueError:
                continue
            if fragment.expansion not in lib.expansions():
                return lib.with_fragment(fragment)
    return lib


def test_candidate_windows_match_direct_enumeration():
    """Given each scene as its own rewrite and its rewrite under a library,
    nested ones included, the reader's cheapest window of every expansion the
    oracle lists is the oracle's, and every window it reads inlines to its key."""
    rng = random.Random(7)
    nested = 0
    for _ in range(150):
        scenes = [random_base_sequence(rng) for _ in range(rng.randint(1, 4))]
        for _ in range(3):
            lib = nested_fragment_library(rng, scenes)
            nested += any(not dsl.is_base_token(t) for f in lib.fragments for t in f.body)
            rewrites = [shortest_tokenization(s, lib) for s in scenes]
            pairs = list(zip(scenes, scenes)) + list(zip(scenes, rewrites))
            windows = _candidate_windows(pairs, lib)
            for expansion, window in reference_candidate_windows(scenes + rewrites, lib).items():
                assert windows[expansion] == window
            for expansion, (length, body) in windows.items():
                assert inline(body, lib) == expansion and token_length(body) == length
    assert nested > 50


def test_scene_table_holds_every_candidate_of_every_library():
    rng = random.Random(13)
    nested = 0
    for _ in range(150):
        scenes = tuple(sorted({random_base_sequence(rng) for _ in range(rng.randint(1, 4))}))
        table = _scene_table(scenes)
        base = reference_candidate_windows(scenes, EMPTY_LIBRARY)
        per_scene = [reference_candidate_windows([scene], EMPTY_LIBRARY) for scene in scenes]
        # One row per expansion, in no particular order.
        assert sorted(expansion for expansion, _, _ in table) == sorted(base)
        for expansion, window, present in table:
            assert window == base[expansion]
            assert present == tuple((n, greedy_count(expansion, scene),
                                     occurrences(expansion, scene))
                                    for n, scene in enumerate(scenes)
                                    if expansion in per_scene[n])
        presence = {expansion: present for expansion, _, present in table}
        for _ in range(3):
            lib = nested_fragment_library(rng, list(scenes))
            nested += any(not dsl.is_base_token(t) for f in lib.fragments for t in f.body)
            rewritten = tuple(shortest_tokenization(scene, lib) for scene in scenes)
            # Every candidate of the scenes and their rewrites is a new expansion
            # the table holds; a learning round scores exactly those, once each,
            # each at its cheapest window and with the table's presence.
            candidates = reference_candidate_windows(scenes + rewritten, lib)
            assert set(candidates) <= set(presence)
            rows = _round(scenes, lib).rows
            assert sorted(rows) == [(expansion, window, presence[expansion])
                                    for expansion, window in sorted(candidates.items())]
    assert nested > 50


def test_learning_does_not_depend_on_the_scene_tables_order(monkeypatch):
    """The default grid's 49 sequences at each w learn the same trajectories
    when every scene table lists its rows back to front: equally good
    candidates tie often there, and the learner, not the table, breaks ties."""
    sequences, _ = generate_sequences(0, 49)
    stimuli = stimulus_towers()
    caches = learner_caches()

    def learn():
        for fn in caches:
            fn.cache_clear()
        return [library_trajectory(sequence, w, stimuli)
                for w in (1.5, 3.2, 9.6) for sequence in sequences]

    forward = learn()
    table = library_learning._scene_table
    monkeypatch.setattr(library_learning, "_scene_table", lambda scenes: table(scenes)[::-1])
    try:
        assert learn() == forward
    finally:
        for fn in caches:
            fn.cache_clear()


@pytest.mark.parametrize("order", [1, -1], ids=["table-order", "reversed"])
def test_an_exact_tie_adopts_the_smaller_expansion(monkeypatch, order):
    """At w = 0, (h h h h) and (v v v v) each save exactly 3 units, each in its
    own scene, and nothing saves more: the smaller expansion is adopted first
    whichever order the round lists them in, and the other one next."""
    round_ = library_learning._round
    monkeypatch.setattr(library_learning, "_round", lambda scenes, library: (
        (r := round_(scenes, library))._replace(rows=r.rows[::order])))
    library_learning._learning_step.cache_clear()
    try:
        _, adoptions = update_library_with_log(EMPTY_LIBRARY, [("v",) * 4, ("h",) * 4], 0.0)
    finally:
        library_learning._learning_step.cache_clear()
    assert [(a.fragment.expansion, a.score_delta) for a in adoptions] == [
        (("h",) * 4, 3.0), (("v",) * 4, 3.0)]


base_tokens = st.sampled_from(["h", "v", "l1", "l2", "r1", "r2"])
base_programs = st.lists(base_tokens, min_size=1, max_size=10).map(tuple)


@st.composite
def learner_states(draw):
    library = EMPTY_LIBRARY
    for body in draw(st.lists(st.lists(base_tokens | st.sampled_from(["chunk1", "chunk2"]),
                                       min_size=2, max_size=5), max_size=3)):
        try:
            fragment = make_fragment(f"chunk{len(library.fragments) + 1}", tuple(body), library)
        except ValueError:
            continue
        if fragment.expansion not in library.expansions():
            library = library.with_fragment(fragment)
    pool = draw(st.lists(base_programs, min_size=1, max_size=3))
    observed = draw(st.lists(st.sampled_from(pool), max_size=6))
    w = draw(st.sampled_from([0.0, 0.5, 1.5, 3.2]))
    return library, observed, draw(st.permutations(observed)), w


# Two tokens of one unit each, so that expansions overlap and tie often.
tie_tokens = st.sampled_from(["h", "v"])


@st.composite
def libraries_and_scenes(draw):
    library = EMPTY_LIBRARY
    for body in draw(st.lists(st.lists(tie_tokens | st.sampled_from(["chunk1", "chunk2"]),
                                       min_size=2, max_size=5), max_size=4)):
        try:
            fragment = make_fragment(f"chunk{len(library.fragments) + 1}", tuple(body), library)
        except ValueError:
            continue
        if fragment.expansion not in library.expansions():
            library = library.with_fragment(fragment)
    return library, tuple(draw(st.lists(tie_tokens, max_size=14)))


# (chunk2 v) and (h chunk1) tie on cost and chunk count; the longest first step wins.
_TIE = (make_fragment("chunk1", ("v", "h", "v"), EMPTY_LIBRARY),
        make_fragment("chunk2", ("h", "v", "h"), EMPTY_LIBRARY))
_MOVE_TIE = (make_fragment("chunk1", ("r1", "v"), EMPTY_LIBRARY),
             make_fragment("chunk2", ("h", "r1"), EMPTY_LIBRARY))


@given(libraries_and_scenes())
@example((Library(_TIE), ("h", "v", "h", "v")))
@example((Library(_TIE[::-1]), ("h", "v", "h", "v", "h", "v")))
@example((Library(_MOVE_TIE), ("h", "r1", "v", "h", "r1", "v")))
@settings(max_examples=300, deadline=None)
def test_shortest_tokenization_walks_the_table_like_the_reference(case):
    library, scene = case
    assert shortest_tokenization(scene, library) == reference_shortest_tokenization(scene, library)


@given(learner_states())
@settings(max_examples=150, deadline=None)
def test_update_library_same_with_caches_cold_warm_and_permuted(state):
    library, observed, permuted, w = state
    for fn in learner_caches():
        fn.cache_clear()
    cold = update_library_with_log(library, observed, w)
    assert update_library_with_log(library, observed, w) == cold
    assert update_library_with_log(library, permuted, w) == cold
    for fn in learner_caches():
        fn.cache_clear()
    assert update_library_with_log(library, permuted, w) == cold


def test_update_library_returns_a_fresh_adoption_list():
    w = 0.0
    scene = ("v", "r1", "h", "r2", "v", "v")
    library, adoptions = update_library_with_log(EMPTY_LIBRARY, [scene, scene], w)
    assert adoptions
    expected = list(adoptions)
    adoptions.clear()
    assert update_library_with_log(EMPTY_LIBRARY, [scene, scene], w) == (library, expected)


@given(learner_states())
@settings(max_examples=150, deadline=None)
def test_update_library_matches_dense_scoring(state):
    library, observed, _, w = state
    assert update_library_with_log(library, observed, w) == \
        dense_update_library(library, observed, w)


def test_single_use_split_matches_the_dp_and_brute_force():
    """A round's prefix and suffix columns are the MDL of each prefix and suffix,
    and where a candidate fits a scene once, min(MDL, prefix[p] + 1 + suffix[p + k])
    over every start p is the scene's MDL with the candidate added."""
    rng = random.Random(17)
    cases = [(EMPTY_LIBRARY, ("v", "v", "v")),  # (v v) overlaps itself at 0 and 1
             (EMPTY_LIBRARY, ("h", "v", "h", "v", "h")),  # (h v h) at 0 and 2
             (Library((make_fragment("chunk1", ("v", "v"), EMPTY_LIBRARY),)), ("v", "v", "v"))]
    cases += [(random_fragment_library(rng),
               random_base_sequence(rng, max_units=rng.randint(2, 16))) for _ in range(200)]
    single = overlapping = repeated = 0
    for lib, scene in cases:
        expansions = tuple(sorted(lib.expansions()))
        (prefix, suffix), = _round((scene,), lib).columns
        assert len(prefix) == len(suffix) == len(scene) + 1
        for p in range(len(scene) + 1):
            assert prefix[p] == brute_force_mdl(scene[:p], expansions)
            assert suffix[p] == brute_force_mdl(scene[p:], expansions)
        for expansion, (_, count, starts) in _scene_windows(scene).items():
            if expansion in expansions:
                continue
            trial_key = tuple(sorted(expansions + (expansion,)))
            exact = _mdl_cost(scene, trial_key)
            assert exact == brute_force_mdl(scene, trial_key)
            if count > 1:
                repeated += 1
                continue
            single += 1
            overlapping += len(starts) > 1
            split = min([suffix[0]] + [prefix[p] + 1 + suffix[p + len(expansion)] for p in starts])
            assert split == exact, (lib, scene, expansion)
    assert single > 1000 and overlapping > 20 and repeated > 100


def test_learning_step_scores_each_candidate_exactly(monkeypatch):
    """_learning_step's saving for a candidate is the brute-force MDL saving over
    the scenes, and it calls _mdl_cost for exactly the scenes that hold two or
    more disjoint occurrences, with the round's expansions and the candidate.
    Each candidate is scored alone, by a round that offers only its row."""
    rng = random.Random(19)
    w = 0.0  # every candidate passes the bound; delta is the saving
    calls = []
    cost, real_round = library_learning._mdl_cost, library_learning._round
    monkeypatch.setattr(library_learning, "_mdl_cost",
                        lambda sequence, key: calls.append((sequence, key)) or cost(sequence, key))

    def scored_alone(lib, scene_counts, round_, row):
        monkeypatch.setattr(library_learning, "_round", lambda _, library: round_._replace(
            rows=(row,) if library == lib else ()))
        library_learning._learning_step.cache_clear()
        calls.clear()
        return library_learning._learning_step(lib, scene_counts, w)[1]

    # (v v) fits (r1 v v v) once, at 1 and at 2; only the later start uses chunk1.
    cases = [(Library((make_fragment("chunk1", ("r1", "v"), EMPTY_LIBRARY),)),
              (("r1", "v", "v", "v"),))]
    for _ in range(100):
        cases.append((random_fragment_library(rng),
                      tuple(sorted({random_base_sequence(rng, max_units=rng.randint(4, 16))
                                    for _ in range(rng.randint(1, 3))}))))
    later_start = fallbacks = 0
    try:
        for lib, scenes in cases:
            scene_counts = tuple((scene, rng.randint(1, 3)) for scene in scenes)
            expansions = tuple(sorted(lib.expansions()))
            round_ = real_round(scenes, lib)
            for row in round_.rows:
                expansion, (_, body), present = row
                trial_key = tuple(sorted(expansions + (expansion,)))
                saving = sum(count * (brute_force_mdl(scene, expansions)
                                      - brute_force_mdl(scene, trial_key))
                             for scene, count in scene_counts)
                fragment = Fragment(f"chunk{len(lib.fragments) + 1}", body, expansion)
                assert scored_alone(lib, scene_counts, round_, row) == \
                    ((Adoption(fragment, saving),) if saving > 0 else ())
                assert calls == [(scenes[n], trial_key) for n, count, _ in present if count > 1]
                fallbacks += len(calls)
                for n, count, starts in present:
                    if count == 1 and len(starts) > 1:
                        prefix, suffix = round_.columns[n]
                        splits = [prefix[p] + 1 + suffix[p + len(expansion)] for p in starts]
                        later_start += min(splits[1:]) < min(splits[0], round_.costs[n])
    finally:  # its entries were scored by the one-row rounds
        library_learning._learning_step.cache_clear()
    assert later_start > 0 and fallbacks > 100


def occurrences(pattern, sequence):
    """Every start of pattern in sequence, overlapping ones included."""
    return tuple(i for i in range(len(sequence) - len(pattern) + 1)
                 if sequence[i:i + len(pattern)] == pattern)


def test_disjoint_counts_match_greedy_counting():
    rng = random.Random(11)
    scenes = [("v", "v", "v", "v"), ("h", "r1", "h", "r1", "h"), ("v",)]
    scenes += [random_base_sequence(rng, max_units=rng.randint(1, 16)) for _ in range(60)]
    for scene in scenes:
        table = _scene_windows(scene)
        patterns = {scene[i:j] for i in range(len(scene)) for j in range(i + 1, len(scene) + 1)}
        # Every window that can become a fragment, and no other, with its length and count.
        assert set(table) == {p for p in patterns
                              if token_length(p) >= 2 and count_placements(p) > 0}
        for pattern, (length, count, starts) in table.items():
            assert length == token_length(pattern)
            assert count == greedy_count(pattern, scene) > 0, (scene, pattern)
            assert starts == occurrences(pattern, scene)
    # Overlapping occurrences count once per disjoint, left-first match, and
    # every one of them is a start.
    assert _scene_windows(("v", "v", "v"))[("v", "v")] == (2, 1, (0, 1))
    for absent in [("v",), ("h", "v"), ("v", "v", "v", "v", "v"), ("r1", "v")]:
        assert absent not in _scene_windows(("v", "v", "v", "v"))
