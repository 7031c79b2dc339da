import concurrent.futures
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towertalk import library_learning, simulation
from towertalk.blockworld import BlockPlacement, compose_scene, stimulus_towers
from towertalk.dsl import (canonical_program, count_placements, execute, is_base_token, is_place,
                          token_length)
from towertalk.library_learning import (
    REPETITION_BLOCKS,
    STEP_LEVELS,
    FragmentSnapshot,
    TrialSequence,
    TrialSpec,
    library_trajectory,
    snapshot_level_proportions,
    step_levels,
)
from towertalk.pragmatics import PragmaticsConfig
from towertalk.simulation import (
    TOWER_PAIRS,
    TRIALS_PER_SEQUENCE,
    DyadSummary,
    DyadTrace,
    LearningConfig,
    TrialRecord,
    abstraction_proportions,
    accuracy_and_efficiency,
    fragment_trajectory,
    generate_trial_sequence,
    jsd,
    mean_pairwise_jsd,
    run_dyad,
    run_experiment,
    summarize,
    trace_to_dict,
)
from towertalk.traces import sequence_from_dict, sequence_to_dict, trace_json

import oracles
from oracles import first_adoption_trial

TOWERS = stimulus_towers()


def assert_valid_sequence(sequence):
    assert len(sequence.trials) == TRIALS_PER_SEQUENCE
    for block in range(1, REPETITION_BLOCKS + 1):
        pairs = [frozenset((t.left, t.right)) for t in sequence.trials
                 if t.repetition_block == block]
        assert len(pairs) == 3
        assert set(pairs) == {frozenset(p) for p in TOWER_PAIRS}
    lefts = Counter(t.left for t in sequence.trials)
    rights = Counter(t.right for t in sequence.trials)
    for tower in "ABC":
        assert lefts[tower] == 4
        assert rights[tower] == 4
    for trial in sequence.trials:
        assert trial.left != trial.right


def test_sequence_satisfies_design():
    assert_valid_sequence(generate_trial_sequence(0))


def test_sequence_deterministic_and_seed_sensitive():
    assert generate_trial_sequence(5) == generate_trial_sequence(5)
    distinct = {generate_trial_sequence(seed).trials for seed in range(20)}
    assert len(distinct) > 10


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=300, deadline=None)
def test_sequence_invariants_property(seed):
    assert_valid_sequence(generate_trial_sequence(seed))


def test_sequence_dict_round_trip():
    sequence = generate_trial_sequence(11)
    assert sequence_from_dict(sequence_to_dict(sequence)) == sequence


def _run(seq_seed=3, dyad_seed=70, w=1.5, beta=0.3):
    sequence, lcfg = generate_trial_sequence(seq_seed), LearningConfig(w=w)
    return run_dyad(sequence, w, PragmaticsConfig(alpha=5.0, beta=beta), lcfg,
                    random.Random(dyad_seed), library_trajectory(sequence, lcfg.w, TOWERS))


def test_run_dyad_huge_w_is_all_base_and_perfect():
    trace = _run(w=1e6, beta=0.8)
    levels = step_levels(trace.final_library)
    for record in trace.records:
        assert record.f1 == 1.0
        assert all(levels[token] in ("block", "move") for token in record.program)
        assert len(record.builder_placements) == 8
    assert trace.final_library == ()


def test_run_dyad_conservation_with_correct_communication():
    trace = _run(w=1e6, beta=0.0)
    for record in trace.records:
        assert sum(1 for t in record.program if is_place(t)) == 8
        assert len(record.builder_placements) == 8
        assert record.tokens_sent == token_length(record.program)


def test_run_dyad_deterministic():
    first = _run()
    second = _run()
    assert trace_to_dict(first) == trace_to_dict(second)


def test_run_dyad_distinct_seeds_differ():
    assert trace_to_dict(_run(dyad_seed=1)) != trace_to_dict(_run(dyad_seed=2))


def test_run_experiment_shape_and_determinism():
    configs = [(PragmaticsConfig(alpha=5.0, beta=0.3),
                LearningConfig(w=1.5))]
    first = run_experiment(configs, TOWERS, n_sequences=2, iterations=2, master_seed=9)
    second = run_experiment(configs, TOWERS, n_sequences=2, iterations=2, master_seed=9)
    assert len(first) == 4
    assert [trace_to_dict(t) for t in first] == [trace_to_dict(t) for t in second]


def test_run_experiment_parallel_matches_serial():
    configs = [(PragmaticsConfig(alpha=5.0, beta=0.8),
                LearningConfig(w=1.5))]
    serial = run_experiment(configs, TOWERS, n_sequences=2, iterations=1,
                            master_seed=4, jobs=1)
    parallel = run_experiment(configs, TOWERS, n_sequences=2, iterations=1,
                              master_seed=4, jobs=4)
    assert [trace_to_dict(t) for t in serial] == [trace_to_dict(t) for t in parallel]


def _record_pool(monkeypatch):
    """Swap ProcessPoolExecutor for an in-process stand-in; return what it sees.

    `sizes` gets each pool's max_workers and `mapped` each (task, result) pair.
    """
    sizes, mapped = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            for task in iterable:
                mapped.append((task, fn(task)))
                yield mapped[-1][1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes, mapped


def test_run_experiment_pool_never_exceeds_task_count(monkeypatch):
    """The unit of work is a (sequence, lcfg) group: the pool never outnumbers them."""
    sizes, _ = _record_pool(monkeypatch)
    lcfg = LearningConfig(w=1e6)
    one_w = [(PragmaticsConfig(alpha=5.0, beta=beta), lcfg) for beta in (0.0, 0.8)]
    # One sequence and one lcfg make one group, however many dyads it holds:
    # it runs serially and starts no pool at all; so does an empty grid.
    assert len(run_experiment(one_w, TOWERS, n_sequences=1, iterations=2, jobs=8)) == 4
    assert run_experiment(one_w, TOWERS, n_sequences=0, iterations=2, jobs=8) == []
    assert sizes == []
    # Two sequences are two groups, so --jobs 8 forks two workers.
    two = run_experiment(one_w, TOWERS, n_sequences=2, iterations=2, jobs=8)
    assert sizes == [2]
    assert two == run_experiment(one_w, TOWERS, n_sequences=2, iterations=2, jobs=1)


SHARED_GRID = [(PragmaticsConfig(alpha=5.0, beta=beta), LearningConfig(w=w))
               for w in (1.5, 9.6) for beta in (0.0, 0.8)]


def test_run_experiment_learns_each_group_once(monkeypatch):
    calls = []
    learn = library_learning.update_library_with_log

    def counting(*args):
        calls.append(1)
        return learn(*args)

    monkeypatch.setattr(library_learning, "update_library_with_log", counting)
    traces = run_experiment(SHARED_GRID, TOWERS, n_sequences=2, iterations=2, master_seed=3)
    # 2 sequences x 2 w, 12 trials each; not again for each beta x iteration (192).
    assert len(calls) == 2 * 2 * TRIALS_PER_SEQUENCE

    # The dyads, run one by one in seed order (config, sequence, iteration), each
    # learning afresh, give the same traces in the same order.
    sequences, seeds = simulation.generate_sequences(3, 2)
    expected = []
    for cfg, lcfg in SHARED_GRID:
        for sequence in sequences:
            for iteration in range(2):
                seed = next(seeds)
                learned = library_trajectory(sequence, lcfg.w, TOWERS)
                expected.append(run_dyad(sequence, lcfg.w, cfg, lcfg, random.Random(seed),
                                         learned, iteration=iteration, dyad_seed=seed))
    assert traces == expected


def test_run_experiment_maps_whole_groups(monkeypatch):
    sizes, mapped = _record_pool(monkeypatch)
    traces = run_experiment(SHARED_GRID, TOWERS, n_sequences=2, iterations=1,
                            master_seed=3, jobs=8)
    assert sizes == [4]
    # Each task is one (sequence, lcfg) and holds all of its dyads: 2 beta x 1 iteration.
    keys = [(task[0], task[1]) for task, _ in mapped]
    assert len(set(keys)) == len(keys) == 4
    for (sequence, lcfg, _, dyads), results in mapped:
        assert len(dyads) == len(results) == 2
        assert all(t.sequence == sequence and t.learning == lcfg for t in results)
    assert len(traces) == sum(len(results) for _, results in mapped) == 8


def test_library_trajectory_runs_only_four_block_fragments(monkeypatch):
    """A fragment's level takes a run of its expansion only when it places 4
    blocks: 8 placements are a scene, and 2-3 a sub-tower, without one."""
    sequences, _ = simulation.generate_sequences(0, 2)
    # A first pass derives each tower pair's canonical program, which runs it.
    expansions = [trial.library.resolve(snapshot.id).expansion
                  for sequence in sequences
                  for trial in library_trajectory(sequence, 1.5, TOWERS)
                  for snapshot in trial.adopted]
    runs = []

    def counting(program, *grid):
        runs.append(program)
        return execute(program, *grid)

    monkeypatch.setattr(library_learning.dsl, "execute", counting)
    levels = [snapshot.level
              for sequence in sequences
              for trial in library_trajectory(sequence, 1.5, TOWERS)
              for snapshot in trial.adopted]
    assert runs == [expansion for expansion in expansions if count_placements(expansion) == 4]
    assert levels.count("scene") > 0


def test_library_trajectory_follows_towers_and_config():
    """Other towers give another trajectory, and each config learns at its own w."""
    sequence = generate_trial_sequence(8)
    lcfg = LearningConfig(w=1.5)
    ids = list(TOWERS)
    rotated = {tower_id: TOWERS[other] for tower_id, other in zip(ids, ids[1:] + ids[:1])}
    default = library_trajectory(sequence, lcfg.w, TOWERS)
    custom = library_trajectory(sequence, lcfg.w, rotated)
    assert isinstance(default, tuple) and isinstance(custom, tuple)
    assert [trial.target for trial in custom] == [
        compose_scene(rotated[s.left], rotated[s.right]) for s in sequence.trials]
    assert custom != default
    # w 1e6, learned after w 1.5, adopts nothing; w 1.5 again gives the first trajectory.
    assert all(trial.adopted == () for trial in
               library_trajectory(sequence, 1e6, TOWERS))
    assert library_trajectory(sequence, lcfg.w, TOWERS) == default

    # A dyad on the custom towers adopts the custom trajectory's fragments.
    dyad = run_dyad(sequence, 1.5, PragmaticsConfig(alpha=5.0, beta=0.8), lcfg,
                    random.Random(5), custom)
    assert [(s.id, s.body, s.adopted_trial) for s in dyad.final_library] == [
        (s.id, s.body, s.adopted_trial) for trial in custom for s in trial.adopted]


def test_fragment_trajectory_zero_before_learning():
    trace = _run()
    rows = snapshot_level_proportions(trace.final_library, TRIALS_PER_SEQUENCE)
    assert rows[0] == {"trial": 0.0, "sub_tower": 0.0, "tower": 0.0,
                       "scene": 0.0, "other": 0.0}
    table = fragment_trajectory([summarize(trace)])
    assert table[0]["sub_tower"] == 0.0
    assert all(0.0 <= row[level] <= 1.0
               for row in table for level in ("sub_tower", "tower", "scene", "other"))


def test_first_adoption_trial_helper():
    trace = _run(w=1.5)
    sub = first_adoption_trial(trace.final_library, "sub_tower")
    tower = first_adoption_trial(trace.final_library, "tower")
    assert sub is not None and tower is not None
    assert sub <= tower
    assert first_adoption_trial((), "tower") is None


def test_abstraction_proportions_rows_sum_to_one():
    rows = abstraction_proportions([summarize(_run(seq_seed=s, dyad_seed=100 + s))
                                    for s in range(3)])
    assert len(rows) == 4
    for row in rows:
        total = sum(row[level] for level in
                    ("block", "sub_tower", "tower", "scene", "other"))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_abstraction_all_block_level_in_first_block():
    rows = abstraction_proportions([summarize(_run(w=1e6))])
    assert rows[0]["block"] == pytest.approx(1.0)


def test_accuracy_and_efficiency_single_trace_matches_raw():
    trace = _run(w=1e6)
    rows = accuracy_and_efficiency([summarize(trace)])
    for row in rows:
        block = int(row["repetition_block"])
        records = [r for spec, r in zip(trace.sequence.trials, trace.records)
                   if spec.repetition_block == block]
        assert row["mean_f1"] == pytest.approx(
            sum(r.f1 for r in records) / len(records))
        assert row["mean_tokens_sent"] == pytest.approx(
            sum(r.tokens_sent for r in records) / len(records))
        assert row["n_dyads"] == 1.0


def test_tokens_decrease_across_blocks_at_moderate_beta():
    rows = accuracy_and_efficiency([summarize(_run(seq_seed=s, dyad_seed=50 + s, w=1.5, beta=0.3))
                                    for s in range(6)])
    tokens = [row["mean_tokens_sent"] for row in rows]
    assert tokens[0] > tokens[-1]


def test_jsd_identical_distributions():
    p = {"a": 2.0, "b": 2.0}
    assert jsd(p, p) == pytest.approx(0.0, abs=1e-12)


def test_jsd_disjoint_supports():
    assert jsd({"a": 1.0}, {"b": 3.0}) == pytest.approx(1.0, abs=1e-12)


def test_jsd_symmetry_on_random_distributions():
    rng = random.Random(0)
    vocabulary = list("abcdefg")
    for _ in range(200):
        p = {w: rng.random() for w in rng.sample(vocabulary, rng.randint(1, 7))}
        q = {w: rng.random() for w in rng.sample(vocabulary, rng.randint(1, 7))}
        assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-12)
        assert 0.0 <= jsd(p, q) <= 1.0 + 1e-12


def test_jsd_rejects_zero_mass():
    with pytest.raises(ValueError):
        jsd({}, {"a": 1.0})


def test_mean_pairwise_jsd_does_not_depend_on_string_hashing():
    """The same traces, and the same two distributions, give the same float under
    every PYTHONHASHSEED."""
    script = textwrap.dedent("""\
        from towertalk.blockworld import stimulus_towers
        from towertalk.pragmatics import PragmaticsConfig
        from towertalk.simulation import (LearningConfig, jsd, mean_pairwise_jsd,
                                          run_experiment, summarize)
        configs = [(PragmaticsConfig(alpha=5.0, beta=b), LearningConfig(w=1.5))
                   for b in (0.3, 0.8)]
        traces = run_experiment(configs, stimulus_towers(), n_sequences=4, iterations=2,
                                master_seed=0)
        print(repr(mean_pairwise_jsd([summarize(t) for t in traces], 3)))
        p = {f"w{i}": 1.0 + i % 7 for i in range(40)}
        q = {f"w{i}": 1.0 + i % 5 for i in range(20, 60)}
        print(repr(jsd(p, q)))
        """)
    src = os.path.dirname(os.path.dirname(simulation.__file__))
    values = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        values.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True).stdout)
    assert len(values) == 1, values


def test_mean_pairwise_jsd_matches_every_pair_summed_exactly():
    """Scoring each distinct distribution once gives the mean over every dyad pair."""
    traces = run_experiment(SHARED_GRID, TOWERS, n_sequences=3, iterations=2, master_seed=0)
    summaries = [summarize(t) for t in traces]
    repeated = 0
    for block in range(1, REPETITION_BLOCKS + 1):
        distributions = [d for d in (oracles.word_distribution(t, block) for t in traces) if d]
        pairs = [jsd(p, q) for p, q in combinations(distributions, 2)]
        assert mean_pairwise_jsd(summaries, block) == pytest.approx(
            math.fsum(pairs) / len(pairs), rel=0, abs=1e-12)
        repeated += len(distributions) - len({tuple(sorted(d.items())) for d in distributions})
    assert repeated > 0  # dyads that share a distribution are grouped


def test_jsd_csvs_do_not_depend_on_string_hashing(tmp_path):
    src = os.path.dirname(os.path.dirname(simulation.__file__))
    written = []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "towertalk", "simulate", "--w", "1.5",
                        "--beta", "0.3", "0.8", "--n-sequences", "4", "--iterations", "2",
                        "--master-seed", "0", "--out-dir", str(out_dir)],
                       env=env, check=True, capture_output=True)
        written.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("jsd_*.csv"))})
    assert len(written[0]) == 2
    assert written[0] == written[1]


def test_word_distribution_and_pairwise_jsd():
    summaries = [summarize(_run(seq_seed=s, dyad_seed=7 + s)) for s in range(2)]
    words = summaries[0].word_counts[0]
    assert words and list(words) == sorted(words)
    assert all(count > 0 for _, count in words)
    value = mean_pairwise_jsd(summaries, 1)
    assert 0.0 <= value <= 1.0


def _tables(module, dyads):
    """The four tables of a cell, as `module` builds them from its dyads."""
    return (module.fragment_trajectory(dyads), module.abstraction_proportions(dyads),
            module.accuracy_and_efficiency(dyads),
            [module.mean_pairwise_jsd(dyads, block) for block in range(1, REPETITION_BLOCKS + 1)])


def test_summaries_give_the_tables_of_the_whole_traces():
    """Every table built from summaries equals, float for float, the one built by
    walking the whole traces, on each cell of small grids at ten seeds."""
    for seed in range(10):
        traces = run_experiment(SHARED_GRID, TOWERS, n_sequences=3, iterations=2,
                                master_seed=seed)
        for cell in SHARED_GRID:
            subset = [t for t in traces if (t.pragmatics, t.learning) == cell]
            summaries = [summarize(t) for t in subset]
            assert all(s.final_library is t.final_library for s, t in zip(summaries, subset))
            assert _tables(simulation, summaries) == _tables(oracles, subset)
            assert simulation.cell_tables(summaries) == oracles.cell_csvs(subset)


def test_summaries_of_hand_built_traces():
    """No dyad, a block without a trial, and a trial that sends moves only."""
    assert _tables(simulation, []) == _tables(oracles, []) == (
        [], *[[{"repetition_block": float(block), **values}
               for block in range(1, REPETITION_BLOCKS + 1)]
              for values in ({level: 0.0 for level in STEP_LEVELS},
                             {"mean_f1": 0.0, "mean_tokens_sent": 0.0, "n_dyads": 0.0})],
        [0.0] * REPETITION_BLOCKS)

    # A cell with no dyad: a header alone for the per-trial table, zeros in each block's row.
    def zero_rows(n):
        return "".join(f"{block}.000000" + ",0.000000" * n + "\n"
                       for block in range(1, REPETITION_BLOCKS + 1))
    assert simulation.cell_tables([]) == oracles.cell_csvs([]) == {
        "fragment_trajectory": "trial,sub_tower,tower,scene,other\n",
        "abstraction_proportions": ("repetition_block,block,sub_tower,tower,scene,other\n"
                                    + zero_rows(5)),
        "accuracy_efficiency": "repetition_block,mean_f1,mean_tokens_sent,n_dyads\n" + zero_rows(3),
        "jsd": "repetition_block,mean_pairwise_jsd\n" + zero_rows(1)}
    snapshot = FragmentSnapshot(id="c0", body="h r2 h", expansion="h r2 h", level="sub_tower",
                                adopted_trial=1, score_delta=1.5)

    def record(program, utterance, f1):
        return TrialRecord(program=program, utterance=utterance, builder_placements=(),
                           step_placements=(0,) * len(program), f1=f1,
                           tokens_sent=token_length(program), belief_entropy=0.0, anomalies=0)

    def trace(specs, records):
        return DyadTrace(PragmaticsConfig(alpha=5.0, beta=0.3), LearningConfig(w=1.5),
                         TrialSequence(specs, seed=0), 0, 0, records, (snapshot,))

    # Blocks 1 and 3 only; block 3's trial sends moves only, so it has no place-bearing step.
    gaps = trace((TrialSpec(1, "A", "B"), TrialSpec(1, "B", "C"), TrialSpec(3, "C", "A")),
                 (record(("h", "c0", "v"), ("h", "w0", "v"), 0.5),
                  record(("c0",), ("w1",), 1 / 3),
                  record(("l2", "r3"), ("l2", "r3"), 0.0)))
    full = trace(tuple(TrialSpec(block, "A", "B") for block in range(1, REPETITION_BLOCKS + 1)),
                 tuple(record(("c0", "l1", "v"), ("w0", "l1", "v"), 0.1 * block)
                       for block in range(1, REPETITION_BLOCKS + 1)))
    summary = summarize(gaps)
    assert summary == DyadSummary(
        (snapshot,),
        ((2, 2, 0, 0, 0), (0,) * 5, (0,) * 5, (0,) * 5),
        (((0.5 + 1 / 3) / 2, 2.0), None, (0.0, 4.0), None),
        ((("h", 1), ("v", 1), ("w0", 1), ("w1", 1)), (), (("l2", 1), ("r3", 1)), ()))
    for dyads in ([gaps], [full], [gaps, full], [full, gaps, full]):
        summaries = [summarize(t) for t in dyads]
        assert _tables(simulation, summaries) == _tables(oracles, dyads)
        assert simulation.cell_tables(summaries) == oracles.cell_csvs(dyads)
    rows = accuracy_and_efficiency([summary, summarize(full)])
    assert [row["n_dyads"] for row in rows] == [2.0, 1.0, 2.0, 1.0]
    assert abstraction_proportions([summary])[2]["block"] == 0.0


def test_library_trajectory_matches_dyad_learning():
    """Library growth depends only on the observed scenes, not on communication."""
    sequence = generate_trial_sequence(8)
    lcfg = LearningConfig(w=1.5)
    learned = library_trajectory(sequence, lcfg.w, TOWERS)
    # Each trial carries its target's base program, which the Architect encodes.
    for trial in learned:
        assert trial.program == canonical_program(trial.target)
    snapshots = [s for trial in learned for s in trial.adopted]
    trace = run_dyad(sequence, 1.5, PragmaticsConfig(alpha=5.0, beta=0.8),
                     lcfg, random.Random(0), learned)
    assert [(s.id, s.body, s.adopted_trial) for s in snapshots] == \
        [(s.id, s.body, s.adopted_trial) for s in trace.final_library]


def test_belief_entropy_non_increasing_between_extensions():
    trace = _run(w=3.2, beta=0.8)
    # entropy may jump when hypotheses are extended (new fragments) or on an
    # anomaly reset; between those events it must not increase
    previous = 0.0
    for number, record in enumerate(trace.records, start=1):
        grew = any(s.adopted_trial == number for s in trace.final_library)
        if not grew and record.anomalies == 0:
            assert record.belief_entropy <= previous + 1e-9
        previous = record.belief_entropy


def _oracle_text(trace):
    """The oracle's encoding of a trace, at the depth traces.json holds it."""
    text = json.dumps(oracles.trace_to_dict(trace), indent=2, sort_keys=True)
    return text.replace("\n", "\n    ")


def test_trace_json_writes_int_configs_as_ints():
    """Configs built in code may hold ints; json writes 2, not 2.0, and so must the encoder."""
    sequence, lcfg = generate_trial_sequence(3), LearningConfig(w=2)
    trace = run_dyad(sequence, 2, PragmaticsConfig(alpha=5, beta=0), lcfg, random.Random(70),
                     library_trajectory(sequence, lcfg.w, TOWERS))
    text = trace_json(trace, {})
    assert text == _oracle_text(trace)
    assert '"alpha": 5,' in text and '"beta": 0,' in text and '"w": 2\n' in text
    assert trace.final_library  # an adopted fragment's score_delta is an int too
    assert trace_to_dict(trace) == oracles.trace_to_dict(trace)


def test_trace_json_writes_empty_lists_and_escapes_strings():
    odd = 'q"b\\s\x07\u00e9\u2603'
    sequence = TrialSequence((TrialSpec(1, odd, "B"), TrialSpec(2, "B", odd)), seed=7)
    # The odd token is a chunk whose snapshot, adopted at trial 2, carries the odd level.
    snapshot = FragmentSnapshot(id=odd, body=odd, expansion="v v", level=odd,
                                adopted_trial=2, score_delta=-1.25)
    empty = TrialRecord(program=(), utterance=(), builder_placements=(), step_placements=(),
                        f1=0.0, tokens_sent=0, belief_entropy=0.0, anomalies=0)
    full = TrialRecord(program=("v", odd), utterance=(odd, "v"),
                       builder_placements=(BlockPlacement(0, 0, odd),), step_placements=(0, 1),
                       f1=1 / 3, tokens_sent=2, belief_entropy=math.log2(3), anomalies=1)
    trace = DyadTrace(PragmaticsConfig(alpha=5.0, beta=0.3), LearningConfig(w=1.5),
                      sequence, iteration=0, dyad_seed=11, records=(empty, full),
                      final_library=(snapshot,))
    text = trace_json(trace, {})
    assert text == _oracle_text(trace)
    for written in ('"library": []', '"builder_placements": []', '"steps": []',
                    '"utterance": []', '\\"', "\\\\", "\\u0007", "\\u00e9", "\\u2603"):
        assert written in text
    assert text.isascii()
    no_trials = DyadTrace(trace.pragmatics, trace.learning, TrialSequence((), seed=7), 0, 11,
                          (), ())
    assert trace_json(no_trials, {}) == _oracle_text(no_trials)
    # The sequence's trials and the trace's trials are both empty.
    assert trace_json(no_trials, {}).count('"trials": []') == 2


def test_every_chunk_a_trial_sends_was_adopted_before_it():
    """A record's levels and library are derived from final_library, and its
    steps from its program, utterance and step_placements: every chunk a
    trial sends has a snapshot adopted at an earlier trial, and the three line
    up word for word. Over 2 sequences x the 9 grid cells x 2 iterations."""
    configs = [(PragmaticsConfig(alpha=5.0, beta=beta), LearningConfig(w=w))
               for w in (1.5, 3.2, 9.6) for beta in (0.0, 0.3, 0.8)]
    traces = run_experiment(configs, TOWERS, n_sequences=2, iterations=2, master_seed=0)
    assert len(traces) == 2 * 9 * 2
    chunks = 0
    for trace in traces:
        assert len(trace.records) == len(trace.sequence.trials) == TRIALS_PER_SEQUENCE
        adopted = {s.id: s.adopted_trial for s in trace.final_library}
        assert len(adopted) == len(trace.final_library)
        for number, record in enumerate(trace.records, start=1):
            assert len(record.step_placements) == len(record.utterance) == len(record.program)
            assert sum(record.step_placements) == len(record.builder_placements)
            for token in record.program:
                if not is_base_token(token):
                    assert adopted[token] < number, (token, number)
                    chunks += 1
    assert chunks > 0
