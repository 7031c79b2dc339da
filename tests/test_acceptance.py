"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them)."""

import os
import random
import statistics
import time
from collections import Counter
from functools import lru_cache

from towertalk.blockworld import (
    GRID_WIDTH,
    BlockPlacement,
    VERTICAL,
    compose_scene,
    f1_score,
    stimulus_towers,
)
from towertalk.cli import main as cli_main
from towertalk.dsl import (
    Library,
    execute,
    inline,
)
from towertalk.library_learning import REPETITION_BLOCKS, library_trajectory
from towertalk.pragmatics import (
    PragmaticsConfig,
    belief_entropy,
    builder_interpret,
    extend_hypotheses,
    initial_belief,
    lenient_run,
    update_belief,
)
from towertalk.simulation import (
    TOWER_PAIRS,
    LearningConfig,
    abstraction_proportions,
    generate_sequences,
    generate_trial_sequence,
    jsd,
    run_experiment,
    summarize,
)

from oracles import (execute_nested, first_adoption_trial, make_fragment, mdl,
                     point_mass_lexicon)

NO_ADOPTION_SENTINEL = 13  # one past the final trial


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1 -------------------------------------------------------------

def brute_force_mdl(sequence, expansions):
    @lru_cache(maxsize=None)
    def best(i):
        if i == len(sequence):
            return 0
        cost = 2 if sequence[i][0] in "lr" else 1
        options = [cost + best(i + 1)]
        for expansion in expansions:
            j = i + len(expansion)
            if j <= len(sequence) and sequence[i:j] == expansion:
                options.append(1 + best(j))
        return min(options)

    return best(0)


def random_base_sequence(rng, max_units):
    tokens, units = [], 0
    while True:
        if rng.random() < 0.6:
            token, cost = rng.choice(["h", "v"]), 1
        else:
            token, cost = f"{rng.choice('lr')}{rng.randint(1, 3)}", 2
        if units + cost > max_units:
            return tuple(tokens)
        tokens.append(token)
        units += cost


def test_criterion_1_mdl_oracle_equivalence():
    rng = random.Random(20260808)
    started = time.monotonic()
    for _ in range(500):
        lib = Library()
        for i in range(rng.randint(0, 3)):
            body = random_base_sequence(rng, rng.randint(2, 6))
            try:
                fragment = make_fragment(f"chunk{i + 1}", body, lib)
            except ValueError:
                continue
            if fragment.expansion not in lib.expansions():
                lib = lib.with_fragment(fragment)
        sequence = random_base_sequence(rng, 12)
        assert mdl(sequence, lib) == brute_force_mdl(sequence, lib.expansions())
    elapsed = time.monotonic() - started
    report(1, elapsed < 30.0,
           f"500 random sequences match exhaustive search exactly in {elapsed:.1f}s")


# -- criterion 2 -------------------------------------------------------------

def random_nested_library(rng):
    lib = Library()
    for i in range(3):
        body = []
        for _ in range(rng.randint(2, 4)):
            roll = rng.random()
            if roll < 0.45:
                body.append(rng.choice(["h", "v"]))
            elif roll < 0.75 and lib.fragments:
                body.append(rng.choice(lib.fragments).id)
            else:
                body.append(f"{rng.choice('lr')}{rng.randint(1, 3)}")
        try:
            lib = lib.with_fragment(make_fragment(f"chunk{i + 1}", tuple(body), lib))
        except ValueError:
            continue
    return lib


def test_criterion_2_semantic_preservation():
    rng = random.Random(7)
    started = time.monotonic()
    checked = 0
    while checked < 1000:
        lib = random_nested_library(rng)
        tokens = []
        for _ in range(rng.randint(1, 7)):
            roll = rng.random()
            if roll < 0.45:
                tokens.append(rng.choice(["h", "v"]))
            elif roll < 0.75 and lib.fragments:
                tokens.append(rng.choice(lib.fragments).id)
            else:
                tokens.append(f"{rng.choice('lr')}{rng.randint(1, 3)}")
        program = tuple(tokens)
        try:
            nested = execute_nested(program, lib, 24, 48, 64)
        except ValueError:
            continue
        assert execute(inline(program, lib), 24, 48, 64) == nested
        checked += 1
    elapsed = time.monotonic() - started
    report(2, elapsed < 10.0,
           f"1000 nested programs run chunk by chunk match their inlined executions "
           f"in {elapsed:.1f}s")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_fragment_trajectories():
    started = time.monotonic()
    sequences, _ = generate_sequences(0, 49)
    towers = stimulus_towers()
    first_tower = {}
    precedence_ok = True
    for w in (1.5, 3.2, 9.6):
        lcfg = LearningConfig(w=w)
        firsts = []
        for sequence in sequences:
            snapshots = [s for trial in library_trajectory(sequence, lcfg.w, towers)
                         for s in trial.adopted]
            tower = first_adoption_trial(snapshots, "tower")
            firsts.append(NO_ADOPTION_SENTINEL if tower is None else tower)
            if w == 1.5 and tower is not None:
                sub = first_adoption_trial(snapshots, "sub_tower")
                if sub is None or sub > tower:
                    precedence_ok = False
        first_tower[w] = firsts
    elapsed = time.monotonic() - started

    share_15 = sum(1 for t in first_tower[1.5] if t <= 12) / 49
    share_32 = sum(1 for t in first_tower[3.2] if t <= 12) / 49
    median_15 = statistics.median(first_tower[1.5])
    median_96 = statistics.median(first_tower[9.6])
    ok = (share_15 >= 0.9 and share_32 >= 0.9
          and median_96 > median_15 and precedence_ok and elapsed < 300.0)
    report(3, ok,
           f"tower adoption by trial 12: w=1.5 {share_15:.0%}, w=3.2 {share_32:.0%}; "
           f"median first adoption w=9.6 {median_96} > w=1.5 {median_15} "
           f"(13 = never); sub-tower precedence "
           f"{'holds' if precedence_ok else 'violated'}; {elapsed:.0f}s")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_production_preferences():
    started = time.monotonic()
    shares = {}
    for beta in (0.0, 0.3, 0.8):
        configs = [(PragmaticsConfig(alpha=5.0, beta=beta),
                    LearningConfig(w=1.5))]
        traces = run_experiment(configs, stimulus_towers(), n_sequences=49, iterations=2,
                                master_seed=0)
        assert len(traces) == 98
        shares[beta] = abstraction_proportions([summarize(t) for t in traces])
    elapsed = time.monotonic() - started

    grey = [row["block"] for row in shares[0.0]]
    grey_ok = all(share >= 0.9 for share in grey)
    eager_block3 = shares[0.8][2]["block"]
    eager_ok = eager_block3 <= 0.1
    abstraction = [1.0 - row["block"] for row in shares[0.3]]
    moderate_ok = all(a <= b + 1e-9 for a, b in zip(abstraction, abstraction[1:]))
    ok = grey_ok and eager_ok and moderate_ok and elapsed < 600.0
    report(4, ok,
           f"beta=0 block-level share per block {[f'{s:.2f}' for s in grey]}; "
           f"beta=0.8 block-3 share {eager_block3:.3f} <= 0.1; "
           f"beta=0.3 abstraction {[f'{a:.2f}' for a in abstraction]} "
           f"non-decreasing; {elapsed:.0f}s for 294 dyads")


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_f1_point_check():
    towers = stimulus_towers()
    target = compose_scene(towers["A"], towers["B"])
    blocks = sorted(target)
    built = frozenset(blocks[:-1]) | {BlockPlacement(12, 0, VERTICAL)}
    score = f1_score(target, built)
    ok = abs(score - 0.875) <= 1e-12
    report(5, ok, f"one block out of place gives F1 = {score!r}")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_belief_convergence():
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v"), lib))
    lib = lib.with_fragment(make_fragment("chunk2", ("h", "r2", "h"), lib))
    belief = extend_hypotheses(initial_belief(), lib)
    bindings = {}
    heights, hand = (0,) * GRID_WIDTH, 0
    rng = random.Random(5)
    entropies = [belief_entropy(belief)]
    for word in ("chunkA", "chunkB"):
        tokens = builder_interpret(word, bindings, lib, rng)
        after_heights, after_hand, placed = lenient_run(tokens, heights, hand)
        belief, anomaly = update_belief(belief, word, placed, lib, heights=heights, hand=hand)
        heights, hand = after_heights, after_hand
        assert not anomaly
        entropies.append(belief_entropy(belief))
    collapsed = point_mass_lexicon(belief)
    monotone = all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))
    ok = collapsed == bindings and monotone
    report(6, ok,
           f"belief collapsed to {collapsed} matching builder bindings "
           f"{bindings}; entropy trace {[f'{e:.2f}' for e in entropies]}")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_sequence_invariants():
    started = time.monotonic()
    expected_pairs = {frozenset(p) for p in TOWER_PAIRS}
    for seed in range(10000):
        sequence = generate_trial_sequence(seed)
        assert len(sequence.trials) == 12
        for block in range(1, REPETITION_BLOCKS + 1):
            block_pairs = [frozenset((t.left, t.right)) for t in sequence.trials
                           if t.repetition_block == block]
            assert len(block_pairs) == 3 and set(block_pairs) == expected_pairs
        lefts = Counter(t.left for t in sequence.trials)
        rights = Counter(t.right for t in sequence.trials)
        assert all(lefts[t] == 4 and rights[t] == 4 for t in "ABC")
    elapsed = time.monotonic() - started
    report(7, elapsed < 10.0, f"10000 sequences satisfy the design in {elapsed:.1f}s")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_byte_identical_runs(tmp_path):
    args = ["simulate", "--w", "1.5", "--beta", "0.3", "--alpha", "5.0",
            "--n-sequences", "3", "--iterations", "2", "--master-seed", "40"]
    directories = {}
    for label, jobs in (("serial_a", 1), ("serial_b", 1), ("parallel", 8)):
        out_dir = tmp_path / label
        code = cli_main(args + ["--jobs", str(jobs), "--out-dir", str(out_dir)])
        assert code == 0
        directories[label] = {
            name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir))
        }
    identical_reruns = directories["serial_a"] == directories["serial_b"]
    identical_parallel = directories["serial_a"] == directories["parallel"]
    ok = identical_reruns and identical_parallel
    report(8, ok,
           f"rerun identical: {identical_reruns}; jobs=1 vs jobs=8 identical: "
           f"{identical_parallel} ({len(directories['serial_a'])} files)")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_jsd_properties():
    rng = random.Random(31)
    vocabulary = [f"w{i}" for i in range(12)]
    worst = 0.0
    for _ in range(1000):
        p = {w: rng.random() + 1e-6
             for w in rng.sample(vocabulary, rng.randint(1, 12))}
        q = {w: rng.random() + 1e-6
             for w in rng.sample(vocabulary, rng.randint(1, 12))}
        worst = max(worst, abs(jsd(p, q) - jsd(q, p)))
        worst = max(worst, abs(jsd(p, p)))
    disjoint = abs(jsd({"a": 1.0, "b": 1.0}, {"c": 2.0}) - 1.0)
    worst = max(worst, disjoint)
    report(9, worst <= 1e-9,
           f"identity, disjoint-support, and symmetry hold within {worst:.2e}")
