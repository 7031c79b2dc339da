"""Trial-sequence generation, the dyad interaction loop, and aggregate metrics.

A dyad plays twelve trials: every pair of the three towers appears once per
repetition block, four blocks total, with left/right positions balanced. On
each trial the Architect picks a program and utterance for the target scene,
the Builder reconstructs it word by word, the Architect updates its lexicon
beliefs from the visible placements, and both agents take up the library that
library_learning.library_trajectory learned from the scenes observed so far.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from . import dsl
from .blockworld import GRID_WIDTH, BlockPlacement, f1_score, stimulus_towers
from .dsl import Library, Program
from .library_learning import (FRAGMENT_LEVELS, REPETITION_BLOCKS, STEP_LEVELS, FragmentSnapshot,
                               LearnedTrial, TrialSequence, TrialSpec, check_w,
                               library_trajectory, snapshot_level_proportions, step_levels)
# Not called here: perfbench/layers.py wraps the learner under every name it is bound to.
from .library_learning import update_library_with_log
from .pragmatics import (
    ALPHA,
    architect_choose,
    belief_entropy,
    builder_interpret,
    extend_hypotheses,
    initial_belief,
    lenient_run,
    update_belief,
)
from .traces import trace_json

TOWER_PAIRS = tuple(combinations(sorted(stimulus_towers()), 2))
TRIALS_PER_SEQUENCE = REPETITION_BLOCKS * len(TOWER_PAIRS)


@dataclass(frozen=True)
class LearningConfig:
    """Library learning knobs; w is the library size penalty from the prior."""
    w: float

    def __post_init__(self) -> None:
        check_w(self.w)


class TrialRecord(NamedTuple):
    """What one trial decided. Its number and spec are its place in the trace's
    sequence, and its library is the trace's final_library up to it."""
    program: Program
    utterance: tuple[str, ...]                  # one word per program token
    builder_placements: tuple[BlockPlacement, ...]
    step_placements: tuple[int, ...]            # blocks the Builder placed per word
    f1: float
    tokens_sent: int
    belief_entropy: float
    anomalies: int


class DyadTrace(NamedTuple):
    beta: float
    learning: LearningConfig
    sequence: TrialSequence
    iteration: int
    dyad_seed: int
    records: tuple[TrialRecord, ...]
    final_library: tuple[FragmentSnapshot, ...]


def generate_trial_sequence(seed: int) -> TrialSequence:
    """Twelve trials: each pair once per block, towers balanced 4 left / 4 right.

    Pair order is shuffled within each block; left/right orientations are
    drawn at random and rejection-resampled until every tower sits on each
    side equally often.
    """
    rng = random.Random(seed)
    towers = {tower for pair in TOWER_PAIRS for tower in pair}
    while True:
        trials: list[TrialSpec] = []
        for block in range(1, REPETITION_BLOCKS + 1):
            pairs = list(TOWER_PAIRS)
            rng.shuffle(pairs)
            for first, second in pairs:
                if rng.random() < 0.5:
                    trials.append(TrialSpec(block, first, second))
                else:
                    trials.append(TrialSpec(block, second, first))
        lefts = Counter(trial.left for trial in trials)
        if all(lefts[tower] == TRIALS_PER_SEQUENCE // len(towers) for tower in towers):
            return TrialSequence(tuple(trials), seed)


def generate_sequences(master_seed: int, count: int) -> tuple[list[TrialSequence], Iterator[int]]:
    """`count` trial sequences drawn from master_seed, and the rest of its seeds.

    `gen-seq --seed S` and `simulate --master-seed S` both draw here, so a run's
    sequences are the first ones gen-seq writes; `simulate` takes one dyad
    seed per dyad from the returned iterator.
    """
    seeder = random.Random(master_seed)
    seeds = iter(lambda: seeder.randrange(2 ** 62), None)  # endless: never None
    return [generate_trial_sequence(next(seeds)) for _ in range(count)], seeds


def run_dyad(sequence: TrialSequence, w: float, beta: float,
             lcfg: LearningConfig, rng: random.Random,
             learned: tuple[LearnedTrial, ...],
             iteration: int = 0, dyad_seed: int = 0) -> DyadTrace:
    """Simulate one Architect/Builder pair through a full trial sequence;
    `learned` is its library_trajectory at `w`."""
    library = Library()
    belief = initial_belief()
    bindings: dict[str, str] = {}  # the Builder's word-to-fragment bindings
    records: list[TrialRecord] = []

    for trial in learned:
        program, utterance = architect_choose(trial.program, library, belief, beta, rng)

        # The Builder's workspace: column heights and hand, empty at each trial.
        heights, hand = (0,) * GRID_WIDTH, dsl.default_start_x(trial.target)
        built: list[BlockPlacement] = []
        step_placements: list[int] = []
        anomalies = 0
        for word in utterance:
            tokens = builder_interpret(word, bindings, library, rng)
            after_heights, after_hand, placed = lenient_run(tokens, heights, hand)
            if not dsl.is_base_token(word):  # a base word tells the belief nothing
                belief, anomaly = update_belief(
                    belief, word, placed, library, heights=heights, hand=hand)
                anomalies += int(anomaly)
            heights, hand = after_heights, after_hand
            built.extend(placed)
            step_placements.append(len(placed))

        trial_f1 = f1_score(trial.target, frozenset(built))

        library = trial.library
        belief = extend_hypotheses(belief, library)

        records.append(TrialRecord(
            program=program,
            utterance=utterance,
            builder_placements=tuple(built),
            step_placements=tuple(step_placements),
            f1=trial_f1,
            tokens_sent=dsl.token_length(program),
            belief_entropy=belief_entropy(belief),
            anomalies=anomalies,
        ))

    return DyadTrace(
        beta=beta,
        learning=replace(lcfg, w=w),
        sequence=sequence,
        iteration=iteration,
        dyad_seed=dyad_seed,
        records=tuple(records),
        final_library=tuple(snapshot for trial in learned for snapshot in trial.adopted),
    )


def _group_task(args: tuple) -> list[DyadTrace]:
    sequence, lcfg, stimuli, dyads = args
    learned = library_trajectory(sequence, lcfg.w, stimuli)
    return [run_dyad(sequence, lcfg.w, beta, lcfg, random.Random(dyad_seed), learned,
                     iteration=iteration, dyad_seed=dyad_seed)
            for beta, dyad_seed, iteration in dyads]


def run_experiment(configs: Sequence[tuple[float, LearningConfig]],
                   stimuli: dict[str, frozenset[BlockPlacement]], n_sequences: int,
                   iterations: int, master_seed: int = 0, jobs: int = 1) -> list[DyadTrace]:
    """Run every (beta, lcfg) cell over the same generated sequences; fully deterministic.

    Seeds for sequences and dyads derive from master_seed in a fixed order
    (cell, sequence, iteration), and the traces come back in that order, so
    results are identical for any level of parallelism. The dyads that share a
    (sequence, lcfg) form one task and learn their library trajectory once.
    """
    sequences, seeds = generate_sequences(master_seed, n_sequences)
    groups: dict[tuple[TrialSequence, LearningConfig], list[tuple]] = {}
    order = []
    for beta, lcfg in configs:
        for sequence in sequences:
            for iteration in range(iterations):
                groups.setdefault((sequence, lcfg), []).append((beta, next(seeds), iteration))
                order.append((sequence, lcfg))
    tasks = [(sequence, lcfg, stimuli, dyads) for (sequence, lcfg), dyads in groups.items()]
    # Fork only as many workers as there are groups; the pool starts them all at once.
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [_group_task(task) for task in tasks]
    else:
        # Imported here: the pool's modules cost every command that never forks.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_group_task, tasks, chunksize=1))
    pending = {key: iter(traces) for key, traces in zip(groups, results)}
    return [next(pending[key]) for key in order]


# ---------------------------------------------------------------------------
# Metrics

def fragment_trajectory(summaries: Sequence[DyadSummary]) -> list[dict[str, float]]:
    """Mean per-trial library composition over dyads (Fig-4A-style table)."""
    if not summaries:
        return []
    per_dyad = [snapshot_level_proportions(s.final_library, TRIALS_PER_SEQUENCE)
                for s in summaries]
    rows = []
    for trial in range(TRIALS_PER_SEQUENCE + 1):
        row = {"trial": float(trial)}
        for level in FRAGMENT_LEVELS:
            row[level] = sum(p[trial][level] for p in per_dyad) / len(per_dyad)
        rows.append(row)
    return rows


class DyadSummary(NamedTuple):
    """What the tables read of a trace; after final_library, one entry per repetition block."""
    final_library: tuple[FragmentSnapshot, ...]       # the trace's own tuple
    step_counts: tuple[tuple[int, ...], ...]          # place-bearing steps at each of STEP_LEVELS
    means: tuple[tuple[float, float] | None, ...]     # mean F1 and tokens sent; None: no trial
    word_counts: tuple[tuple[tuple[str, int], ...], ...]  # sorted by word


def summarize(trace: DyadTrace) -> DyadSummary:
    """A trace's summary: the one reading of its records for the tables."""
    level_of = step_levels(trace.final_library)
    blocks = []
    for block in range(1, REPETITION_BLOCKS + 1):
        records = [r for spec, r in zip(trace.sequence.trials, trace.records, strict=True)
                   if spec.repetition_block == block]
        steps = Counter(level_of[token] for r in records for token in r.program)
        blocks.append((
            tuple(steps[level] for level in STEP_LEVELS),
            (sum(r.f1 for r in records) / len(records),
             sum(r.tokens_sent for r in records) / len(records)) if records else None,
            tuple(sorted(Counter(word for r in records for word in r.utterance).items()))))
    return DyadSummary(trace.final_library, *zip(*blocks))


def _block_means(columns: Sequence[str],
                 per_dyad: Sequence[tuple]) -> Iterator[tuple[dict[str, float], int]]:
    """Per repetition block: a row of each column's mean over the dyads d whose
    values per_dyad[d][block - 1] are not None (0.0 for none), and their count."""
    for block in range(1, REPETITION_BLOCKS + 1):
        values = [dyad[block - 1] for dyad in per_dyad if dyad[block - 1] is not None]
        row = {"repetition_block": float(block)}
        for k, column in enumerate(columns):
            column_values = [dyad_values[k] for dyad_values in values]
            row[column] = sum(column_values) / len(column_values) if values else 0.0
        yield row, len(values)


def _step_shares(counts: tuple[int, ...]) -> list[float] | None:
    total = sum(counts)
    return [count / total for count in counts] if total else None


def abstraction_proportions(summaries: Sequence[DyadSummary]) -> list[dict[str, float]]:
    """Per repetition block: mean share of place-bearing instruction steps at
    each level, averaged over dyads (move tokens carry no reference)."""
    return [row for row, _ in _block_means(
        STEP_LEVELS, [[_step_shares(counts) for counts in s.step_counts] for s in summaries])]


def accuracy_and_efficiency(summaries: Sequence[DyadSummary]) -> list[dict[str, float]]:
    """Per repetition block: mean F1 and mean tokens sent, over all dyads."""
    return [{**row, "n_dyads": float(n)} for row, n in _block_means(
        ("mean_f1", "mean_tokens_sent"), [s.means for s in summaries])]


def jsd(p: dict[str, float], q: dict[str, float]) -> float:
    """Jensen-Shannon divergence, base 2, over the union vocabulary; in [0, 1]."""
    vocabulary = sorted(set(p) | set(q))  # a set's order varies with PYTHONHASHSEED
    p_total = sum(p.values())
    q_total = sum(q.values())
    if p_total <= 0 or q_total <= 0:
        raise ValueError("distributions must have positive mass")
    divergence = 0.0
    for word in vocabulary:
        pw = p.get(word, 0.0) / p_total
        qw = q.get(word, 0.0) / q_total
        mw = (pw + qw) / 2
        if pw > 0:
            divergence += 0.5 * pw * math.log2(pw / mw)
        if qw > 0:
            divergence += 0.5 * qw * math.log2(qw / mw)
    return divergence


def mean_pairwise_jsd(summaries: Sequence[DyadSummary], repetition_block: int) -> float:
    """Mean JSD between the word distributions of all dyad pairs in a block.

    Each distinct distribution is scored once against each other: a pair of
    them counts once per pair of dyads holding them, in sorted order, and two
    dyads with the same distribution add nothing.
    """
    counts = Counter(words for words in
                     (s.word_counts[repetition_block - 1] for s in summaries) if words)
    n = sum(counts.values())
    if n < 2:
        return 0.0
    keys = sorted(counts)
    distributions = [dict(key) for key in keys]
    total = 0.0
    for i, j in combinations(range(len(keys)), 2):
        total += counts[keys[i]] * counts[keys[j]] * jsd(distributions[i], distributions[j])
    return total / (n * (n - 1) // 2)


# Each cell's four CSVs: file name prefix -> columns, in the order cell_tables builds them.
TABLES = {
    "fragment_trajectory": ("trial", *FRAGMENT_LEVELS),
    "abstraction_proportions": ("repetition_block", *STEP_LEVELS),
    "accuracy_efficiency": ("repetition_block", "mean_f1", "mean_tokens_sent", "n_dyads"),
    "jsd": ("repetition_block", "mean_pairwise_jsd"),
}


def cell_tables(summaries: Sequence[DyadSummary]) -> dict[str, str]:
    """A cell's CSV texts by TABLES prefix: a header line of the columns, then
    one line per row of its values to 6 decimals. No header or value holds a
    comma, quote or newline, so no field is quoted."""
    tables = (fragment_trajectory(summaries), abstraction_proportions(summaries),
              accuracy_and_efficiency(summaries),
              [{"repetition_block": float(block),
                "mean_pairwise_jsd": mean_pairwise_jsd(summaries, block)}
               for block in range(1, REPETITION_BLOCKS + 1)])
    return {table: "".join([",".join(columns) + "\n",
                            *(",".join(f"{row[c]:.6f}" for c in columns) + "\n" for row in rows)])
            for (table, columns), rows in zip(TABLES.items(), tables)}


def trace_to_dict(trace: DyadTrace) -> dict:
    """A trace as the data traces.json holds for it."""
    return json.loads(trace_json(trace, ALPHA, {}))
