"""Reference functions that only the tests use: the support rule stated cell by
cell, the empty library, building a fragment by hand, a scene's column
clusters read off its occupied columns,
running a program's chunks in place without inlining, every candidate window
of a set of programs by direct enumeration,
the learner's posterior score, a fragment's level read off a table of the
stimuli's and their pairs' shapes, the tokenizer's walk that matches every
expansion again at each position, readouts of a belief and a library trajectory,
the belief update and extension by explicit enumeration of lexicons,
a word's marginal listener probability taken word by word, the
Architect's per-candidate utterance and utility, the Builder's lenient
run without a memo, a trace's data as plain dicts and lists, the four
tables built by walking each whole trace's records instead of its summary, and
a cell's CSV texts as csv.DictWriter writes those tables. The
program computes none of these; the tests check it against them. The scene
and stimuli file writers are here too: the program only reads those files. So
is the Hypothesis strategy for random buildable towers.

Import with `from oracles import ...`: pytest puts this directory on sys.path.
"""

import csv
import io
import json
import math
import random
from collections import Counter
from itertools import combinations, permutations
from typing import Collection, Iterable, Sequence

from hypothesis import strategies as st

from towertalk import dsl
from towertalk.blockworld import (GRID_HEIGHT, GRID_WIDTH, HORIZONTAL, RIGHT_ORIGIN, VERTICAL,
                                  BlockPlacement, PlacementError, drop_block)
from towertalk.dsl import Fragment, Library, Program, Token
from towertalk.library_learning import (BODY_TOKEN_SUM, FRAGMENT_LEVELS, OTHER, REPETITION_BLOCKS,
                                        SCENE, STEP_LEVELS, SUB_TOWER, TOWER, FragmentSnapshot,
                                        _mdl_cost, _mdl_table, snapshot_level_proportions,
                                        step_levels)
from towertalk.pragmatics import (BeliefState, Component, PragmaticsConfig, candidate_programs,
                                  hypothesis_count, synthetic_word)
from towertalk.simulation import TRIALS_PER_SEQUENCE, DyadTrace, TrialRecord, jsd
from towertalk.traces import sequence_to_dict, snapshot_to_dict

# h, v, l, r and the digits 1..9.
BASE_PRIMITIVE_COUNT = 13

EMPTY_LIBRARY = Library()


def is_supported(blocks: Iterable[BlockPlacement]) -> bool:
    """True if every block above ground has ground or another block directly beneath
    one of its cells."""
    cells: set[tuple[int, int]] = set()
    block_list = list(blocks)
    for block in block_list:
        cells.update(block.cells())
    for block in block_list:
        if block.y == 0:
            continue
        if not any((cx, block.y - 1) in cells for cx, _ in block.cells()):
            return False
    return True


def make_fragment(fragment_id: str, body: Program, library: Library) -> Fragment:
    """Build a fragment, inlining its body against the given library."""
    expansion = dsl.inline(tuple(body), library)
    if dsl.count_placements(expansion) == 0:
        raise ValueError("fragment body places no blocks")
    if dsl.token_length(body) < 2:
        raise ValueError("fragment body must be at least 2 units long")
    return Fragment(fragment_id, tuple(body), expansion)


def reference_candidate_windows(programs: Sequence[Program],
                                library: Library) -> dict[Program, tuple[int, Program]]:
    """Every window of every program that is at least 2 units long, places a
    block and inlines to an expansion the library does not know, enumerated
    directly with no cache, as expansion -> cheapest (token length, body)."""
    known = set(library.expansions())
    windows: dict[Program, tuple[int, Program]] = {}
    for program in programs:
        for i in range(len(program)):
            for j in range(i + 1, len(program) + 1):
                body = program[i:j]
                if dsl.token_length(body) < 2:
                    continue
                expansion = dsl.inline(body, library)
                if dsl.count_placements(expansion) == 0 or expansion in known:
                    continue
                current = windows.get(expansion)
                if current is None or (dsl.token_length(body), body) < current:
                    windows[expansion] = (dsl.token_length(body), body)
    return windows


def reference_column_clusters(blocks: frozenset[BlockPlacement]) -> list[list[BlockPlacement]]:
    """dsl._column_clusters by the set of occupied columns: a cluster starts at
    each occupied column whose left neighbour is empty, and holds every block
    whose x lies at or past that start and before the next."""
    if not blocks:
        return []
    occupied: set[int] = set()
    for block in blocks:
        for cx, _ in block.cells():
            occupied.add(cx)
    breaks: set[int] = set()
    for col in sorted(occupied):
        if col - 1 not in occupied:
            breaks.add(col)
    clusters: dict[int, list[BlockPlacement]] = {b: [] for b in breaks}
    for block in blocks:
        start = max(b for b in breaks if b <= block.x)
        clusters[start].append(block)
    return [sorted(clusters[start], key=lambda b: (b.y, b.x)) for start in sorted(breaks)]


def mdl(base_sequence: Program, library: Library) -> int:
    """Length in units of the cheapest program over the library that inlines to base_sequence."""
    if not all(dsl.is_base_token(t) for t in base_sequence):
        raise ValueError("mdl expects a base-level sequence")
    return _mdl_cost(tuple(base_sequence), tuple(sorted(library.expansions())))


def reference_shortest_tokenization(base_sequence: Program, library: Library) -> Program:
    """shortest_tokenization the slow way: at each position of the walk, match
    every expansion again and take the longest step that keeps the MDL table's
    (cost, chunk count)."""
    sequence = tuple(base_sequence)
    n = len(sequence)
    by_expansion = {f.expansion: f.id for f in library.fragments}
    expansions = sorted(by_expansion)
    best = [entry[:2] for entry in _mdl_table(sequence, expansions)]
    tokens: list[str] = []
    i = 0
    while i < n:
        tail = best[i + 1]
        length, token = 1, sequence[i]
        if (dsl.token_cost(token) + tail[0], tail[1]) != best[i]:
            length = 0
        for expansion in expansions:
            j = i + len(expansion)
            if len(expansion) > length and j <= n and sequence[i:j] == expansion:
                tail_j = best[j]
                if (1 + tail_j[0], 1 + tail_j[1]) == best[i]:
                    length, token = len(expansion), by_expansion[expansion]
        assert length > 0
        tokens.append(token)
        i += length
    return tuple(tokens)


def reference_fragment_level(expansion: Program,
                             stimuli: dict[str, frozenset[BlockPlacement]]) -> str:
    """classify_fragment by a table of every shape a fragment can rebuild: a
    stimulus is a tower, and each side-by-side pair of stimuli, the right one at
    column RIGHT_ORIGIN, is a scene. An expansion of 4 or 8 placements runs from
    column 30 of an empty 64x32 grid and takes the level of its shape (its
    leftmost column moved to 0), or other if the table holds no such shape."""
    n = dsl.count_placements(expansion)
    if 2 <= n <= 3:
        return SUB_TOWER
    if n not in (4, 8):
        return OTHER

    def shape(blocks: Collection[BlockPlacement]) -> frozenset[BlockPlacement]:
        min_x = min(b.x for b in blocks)
        return frozenset(b.translate(-min_x) for b in blocks)

    # Towers go in last: a pair has a tower's shape only when its two halves are
    # the same four blocks, and then it is that tower.
    towers = stimuli.values()
    levels = {shape(left | {b.translate(RIGHT_ORIGIN) for b in right}): SCENE
              for left in towers for right in towers}
    levels.update((shape(tower), TOWER) for tower in towers)
    return levels.get(shape(dsl.execute(expansion, 30, 64, 32)), OTHER)


def library_size(library: Library) -> int:
    """Library size for the prior: the base primitives plus each fragment's body length."""
    return BASE_PRIMITIVE_COUNT + sum(dsl.token_length(f.body) for f in library.fragments)


def library_score(library: Library, scenes: Sequence[Program], w: float) -> float:
    """Unnormalized log posterior: -w * size(L) - sum of scene MDLs."""
    total = sum(mdl(scene, library) for scene in scenes)
    return -w * library_size(library) - total


def enumerate_hypotheses(belief: BeliefState,
                         limit: int = 50000) -> list[tuple[dict[str, str], float]]:
    """Materialize (lexicon, probability) pairs; refuses absurdly large spaces.
    A component weighs hypothesis_count(component) / total, split evenly over its lexicons,
    so each lexicon weighs 1 / total."""
    total = sum(hypothesis_count(c) for c in belief.components)
    if total > limit:
        raise RuntimeError("hypothesis space too large to enumerate")
    out: list[tuple[dict[str, str], float]] = []
    for comp in belief.components:
        partials: list[dict[str, str]] = [{}]
        for words, frags in comp:
            extended: list[dict[str, str]] = []
            for assignment in permutations(frags, len(words)):
                for partial in partials:
                    lex = dict(partial)
                    lex.update(zip(words, assignment))
                    extended.append(lex)
            partials = extended
        out.extend((lex, 1.0 / total) for lex in partials)
    return out


def belief_cover(belief: BeliefState) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The words and the fragments the belief covers, each sorted: those of the
    pools of its first component, which every component shares."""
    words = sorted(word for pool_words, _ in belief.components[0] for word in pool_words)
    frags = sorted(frag for _, pool_frags in belief.components[0] for frag in pool_frags)
    return tuple(words), tuple(frags)


def lexicon_distribution(belief: BeliefState) -> dict[frozenset, float]:
    """The belief's probability of each lexicon (as a frozenset of its bindings)."""
    distribution: dict[frozenset, float] = {}
    for lexicon, probability in enumerate_hypotheses(belief):
        key = frozenset(lexicon.items())
        distribution[key] = distribution.get(key, 0.0) + probability
    return distribution


def enumerated_update(belief: BeliefState, word: str, observed: Sequence[BlockPlacement],
                      library: Library, heights: tuple[int, ...],
                      hand: int) -> tuple[dict[frozenset, float], bool]:
    """update_belief by explicit Bayesian enumeration: the lexicons whose fragment
    for the word reproduces the observed placements from the pre-step column
    heights and hand keep their mass, renormalized; if none does, the result is
    uniform over every bijection of the belief's words and fragments, and the
    anomaly flag is set."""
    prior = lexicon_distribution(belief)
    if dsl.is_base_token(word):
        return prior, False
    observed = tuple(observed)
    kept = {lexicon: probability for lexicon, probability in prior.items()
            if uncached_lenient_run(library.resolve(dict(lexicon)[word]).expansion,
                                    heights, hand)[2] == observed}
    if not kept:
        words, fragments = belief_cover(belief)
        bijections = [frozenset(zip(words, assignment)) for assignment in permutations(fragments)]
        return {lexicon: 1.0 / len(bijections) for lexicon in bijections}, True
    total = sum(kept.values())
    return {lexicon: probability / total for lexicon, probability in kept.items()}, False


def enumerated_extension(belief: BeliefState, library: Library) -> dict[frozenset, float]:
    """extend_hypotheses by explicit enumeration: the library's fragments that the
    belief does not cover get the synthetic words after those it does, and each
    lexicon's mass is split evenly over its extensions by every bijection of the
    new words and fragments."""
    covered_words, covered_frags = belief_cover(belief)
    fragments = [f for f in library.ids() if f not in covered_frags]
    words = [synthetic_word(len(covered_words) + k) for k in range(len(fragments))]
    extensions = list(permutations(fragments))
    extended: dict[frozenset, float] = {}
    for lexicon, probability in lexicon_distribution(belief).items():
        for assignment in extensions:
            key = lexicon | frozenset(zip(words, assignment))
            extended[key] = extended.get(key, 0.0) + probability / len(extensions)
    return extended


def point_mass_lexicon(belief: BeliefState) -> dict[str, str] | None:
    """The single certain lexicon, if belief has collapsed; otherwise None."""
    if len(belief.components) == 1 and all(len(words) == 1 for words, _ in belief.components[0]):
        return {words[0]: frags[0] for words, frags in belief.components[0]}
    return None


def first_adoption_trial(snapshots: Sequence[FragmentSnapshot], level: str) -> int | None:
    """Trial at which a fragment of the given level first entered the library."""
    trials = [s.adopted_trial for s in snapshots if s.level == level]
    return min(trials) if trials else None


def _component_marginal(comp: Component, word: str, target: str) -> float:
    for words, frags in comp:
        if word in words:
            return 1.0 / len(frags) if target in frags else 0.0
    return 0.0


def marginal_listener(target: Token, word: str, belief: BeliefState) -> float:
    """Expected success of a literal listener (a word means exactly the primitive
    its lexicon binds it to), marginalizing over lexicon hypotheses; a component
    weighs hypothesis_count(component) / total."""
    if dsl.is_base_token(word):
        return 1.0 if word == target else 0.0
    total = sum(hypothesis_count(c) for c in belief.components)
    return sum(hypothesis_count(c) / total * _component_marginal(c, word, target)
               for c in belief.components)


def best_utterance(program: Program, belief: BeliefState) -> tuple[str, ...]:
    """One word per token step: fixed surfaces for base tokens, else the word
    with the highest marginal listener probability (ties to the smallest)."""
    words: list[str] = []
    covered_words = belief_cover(belief)[0]
    for token in program:
        if dsl.is_base_token(token):
            words.append(token)
            continue
        if not covered_words:
            raise ValueError(f"no synthetic words available for {token!r}")
        best_word = covered_words[0]
        best_prob = -1.0
        for word in covered_words:
            prob = marginal_listener(token, word, belief)
            if prob > best_prob:
                best_prob = prob
                best_word = word
        words.append(best_word)
    return tuple(words)


def joint_utility(program: Program, utterance: Sequence[str],
                  belief: BeliefState, cfg: PragmaticsConfig) -> float:
    """(1-beta) * sum of log marginal listener probabilities - beta * program length."""
    if len(utterance) != len(program):
        raise ValueError("utterance is not aligned with the program's steps")
    informativity = 0.0
    for token, word in zip(program, utterance):
        prob = marginal_listener(token, word, belief)
        if prob <= 0.0:
            return -math.inf
        informativity += math.log(prob)
    return (1 - cfg.beta) * informativity - cfg.beta * dsl.token_length(program)


def uncached_architect_choose(base: Program, library: Library, belief: BeliefState,
                              cfg: PragmaticsConfig,
                              rng: random.Random) -> tuple[Program, tuple[str, ...]]:
    """architect_choose with each candidate's utterance and utility found on
    their own, every marginal taken again for every candidate."""
    pairs = []
    for program in candidate_programs(base, library):
        utterance = best_utterance(program, belief)
        utility = joint_utility(program, utterance, belief, cfg)
        if utility > -math.inf:
            pairs.append((program, utterance, utility))
    if not pairs:
        raise RuntimeError("no candidate with finite utility; base program should always qualify")
    if math.isinf(cfg.alpha):
        return max(pairs, key=lambda p: p[2])[:2]
    top = max(utility for _, _, utility in pairs)
    weights = [math.exp(cfg.alpha * (utility - top)) for _, _, utility in pairs]
    total = sum(weights)
    draw = rng.random() * total
    cumulative = 0.0
    for (program, utterance, _), weight in zip(pairs, weights):
        cumulative += weight
        if draw <= cumulative:
            return program, utterance
    program, utterance, _ = pairs[-1]
    return program, utterance


def uncached_lenient_run(tokens: Sequence[Token], heights: tuple[int, ...],
                         hand: int) -> tuple[tuple[int, ...], int, tuple[BlockPlacement, ...]]:
    """lenient_run without its memo: every drop made again on a 14x8 grid."""
    placed: list[BlockPlacement] = []
    for token in tokens:
        if dsl.is_move(token):
            hand = min(max(hand + dsl.move_delta(token), 0), GRID_WIDTH - 1)
            continue
        orientation = HORIZONTAL if token == dsl.PLACE_H else VERTICAL
        try:
            heights, block = drop_block(heights, orientation, hand)
        except PlacementError:
            continue
        placed.append(block)
    return heights, hand, tuple(placed)


def execute_nested(program: Program, library: Library, start_x: int, width: int,
                   height: int) -> list[BlockPlacement]:
    """dsl.execute for a program with chunk references, without inline: a chunk
    token runs its fragment's body in place, recursively, on the same hand and
    column heights."""
    if not (0 <= start_x < width):
        raise dsl.ProgramError(f"start column {start_x} out of bounds")
    heights = (0,) * width
    hand = start_x
    placed: list[BlockPlacement] = []

    def run(tokens: Program) -> None:
        nonlocal heights, hand
        for token in tokens:
            if dsl.is_move(token):
                hand += dsl.move_delta(token)
                if not (0 <= hand < width):
                    raise dsl.ProgramError(f"hand moved out of bounds to column {hand}")
            elif dsl.is_place(token):
                orientation = HORIZONTAL if token == dsl.PLACE_H else VERTICAL
                heights, block = drop_block(heights, orientation, hand, height)
                placed.append(block)
            else:
                run(library.resolve(token).body)

    run(program)
    return placed


def scene_to_dict(blocks: Iterable[BlockPlacement], width: int = GRID_WIDTH,
                  height: int = GRID_HEIGHT) -> dict:
    """A block set drawn on width x height, in the file schema that `render --scene` reads."""
    return {"width": width, "height": height, "blocks": [b._asdict() for b in sorted(blocks)]}


def _write_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_scene(blocks: Iterable[BlockPlacement], path: str, width: int = GRID_WIDTH,
               height: int = GRID_HEIGHT) -> None:
    _write_json(scene_to_dict(blocks, width, height), path)


def save_stimuli(towers: dict[str, frozenset[BlockPlacement]], path: str) -> None:
    """Towers, {id: blocks}, in the file schema that `--stimuli` reads."""
    _write_json({"towers": [{"id": tower_id, "blocks": [b._asdict() for b in sorted(blocks)]}
                            for tower_id, blocks in towers.items()]}, path)


def _oracle_step_level(token: str, final_library: Sequence[FragmentSnapshot]) -> str:
    """A step's level: a chunk's is its fragment's, a move's is "move", and a
    placement's is "block"."""
    if not dsl.is_base_token(token):
        (snapshot,) = [s for s in final_library if s.id == token]
        return snapshot.level
    return "move" if dsl.is_move(token) else "block"


def trace_to_dict(trace: DyadTrace) -> dict:
    """A trace's data, built field by field; json.dumps(..., indent=2,
    sort_keys=True) of it is the text traces.json must hold for the trace.
    A trial's number, spec, steps' levels and library come from the trace's
    sequence and final_library."""
    assert len(trace.records) == len(trace.sequence.trials)
    return {
        "alpha": trace.pragmatics.alpha,
        "beta": trace.pragmatics.beta,
        "w": trace.learning.w,
        "size_rule": BODY_TOKEN_SUM,
        "sequence": sequence_to_dict(trace.sequence),
        "iteration": trace.iteration,
        "dyad_seed": trace.dyad_seed,
        # The last trial's entropy, or that of the initial belief (log2 1).
        "final_belief_entropy": round(trace.records[-1].belief_entropy
                                      if trace.records else 0.0, 9),
        "trials": [
            {
                "trial": k + 1,
                "repetition_block": trace.sequence.trials[k].repetition_block,
                "left": trace.sequence.trials[k].left,
                "right": trace.sequence.trials[k].right,
                "program": dsl.print_program(r.program),
                "utterance": list(r.utterance),
                "builder_placements": [b._asdict() for b in r.builder_placements],
                "f1": round(r.f1, 9),
                "tokens_sent": r.tokens_sent,
                "steps": [
                    {"token": r.program[i], "word": r.utterance[i],
                     "level": _oracle_step_level(r.program[i], trace.final_library),
                     "placements": r.step_placements[i]}
                    for i in range(len(r.program))
                ],
                "library": [snapshot_to_dict(s) for s in trace.final_library
                            if s.adopted_trial <= k + 1],
                "belief_entropy": round(r.belief_entropy, 9),
                "anomalies": r.anomalies,
            }
            for k, r in enumerate(trace.records)
        ],
    }


def fragment_trajectory(traces: Sequence[DyadTrace]) -> list[dict[str, float]]:
    """Mean per-trial library composition over traces (Fig-4A-style table)."""
    if not traces:
        return []
    per_trace = [snapshot_level_proportions(t.final_library, TRIALS_PER_SEQUENCE)
                 for t in traces]
    rows = []
    for trial in range(TRIALS_PER_SEQUENCE + 1):
        row = {"trial": float(trial)}
        for level in FRAGMENT_LEVELS:
            row[level] = sum(p[trial][level] for p in per_trace) / len(per_trace)
        rows.append(row)
    return rows


def block_records(trace: DyadTrace, block: int) -> list[TrialRecord]:
    """A dyad's records in a repetition block."""
    return [record for spec, record in zip(trace.sequence.trials, trace.records, strict=True)
            if spec.repetition_block == block]


def abstraction_proportions(traces: Sequence[DyadTrace]) -> list[dict[str, float]]:
    """Per repetition block: mean share of place-bearing instruction steps at
    each level, averaged over dyads (move tokens carry no reference)."""
    levels = [step_levels(trace.final_library) for trace in traces]
    rows = []
    for block in range(1, REPETITION_BLOCKS + 1):
        shares = {level: [] for level in STEP_LEVELS}
        for trace, level_of in zip(traces, levels):
            steps = [level_of[token] for r in block_records(trace, block) for token in r.program]
            steps = [level for level in steps if level != "move"]
            if not steps:
                continue
            for level in STEP_LEVELS:
                shares[level].append(steps.count(level) / len(steps))
        row = {"repetition_block": float(block)}
        for level in STEP_LEVELS:
            values = shares[level]
            row[level] = sum(values) / len(values) if values else 0.0
        rows.append(row)
    return rows


def accuracy_and_efficiency(traces: Sequence[DyadTrace]) -> list[dict[str, float]]:
    """Per repetition block: mean F1 and mean tokens sent, over all dyads."""
    rows = []
    for block in range(1, REPETITION_BLOCKS + 1):
        per_dyad = [records for records in (block_records(t, block) for t in traces) if records]
        f1_values = [sum(r.f1 for r in records) / len(records) for records in per_dyad]
        token_values = [sum(r.tokens_sent for r in records) / len(records) for records in per_dyad]
        rows.append({
            "repetition_block": float(block),
            "mean_f1": sum(f1_values) / len(f1_values) if f1_values else 0.0,
            "mean_tokens_sent": sum(token_values) / len(token_values) if token_values else 0.0,
            "n_dyads": float(len(f1_values)),
        })
    return rows


def word_distribution(trace: DyadTrace, repetition_block: int) -> dict[str, float]:
    """Word frequencies over all utterances a dyad produced within one block."""
    counts: dict[str, float] = {}
    for record in block_records(trace, repetition_block):
        for word in record.utterance:
            counts[word] = counts.get(word, 0.0) + 1.0
    return counts


def mean_pairwise_jsd(traces: Sequence[DyadTrace], repetition_block: int) -> float:
    """Mean JSD between the word distributions of all dyad pairs in a block,
    each distinct distribution scored once against each other, in sorted order."""
    counts = Counter(tuple(sorted(d.items()))
                     for d in (word_distribution(t, repetition_block) for t in traces) if d)
    n = sum(counts.values())
    if n < 2:
        return 0.0
    keys = sorted(counts)
    distributions = [dict(key) for key in keys]
    total = 0.0
    for i, j in combinations(range(len(keys)), 2):
        total += counts[keys[i]] * counts[keys[j]] * jsd(distributions[i], distributions[j])
    return total / (n * (n - 1) // 2)


# A cell's CSVs: file name prefix -> columns.
CSV_COLUMNS = {
    "fragment_trajectory": ["trial", *FRAGMENT_LEVELS],
    "abstraction_proportions": ["repetition_block", *STEP_LEVELS],
    "accuracy_efficiency": ["repetition_block", "mean_f1", "mean_tokens_sent", "n_dyads"],
    "jsd": ["repetition_block", "mean_pairwise_jsd"],
}


def csv_text(columns: Sequence[str], rows: Sequence[dict]) -> str:
    """The rows as csv.DictWriter writes them, each float to 6 decimals."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (f"{v:.6f}" if isinstance(v, float) else v) for k, v in row.items()})
    return buffer.getvalue()


def cell_csvs(traces: Sequence[DyadTrace]) -> dict[str, str]:
    """A cell's four CSV texts, by file name prefix, from the tables above."""
    jsd_rows = [{"repetition_block": float(block),
                 "mean_pairwise_jsd": mean_pairwise_jsd(traces, block)}
                for block in range(1, REPETITION_BLOCKS + 1)]
    tables = (fragment_trajectory(traces), abstraction_proportions(traces),
              accuracy_and_efficiency(traces), jsd_rows)
    return {table: csv_text(columns, rows)
            for (table, columns), rows in zip(CSV_COLUMNS.items(), tables)}


@st.composite
def buildable_towers(draw):
    """The blocks of a tower of two horizontal and two vertical blocks, dropped in a
    random order at random columns of a grid 6 wide and 8 high: supported, without
    overlaps, and narrow enough to stand at the right tower's origin."""
    heights, blocks = (0,) * 6, []
    for orientation in draw(st.permutations([HORIZONTAL, HORIZONTAL, VERTICAL, VERTICAL])):
        column = draw(st.integers(0, 4 if orientation == HORIZONTAL else 5))
        heights, block = drop_block(heights, orientation, column)
        blocks.append(block)
    return frozenset(blocks)


# Random stimuli: towers A, B and C, {id: blocks}, each drawn by buildable_towers.
buildable_stimuli = st.fixed_dictionaries({tower_id: buildable_towers() for tower_id in "ABC"})
