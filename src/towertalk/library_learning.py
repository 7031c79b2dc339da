"""Fragment proposal, minimum description length, and greedy library growth,
and learning over a trial sequence: the half of the model `towertalk learn` runs.

After each trial the learner proposes contiguous token windows of the scene
programs seen so far (re-tokenized under the current library, so chunks can
nest), scores each candidate extension by an unnormalized log posterior

    score(L) = -w * sum_f token_length(body_f) - sum_n MDL(scene_n | L)

and adopts the single best strictly-improving fragment, the smallest expansion
among equally good ones, up to MAX_FRAGMENTS_PER_TRIAL rounds per trial.

Which expansions are candidates, and where each occurs, depends only on the
scenes: a window of a rewritten program inlines to a substring of its scene,
and that substring is already a window of the scene. So _scene_table lists the
candidates once per scene set, and _round, once per scene set and library,
drops the known expansions and takes a shorter body where a rewrite that holds
a chunk reference offers one. It reads each such body's expansion off the
rewrite's token boundaries as a slice of the scene, so nothing is inlined.
Every library and score is the one a search over all windows of all the
programs gives.

A candidate is scored from columns the round already builds: each scene's MDL
under the library for every prefix and every suffix. Where the candidate fits
a scene once, its MDL with the candidate is the cheapest split around one of
its starts; only a scene that holds two or more disjoint occurrences runs the
DP again (_mdl_cost).

library_trajectory learns over a trial sequence and labels each adopted fragment
with the level of the shape it builds. It and the trial, snapshot and level
types live here, so `learn` loads no dyad code.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from typing import Collection, Iterable, NamedTuple, Sequence

from . import dsl
from .blockworld import BlockPlacement, compose_scene
from .dsl import Fragment, Library, Program

BODY_TOKEN_SUM = "body_token_sum"

# Greedy adoption rounds after each trial.
MAX_FRAGMENTS_PER_TRIAL = 3

# A candidate window: (token length of its body, body).
Window = tuple[int, Program]


def check_w(w: float) -> float:
    """w, the library size penalty from the prior, if it is finite and nonnegative."""
    if not 0 <= w < math.inf:
        raise ValueError(f"w must be finite and nonnegative, got {w!r}")
    return w


class Adoption(NamedTuple):
    fragment: Fragment
    score_delta: float


def _mdl_table(sequence: Program, expansions: Sequence[Program]) -> list[tuple[int, int, int]]:
    """Suffix DP over token positions: (cost, chunk count, -step) of the cheapest
    tokenization of each suffix; the chunk count breaks cost ties toward fewer
    references, and the step, the number of tokens its first token covers,
    breaks what ties remain toward the longest first step."""
    # Only the expansions that start with sequence[i] can match at i; the
    # minimum below does not depend on the order they are tried in.
    by_first: dict[dsl.Token, list[Program]] = {}
    for expansion in expansions:
        by_first.setdefault(expansion[0], []).append(expansion)
    n = len(sequence)
    best: list[tuple[int, int, int]] = [(0, 0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail = best[i + 1]
        token = sequence[i]
        entry = (dsl.token_cost(token) + tail[0], tail[1], -1)
        for expansion in by_first.get(token, ()):
            j = i + len(expansion)
            if j <= n and sequence[i:j] == expansion:
                tail_j = best[j]
                candidate = (1 + tail_j[0], 1 + tail_j[1], i - j)
                if candidate < entry:
                    entry = candidate
        best[i] = entry
    return best


@lru_cache(maxsize=1 << 18)
def _mdl_cost(sequence: Program, expansions: tuple[Program, ...]) -> int:
    """MDL of a base sequence; expansions is the sorted tuple of fragment expansions.

    Only the cost is cached: caching the whole table would cost about 1 KB
    per entry across thousands of distinct (sequence, library) keys.
    """
    return _mdl_table(sequence, expansions)[0][0]


def _walk(sequence: Program, table: list[tuple[int, int, int]],
          by_expansion: dict[Program, str]) -> Program:
    """The tokenization _mdl_table(sequence, ...) records: at each position, the
    step its entry holds, as the base token or as the id of the fragment whose
    expansion the step covers."""
    tokens: list[str] = []
    i = 0
    while i < len(sequence):
        _, chunks, step = table[i]
        j = i - step
        # A step that adds no chunk reference is the base token itself.
        tokens.append(sequence[i] if chunks == table[j][1] else by_expansion[sequence[i:j]])
        i = j
    return tuple(tokens)


def shortest_tokenization(base_sequence: Program, library: Library) -> Program:
    """A cheapest program over the library that inlines to base_sequence;
    deterministic regardless of fragment ordering.

    Ties prefer fewer chunk references, then the leftmost-longest match: the
    walk takes the step _mdl_table records at each position.
    """
    sequence = tuple(base_sequence)
    by_expansion = {f.expansion: f.id for f in library.fragments}
    return _walk(sequence, _mdl_table(sequence, sorted(by_expansion)), by_expansion)


def _candidate_windows(pairs: Iterable[tuple[Program, Program]],
                       library: Library) -> dict[Program, Window]:
    """Every window of each (scene, rewrite) pair's rewrite under the library,
    keyed by the substring of the scene it inlines to, at its cheapest (token
    length, body). The window rewrite[i:j] inlines to scene[pos[i]:pos[j]],
    where pos runs over the tokens' expansion lengths, a base token counting 1."""
    sizes = {f.id: len(f.expansion) for f in library.fragments}
    windows: dict[Program, Window] = {}
    for scene, rewrite in pairs:
        pos = [0]
        units = [0]
        for token in rewrite:
            pos.append(pos[-1] + sizes.get(token, 1))
            units.append(units[-1] + dsl.token_cost(token))
        for i in range(len(rewrite)):
            for j in range(i + 1, len(rewrite) + 1):
                expansion = scene[pos[i]:pos[j]]
                window = (units[j] - units[i], rewrite[i:j])
                current = windows.get(expansion)
                if current is None or window < current:
                    windows[expansion] = window
    return windows


@lru_cache(maxsize=1 << 6)
def _scene_windows(scene: Program) -> dict[Program, tuple[int, int, tuple[int, ...]]]:
    """{expansion: (token length, disjoint count, starts)} for every window of a
    base scene that is at least 2 units long and places a block, in one pass over
    the scene. The count is a greedy left-to-right count of non-overlapping
    occurrences (maximal for a fixed length); starts lists every occurrence,
    overlapping ones included. The dict is cached per scene: read it only."""
    starts: dict[Program, list[int]] = {}
    counts: dict[Program, int] = {}
    ends: dict[Program, int] = {}  # where each pattern's last counted occurrence ends
    n = len(scene)
    for i in range(n):
        for j in range(i + 1, n + 1):
            pattern = scene[i:j]
            starts.setdefault(pattern, []).append(i)
            if ends.get(pattern, 0) <= i:
                counts[pattern] = counts.get(pattern, 0) + 1
                ends[pattern] = j
    return {pattern: (length, counts[pattern], tuple(found)) for pattern, found in starts.items()
            if (length := dsl.token_length(pattern)) >= 2 and dsl.count_placements(pattern) > 0}


# One row of a scene table: a candidate expansion, its cheapest base window,
# and (scene index, disjoint count, start positions) for each scene it occurs in.
SceneRow = tuple[Program, Window, tuple[tuple[int, int, tuple[int, ...]], ...]]


@lru_cache(maxsize=1 << 6)
def _scene_table(scenes: tuple[Program, ...]) -> tuple[SceneRow, ...]:
    """Every candidate expansion of the base scenes, in no particular order, with its
    window and where it occurs: each window of a scene that is at least 2 units long
    and places a block, as its own body; neither depends on the library. It merges
    the scenes' cached _scene_windows, so each scene is passed over once."""
    rows: dict[Program, tuple[Window, list[tuple[int, int, tuple[int, ...]]]]] = {}
    for n, scene in enumerate(scenes):
        for expansion, (length, count, starts) in _scene_windows(scene).items():
            rows.setdefault(expansion, ((length, expansion), []))[1].append((n, count, starts))
    return tuple((expansion, window, tuple(present))
                 for expansion, (window, present) in rows.items())


def update_library_with_log(library: Library, observed: Sequence[Program],
                            w: float) -> tuple[Library, list[Adoption]]:
    """Greedy per-trial growth; returns the new library and what was adopted."""
    scene_counts = tuple(sorted(Counter(tuple(p) for p in observed).items()))
    current, adoptions = _learning_step(library, scene_counts, w)
    return current, list(adoptions)


class Round(NamedTuple):
    """One adoption round over a scene set under a library."""

    expansions: tuple[Program, ...]  # the library's, sorted: the MDL cache key
    costs: tuple[int, ...]           # each scene's MDL under the library
    # Per scene, (prefix, suffix): the MDL of scene[:p] and of scene[p:] under
    # the library, for every position p.
    columns: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    rows: tuple[SceneRow, ...]       # the candidates, each at its cheapest window


def _cost_column(table: list[tuple[int, int, int]]) -> tuple[int, ...]:
    return tuple(cost for cost, _, _ in table)


@lru_cache(maxsize=1 << 9)
def _round(scenes: tuple[Program, ...], library: Library) -> Round:
    """An adoption round over the scenes under the library: the library's sorted
    expansions, each scene's MDL and cost columns under it, and the table's rows
    for the expansions it does not know, each at its cheapest window. The scene
    counts only weight a round, so rounds that differ only in counts share it.

    Each scene's _mdl_table gives its rewrite, its suffix column and its MDL;
    the prefix column is the same DP run over the reversed scene and the
    reversed expansions, read back to front."""
    expansions = tuple(sorted(library.expansions()))
    by_expansion = {f.expansion: f.id for f in library.fragments}
    reversed_expansions = [expansion[::-1] for expansion in expansions]
    rewritten = []
    columns = []
    for seq in scenes:
        table = _mdl_table(seq, expansions)
        rewritten.append(_walk(seq, table, by_expansion))
        columns.append((_cost_column(_mdl_table(seq[::-1], reversed_expansions))[::-1],
                        _cost_column(table)))
    # Rewrites under the library let chunks nest inside later fragments. A
    # rewrite's window inlines to a substring of its scene, so it can only offer
    # a cheaper body for an expansion the table holds; a rewrite with no chunk
    # reference is its scene and offers nothing.
    cheaper = _candidate_windows([(seq, p) for seq, p in zip(scenes, rewritten) if p != seq],
                                 library)
    known = set(expansions)
    rows = []
    for row in _scene_table(scenes):
        expansion, window, present = row
        if expansion not in known:
            rewrite = cheaper.get(expansion)
            rows.append(row if rewrite is None or window < rewrite
                        else (expansion, rewrite, present))
    return Round(expansions, tuple(suffix[0] for _, suffix in columns), tuple(columns),
                 tuple(rows))


@lru_cache(maxsize=1 << 12)
def _learning_step(library: Library, scene_counts: tuple[tuple[Program, int], ...],
                   w: float) -> tuple[Library, tuple[Adoption, ...]]:
    """update_library_with_log on sorted (scene, count) pairs, so that a state
    the learner has already met is answered from the cache.

    A candidate is scored only on the scenes it occurs in: elsewhere the DP
    cannot use it, so the scene keeps its MDL. Where it fits a scene once, any
    tokenization uses it at most once and the parts either side of that use
    cannot hold it, so the scene's MDL with it is the cheaper of its current
    MDL and, over each start p, prefix[p] + 1 + suffix[p + len(expansion)].
    Only a scene that holds two or more disjoint occurrences runs the DP."""
    scenes = tuple(seq for seq, _ in scene_counts)
    counts = [count for _, count in scene_counts]
    current = library
    adoptions: list[Adoption] = []
    for _ in range(MAX_FRAGMENTS_PER_TRIAL):
        expansions, costs, columns, rows = _round(scenes, current)
        best_delta = 0.0
        best: tuple[Program, Program] | None = None
        for expansion, (length, body), present in rows:
            size_cost = w * length
            occurrences = 0
            for n, found, _ in present:  # a plain loop: sum() of a generator is 3x slower here
                occurrences += counts[n] * found
            if occurrences * (length - 1) <= size_cost:
                continue
            span = len(expansion)
            trial_key = None
            saving = 0
            for n, found, starts in present:
                if found == 1:
                    prefix, suffix = columns[n]
                    cost = costs[n]
                    for p in starts:
                        split = prefix[p] + 1 + suffix[p + span]
                        if split < cost:
                            cost = split
                else:
                    if trial_key is None:
                        # The sorted expansions with this one inserted in place.
                        at = bisect_left(expansions, expansion)
                        trial_key = expansions[:at] + (expansion,) + expansions[at:]
                    cost = _mdl_cost(scenes[n], trial_key)
                saving += counts[n] * (costs[n] - cost)
            delta = saving - size_cost
            # Ties go to the smallest expansion, so the rows' order decides nothing.
            if delta > best_delta or (delta == best_delta and best and expansion < best[0]):
                best_delta = delta
                best = (expansion, body)
        if best is None:
            break
        expansion, body = best
        # Only the learner makes fragments, so the ids run chunk1, chunk2, ...;
        # with_fragment rejects a duplicate.
        fragment = Fragment(f"chunk{len(current.fragments) + 1}", body, expansion)
        current = current.with_fragment(fragment)
        adoptions.append(Adoption(fragment, best_delta))
    return current, tuple(adoptions)



# ---------------------------------------------------------------------------
# Learning over a trial sequence

SUB_TOWER = "sub_tower"
TOWER = "tower"
SCENE = "scene"
OTHER = "other"
FRAGMENT_LEVELS = (SUB_TOWER, TOWER, SCENE, OTHER)
BLOCK_LEVEL = "block"
STEP_LEVELS = (BLOCK_LEVEL,) + FRAGMENT_LEVELS
# The level of a step that sends a base token; a chunk's step takes its fragment's.
_BASE_LEVELS = {token: "move" if dsl.is_move(token) else BLOCK_LEVEL
                for token in dsl.BASE_TOKENS}
REPETITION_BLOCKS = 4


class TrialSpec(NamedTuple):
    repetition_block: int
    left: str
    right: str


class TrialSequence(NamedTuple):
    trials: tuple[TrialSpec, ...]
    seed: int


class FragmentSnapshot(NamedTuple):
    id: str
    body: str
    expansion: str
    level: str
    adopted_trial: int
    score_delta: float


class LearnedTrial(NamedTuple):
    target: frozenset[BlockPlacement]       # the trial's scene
    program: Program                        # the target's canonical program
    library: Library                        # after learning from this trial's scene
    adopted: tuple[FragmentSnapshot, ...]   # fragments this trial added


@lru_cache(maxsize=1 << 6)
def _base_scene(left: frozenset[BlockPlacement],
                right: frozenset[BlockPlacement]) -> tuple[frozenset[BlockPlacement], Program]:
    """A trial's target scene and its canonical program, derived once per tower pair."""
    target = compose_scene(left, right)
    return target, dsl.canonical_program(target)


def _shape(blocks: Collection[BlockPlacement]) -> frozenset[BlockPlacement]:
    """The blocks moved left so that the leftmost one stands in column 0."""
    min_x = min(b.x for b in blocks)
    return frozenset(b.translate(-min_x) for b in blocks)


def classify_fragment(expansion: Program, towers: Collection[frozenset[BlockPlacement]]) -> str:
    """Bucket a fragment by the configuration its expansion builds.

    2-3 placements is sub-tower level; 4 placements that exactly rebuild one
    stimulus is tower level; 8 placements is scene level; anything else is other.
    `towers` holds the stimuli's shapes. The expansion must be a window of a
    scene's canonical program, as every adopted one is: a scene is two 4-block
    towers, so a window that places 8 blocks is the whole scene. A 4-block
    expansion runs from column 30 of an empty 64x32 grid, which it cannot leave:
    only its shape decides.
    """
    n = dsl.count_placements(expansion)
    if n == 8:
        return SCENE
    if n == 4:
        return TOWER if _shape(dsl.execute(expansion, 30, 64, 32)) in towers else OTHER
    return SUB_TOWER if 2 <= n <= 3 else OTHER


def library_trajectory(sequence: TrialSequence, w: float,
                       stimuli: dict[str, frozenset[BlockPlacement]]) -> tuple[LearnedTrial, ...]:
    """Library learning over a trial sequence, one entry per trial.

    Learning sees only the target scenes, never the RNG or the communication,
    so every dyad over the same sequence and w shares one trajectory.
    """
    tower_shapes = frozenset(_shape(blocks) for blocks in stimuli.values())
    library = Library()
    scenes: list[Program] = []
    trials: list[LearnedTrial] = []
    for index, spec in enumerate(sequence.trials, start=1):
        target, program = _base_scene(stimuli[spec.left], stimuli[spec.right])
        scenes.append(program)
        library, adoptions = update_library_with_log(library, scenes, w)
        adopted = tuple(
            FragmentSnapshot(
                id=a.fragment.id,
                body=dsl.print_program(a.fragment.body),
                expansion=dsl.print_program(a.fragment.expansion),
                level=classify_fragment(a.fragment.expansion, tower_shapes),
                adopted_trial=index,
                score_delta=a.score_delta,
            )
            for a in adoptions)
        trials.append(LearnedTrial(target, program, library, adopted))
    return tuple(trials)


def snapshot_level_proportions(snapshots: Sequence[FragmentSnapshot],
                               n_trials: int) -> list[dict[str, float]]:
    """Per trial 0..n_trials: proportion of the library's fragments at each level."""
    rows = []
    for trial in range(n_trials + 1):
        fragments = [s for s in snapshots if s.adopted_trial <= trial]
        row = {"trial": float(trial)}
        for level in FRAGMENT_LEVELS:
            row[level] = (sum(1 for s in fragments if s.level == level) / len(fragments)
                          if fragments else 0.0)
        rows.append(row)
    return rows


def step_levels(final_library: Sequence[FragmentSnapshot]) -> dict[str, str]:
    """The level of each token a dyad's programs send: a base token's from
    _BASE_LEVELS, a chunk's from its fragment's snapshot in final_library."""
    return {**_BASE_LEVELS, **{snapshot.id: snapshot.level for snapshot in final_library}}
