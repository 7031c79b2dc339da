"""Fragment proposal, minimum description length, and greedy library growth.

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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from . import dsl
from .dsl import Fragment, Library, Program

BODY_TOKEN_SUM = "body_token_sum"

# Greedy adoption rounds after each trial.
MAX_FRAGMENTS_PER_TRIAL = 3

# A candidate window: (token length of its body, body).
Window = tuple[int, Program]


@dataclass(frozen=True)
class LearningConfig:
    """Library learning knobs; w is the library size penalty from the prior."""

    w: float

    def __post_init__(self) -> None:
        if not 0 <= self.w < math.inf:
            raise ValueError(f"w must be finite and nonnegative, got {self.w!r}")


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
                            cfg: LearningConfig) -> tuple[Library, list[Adoption]]:
    """Greedy per-trial growth; returns the new library and what was adopted."""
    scene_counts = tuple(sorted(Counter(tuple(p) for p in observed).items()))
    current, adoptions = _learning_step(library, scene_counts, cfg)
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
                   cfg: LearningConfig) -> tuple[Library, tuple[Adoption, ...]]:
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
            size_cost = cfg.w * length
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

