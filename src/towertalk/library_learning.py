"""Fragment proposal, minimum description length, and greedy library growth.

After each trial the learner proposes contiguous token windows of the scene
programs seen so far (re-tokenized under the current library, so chunks can
nest), scores each candidate extension by an unnormalized log posterior

    score(L) = -w * size(L) - sum_n MDL(scene_n | L)

and adopts the single best strictly-improving fragment, up to
MAX_FRAGMENTS_PER_TRIAL rounds per trial.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from . import dsl
from .blockworld import RIGHT_ORIGIN, BlockPlacement, TowerStimulus, empty_grid
from .dsl import EMPTY_LIBRARY, Fragment, Library, Program

PRIMITIVE_COUNT = "primitive_count"
BODY_TOKEN_SUM = "body_token_sum"

SUB_TOWER = "sub_tower"
TOWER = "tower"
SCENE = "scene"
OTHER = "other"
FRAGMENT_LEVELS = (SUB_TOWER, TOWER, SCENE, OTHER)

# Greedy adoption rounds after each trial.
MAX_FRAGMENTS_PER_TRIAL = 3

# A candidate window: (token length of its body, body).
Window = tuple[int, Program]


@dataclass(frozen=True)
class LearningConfig:
    """Library learning knobs; w is the library size penalty from the prior."""

    w: float
    size_rule: str = PRIMITIVE_COUNT

    def __post_init__(self) -> None:
        if not 0 <= self.w < math.inf:
            raise ValueError(f"w must be finite and nonnegative, got {self.w!r}")
        if self.size_rule not in (PRIMITIVE_COUNT, BODY_TOKEN_SUM):
            raise ValueError(f"unknown size_rule {self.size_rule!r}")


class Adoption(NamedTuple):
    fragment: Fragment
    score_delta: float


def library_size(library: Library, size_rule: str) -> int:
    """Library size for the prior: the base primitives plus each fragment's size cost."""
    return dsl.BASE_PRIMITIVE_COUNT + sum(
        fragment_size_cost(f.body, size_rule) for f in library.fragments)


def fragment_size_cost(body: Program, size_rule: str) -> int:
    """One per fragment under primitive_count, its body's length under body_token_sum."""
    return 1 if size_rule == PRIMITIVE_COUNT else dsl.token_length(body)


def _mdl_table(sequence: Program, expansions: Sequence[Program]) -> list[tuple[int, int]]:
    """Suffix DP over token positions: (cost, chunk count) of the cheapest
    tokenization of each suffix; the chunk count breaks cost ties toward
    fewer references."""
    n = len(sequence)
    best: list[tuple[int, int]] = [(0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail = best[i + 1]
        entry = (dsl.token_cost(sequence[i]) + tail[0], tail[1])
        for expansion in expansions:
            j = i + len(expansion)
            if j <= n and sequence[i:j] == expansion:
                tail_j = best[j]
                candidate = (1 + tail_j[0], 1 + tail_j[1])
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


def mdl(base_sequence: Program, library: Library) -> int:
    """Length in units of the cheapest program over the library that inlines to base_sequence."""
    if not all(dsl.is_base_token(t) for t in base_sequence):
        raise ValueError("mdl expects a base-level sequence")
    return _mdl_cost(tuple(base_sequence), tuple(sorted(library.expansions())))


def shortest_tokenization(base_sequence: Program, library: Library) -> Program:
    """A witness program for mdl(); deterministic regardless of fragment ordering.

    Ties prefer fewer chunk references, then the leftmost-longest match.
    """
    sequence = tuple(base_sequence)
    n = len(sequence)
    by_expansion = {f.expansion: f.id for f in library.fragments}
    expansions = sorted(by_expansion)
    best = _mdl_table(sequence, expansions)
    tokens: list[str] = []
    i = 0
    while i < n:
        # Walk the table: at each position, the longest advance that is optimal.
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


def _keep_cheapest(windows: dict[Program, Window], expansion: Program, window: Window) -> None:
    """Record window for expansion unless a shorter (then lexically smaller) body is known."""
    current = windows.get(expansion)
    if current is None or window < current:
        windows[expansion] = window


@lru_cache(maxsize=1 << 12)
def _program_windows(program: Program, library: Library) -> tuple[tuple[Program, Window], ...]:
    """(expansion, cheapest window) for every valid window of one program, in order of
    first appearance; known expansions are kept, _candidate_windows drops them."""
    windows: dict[Program, Window] = {}
    n = len(program)
    for i in range(n):
        for j in range(i + 1, n + 1):
            body = program[i:j]
            length = dsl.token_length(body)
            if length < 2:
                continue
            expansion = dsl.inline(body, library)
            if dsl.count_placements(expansion) > 0:
                _keep_cheapest(windows, expansion, (length, body))
    return tuple(windows.items())


def _candidate_windows(programs: Iterable[Program], library: Library) -> dict[Program, Window]:
    """All valid contiguous windows, keyed by base expansion, keeping the cheapest
    (token length, body)."""
    known = set(library.expansions())
    windows: dict[Program, Window] = {}
    for program in programs:
        # Inlining base tokens ignores the library, so one table serves every library.
        key = EMPTY_LIBRARY if all(dsl.is_base_token(t) for t in program) else library
        for expansion, window in _program_windows(program, key):
            if expansion not in known:
                _keep_cheapest(windows, expansion, window)
    return windows


def library_score(library: Library, scenes: Sequence[Program], cfg: LearningConfig) -> float:
    """Unnormalized log posterior: -w * size(L) - sum of scene MDLs."""
    total = sum(mdl(scene, library) for scene in scenes)
    return -cfg.w * library_size(library, cfg.size_rule) - total


@lru_cache(maxsize=1 << 8)
def _disjoint_counts(scene: Program) -> dict[Program, int]:
    """Greedy left-to-right count of non-overlapping occurrences (maximal for a fixed
    length) of every contiguous subsequence of scene; a pattern that does not occur
    has no entry. The caller must not change the returned dict."""
    counts: dict[Program, int] = {}
    ends: dict[Program, int] = {}  # where each pattern's last counted occurrence ends
    n = len(scene)
    for i in range(n):
        for j in range(i + 1, n + 1):
            pattern = scene[i:j]
            if ends.get(pattern, 0) <= i:
                counts[pattern] = counts.get(pattern, 0) + 1
                ends[pattern] = j
    return counts


def _next_fragment_id(library: Library) -> str:
    used = set(library.ids())
    n = len(library.fragments) + 1
    while f"chunk{n}" in used:
        n += 1
    return f"chunk{n}"


def update_library_with_log(library: Library, observed: Sequence[Program],
                            cfg: LearningConfig) -> tuple[Library, list[Adoption]]:
    """Greedy per-trial growth; returns the new library and what was adopted."""
    scene_counts = tuple(sorted(Counter(tuple(p) for p in observed).items()))
    current, adoptions = _learning_step(library, scene_counts, cfg)
    return current, list(adoptions)


@lru_cache(maxsize=1 << 12)
def _learning_step(library: Library, scene_counts: tuple[tuple[Program, int], ...],
                   cfg: LearningConfig) -> tuple[Library, tuple[Adoption, ...]]:
    """update_library_with_log on sorted (scene, count) pairs, so that a state
    the learner has already met is answered from the cache."""
    scenes = [seq for seq, _ in scene_counts]
    current = library
    adoptions: list[Adoption] = []
    for _ in range(MAX_FRAGMENTS_PER_TRIAL):
        expansions_key = tuple(sorted(current.expansions()))
        scored = [(seq, count, _mdl_cost(seq, expansions_key), _disjoint_counts(seq))
                  for seq, count in scene_counts]
        # Windows come from the base programs and from their rewrites under the
        # current library, so plain subsequences stay proposable while chunks
        # can still nest inside later fragments.
        rewritten = [shortest_tokenization(seq, current) for seq in scenes]
        windows = _candidate_windows(scenes + rewritten, current)
        best_delta = 0.0
        best: tuple[Program, Program] | None = None
        for expansion in sorted(windows):
            length, body = windows[expansion]
            size_cost = cfg.w * (1 if cfg.size_rule == PRIMITIVE_COUNT else length)
            # The DP can use the expansion only where it occurs, so a scene
            # without it keeps its current MDL and adds nothing to the saving.
            present = [(seq, count, cost, counts[expansion])
                       for seq, count, cost, counts in scored if expansion in counts]
            occurrences = sum(count * found for _, count, _, found in present)
            if occurrences * (length - 1) <= size_cost:
                continue
            trial_key = tuple(sorted(expansions_key + (expansion,)))
            saving = sum(count * (cost - _mdl_cost(seq, trial_key))
                         for seq, count, cost, _ in present)
            delta = saving - size_cost
            if delta > best_delta:
                best_delta = delta
                best = (expansion, body)
        if best is None:
            break
        expansion, body = best
        fragment = Fragment(_next_fragment_id(current), body, expansion)
        current = current.with_fragment(fragment)
        adoptions.append(Adoption(fragment, best_delta))
    return current, tuple(adoptions)


def _normalized_configuration(placements: Sequence[BlockPlacement]) -> frozenset[BlockPlacement]:
    if not placements:
        return frozenset()
    min_x = min(b.x for b in placements)
    return frozenset(b.translate(-min_x) for b in placements)


def _execute_relative(expansion: Program) -> frozenset[BlockPlacement] | None:
    """Run a base sequence on a wide empty grid and normalize the result's x origin."""
    grid = empty_grid(width=64, height=32)
    try:
        _, placed = dsl.execute(expansion, EMPTY_LIBRARY, start_x=30, grid=grid)
    except (dsl.ProgramError, ValueError):
        return None
    return _normalized_configuration(placed)


def classify_fragment(fragment: Fragment, stimuli: Sequence[TowerStimulus]) -> str:
    """Bucket a fragment by the configuration its expansion builds.

    2-3 placements is sub-tower level; 4 placements that exactly rebuild one
    stimulus is tower level; 8 placements that rebuild a side-by-side pair of
    stimuli is scene level; anything else is other.
    """
    n = dsl.count_placements(fragment.expansion)
    if 2 <= n <= 3:
        return SUB_TOWER
    if n not in (4, 8):
        return OTHER
    config = _execute_relative(fragment.expansion)
    if config is None:
        return OTHER
    if n == 4:
        for tower in stimuli:
            if config == _normalized_configuration(sorted(tower.blocks)):
                return TOWER
        return OTHER
    for left in stimuli:
        for right in stimuli:
            pair = left.blocks | {b.translate(RIGHT_ORIGIN) for b in right.blocks}
            if config == _normalized_configuration(sorted(pair)):
                return SCENE
    return OTHER

