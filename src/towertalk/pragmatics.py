"""Architect and Builder agents.

Words for base primitives share their token surface ("h", "v", "l3", ...) and
are unambiguous. Each learned fragment mints one synthetic word ("chunkA",
"chunkB", ...); neither agent knows the other's word-to-fragment mapping, so
the Architect's belief is the set of bijections between the current synthetic
words and fragments that the Builder's visible block placements have not ruled
out. Observations are 0/1, so the belief is uniform over that set, and every
probability is a count of lexicons over the total.

Both agents act on the library the belief was extended by: the belief's
fragments are the library's ids. So every lexicon gives each chunk one word,
and a word heard for the first time always finds a fragment no word has claimed.

The set is stored in factored form, as disjoint components. A component is a
sorted tuple of (words, fragments) pools and holds every lexicon that binds
each pool's words one to one to its fragments; a known binding is a pool of
one word. The full permutation space is never materialized.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import dsl
from .blockworld import (
    GRID_WIDTH,
    HORIZONTAL,
    VERTICAL,
    BlockPlacement,
    PlacementError,
    drop_block,
)
from .dsl import Library, Program, Token
from .library_learning import shortest_tokenization

# The most encodings of a scene the Architect weighs on one trial.
MAX_CANDIDATES = 4


class PragmaticsConfig(NamedTuple("PragmaticsConfig", [("alpha", float), ("beta", float)])):
    """Speaker optimality (alpha) and cost sensitivity (beta) for the Architect.

    The checks run in __new__, which a class-syntax NamedTuple may not define;
    _replace and _make skip them.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float) -> "PragmaticsConfig":
        if not alpha >= 0:  # also rejects NaN; inf selects the argmax speaker
            raise ValueError(f"alpha must be nonnegative, got {alpha!r}")
        if not 0 <= beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        return super().__new__(cls, alpha, beta)


def synthetic_word(index: int) -> str:
    """Spreadsheet-style word names: chunkA, chunkB, ..., chunkZ, chunkAA, ..."""
    letters = ""
    n = index
    while True:
        letters = chr(ord("A") + n % 26) + letters
        n = n // 26 - 1
        if n < 0:
            break
    return "chunk" + letters


# ---------------------------------------------------------------------------
# Belief over lexicons

# A sorted tuple of disjoint (words, fragments) pools: the lexicons that bind
# each pool's words one to one to its fragments.
Component = tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


class BeliefState(NamedTuple):
    """The word-to-fragment bijections the Architect has not ruled out."""

    components: tuple[Component, ...]


def initial_belief() -> BeliefState:
    return BeliefState(((),))


def hypothesis_count(component: Component) -> int:
    """The number of lexicons in a component: the bijections of each pool, multiplied."""
    return math.prod(math.factorial(len(words)) for words, _ in component)


def extend_hypotheses(belief: BeliefState, library: Library) -> BeliefState:
    """Extend the belief to cover the library.

    Each fragment past those the belief covers gets the next synthetic word,
    and every existing lexicon extends with every bijection between the new
    words and the new fragments.
    """
    covered = sum(len(words) for words, _ in belief.components[0])
    new_frags = library.ids()[covered:]
    if not new_frags:
        return belief
    pool = (tuple(sorted(synthetic_word(covered + k) for k in range(len(new_frags)))),
            tuple(sorted(new_frags)))
    return BeliefState(tuple(sorted(tuple(sorted(c + (pool,))) for c in belief.components)))


def update_belief(belief: BeliefState, word: str,
                  observed: Sequence[BlockPlacement], library: Library, *,
                  heights: tuple[int, ...], hand: int) -> tuple[BeliefState, bool]:
    """Condition on the Builder's placements for one word.

    A lexicon survives iff running its fragment for the word from the
    Builder's pre-step column heights and hand reproduces exactly the observed
    placements. `word` is a synthetic word of the belief, which covers
    `library`. Returns (new belief, anomaly flag); if every lexicon is ruled
    out, the belief resets to every bijection and the anomaly flag is set.
    """
    observed = tuple(observed)

    def consistent(frag_id: str) -> bool:
        return lenient_run(library.resolve(frag_id).expansion, heights, hand)[2] == observed

    updated: list[Component] = []
    for comp in belief.components:
        index = next(i for i, (words, _) in enumerate(comp) if word in words)
        words, frags = comp[index]
        allowed = [f for f in frags if consistent(f)]
        if len(allowed) == len(frags):
            # Uninformative for this component; leave it unsplit.
            updated.append(comp)
            continue
        # A one-word pool is kept or dropped whole, so a split pool leaves words.
        others = comp[:index] + comp[index + 1:]
        for frag in allowed:
            rest = (tuple(w for w in words if w != word), tuple(f for f in frags if f != frag))
            updated.append(tuple(sorted(others + (((word,), (frag,)), rest))))
    if not updated:
        return extend_hypotheses(initial_belief(), library), True
    return BeliefState(tuple(sorted(updated))), False


def belief_entropy(belief: BeliefState) -> float:
    """Shannon entropy (bits) of the belief, which is uniform over its lexicons."""
    return math.log2(sum(hypothesis_count(c) for c in belief.components))


# ---------------------------------------------------------------------------
# Architect: candidate programs, utilities, utterance choice

@lru_cache(maxsize=1 << 10)
def candidate_programs(base: Program, library: Library) -> tuple[Program, ...]:
    """1..MAX_CANDIDATES distinct encodings of a scene, shortest first.

    `base` is the scene's base-level canonical program. The pool is that
    program, its shortest tokenization under the full library, and its
    shortest tokenization under each single-fragment sublibrary; the base
    program always survives truncation so the Architect is never without a
    safe option. The encodings read neither the belief nor the RNG, so the
    dyads that share a library trajectory share them through the cache.
    """
    pool = {base}
    if library.fragments:
        pool.add(shortest_tokenization(base, library))
        for fragment in library.fragments:
            pool.add(shortest_tokenization(base, Library((fragment,))))
    ordered = sorted(pool, key=lambda p: (dsl.token_length(p), p))
    chosen = ordered[:MAX_CANDIDATES]
    if base not in chosen:
        chosen[-1] = base
    return tuple(chosen)


def _best_word(token: Token, belief: BeliefState) -> tuple[str, float]:
    """The word with the highest marginal listener probability for a chunk
    token (ties to the smallest), and that probability: the number of lexicons
    that bind the word to the token over the total. One pass over the
    components counts them: a pool whose fragments hold the token counts
    n // pool size of its component's n lexicons for each of its words."""
    counts: dict[str, int] = {}
    total = 0
    for comp in belief.components:
        n = hypothesis_count(comp)
        total += n
        for words, frags in comp:
            if token in frags:
                for word in words:
                    counts[word] = counts.get(word, 0) + n // len(frags)
    best = min(counts, key=lambda word: (-counts[word], word))
    return best, counts[best] / total


def architect_choose(base: Program, library: Library, belief: BeliefState,
                     cfg: PragmaticsConfig, rng: random.Random) -> tuple[Program, tuple[str, ...]]:
    """Sample a (program, utterance) pair for the scene whose base program is
    `base` from the softmax over joint utility.

    A candidate's utterance sends each base token as itself and each chunk
    token as its best word; its joint utility is (1-beta) * the sum of log
    marginal listener probabilities - beta * program length. The belief is
    fixed for the call, so each chunk token's best word is found once for all
    candidates. A base token's marginal is 1, adding log(1) == 0, so the sum
    skips it.
    """
    best: dict[Token, tuple[str, float]] = {}
    pairs = []
    for program in candidate_programs(base, library):
        words: list[str] = []
        informativity = 0.0
        for token in program:
            if dsl.is_base_token(token):
                words.append(token)
                continue
            if token not in best:
                best[token] = _best_word(token, belief)
            word, prob = best[token]
            informativity += math.log(prob)
            words.append(word)
        utility = (1 - cfg.beta) * informativity - cfg.beta * dsl.token_length(program)
        pairs.append((program, tuple(words), utility))
    if math.isinf(cfg.alpha):
        return max(pairs, key=lambda p: p[2])[:2]
    top = max(utility for _, _, utility in pairs)
    weights = [math.exp(cfg.alpha * (utility - top)) for _, _, utility in pairs]
    return rng.choices(pairs, weights)[0][:2]


# ---------------------------------------------------------------------------
# Builder

@lru_cache(maxsize=1 << 12)
def lenient_run(tokens: Program, heights: tuple[int, ...],
                hand: int) -> tuple[tuple[int, ...], int, tuple[BlockPlacement, ...]]:
    """Best-effort base-token execution on the GRID_WIDTH x GRID_HEIGHT grid: the
    hand clamps at the walls and drops that cannot fit are skipped rather than
    raised. Returns the final column heights, the hand and the new placements.
    Where a drop lands depends only on the column heights, so the Builder's steps
    and the belief update's re-executions of one fragment from one state share
    a run."""
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


def builder_interpret(word: str, bindings: dict[str, str], library: Library,
                      rng: random.Random) -> Program:
    """The base tokens a word means: a base word is itself, a synthetic word its
    bound fragment's expansion. A first hearing binds the word uniformly at
    random to a library fragment no other word has claimed, in `bindings`."""
    if dsl.is_base_token(word):
        return (word,)
    fragment_id = bindings.get(word)
    if fragment_id is None:
        taken = set(bindings.values())
        unbound = sorted(f for f in library.ids() if f not in taken)
        fragment_id = bindings[word] = rng.choice(unbound)
    return library.resolve(fragment_id).expansion
