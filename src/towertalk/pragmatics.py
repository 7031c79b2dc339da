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

The set is stored in factored form: each component fixes some bindings and
holds every bijection of one or more unresolved word/fragment pools. The
components are disjoint, and the full permutation space is never materialized.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

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

class BeliefComponent(NamedTuple):
    """The lexicons that keep fixed bindings and biject each independent pool."""

    known: tuple[tuple[str, str], ...]
    pools: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def hypothesis_count(self) -> int:
        count = 1
        for words, _ in self.pools:
            count *= math.factorial(len(words))
        return count


class BeliefState(NamedTuple):
    """The word-to-fragment bijections the Architect has not ruled out."""

    components: tuple[BeliefComponent, ...]
    words: tuple[str, ...]
    fragments: tuple[str, ...]


def initial_belief() -> BeliefState:
    return BeliefState((BeliefComponent((), ()),), (), ())


def _normalized(comp: BeliefComponent) -> BeliefComponent:
    """Collapse singleton pools into fixed bindings."""
    known = dict(comp.known)
    pools = []
    for words, frags in comp.pools:
        if len(words) == 1:
            known[words[0]] = frags[0]
        else:
            pools.append((words, frags))
    return BeliefComponent(tuple(sorted(known.items())), tuple(sorted(pools)))


def _merge_components(components: Iterable[BeliefComponent]) -> tuple[BeliefComponent, ...]:
    # Components are disjoint sets of lexicons, so no two of them are equal.
    return tuple(sorted(_normalized(c) for c in components))


def extend_hypotheses(belief: BeliefState, words: Sequence[str],
                      fragments: Sequence[str]) -> BeliefState:
    """Grow the hypothesis space by a new word for each new fragment of the library.

    Every existing lexicon extends with every bijection between the new words
    and the new fragments.
    """
    if not words:
        return belief
    new_words = tuple(sorted(words))
    new_frags = tuple(sorted(fragments))
    pool = (new_words, new_frags)
    components = tuple(
        BeliefComponent(c.known, tuple(sorted(c.pools + (pool,))))
        for c in belief.components
    )
    return BeliefState(
        _merge_components(components),
        tuple(sorted(belief.words + new_words)),
        tuple(sorted(belief.fragments + new_frags)),
    )


def update_belief(belief: BeliefState, word: str,
                  observed: Sequence[BlockPlacement], library: Library, *,
                  heights: tuple[int, ...], hand: int) -> tuple[BeliefState, bool]:
    """Condition on the Builder's placements for one word.

    A lexicon survives iff running its fragment for the word from the
    Builder's pre-step column heights and hand reproduces exactly the observed
    placements. `word` is a synthetic word of the belief. Returns (new belief,
    anomaly flag); if every lexicon is ruled out, the belief resets to every
    bijection and the anomaly flag is set.
    """
    observed = tuple(observed)

    def consistent(frag_id: str) -> bool:
        return lenient_run(library.resolve(frag_id).expansion, heights, hand)[2] == observed

    updated: list[BeliefComponent] = []
    for comp in belief.components:
        known = dict(comp.known)
        if word in known:
            if consistent(known[word]):
                updated.append(comp)
            continue
        pool_index = next(i for i, (words, _) in enumerate(comp.pools) if word in words)
        words, frags = comp.pools[pool_index]
        allowed = [f for f in frags if consistent(f)]
        if len(allowed) == len(frags):
            # Uninformative for this component; leave it unsplit.
            updated.append(comp)
            continue
        # A normalized pool holds two or more words, so some are left.
        rest_words = tuple(w for w in words if w != word)
        for frag in allowed:
            pools = list(comp.pools)
            pools[pool_index] = (rest_words, tuple(f for f in frags if f != frag))
            updated.append(BeliefComponent(
                tuple(sorted(comp.known + ((word, frag),))), tuple(sorted(pools))))
    if not updated:
        return extend_hypotheses(initial_belief(), belief.words, belief.fragments), True
    return BeliefState(_merge_components(updated), belief.words, belief.fragments), False


def belief_entropy(belief: BeliefState) -> float:
    """Shannon entropy (bits) of the belief, which is uniform over its lexicons."""
    return math.log2(sum(c.hypothesis_count() for c in belief.components))


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
    components counts them: a known binding to the token counts each of the
    component's n lexicons, and a pool whose fragments hold the token counts
    n // pool size for each of its words."""
    counts: dict[str, int] = {}
    total = 0
    for comp in belief.components:
        n = comp.hypothesis_count()
        total += n
        for word, frag in comp.known:
            if frag == token:
                counts[word] = counts.get(word, 0) + n
        for words, frags in comp.pools:
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
