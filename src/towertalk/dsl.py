"""The tower-building language.

Programs are flat sequences of string tokens:

    "h" / "v"        place a horizontal / vertical block at the hand column
    "l3" / "r2"      move the hand left / right by 1..9 columns
    "chunk1", ...    invoke a learned fragment's body at the current hand

A place or chunk token counts as one description unit; a move counts as two
(direction plus digit), matching the written surface form ``(r 2)``.
"""

from __future__ import annotations

from typing import NamedTuple

from .blockworld import GRID_HEIGHT, GRID_WIDTH, HORIZONTAL, VERTICAL, BlockPlacement, drop_block

Token = str
Program = tuple[Token, ...]

PLACE_H = "h"
PLACE_V = "v"

# The 18 move tokens: a direction and a distance of 1..9 columns.
_MOVES = frozenset(f"{d}{n}" for d in "lr" for n in range(1, 10))
# Every token that is not a chunk reference: the two places and the moves.
BASE_TOKENS = _MOVES | {PLACE_H, PLACE_V}


class ProgramError(ValueError):
    """A malformed token or a program that cannot be executed."""


def is_move(token: Token) -> bool:
    return token in _MOVES


def is_place(token: Token) -> bool:
    return token == PLACE_H or token == PLACE_V


def is_base_token(token: Token) -> bool:
    return token in BASE_TOKENS


def move_delta(token: Token) -> int:
    n = int(token[1:])
    return -n if token[0] == "l" else n


def token_cost(token: Token) -> int:
    return 2 if token in _MOVES else 1


def token_length(program: Program) -> int:
    """Description length in units: moves cost 2, everything else 1."""
    return len(program) + sum(t in _MOVES for t in program)


def count_placements(program: Program) -> int:
    return sum(1 for t in program if is_place(t))


class Fragment(NamedTuple):
    """A zero-arity learned primitive: a reusable token subsequence.

    ``body`` may reference previously defined fragments; ``expansion`` is the
    fully inlined base-token form and is fixed at construction, so reference
    cycles cannot arise.
    """

    id: str
    body: Program
    expansion: Program


class Library(NamedTuple):
    """The shared primitive inventory: 13 base primitives plus learned fragments."""

    fragments: tuple[Fragment, ...] = ()

    def resolve(self, token: Token) -> Fragment:
        for fragment in self.fragments:
            if fragment.id == token:
                return fragment
        raise ProgramError(f"unresolved chunk reference {token!r}")

    def with_fragment(self, fragment: Fragment) -> "Library":
        if any(f.id == fragment.id for f in self.fragments):
            raise ValueError(f"duplicate fragment id {fragment.id!r}")
        return Library(self.fragments + (fragment,))

    def expansions(self) -> tuple[Program, ...]:
        return tuple(f.expansion for f in self.fragments)

    def ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.fragments)


def inline(program: Program, library: Library) -> Program:
    """Replace every chunk reference by its base expansion."""
    out: list[Token] = []
    for token in program:
        if is_base_token(token):
            out.append(token)
        else:
            out.extend(library.resolve(token).expansion)
    return tuple(out)


def execute(program: Program, start_x: int, width: int, height: int) -> list[BlockPlacement]:
    """Run base tokens left to right on an empty width x height grid, the hand
    starting at start_x, and return the placements in order.

    Raises ProgramError for a token that is not a base token or a hand that
    leaves the grid, and PlacementError for a block that does not fit. To run
    a program with chunk references, the caller inlines it first.
    """
    if not (0 <= start_x < width):
        raise ProgramError(f"start column {start_x} out of bounds")
    heights = (0,) * width
    hand = start_x
    placed: list[BlockPlacement] = []
    for token in program:
        if is_move(token):
            hand += move_delta(token)
            if not (0 <= hand < width):
                raise ProgramError(f"hand moved out of bounds to column {hand}")
        elif is_place(token):
            orientation = HORIZONTAL if token == PLACE_H else VERTICAL
            heights, block = drop_block(heights, orientation, hand, height)
            placed.append(block)
        else:
            raise ProgramError(f"{token!r} is not a base token")
    return placed


def moves_between(from_x: int, to_x: int) -> Program:
    """Move tokens taking the hand from from_x to to_x, splitting spans over 9."""
    delta = to_x - from_x
    direction = "r" if delta > 0 else "l"
    tokens: list[Token] = []
    remaining = abs(delta)
    while remaining > 0:
        step = min(remaining, 9)
        tokens.append(f"{direction}{step}")
        remaining -= step
    return tuple(tokens)


def _column_clusters(blocks: frozenset[BlockPlacement]) -> list[list[BlockPlacement]]:
    """Split blocks into runs of contiguous occupied columns, left to right."""
    clusters: list[list[BlockPlacement]] = []
    right = -2  # the rightmost column covered so far; none yet
    for block in sorted(blocks):
        if block.x > right + 1:
            clusters.append([])
        clusters[-1].append(block)
        right = max(right, *(cx for cx, _ in block.cells()))
    return [sorted(cluster, key=lambda b: (b.y, b.x)) for cluster in clusters]


def default_start_x(scene: frozenset[BlockPlacement]) -> int:
    """The scene's leftmost placement column (0 if it is empty); canonical programs start there."""
    return min((b.x for b in scene), default=0)


def canonical_program(scene: frozenset[BlockPlacement]) -> Program:
    """The base-level encoding of a scene: towers left to right, blocks bottom-up.

    The hand starts at default_start_x(scene). Within each column-connected
    group, blocks are ordered by (y, x); the hand is routed between placements
    with explicit move tokens. Raises ProgramError if gravity execution of
    that order on the GRID_WIDTH x GRID_HEIGHT grid does not rebuild the scene.
    """
    start_x = hand = default_start_x(scene)
    tokens: list[Token] = []
    for cluster in _column_clusters(scene):
        for block in cluster:
            tokens.extend(moves_between(hand, block.x))
            hand = block.x
            tokens.append(PLACE_H if block.orientation == HORIZONTAL else PLACE_V)
    program = tuple(tokens)
    if frozenset(execute(program, start_x, GRID_WIDTH, GRID_HEIGHT)) != scene:
        raise ProgramError("scene is not reproducible in canonical order")
    return program


def print_program(program: Program) -> str:
    """Surface form, e.g. ``(h (l 1) v v (r 2) chunk1)``; the empty program prints as ''."""
    if not program:
        return ""
    parts = []
    for token in program:
        if is_move(token):
            parts.append(f"({token[0]} {token[1:]})")
        else:
            parts.append(token)
    return "(" + " ".join(parts) + ")"

