"""Discrete grid world for domino-shaped blocks.

Blocks are 2-cell dominoes dropped into columns under gravity: a block comes
to rest on top of the tallest stack among the columns it covers, so every
block is supported from beneath by at least one occupied cell (or the ground).
Once placed, blocks never move.
"""

from __future__ import annotations

import reprlib
import sys
from typing import Iterable, NamedTuple

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

# Every scene is the set of blocks of two towers side by side in one 14x8 grid:
# the left tower anchored at column 0, the right one at column 8.
GRID_WIDTH = 14
GRID_HEIGHT = 8
RIGHT_ORIGIN = 8

EMPTY_GLYPH = "."
H_GLYPH = "="
V_GLYPH = "|"


class PlacementError(ValueError):
    """A block placement that the grid cannot accept."""


class InputError(ValueError):
    """Malformed content of an input file: the one error a reader raises for it."""


class BlockPlacement(NamedTuple):
    """One placed block; (x, y) is its leftmost (horizontal) or bottom (vertical) cell."""

    x: int
    y: int
    orientation: str

    def cells(self) -> tuple[tuple[int, int], tuple[int, int]]:
        if self.orientation == HORIZONTAL:
            return ((self.x, self.y), (self.x + 1, self.y))
        return ((self.x, self.y), (self.x, self.y + 1))

    def translate(self, dx: int) -> "BlockPlacement":
        return BlockPlacement(self.x + dx, self.y, self.orientation)


def drop_block(heights: tuple[int, ...], orientation: str, x: int,
               height: int = GRID_HEIGHT) -> tuple[tuple[int, ...], BlockPlacement]:
    """Drop a block into column x of the grid whose column heights are given (its
    width is len(heights)); it rests on the tallest stack it covers. Returns the
    new column heights and the placed block; raises PlacementError if the block
    leaves the grid's width or height."""
    if orientation not in (HORIZONTAL, VERTICAL):
        raise PlacementError(f"unknown orientation {orientation!r}")
    right = x + 1 if orientation == HORIZONTAL else x
    if x < 0 or right >= len(heights):
        raise PlacementError(f"column {x} out of bounds for {orientation} block")
    y = max(heights[x], heights[right])
    top = y + (1 if orientation == HORIZONTAL else 2)
    if top > height:
        raise PlacementError(f"{orientation} block at column {x} would exceed grid height")
    block = BlockPlacement(x, y, orientation)
    return heights[:x] + (top,) * (right + 1 - x) + heights[right + 1:], block


def stimulus_towers() -> dict[str, frozenset[BlockPlacement]]:
    """The three default tower stimuli, {id: blocks} in tower-local coordinates.

    All three carry the same interior motif (a vertical block with a
    horizontal block resting against its right side) so that sub-tower
    structure recurs across towers, but each tower opens and closes
    differently, so no two share a program prefix.
    """
    v = VERTICAL
    h = HORIZONTAL
    return {
        # Ledge, motif three columns over, capped back above the ledge.
        "A": frozenset({
            BlockPlacement(0, 0, h), BlockPlacement(3, 0, v),
            BlockPlacement(4, 0, h), BlockPlacement(0, 1, v),
        }),
        # Column, motif two columns over, shelf back on the column.
        "B": frozenset({
            BlockPlacement(0, 0, v), BlockPlacement(2, 0, v),
            BlockPlacement(3, 0, h), BlockPlacement(0, 2, h),
        }),
        # Motif at the front (offset one column), column and shelf behind it.
        "C": frozenset({
            BlockPlacement(1, 0, v), BlockPlacement(2, 0, h),
            BlockPlacement(4, 0, v), BlockPlacement(4, 2, h),
        }),
    }


def validate_stimulus(tower_id: str, blocks: frozenset[BlockPlacement]) -> None:
    """Raise InputError unless tower `tower_id`'s blocks are 2 vertical + 2 horizontal
    that gravity can build: dropped in (y, x) order, each lands where it stands.

    Every cell must lie within the right side's GRID_WIDTH - RIGHT_ORIGIN columns,
    so a valid tower stands on either side and any two compose into a scene."""
    name = f"tower {reprlib.repr(tower_id)}: "
    if len(blocks) != 4:
        raise InputError(f"{name}expected 4 blocks, got {len(blocks)}")
    orientations = sorted(b.orientation for b in blocks)
    if orientations != [HORIZONTAL, HORIZONTAL, VERTICAL, VERTICAL]:
        raise InputError(f"{name}expected 2 vertical + 2 horizontal blocks")
    _check_cells(blocks, GRID_WIDTH - RIGHT_ORIGIN, GRID_HEIGHT, name)
    heights = (0,) * (GRID_WIDTH - RIGHT_ORIGIN)
    for block in sorted(blocks, key=lambda b: (b.y, b.x)):
        heights, landed = drop_block(heights, block.orientation, block.x)
        if landed != block:
            raise InputError(f"{name}contains an unsupported block")


def _check_cells(blocks: Iterable[BlockPlacement], width: int, height: int, where="") -> None:
    """Raise InputError, led by `where`, if blocks share a cell or one leaves width x height."""
    seen: set[tuple[int, int]] = set()
    for block in blocks:
        for cell in block.cells():
            if cell in seen:
                raise InputError(f"{where}blocks overlap at cell {cell}")
            if not (0 <= cell[0] < width and 0 <= cell[1] < height):
                raise InputError(f"{where}cell {reprlib.repr(cell)} falls outside the "
                                 f"{width}x{height} grid")
            seen.add(cell)


def compose_scene(left: frozenset[BlockPlacement],
                  right: frozenset[BlockPlacement]) -> frozenset[BlockPlacement]:
    """Place two towers' blocks side by side, the right one at column RIGHT_ORIGIN."""
    blocks = [*left, *(b.translate(RIGHT_ORIGIN) for b in right)]
    _check_cells(blocks, GRID_WIDTH, GRID_HEIGHT)
    return frozenset(blocks)


def f1_score(target: frozenset[BlockPlacement], built: frozenset[BlockPlacement]) -> float:
    """Harmonic mean of block precision and recall; a match is exact (x, y, orientation)."""
    if not target and not built:
        return 1.0
    if not target or not built:
        return 0.0
    true_positives = len(target & built)
    precision = true_positives / len(built)
    recall = true_positives / len(target)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def render_ascii(blocks: Iterable[BlockPlacement], width: int = GRID_WIDTH,
                 height: int = GRID_HEIGHT) -> str:
    """One glyph per cell of width x height ('=' horizontal, '|' vertical, '.' empty);
    bottom row printed last."""
    glyphs: dict[tuple[int, int], str] = {}
    for block in blocks:
        glyph = H_GLYPH if block.orientation == HORIZONTAL else V_GLYPH
        for cell in block.cells():
            glyphs[cell] = glyph
    return "\n".join("".join(glyphs.get((x, y), EMPTY_GLYPH) for x in range(width))
                     for y in range(height - 1, -1, -1))


_EXPECTED = {int: "an integer", float: "a number", str: "a string", list: "a list"}
TOWER_ID = "a tower id string"


def field(data: object, key: str | int, kind: type, where: str = "", expected: str = ""):
    """Field `key` of an input file's object `data`, or item `key` of its array, as a
    `kind`: an int field takes an integral float, a float field an int, neither a bool,
    and a float field only a finite number. Anything else is an InputError naming the
    field from `where` on, reprlib-bounded."""
    name = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}" if where else key
    if not (isinstance(data, dict) and key in data if isinstance(key, str)
            else isinstance(data, list) and 0 <= key < len(data)):
        raise InputError(f"{name}: missing")
    value = data[key]
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        expected = "a finite number" if type(value) is float else expected
    elif isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise InputError(f"{name}: expected {expected or _EXPECTED[kind]}, got {reprlib.repr(value)}")


def blocks_field(data: object, key: str, where: str, width: int = GRID_WIDTH,
                 height: int = GRID_HEIGHT) -> frozenset[BlockPlacement]:
    """Field `key` of `data` as a list of blocks, each as BlockPlacement._asdict writes it.
    Rejects an unknown orientation, and blocks that overlap or leave width x height;
    every message is named from the list's path on."""
    name = f"{where}.{key}" if where else key
    blocks = []
    for i, entry in enumerate(field(data, key, list, where)):
        x, y, orientation = (field(entry, k, kind, f"{name}[{i}]")
                             for k, kind in (("x", int), ("y", int), ("orientation", str)))
        if orientation not in (HORIZONTAL, VERTICAL):
            raise InputError(f"{name}[{i}].orientation: unknown orientation "
                             f"{reprlib.repr(orientation)}")
        blocks.append(BlockPlacement(x, y, orientation))
    _check_cells(blocks, width, height, f"{name}: ")
    return frozenset(blocks)


def scene_from_dict(data: dict) -> tuple[frozenset[BlockPlacement], int, int]:
    """A scene file's blocks, width and height, as render_ascii takes them; rejects an
    extent outside 1x1..GRID_WIDTH x GRID_HEIGHT and overlapping or outlying blocks."""
    width, height = field(data, "width", int), field(data, "height", int)
    if not (1 <= width <= GRID_WIDTH and 1 <= height <= GRID_HEIGHT):
        raise InputError(f"scene extent {width}x{height} must lie within 1x1 and "
                         f"{GRID_WIDTH}x{GRID_HEIGHT}")
    return blocks_field(data, "blocks", "", width, height), width, height


def stimuli_from_dict(data: dict) -> dict[str, frozenset[BlockPlacement]]:
    """A stimuli file's validated towers, by id in file order; rejects a duplicate id."""
    towers: dict[str, frozenset[BlockPlacement]] = {}
    for k, entry in enumerate(field(data, "towers", list)):
        tower_id = field(entry, "id", str, f"towers[{k}]", TOWER_ID)
        blocks = blocks_field(entry, "blocks", f"towers[{k}]")
        if tower_id in towers:
            raise InputError(f"towers[{k}].id: duplicate id {reprlib.repr(tower_id)}")
        validate_stimulus(tower_id, blocks)
        towers[tower_id] = blocks
    return towers
