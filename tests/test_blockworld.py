import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towertalk.blockworld import (
    HORIZONTAL,
    VERTICAL,
    BlockPlacement,
    InputError,
    PlacementError,
    compose_scene,
    drop_block,
    f1_score,
    field,
    render_ascii,
    scene_from_dict,
    stimuli_from_dict,
    validate_stimulus,
)
from towertalk.dsl import canonical_program

from oracles import is_supported, save_stimuli, scene_to_dict

EMPTY = (0,) * 14


def test_drop_vertical_on_ground():
    heights, block = drop_block(EMPTY, VERTICAL, 0)
    assert block == BlockPlacement(0, 0, VERTICAL)
    assert heights == (2,) + (0,) * 13


def test_drop_stacks_on_previous_block():
    heights, _ = drop_block(EMPTY, VERTICAL, 0)
    heights, block = drop_block(heights, VERTICAL, 0)
    assert block == BlockPlacement(0, 2, VERTICAL)
    assert heights[0] == 4


def test_horizontal_rests_on_taller_column():
    heights, _ = drop_block(EMPTY, VERTICAL, 0)  # heights (2, 0, ...)
    heights, block = drop_block(heights, HORIZONTAL, 0)
    assert block == BlockPlacement(0, 2, HORIZONTAL)
    assert heights[:3] == (3, 3, 0)


def test_drop_out_of_bounds_raises():
    # The grid's width is the number of column heights.
    heights = (0,) * 4
    with pytest.raises(PlacementError):
        drop_block(heights, HORIZONTAL, 3)
    with pytest.raises(PlacementError):
        drop_block(heights, VERTICAL, -1)
    with pytest.raises(PlacementError):
        drop_block(heights, VERTICAL, 4)
    with pytest.raises(PlacementError):
        drop_block(heights, "diagonal", 0)
    assert drop_block(heights, HORIZONTAL, 2) == ((0, 0, 1, 1), BlockPlacement(2, 0, HORIZONTAL))


def test_drop_over_height_raises():
    heights = (0,) * 4
    heights, _ = drop_block(heights, VERTICAL, 0, height=4)
    heights, _ = drop_block(heights, VERTICAL, 0, height=4)
    with pytest.raises(PlacementError):
        drop_block(heights, VERTICAL, 0, height=4)
    with pytest.raises(PlacementError):
        drop_block(heights, HORIZONTAL, 0, height=4)
    # The 14x8 grid is the default height.
    heights = (7,) + (0,) * 13
    assert drop_block(heights, HORIZONTAL, 0)[0][:2] == (8, 8)
    with pytest.raises(PlacementError):
        drop_block(heights, VERTICAL, 0)


def test_drop_is_pure():
    heights = (1, 0, 3) + (0,) * 11
    first = drop_block(heights, VERTICAL, 2)
    second = drop_block(heights, VERTICAL, 2)
    assert first == second
    assert heights == (1, 0, 3) + (0,) * 11
    with pytest.raises(PlacementError):
        drop_block(heights, HORIZONTAL, 13)
    assert heights == (1, 0, 3) + (0,) * 11


@given(st.lists(st.tuples(st.sampled_from([HORIZONTAL, VERTICAL]),
                          st.integers(min_value=0, max_value=12)),
                max_size=20))
@settings(max_examples=200)
def test_support_soundness_after_any_drop_sequence(drops):
    heights = EMPTY
    placements = []
    for orientation, x in drops:
        try:
            heights, block = drop_block(heights, orientation, x)
        except PlacementError:
            continue
        placements.append(block)
    assert is_supported(placements)
    # column heights match the derived occupancy
    cells = {cell for block in placements for cell in block.cells()}
    assert len(cells) == 2 * len(placements)
    for col in range(len(heights)):
        rows = [y for (x, y) in cells if x == col]
        assert heights[col] == (max(rows) + 1 if rows else 0)


def test_stimuli_are_three_valid_towers(towers):
    assert len(towers) == 3
    assert list(towers) == ["A", "B", "C"]
    for tower_id, blocks in towers.items():
        validate_stimulus(tower_id, blocks)
        vertical = sum(1 for b in blocks if b.orientation == VERTICAL)
        horizontal = sum(1 for b in blocks if b.orientation == HORIZONTAL)
        assert (vertical, horizontal) == (2, 2)


def test_stimuli_are_constructible(towers):
    for tower_id in "ABC":
        canonical_program(towers[tower_id])  # raises ProgramError if not


def test_compose_has_eight_blocks(towers):
    scene = compose_scene(towers["A"], towers["C"])
    assert len(scene) == 8


def test_compose_is_order_sensitive(towers):
    left = compose_scene(towers["A"], towers["C"])
    right = compose_scene(towers["C"], towers["A"])
    assert left != right


def test_compose_same_tower_twice_is_legal(towers):
    scene = compose_scene(towers["A"], towers["A"])
    assert len(scene) == 8


def test_compose_rejects_overlap(towers):
    # Left towers reaching column 8, where tower B's first block stands once
    # it is placed on the right: one shares a cell with it, one is the same block.
    for reach in (BlockPlacement(7, 0, HORIZONTAL), BlockPlacement(8, 0, VERTICAL)):
        blocks = {BlockPlacement(0, 0, VERTICAL), BlockPlacement(1, 0, HORIZONTAL), reach}
        blocks.add(BlockPlacement(3, 0, VERTICAL if reach.orientation == HORIZONTAL
                                  else HORIZONTAL))
        wide = frozenset(blocks)
        validate_stimulus("W", wide)
        with pytest.raises(ValueError, match="overlap"):
            compose_scene(wide, towers["B"])


def test_compose_rejects_out_of_bounds(towers):
    # Seven columns wide: it fits at column 0, but from column 8 it reaches column 14.
    wide = frozenset({
        BlockPlacement(0, 0, VERTICAL), BlockPlacement(1, 0, HORIZONTAL),
        BlockPlacement(3, 0, HORIZONTAL), BlockPlacement(6, 0, VERTICAL)})
    validate_stimulus("W", wide)
    assert len(compose_scene(wide, towers["A"])) == 8
    with pytest.raises(ValueError, match="outside the 14x8 grid"):
        compose_scene(towers["A"], wide)


def test_f1_identical_scenes(towers):
    scene = compose_scene(towers["A"], towers["B"])
    assert f1_score(scene, scene) == 1.0


def test_f1_one_block_out_of_place(towers):
    target = compose_scene(towers["A"], towers["B"])
    blocks = sorted(target)
    built = frozenset(blocks[:-1]) | {BlockPlacement(12, 0, VERTICAL)}
    assert f1_score(target, built) == pytest.approx(0.875, abs=1e-12)


def test_f1_disjoint_scenes():
    a = frozenset({BlockPlacement(0, 0, VERTICAL)})
    b = frozenset({BlockPlacement(3, 0, VERTICAL)})
    assert f1_score(a, b) == 0.0


def test_f1_both_empty():
    empty = frozenset()
    assert f1_score(empty, empty) == 1.0


def test_f1_one_empty_scene(towers):
    target = compose_scene(towers["A"], towers["B"])
    empty = frozenset()
    assert f1_score(target, empty) == 0.0
    assert f1_score(empty, target) == 0.0


def test_f1_swap_invariance(towers):
    target = compose_scene(towers["A"], towers["B"])
    partial = frozenset(sorted(target)[:5])
    assert f1_score(target, partial) == pytest.approx(f1_score(partial, target))


def test_f1_adding_correct_block_never_decreases(towers):
    target = compose_scene(towers["A"], towers["B"])
    blocks = sorted(target)
    previous = 0.0
    for n in range(1, 9):
        built = frozenset(blocks[:n])
        score = f1_score(target, built)
        assert score >= previous
        previous = score


def test_render_empty_scene():
    assert render_ascii(frozenset(), 3, 2) == "...\n..."


def test_render_single_vertical():
    scene = frozenset({BlockPlacement(0, 0, VERTICAL)})
    assert render_ascii(scene, 3, 3) == "...\n|..\n|.."


def test_render_composed_scene(towers):
    scene = compose_scene(towers["A"], towers["C"])
    assert render_ascii(scene) == "\n".join(["." * 14] * 5 + [
        "|...........==",
        "|..|.....|..|.",
        "==.|==...|==|.",
    ])


def test_scene_dict_round_trip(towers):
    scene = compose_scene(towers["B"], towers["C"])
    assert scene_from_dict(scene_to_dict(scene)) == (scene, 14, 8)


def test_field_refuses_what_int_would_truncate():
    assert field({"x": 3}, "x", int) == 3
    assert field({"x": -2}, "x", int) == -2
    assert field({"x": 3.0}, "x", int) == 3
    for value in (True, False, "3", None, [3], 3.9, 0.5, float("nan"), float("inf")):
        with pytest.raises(InputError, match="^width: expected an integer"):
            field({"width": value}, "width", int)


def test_field_names_a_missing_field_and_checks_each_kind():
    data = {"f1": 1, "words": ["v", 5], "entropy": 10 ** 400}
    assert field(data, "f1", float) == 1.0
    assert isinstance(field(data, "f1", float), float)
    assert field(data["words"], 0, str, "words") == "v"
    # (holder, key, kind, how the message starts)
    cases = [
        (data, "id", str, "id: missing"),
        (["v"], "id", str, "id: missing"),
        ({"0": "v"}, 0, str, "words[0]: missing"),
        (data["words"], 2, str, "words[2]: missing"),
        (data["words"], -1, str, "words[-1]: missing"),
        (data["words"], 1, str, "words[1]: expected a string, got 5"),
        (data, "words", str, "words: expected a string, got ['v', 5]"),
        (data, "f1", list, "f1: expected a list, got 1"),
        ({"f1": True}, "f1", float, "f1: expected a number, got True"),
        (data, "entropy", float, "entropy: expected a number, got 1000"),
        ({"f1": float("nan")}, "f1", float, "f1: expected a finite number, got nan"),
        ({"f1": float("inf")}, "f1", float, "f1: expected a finite number, got inf"),
        ({"f1": -float("inf")}, "f1", float, "f1: expected a finite number, got -inf"),
    ]
    for holder, key, kind, message in cases:
        with pytest.raises(InputError) as raised:
            field(holder, key, kind, "words" if isinstance(key, int) else "")
        assert str(raised.value).startswith(message), (message, raised.value)
        assert len(str(raised.value)) < 80
    with pytest.raises(InputError) as raised:
        field({"id": 5}, "id", str, "towers[0]", "a tower id string")
    assert str(raised.value) == "towers[0].id: expected a tower id string, got 5"


def test_scene_from_dict_rejects_fractional_numbers():
    good = {"width": 3, "height": 3, "blocks": [{"x": 0, "y": 0, "orientation": VERTICAL}]}
    assert scene_from_dict(good)[1:] == (3, 3)
    for key, value in (("width", 3.9), ("height", True)):
        with pytest.raises((TypeError, ValueError), match=key):
            scene_from_dict({**good, key: value})
    with pytest.raises(ValueError, match="x"):
        scene_from_dict({**good, "blocks": [{"x": 0.5, "y": 0, "orientation": VERTICAL}]})


def test_validate_stimulus_rejects_floating_block_and_unknown_orientation():
    base = [BlockPlacement(0, 0, HORIZONTAL), BlockPlacement(4, 0, HORIZONTAL),
            BlockPlacement(0, 1, VERTICAL)]
    validate_stimulus("A", frozenset(base + [BlockPlacement(3, 0, VERTICAL)]))
    # A vertical block's upper cell sits on its own lower cell; that is not support.
    assert not is_supported([BlockPlacement(3, 3, VERTICAL)])
    for odd in (BlockPlacement(3, 3, VERTICAL), BlockPlacement(3, 0, "diagonal")):
        with pytest.raises(ValueError):
            validate_stimulus("A", frozenset(base + [odd]))


def test_validate_stimulus_rejects_overlapping_blocks():
    # The vertical block at column 0 stands in both cells of the one above it.
    tower = frozenset({
        BlockPlacement(0, 0, VERTICAL), BlockPlacement(0, 1, VERTICAL),
        BlockPlacement(1, 0, HORIZONTAL), BlockPlacement(1, 1, HORIZONTAL)})
    with pytest.raises(ValueError, match="tower 'A': blocks overlap"):
        validate_stimulus("A", tower)


def test_validate_stimulus_agrees_with_the_support_oracle_on_every_small_tower():
    """Dropping a tower's blocks in (y, x) order accepts exactly the towers whose
    blocks all stand on the ground or a block: every non-overlapping tower of
    2 horizontal + 2 vertical blocks with x < 5 and y < 4."""
    spots = [(x, y) for x in range(5) for y in range(4)]
    checked = 0
    for horizontals in itertools.combinations(spots, 2):
        for verticals in itertools.combinations(spots, 2):
            blocks = [*(BlockPlacement(x, y, HORIZONTAL) for x, y in horizontals),
                      *(BlockPlacement(x, y, VERTICAL) for x, y in verticals)]
            cells = {cell for block in blocks for cell in block.cells()}
            if len(cells) < 8:
                continue
            checked += 1
            tower = frozenset(blocks)
            if is_supported(blocks):
                validate_stimulus("A", tower)
            else:
                with pytest.raises(InputError, match="^tower 'A': contains an unsupported block$"):
                    validate_stimulus("A", tower)
    assert checked == 14_568


def test_load_stimuli_rejects_a_duplicate_id(towers):
    # B's blocks under A's id again: no mapping holds that, so the data is spelled out.
    data = {"towers": [{"id": "A", "blocks": [b._asdict() for b in sorted(towers[tower_id])]}
                       for tower_id in "AB"]}
    with pytest.raises(InputError, match=r"^towers\[1\]\.id: duplicate id 'A'$"):
        stimuli_from_dict(data)


def test_stimulus_file_round_trip(tmp_path, towers):
    path = tmp_path / "stimuli.json"
    save_stimuli(towers, str(path))
    loaded = stimuli_from_dict(json.loads(path.read_text()))
    assert loaded == towers
    # The file's order, not the defaults' or the ids'.
    backwards = dict(reversed(towers.items()))
    save_stimuli(backwards, str(path))
    assert list(stimuli_from_dict(json.loads(path.read_text())).items()) == \
        list(backwards.items())


def test_load_stimuli_rejects_bad_tower(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"towers": [{"id": "A", "blocks": ['
        '{"x": 0, "y": 0, "orientation": "vertical"},'
        '{"x": 0, "y": 2, "orientation": "vertical"},'
        '{"x": 2, "y": 0, "orientation": "vertical"},'
        '{"x": 2, "y": 2, "orientation": "vertical"}]}]}')
    with pytest.raises(ValueError):
        stimuli_from_dict(json.loads(path.read_text()))
