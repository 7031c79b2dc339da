import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from towertalk.blockworld import (
    GRID_HEIGHT,
    GRID_WIDTH,
    HORIZONTAL,
    VERTICAL,
    BlockPlacement,
    PlacementError,
    compose_scene,
    drop_block,
    render_ascii,
)
from towertalk.dsl import (
    Library,
    ProgramError,
    _column_clusters,
    canonical_program,
    count_placements,
    default_start_x,
    execute,
    inline,
    is_move,
    moves_between,
    print_program,
    token_cost,
    token_length,
)
from towertalk.pragmatics import lenient_run

from oracles import (EMPTY_LIBRARY, buildable_towers, execute_nested, make_fragment,
                     reference_column_clusters)


def reference_expand(program, library):
    """Independent recursive expander used as the inlining oracle."""
    out = []
    for token in program:
        if token in ("h", "v") or (token[0] in "lr" and token[1:].isdigit()):
            out.append(token)
        else:
            out.extend(reference_expand(library.resolve(token).body, library))
    return tuple(out)


def random_library(rng, depth=3):
    lib = Library()
    for i in range(depth):
        while True:
            body = []
            for _ in range(rng.randint(2, 4)):
                roll = rng.random()
                if roll < 0.4:
                    body.append(rng.choice(["h", "v"]))
                elif roll < 0.7 and lib.fragments:
                    body.append(rng.choice(lib.fragments).id)
                else:
                    body.append(f"{rng.choice('lr')}{rng.randint(1, 3)}")
            try:
                fragment = make_fragment(f"chunk{i + 1}", tuple(body), lib)
            except ValueError:
                continue
            lib = lib.with_fragment(fragment)
            break
    return lib


def random_program(rng, library, size):
    tokens = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.5:
            tokens.append(rng.choice(["h", "v"]))
        elif roll < 0.7 and library.fragments:
            tokens.append(rng.choice(library.fragments).id)
        else:
            tokens.append(f"{rng.choice('lr')}{rng.randint(1, 3)}")
    return tuple(tokens)


def test_token_costs():
    assert token_cost("h") == token_cost("v") == 1
    assert token_cost("l1") == token_cost("r9") == 2
    assert token_cost("chunk1") == 1
    assert token_length(("h", "l1", "v", "v", "r2")) == 7


def test_move_tokens_match_the_move_pattern():
    # Every string of up to 3 characters over l, r, h, v, x and the digits.
    move = re.compile(r"^[lr][1-9]$")
    alphabet = "lrhv0123456789x"
    for size in range(4):
        for chars in itertools.product(alphabet, repeat=size):
            token = "".join(chars)
            expected = move.fullmatch(token) is not None
            assert is_move(token) == expected, token
            assert token_cost(token) == (2 if expected else 1), token
            assert token_length((token, "h", token)) == 1 + 2 * token_cost(token), token


def test_execute_empty_program():
    assert execute((), 0, GRID_WIDTH, GRID_HEIGHT) == []


def test_execute_stacks_verticals():
    placed = execute(("v", "v"), 0, GRID_WIDTH, GRID_HEIGHT)
    assert placed == [BlockPlacement(0, 0, VERTICAL), BlockPlacement(0, 2, VERTICAL)]


def test_execute_chunk_matches_inline_body():
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "r1", "h"), lib))
    direct = execute(("v", "r1", "h"), 2, GRID_WIDTH, GRID_HEIGHT)
    assert direct == [BlockPlacement(2, 0, VERTICAL), BlockPlacement(3, 0, HORIZONTAL)]
    assert execute(inline(("chunk1",), lib), 2, GRID_WIDTH, GRID_HEIGHT) == direct
    assert execute_nested(("chunk1",), lib, 2, GRID_WIDTH, GRID_HEIGHT) == direct


def test_execute_rejects_bad_hand():
    with pytest.raises(ProgramError):
        execute(("l1",), 0, GRID_WIDTH, GRID_HEIGHT)
    with pytest.raises(ProgramError):
        execute(("r9", "r4", "r1"), 0, GRID_WIDTH, GRID_HEIGHT)
    for start in (99, GRID_WIDTH, -1):
        with pytest.raises(ProgramError):
            execute(("v",), start, GRID_WIDTH, GRID_HEIGHT)
    # The grid is the one given: column 4 is off a 4-wide grid.
    assert execute(("r4", "v"), 0, 6, 4) == [BlockPlacement(4, 0, VERTICAL)]
    with pytest.raises(ProgramError):
        execute(("r4", "v"), 0, 4, 4)
    # A block that does not fit is the grid's error, not the program's.
    with pytest.raises(PlacementError):
        execute(("r9", "r4", "h"), 0, GRID_WIDTH, GRID_HEIGHT)
    with pytest.raises(PlacementError):
        execute(("v", "v", "v"), 0, 6, 4)


def test_execute_rejects_unresolved_chunk():
    # execute runs base tokens only; a chunk reference runs as its inline form.
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v"), lib))
    for program in (("chunk9",), ("v", "chunk1"), ("x",)):
        with pytest.raises(ProgramError, match="not a base token"):
            execute(program, 0, GRID_WIDTH, GRID_HEIGHT)


def test_library_rejects_a_duplicate_fragment_id():
    lib = Library().with_fragment(make_fragment("chunk1", ("v", "v"), Library()))
    with pytest.raises(ValueError, match="duplicate fragment id 'chunk1'"):
        lib.with_fragment(make_fragment("chunk1", ("h", "h"), lib))
    assert lib.ids() == ("chunk1",)


@st.composite
def base_programs(draw):
    """A start column and a base program whose hand stays on the 14x8 grid:
    each block is placed after the moves to its column."""
    start = hand = draw(st.integers(min_value=0, max_value=GRID_WIDTH - 1))
    tokens = []
    for column, place in draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=GRID_WIDTH - 1), st.sampled_from("hv")),
            max_size=12)):
        tokens += [*moves_between(hand, column), place]
        hand = column
    return tuple(tokens), start


@given(base_programs())
@settings(max_examples=300)
def test_lenient_run_matches_execute_where_execute_succeeds(run):
    """Where the strict run succeeds, the Builder's lenient run neither clamps
    nor skips, so both place the same blocks."""
    program, start = run
    try:
        placed = execute(program, start, GRID_WIDTH, GRID_HEIGHT)
    except PlacementError:
        assume(False)
    heights, hand, lenient = lenient_run(program, (0,) * GRID_WIDTH, start)
    assert lenient == tuple(placed)
    assert hand == start + sum(int(t[1:]) * (1 if t[0] == "r" else -1)
                               for t in program if is_move(t))
    cells = [cell for block in placed for cell in block.cells()]
    assert heights == tuple(max([y + 1 for x, y in cells if x == col], default=0)
                            for col in range(GRID_WIDTH))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=GRID_WIDTH - 1),
                         st.sampled_from([HORIZONTAL, VERTICAL])), max_size=24))
@settings(max_examples=300)
def test_column_clusters_match_the_occupied_column_reference(drops):
    """Blocks dropped under gravity onto the 14x8 grid, the drops that do not
    fit skipped, split into the same clusters as the reference."""
    heights, blocks = (0,) * GRID_WIDTH, set()
    for column, orientation in drops:
        try:
            heights, block = drop_block(heights, orientation, column)
        except PlacementError:
            continue
        blocks.add(block)
    blocks = frozenset(blocks)
    assert _column_clusters(blocks) == reference_column_clusters(blocks)


def test_inline_identity_on_base_program():
    program = ("h", "l1", "v")
    assert inline(program, EMPTY_LIBRARY) == program


def test_inline_concatenates_chunk_bodies():
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v"), lib))
    lib = lib.with_fragment(make_fragment("chunk2", ("h", "r1", "h"), lib))
    assert inline(("chunk1", "r2", "chunk2"), lib) == ("v", "v", "r2", "h", "r1", "h")


def test_inline_matches_reference_expander_on_nested_chunks():
    rng = random.Random(7)
    for _ in range(200):
        lib = random_library(rng)
        program = random_program(rng, lib, rng.randint(0, 8))
        assert inline(program, lib) == reference_expand(program, lib)


def test_semantic_preservation_execute_vs_inline():
    rng = random.Random(11)
    for _ in range(300):
        lib = random_library(rng)
        program = random_program(rng, lib, rng.randint(0, 6))
        try:
            nested = execute_nested(program, lib, 20, 40, 64)
        except ProgramError:
            continue
        assert execute(inline(program, lib), 20, 40, 64) == nested


def test_moves_between_splits_long_spans():
    assert moves_between(0, 3) == ("r3",)
    assert moves_between(5, 2) == ("l3",)
    assert moves_between(0, 0) == ()
    assert moves_between(0, 13) == ("r9", "r4")
    assert moves_between(20, 0) == ("l9", "l9", "l2")


def test_canonical_program_single_block():
    assert canonical_program(frozenset({BlockPlacement(0, 0, VERTICAL)})) == ("v",)


def test_canonical_rebuilds_all_stimuli(towers):
    for tower_id in "ABC":
        scene = towers[tower_id]
        program = canonical_program(scene)
        placed = execute(program, default_start_x(scene), GRID_WIDTH, GRID_HEIGHT)
        assert frozenset(placed) == scene


def test_canonical_scene_is_left_cluster_then_right(towers):
    scene = compose_scene(towers["B"], towers["C"])
    program = canonical_program(scene)
    left_program = canonical_program(frozenset(b for b in scene if b.x < 6))
    assert program[:len(left_program)] == left_program


def test_canonical_rejects_floating_scene():
    floating = frozenset({BlockPlacement(0, 3, HORIZONTAL)})
    with pytest.raises(ProgramError):
        canonical_program(floating)


def test_validate_constructible(towers):
    canonical_program(compose_scene(towers["A"], towers["B"]))
    assert canonical_program(frozenset()) == ()
    floating = frozenset({BlockPlacement(0, 3, HORIZONTAL)})
    with pytest.raises(ProgramError):
        canonical_program(floating)


@given(buildable_towers(), buildable_towers())
@settings(max_examples=200, deadline=None)
def test_canonical_program_rebuilds_random_scenes(left, right):
    """Any two buildable towers side by side: the scene's canonical program, run on
    the grid from default_start_x, rebuilds exactly its blocks, and the scene draws
    as the grid's GRID_HEIGHT rows of GRID_WIDTH glyphs."""
    scene = compose_scene(left, right)
    program = canonical_program(scene)
    assert frozenset(execute(program, default_start_x(scene), GRID_WIDTH, GRID_HEIGHT)) == scene
    rows = render_ascii(scene).split("\n")
    assert len(rows) == GRID_HEIGHT == 8
    assert all(len(row) == GRID_WIDTH == 14 for row in rows)


def test_length_accounting_lower_bound():
    rng = random.Random(3)
    for _ in range(100):
        lib = random_library(rng)
        program = random_program(rng, lib, rng.randint(1, 6))
        try:
            placed = execute(inline(program, lib), 20, 40, 64)
        except ProgramError:
            continue
        assert token_length(inline(program, lib)) >= len(placed)


def test_print_program_examples():
    assert print_program(("h", "l1", "v")) == "(h (l 1) v)"
    assert print_program(()) == ""
    assert print_program(("chunk1", "r2", "chunk2")) == "(chunk1 (r 2) chunk2)"


def test_count_placements():
    assert count_placements(("h", "r2", "v", "l1")) == 2
    assert count_placements(()) == 0
