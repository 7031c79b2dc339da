import itertools
import random
import re

import pytest

from towertalk.blockworld import (
    HORIZONTAL,
    VERTICAL,
    BlockPlacement,
    Scene,
    compose_scene,
    empty_grid,
)
from towertalk.dsl import (
    EMPTY_LIBRARY,
    Library,
    ProgramError,
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

from oracles import make_fragment


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
    grid, placed = execute((), EMPTY_LIBRARY, 0)
    assert placed == []
    assert grid.placements == ()


def test_execute_stacks_verticals():
    _, placed = execute(("v", "v"), EMPTY_LIBRARY, 0)
    assert placed == [BlockPlacement(0, 0, VERTICAL), BlockPlacement(0, 2, VERTICAL)]


def test_execute_chunk_matches_inline_body():
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "r1", "h"), lib))
    _, direct = execute(("v", "r1", "h"), EMPTY_LIBRARY, 2)
    _, chunked = execute(("chunk1",), lib, 2)
    assert direct == chunked


def test_execute_rejects_bad_hand():
    with pytest.raises(ProgramError):
        execute(("l1",), EMPTY_LIBRARY, 0)
    with pytest.raises(ProgramError):
        execute(("v",), EMPTY_LIBRARY, 99)


def test_execute_rejects_unresolved_chunk():
    with pytest.raises(ProgramError):
        execute(("chunk9",), EMPTY_LIBRARY, 0)


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
        grid = empty_grid(width=40, height=64)
        try:
            _, direct = execute(program, lib, 20, grid)
        except ProgramError:
            continue
        _, inlined = execute(inline(program, lib), EMPTY_LIBRARY, 20, grid)
        assert direct == inlined


def test_moves_between_splits_long_spans():
    assert moves_between(0, 3) == ("r3",)
    assert moves_between(5, 2) == ("l3",)
    assert moves_between(0, 0) == ()
    assert moves_between(0, 13) == ("r9", "r4")
    assert moves_between(20, 0) == ("l9", "l9", "l2")


def test_canonical_program_single_block():
    scene = Scene(4, 4, frozenset({BlockPlacement(0, 0, VERTICAL)}))
    assert canonical_program(scene) == ("v",)


def test_canonical_rebuilds_all_stimuli(tower_scene):
    for tower_id in "ABC":
        scene = tower_scene(tower_id)
        program = canonical_program(scene)
        _, placed = execute(program, EMPTY_LIBRARY, default_start_x(scene),
                            empty_grid(scene.width, scene.height))
        assert frozenset(placed) == scene.blocks


def test_canonical_scene_is_left_cluster_then_right(towers_by_id):
    scene = compose_scene(towers_by_id["B"], towers_by_id["C"])
    program = canonical_program(scene)
    left_scene = Scene(scene.width, scene.height,
                       frozenset(b for b in scene.blocks if b.x < 6))
    left_program = canonical_program(left_scene)
    assert program[:len(left_program)] == left_program


def test_canonical_rejects_floating_scene():
    floating = Scene(6, 6, frozenset({BlockPlacement(0, 3, HORIZONTAL)}))
    with pytest.raises(ProgramError):
        canonical_program(floating)


def test_validate_constructible(towers_by_id):
    canonical_program(compose_scene(towers_by_id["A"], towers_by_id["B"]))
    assert canonical_program(Scene(4, 4, frozenset())) == ()
    floating = Scene(6, 6, frozenset({BlockPlacement(0, 3, HORIZONTAL)}))
    with pytest.raises(ProgramError):
        canonical_program(floating)


def test_length_accounting_lower_bound():
    rng = random.Random(3)
    for _ in range(100):
        lib = random_library(rng)
        program = random_program(rng, lib, rng.randint(1, 6))
        grid = empty_grid(width=40, height=64)
        try:
            _, placed = execute(program, lib, 20, grid)
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
