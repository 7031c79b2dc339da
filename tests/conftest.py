import pytest

from towertalk.blockworld import BlockPlacement, stimulus_towers
from towertalk.dsl import Library

from oracles import make_fragment


@pytest.fixture
def towers():
    return stimulus_towers()


@pytest.fixture
def towers_by_id(towers):
    return {t.id: t for t in towers}


@pytest.fixture
def tower_scene(towers_by_id):
    def build(tower_id: str) -> frozenset[BlockPlacement]:
        return towers_by_id[tower_id].blocks
    return build


@pytest.fixture
def two_fragment_library():
    """Two fragments with distinguishable placements, for lexicon tests."""
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v"), lib))
    lib = lib.with_fragment(make_fragment("chunk2", ("h", "r2", "h"), lib))
    return lib
