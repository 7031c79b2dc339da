import pytest

from towertalk.blockworld import stimulus_towers
from towertalk.dsl import Library

from oracles import make_fragment


@pytest.fixture
def towers():
    """The default towers, {id: blocks}."""
    return stimulus_towers()


@pytest.fixture
def two_fragment_library():
    """Two fragments with distinguishable placements, for lexicon tests."""
    lib = Library()
    lib = lib.with_fragment(make_fragment("chunk1", ("v", "v"), lib))
    lib = lib.with_fragment(make_fragment("chunk2", ("h", "r2", "h"), lib))
    return lib
