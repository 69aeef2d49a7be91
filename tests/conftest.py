import pytest

from whirlknight import build_digraph

_CACHE = {}


@pytest.fixture(scope="session")
def dg():
    """Memoised digraph factory: dg(n) builds each board once per session."""

    def get(n):
        if n not in _CACHE:
            _CACHE[n] = build_digraph(n)
        return _CACHE[n]

    return get
