import pytest

from icregions import linsys


@pytest.fixture
def lp_calls(monkeypatch):
    """A one-element list counting the LPs ``prune_redundant`` solves, that
    is the calls of ``linsys.feasible``."""
    count = [0]
    solve = linsys.feasible

    def counted(*args, **kwargs):
        count[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(linsys, "feasible", counted)
    return count
