import pytest

from icregions import linsys


@pytest.fixture
def lp_calls(monkeypatch):
    """A two-element list: the number of LPs ``prune_redundant`` solves, that
    is the calls of ``linsys.feasible``, and their total number of
    structural columns."""
    count = [0, 0]
    solve = linsys.feasible

    def counted(A_ub=None, b_ub=None, A_eq=None, b_eq=None):
        count[0] += 1
        count[1] += max(map(len, [*(A_ub or ()), *(A_eq or ())]), default=0)
        return solve(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)

    monkeypatch.setattr(linsys, "feasible", counted)
    return count
