import threading

import pytest

from icregions import dist, lp


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a thread it started still running: the
    package joins every thread it starts before the call returns."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, (
        f"threads left running: {threading.enumerate()}")


@pytest.fixture
def lp_calls(monkeypatch):
    """A two-element list: the number of feasibility problems decided, that
    is the calls of ``lp.Feasibility.decide`` (``point`` decides through
    it), and their total number of usable structural columns.  A
    derivation makes one call per pruning LP, whose columns are the
    derived rows not yet removed, one each; a 4-D containment and
    ``solve_lp`` make calls too, so a test that counts pruning LPs runs
    derivations only."""
    count = [0, 0]
    decide = lp.Feasibility.decide

    def counted(self, b_ub, without=()):
        count[0] += 1
        count[1] += self.n - len(set(without))
        return decide(self, b_ub, without)

    monkeypatch.setattr(lp.Feasibility, "decide", counted)
    return count


@pytest.fixture
def marginals(monkeypatch):
    """The variable sets of the marginals computed while the test runs."""
    calls = []
    real = dist.marginal_tensor

    def counting(joint, keep):
        calls.append(frozenset(keep))
        return real(joint, keep)

    monkeypatch.setattr(dist, "marginal_tensor", counting)
    return calls
