import types
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icregions import lp, polytope
from icregions.claims import run_all, run_claim
from icregions.linsys import AXIOM_SETS, QUADRUPLE_SYSTEMS, derive_region
from icregions.lp import Feasibility, feasible, solve_lp
from oracles import ReferenceFeasibility, reference_maximize_each

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5,
                         max_denominator=8)
# entries whose scaled integers straddle 2**31, where the tableau leaves int64
wide_rationals = st.one_of(st.integers(-2**33, 2**33).map(F),
                           st.fractions(min_value=-5, max_value=5,
                                        max_denominator=2**40))


class TestSolveLp:
    def test_simple_box(self):
        res = solve_lp([F(1), F(1)],
                       A_ub=[[F(1), F(0)], [F(0), F(1)]],
                       b_ub=[F(2), F(3)])
        assert res.status == "optimal"
        assert res.value == 5

    def test_diagonal_constraint(self):
        res = solve_lp([F(2), F(1)], A_ub=[[F(1), F(1)]], b_ub=[F(1)])
        assert res.value == 2  # all weight on x1

    def test_unbounded(self):
        res = solve_lp([F(1), F(0)], A_ub=[[F(0), F(1)]], b_ub=[F(1)])
        assert res.status == "unbounded"

    def test_infeasible_equality(self):
        res = solve_lp([F(0)], A_eq=[[F(1)]], b_eq=[F(-1)])
        assert res.status == "infeasible"

    def test_equality_mix(self):
        # max x + y  s.t.  x + y + z = 2, x <= 1
        res = solve_lp([F(1), F(1), F(0)],
                       A_ub=[[F(1), F(0), F(0)]], b_ub=[F(1)],
                       A_eq=[[F(1), F(1), F(1)]], b_eq=[F(2)])
        assert res.status == "optimal"
        assert res.value == 2

    def test_feasible_helper(self):
        assert feasible(A_ub=[[F(1)]], b_ub=[F(1)]) == [0]
        assert feasible(A_eq=[[F(1), F(2)]], b_eq=[F(3)]) == [3, 0]
        assert feasible(A_ub=[[F(-1)]], b_ub=[F(-1)],
                        A_eq=[[F(1)]], b_eq=[F(0)]) is None

    def test_feasible_without_columns_or_rows(self):
        # the empty problem is feasible; its certificate is the empty point
        assert feasible() == []

    def test_feasible_rows_without_columns(self):
        # each row reads 0 <= b: the empty point when every b >= 0
        assert feasible(A_ub=[[], []], b_ub=[0, -1]) is None
        assert feasible(A_ub=[[], []], b_ub=[0, 1]) == []

    def test_degenerate_start(self):
        # max x + y  s.t.  x - y <= 0, y - z <= 0 (slacks start basic at 0),
        # x + y + z >= 3 (negative rhs), x + y + 2z = 8 and twice that
        # (redundant).  x, y <= z gives 8 - 2z = x + y <= 2z, so z >= 2 and
        # x + y <= 4, with equality only at x = y = z = 2.
        res = solve_lp([F(1), F(1), F(0)],
                       A_ub=[[F(1), F(-1), F(0)], [F(0), F(1), F(-1)],
                             [F(-1), F(-1), F(-1)]],
                       b_ub=[F(0), F(0), F(-3)],
                       A_eq=[[F(1), F(1), F(2)], [F(2), F(2), F(4)]],
                       b_eq=[F(8), F(16)])
        assert res.status == "optimal"
        assert res.value == 4
        assert res.x == [2, 2, 2]

    @pytest.mark.parametrize("c, status", [([-1, 1], "optimal"), ([1, 0], "unbounded"),
                                           ([0, 0], "infeasible")])
    def test_second_tableau_only_without_an_optimum(self, tableaus, c, status):
        # max c.x over x2 <= 1 and, for c = 0, x1 + x2 <= -1: an optimal
        # primal-dual point needs one tableau, and telling infeasible from
        # unbounded one more, over the primal rows alone
        A, b = [[0, 1]], [1]
        if status == "infeasible":
            A, b = [*A, [1, 1]], [*b, -1]
        assert solve_lp(c, A_ub=A, b_ub=b).status == status
        assert tableaus[0] == (1 if status == "optimal" else 2)

    @pytest.mark.parametrize("kwargs, message", [
        ({"A_ub": [[1, 1, 5]], "b_ub": [1]}, "row 0 of A_ub"),
        ({"A_ub": [[1, 1]], "b_ub": [1, 2]}, "b_ub"),
        ({"A_ub": [[1, 1]], "b_ub": [1], "A_eq": [[1, 1], [1]], "b_eq": [1, 1]},
         "row 1 of A_eq"),
    ], ids=["long-row", "extra-rhs", "short-row"])
    def test_mismatched_lengths_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            solve_lp([1, 1], **kwargs)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(rationals, rationals,
                              st.fractions(min_value=0, max_value=5,
                                           max_denominator=8)),
                    min_size=1, max_size=5),
           st.tuples(rationals, rationals))
    def test_two_var_against_vertex_enumeration(self, rows, obj):
        """For max c.x over {x >= 0, a.x <= b} with b >= 0 (so 0 is feasible),
        the simplex optimum must match brute-force vertex enumeration
        whenever the brute-force search certifies boundedness."""
        A = [[F(a), F(b)] for a, b, _ in rows]
        b = [F(r) for _, _, r in rows]
        c = [F(obj[0]), F(obj[1])]
        res = solve_lp(c, A_ub=A, b_ub=b)
        all_rows = A + [[F(-1), F(0)], [F(0), F(-1)]]
        all_rhs = b + [F(0), F(0)]
        pts = set()
        for i in range(len(all_rows)):
            for j in range(i + 1, len(all_rows)):
                (a1, b1), (a2, b2) = all_rows[i], all_rows[j]
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue
                x = (all_rhs[i] * b2 - all_rhs[j] * b1) / det
                y = (a1 * all_rhs[j] - a2 * all_rhs[i]) / det
                if all(r[0] * x + r[1] * y <= rhs
                       for r, rhs in zip(all_rows, all_rhs)):
                    pts.add((x, y))
        if res.status == "optimal":
            best = max(c[0] * x + c[1] * y for x, y in pts)
            assert res.value == best
        else:
            assert res.status == "unbounded"


@pytest.fixture
def pivots(monkeypatch):
    """A one-element list counting ``_Tableau.pivot`` calls."""
    count = [0]
    pivot = lp._Tableau.pivot

    def counted(self, r, c):
        count[0] += 1
        pivot(self, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", counted)
    return count


@pytest.fixture
def tableaus(monkeypatch):
    """A list: the number of tableaus ``lp`` builds, then the ``dtype``
    each starts with."""
    count = [0]
    init = lp._Tableau.__init__

    def counted(self, rows, basis):
        count[0] += 1
        count.append(rows.dtype)
        init(self, rows, basis)

    monkeypatch.setattr(lp._Tableau, "__init__", counted)
    return count


class TestPivotBudget:
    def test_derivations(self, pivots, lp_calls, tableaus):
        """The 8 derivations decide 51 LPs with 321 pivots and 1225 usable
        structural columns in all, on one ``Feasibility`` tableau per
        ``prune_redundant`` call, posed over the axiom cone's extreme rays:
        a column per derived row and none per axiom or term fact.  Each of
        the 8 tableaus is built from the ``int64`` array of the LP's
        columns and stays ``int64``.  With a
        column per axiom and term fact beside the rows, the same 51 LPs
        took 496 pivots and 2721 columns.  Before one-row certificates
        over the axiom cone's rays and the twins' mirrored Farkas points
        decided the other 213 rows, they decided 158 LPs with 996 pivots
        and 8944 columns.  With a fresh tableau and primal phase 1
        for each LP they took 2922 pivots.  With two equality rows and two
        fixed -v <= 0 columns for the rate variables they took 3591 pivots and
        9260 columns; with the axiom sets before they were reduced to bases
        (34 chain and 40 hk-indep facts, 20 each now) the same 158 LPs had
        11940 columns and took 3602 pivots; before Imbert's rule in
        ``fm_eliminate`` and the mirror reuse in ``prune_redundant`` there
        were 352 LPs with 7660 pivots from the slack start, and 14979
        pivots with an artificial on every row of the equality-form pruning
        LP.  A regrown axiom set breaks the column budget."""
        for s in QUADRUPLE_SYSTEMS:
            for a in AXIOM_SETS:
                derive_region(s, a)
        assert lp_calls == [51, 1225]
        assert pivots[0] == 321
        assert tableaus == [8, *[np.dtype(np.int64)] * 8]

    def test_containment(self, monkeypatch):
        """cmg-subset-hod's 50 containments CMG_Q in HOD_Q: a one-row dual
        bound proves 678 of the 700 HOD_Q rows, so only the 6 failing
        samples build a tableau.  Each is the dual tableau of one
        containment, 5 rows (a row per rate variable and the budget row)
        over a column per CMG_Q row and 5 slacks, and decides one row, the
        first that no single CMG_Q row proves, which has no multipliers;
        the same tableau then finds no Farkas certificate of CMG_Q's
        emptiness, and the 6 take 11 pivots in all.  Asking that on one
        more tableau, over CMG_Q's own 8 rows, built 12 tableaus.
        Maximizing the first row left by Bland's rule took 6 pivots;
        maximizing all 14 rows on one warm tableau per sample built 50
        tableaus and took 640 pivots, and a fresh tableau for every outer
        row built 675 and took 1114."""
        log, init, pivot = [], lp._Tableau.__init__, lp._Tableau.pivot

        def logged_init(self, rows, basis):
            log.append([rows.shape, 0])
            self.logged = log[-1]
            init(self, rows, basis)

        def logged_pivot(self, r, c):
            self.logged[1] += 1
            pivot(self, r, c)

        monkeypatch.setattr(lp._Tableau, "__init__", logged_init)
        monkeypatch.setattr(lp._Tableau, "pivot", logged_pivot)
        assert run_claim("cmg-subset-hod", 50, 7).failed == 6
        assert [shape for shape, _ in log] == [(5, 13)] * 6
        assert sum(n for _, n in log) == 11

    def test_containment_tableaus_are_built_once(self, monkeypatch):
        """The dual tableau array of each of cmg-subset-hod's 6 containments
        that reach the LP is built once, in the type the tableau keeps:
        Python ints, since its budget row holds 2**-48-grid integers beyond
        int64.  Building it in int64 first overflowed, so it was built
        again, and the tableau copied it a third time."""
        built, kept = [], []
        init = lp._Tableau.__init__

        def counted(make):
            def made(*args, **kwargs):
                built.append(make(*args, **kwargs))
                return built[-1]
            return made

        def logged_init(self, rows, basis):
            init(self, rows, basis)
            kept.append(self.A)

        monkeypatch.setattr(lp, "np", types.SimpleNamespace(**{
            **vars(np), **{name: counted(getattr(np, name))
                           for name in ("array", "zeros")}}))
        monkeypatch.setattr(lp._Tableau, "__init__", logged_init)
        assert run_claim("cmg-subset-hod", 50, 7).failed == 6
        tables = [a for a in built if a.ndim == 2]  # not the right-hand sides
        assert [(a.shape, a.dtype) for a in tables] == [((5, 13), object)] * 6
        assert len(kept) == 6 and all(a is t for a, t in zip(kept, tables))

    def test_origin_optimal_needs_no_pivot(self, pivots):
        # b >= 0 makes x = 0 feasible and c <= 0 makes y = 0 dual feasible,
        # so the slack basis of the primal-dual system is feasible
        res = solve_lp([F(-1), F(0), F(-2, 3)],
                       A_ub=[[F(1), F(2), F(-1)], [F(-3), F(1, 2), F(1)],
                             [F(0), F(1), F(1)], [F(1), F(1), F(1)]],
                       b_ub=[F(0), F(5, 2), F(1), F(7)])
        assert (res.status, res.value, res.x) == ("optimal", 0, [0, 0, 0])
        assert pivots[0] == 0


def test_package_lps_have_no_equality_rows(monkeypatch, lp_calls):
    """Every LP the package solves, in the 8 derivations and in every
    claim, is a ``Feasibility`` problem with only ``<=`` rows; ``A_eq``
    serves outside callers of ``solve_lp`` and ``feasible``, such as the
    equality-form oracle, and only ``_as_ub`` reads it.  The derivations
    decide their pruning LPs, and ``contains`` its 4-D rows, on
    ``Feasibility`` directly, so neither reaches ``_as_ub``.  Six samples
    at seed 7 include index 5, whose cmg-subset-hod containment is the
    first that one-row bounds leave to the LP: it builds its one dual
    tableau."""
    def refused(*args):
        raise AssertionError("_as_ub called")

    built, feasibility = [], polytope.Feasibility

    def spied(A_ub):
        built.append(A_ub)
        return feasibility(A_ub)

    monkeypatch.setattr(lp, "_as_ub", refused)
    monkeypatch.setattr(polytope, "Feasibility", spied)
    for s in QUADRUPLE_SYSTEMS:
        for a in AXIOM_SETS:
            derive_region(s, a)
    assert lp_calls[0] and not built
    run_all(6, 7)
    assert len(built) == 1


def _dot(a, x):
    return sum((u * v for u, v in zip(a, x)), F(0))


def _assert_empty_certified(lps, b, without, y):
    """After ``lps.decide(b, without)`` found the set empty: its y is the
    slack part of a tableau row with a negative rhs and no negative entry
    on an allowed column, times the row scales, and y >= 0, y.A_j >= 0 on
    every allowed column j and y.b < 0 (Farkas), checked on the unscaled
    rows."""
    n, A, t = lps.n, lps.A_ub, lps._t
    assert any(y == [w * s for w, s in zip(r[n:], lps._scale)]
               for r, v in zip(t.A.tolist(), t.b)
               if v < 0 and all(w >= 0 for j, w in enumerate(r) if j not in without))
    assert all(type(v) is int for v in y)
    assert all(v >= 0 for v in y)
    assert all(_dot(y, [a[j] for a in A]) >= 0 for j in range(n) if j not in without)
    assert _dot(y, b) < 0


def _dual(c, A_ub, b_ub, A_eq, b_eq):
    """The dual  min b_ub.y + b_eq.z  s.t.  A_ub^T y + A_eq^T z >= c,
    y >= 0, z free, as a maximization over (y, z+, z-) >= 0."""
    cols = ([list(col) for col in zip(*A_ub)] if A_ub else [[] for _ in c])
    eq_cols = ([list(col) for col in zip(*A_eq)] if A_eq else [[] for _ in c])
    A = [[-v for v in cu] + [-v for v in ce] + list(ce)
         for cu, ce in zip(cols, eq_cols)]
    obj = [-v for v in b_ub] + [-v for v in b_eq] + list(b_eq)
    return obj, A, [-v for v in c]


@st.composite
def mixed_lps(draw, entries=rationals):
    n = draw(st.integers(1, 4))
    row = st.lists(entries, min_size=n, max_size=n)
    A_ub = draw(st.lists(row, max_size=3))
    A_eq = draw(st.lists(row, max_size=3))
    b_ub = draw(st.lists(entries, min_size=len(A_ub), max_size=len(A_ub)))
    b_eq = draw(st.lists(entries, min_size=len(A_eq), max_size=len(A_eq)))
    if A_eq and draw(st.booleans()):  # a redundant equality row
        k = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        A_eq.append([k * v for v in A_eq[0]])
        b_eq.append(k * b_eq[0])
    c = draw(st.lists(entries, min_size=n, max_size=n))
    return c, A_ub, b_ub, A_eq, b_eq


def _assert_certified_by_duality(lp):
    """An optimum of ``lp`` is checked by exact primal and dual feasibility
    and equal objective values; infeasible and unbounded answers by the
    status of the dual, solved with the same solver."""
    c, A_ub, b_ub, A_eq, b_eq = lp
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    d_obj, d_A, d_b = _dual(c, A_ub, b_ub, A_eq, b_eq)
    dual = solve_lp(d_obj, A_ub=d_A, b_ub=d_b)
    if res.status == "optimal":
        x = res.x
        assert all(v >= 0 for v in x)
        assert all(_dot(a, x) <= b for a, b in zip(A_ub, b_ub))
        assert all(_dot(a, x) == b for a, b in zip(A_eq, b_eq))
        assert _dot(c, x) == res.value
        assert dual.status == "optimal"
        assert -dual.value == res.value
        y = dual.x
        assert all(v >= 0 for v in y)
        assert all(_dot(a, y) <= b for a, b in zip(d_A, d_b))
    elif res.status == "unbounded":
        assert dual.status == "infeasible"
    else:
        assert res.status == "infeasible"
        assert dual.status in ("infeasible", "unbounded")


class TestCertificates:
    @settings(max_examples=150, deadline=None)
    @given(mixed_lps())
    def test_mixed_problems_certified_by_duality(self, lp):
        """Mixed equality/inequality LPs with right-hand sides of either sign
        (equality rows as two ``<=`` rows, negative right-hand sides repaired
        by the dual rule, negative pivots), certified by duality."""
        _assert_certified_by_duality(lp)

    @settings(max_examples=100, deadline=None)
    @given(mixed_lps(wide_rationals))
    # entries below 2**17 whose first pivot makes one above 2**31
    @example(([F(3), F(3)], [[F(-3768), F(-73742)], [F(49488), F(10727)]],
              [F(-1), F(2)], [], []))
    def test_wide_problems_certified_by_duality(self, lp):
        """The same with integers up to 2**33 and denominators up to 2**40:
        scaled entries on both sides of 2**31, so that tableaus start as, or
        turn into, ``object`` arrays, and right-hand sides leave int64."""
        _assert_certified_by_duality(lp)


@st.composite
def multi_objective_lps(draw):
    """A ``mixed_lps`` problem with 1 to 5 objectives over its rows."""
    c, A_ub, b_ub, A_eq, b_eq = draw(mixed_lps())
    row = st.lists(rationals, min_size=len(c), max_size=len(c))
    return [c, *draw(st.lists(row, max_size=4))], A_ub, b_ub, A_eq, b_eq


class TestAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(multi_objective_lps())
    # an unbounded objective among bounded ones
    @example(([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
              [[F(0), F(1)]], [F(1)], [], []))
    # x + y >= 1 as a negative rhs, so the primal rows need a pivot
    @example(([[F(1), F(1)], [F(-1), F(-1)], [F(1), F(-2)], [F(0), F(0)]],
              [[F(-1), F(-1)], [F(1), F(0)], [F(0), F(1)]],
              [F(-1), F(2), F(3)], [], []))
    # an empty set: the reference gives one infeasible result
    @example(([[F(1)], [F(-1)], [F(0)]], [[F(1)]], [F(-1)], [], []))
    def test_solve_lp_equals_bland(self, problem):
        """Each objective, over rows with equality rows among them, has the
        status and value ``reference_maximize_each`` gives it by Bland's
        rule on the reference tableau; each optimal point is feasible and
        attains the value."""
        objectives, A_ub, b_ub, A_eq, b_eq = problem
        refs, _ = reference_maximize_each(objectives, A_ub, b_ub, A_eq, b_eq)
        results = [solve_lp(c, A_ub, b_ub, A_eq, b_eq) for c in objectives]
        if refs[0].status == "infeasible":
            assert {r.status for r in results} == {"infeasible"}
            return
        for c, res, ref in zip(objectives, results, refs, strict=True):
            assert (res.status, res.value) == (ref.status, ref.value)
            if res.status == "optimal":
                x = res.x
                assert all(v >= 0 for v in x)
                assert all(_dot(a, x) <= b for a, b in zip(A_ub, b_ub))
                assert all(_dot(a, x) == b for a, b in zip(A_eq, b_eq))
                assert _dot(c, x) == res.value


small_entries = st.one_of(st.integers(-3, 3), st.sampled_from([F(1, 2), F(-3, 2)]))
small_rhs = st.one_of(st.integers(-3, 3), st.just(F(-1, 3)))


@st.composite
def feasibility_problems(draw, entry=small_entries, rhs=small_rhs):
    """One matrix of small integers, at times with a ``Fraction`` entry, a
    zero column or a repeated (degenerate) row, and 1 to 5 problems
    (b, without) over it.  The matrix has a row, so that it has n columns."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if n and draw(st.booleans()):
        zero = draw(st.integers(0, n - 1))
        for row in A:
            row[zero] = 0
    if A and draw(st.booleans()):
        k = draw(st.sampled_from([1, 2, -1]))
        A.append([k * v for v in A[0]])
    problems = draw(st.lists(
        st.tuples(st.lists(rhs, min_size=len(A), max_size=len(A)),
                  st.sets(st.integers(0, n - 1)) if n else st.just(set())),
        min_size=1, max_size=5))
    return A, problems


def _assert_warm_equals_cold(problem):
    A, problems = problem
    lps = Feasibility(A)
    n = len(A[0])
    for b, without in problems:
        answer = lps.decide(b, without)
        x = _as_point(answer, n)
        keep = [j for j in range(n) if j not in without]
        (cold,), _ = reference_maximize_each([[0] * len(keep)],
                                             A_ub=[[a[j] for j in keep] for a in A], b_ub=b)
        assert (x is None) == (cold.status == "infeasible")
        if x is None:
            _assert_empty_certified(lps, b, without, answer.farkas)
        else:
            support, den, _ = answer
            assert den > 0 and all(type(v) is int and v for v in support.values())
            assert all(type(j) is int and 0 <= j < n for j in support)
            assert len(x) == n
            assert all(v >= 0 for v in x)
            assert all(x[j] == 0 for j in without)
            assert all(_dot(a, x) <= v for a, v in zip(A, b))


class TestFeasibility:
    @settings(max_examples=150, deadline=None)
    @given(feasibility_problems())
    # x0 + x1 >= 1 with 2x0 + x1 <= 2: x0 enters for the first problem and
    # is basic when the second one forbids it
    @example(([[-1, -1], [2, 1]], [([-1, 2], set()), ([-1, 2], {0}),
                                   ([-1, 0], {1}), ([-1, 2], {0, 1})]))
    # a Fraction entry, a zero column and a repeated row: x2 is basic when
    # the second problem forbids it, the third set is empty, the last not
    @example(([[F(1, 2), 0, -1], [F(1, 2), 0, -1], [-1, 0, 1]],
              [([-1, -1, 1], set()), ([1, 1, 0], {2}), ([-1, 0, 0], {0, 2}),
               ([0, 0, 0], {0, 2})]))
    def test_warm_equals_cold(self, problem):
        """Each problem decided on the shared tableau has the verdict of a
        cold ``reference_maximize_each`` with a zero objective over the
        columns it may use, which runs the same dual rule from the slack
        basis on the reference tableau, so each empty
        verdict is also checked by its Farkas certificate; each point
        satisfies every row exactly, is >= 0 and is 0 on ``without``."""
        _assert_warm_equals_cold(problem)

    @settings(max_examples=100, deadline=None)
    @given(feasibility_problems(wide_rationals, wide_rationals))
    # entries below 2**17 whose pivots go past 2**31, and past 2**63 in int64
    @example(([[85331, -32103], [-13909, -66757], [38937, 75683]],
              [([1, -3, -3], set()), ([1, -3, -3], {0})]))
    def test_wide_warm_equals_cold(self, problem):
        """The same with integers up to 2**33 and denominators up to 2**40,
        scaled entries on both sides of 2**31."""
        _assert_warm_equals_cold(problem)

    def test_basic_column_of_without_is_pivoted_out(self):
        lps = Feasibility([[-1, -1], [2, 1]])
        assert lps.point([-1, 2]) == [1, 0]
        assert 0 in lps._t.basis
        assert lps.point([-1, 2], without={0}) == [0, 1]
        assert lps.point([-1, 0], without={1}) is None
        assert lps.point([-1, 2], without={1}) == [1, 0]

    def test_decide_answers_in_integers(self):
        """x0/2 <= 1 and x1 - x0 <= -3 need x0 >= 3 > 2: y = (2, 1) on the
        unscaled rows proves it.  With right-hand sides 3/2 and -1/3 the
        point x0 = 1/3 is the support {0: 1} over the denominator 3, and
        ``point`` gives the same point in ``Fraction``s."""
        lps = Feasibility([[F(1, 2), 0], [-1, 1]])
        assert lps.decide([1, -3]) == (None, 0, [2, 1])
        assert lps.decide([F(3, 2), F(-1, 3)]) == ({0: 1}, 3, None)
        assert lps.point([F(3, 2), F(-1, 3)]) == [F(1, 3), 0]

    def test_no_rows(self):
        assert Feasibility([]).point([]) == []

    def test_asked_nothing_builds_no_tableau(self, tableaus):
        Feasibility([[1, 2], [3, 4]])
        Feasibility([])
        assert tableaus[0] == 0

    @pytest.mark.parametrize("A, b, message", [
        ([[1, 2], [1]], None, "row 1 of A_ub has 1 entries, row 0 has 2"),
        ([[1, 2]], [1, 2], "b_ub has 2 entries for the 1 rows of A_ub"),
    ], ids=["ragged-rows", "extra-rhs"])
    def test_mismatched_lengths_refused(self, A, b, message):
        with pytest.raises(ValueError, match=message):
            Feasibility(A).point(b)

    @pytest.mark.parametrize("without", [{1}, {5}, {-1}, {"0"}],
                             ids=["slack-column", "past-the-end", "negative", "not-an-int"])
    def test_without_outside_the_columns_refused(self, without):
        # {1} once forced the slack of row 0 to 0, and the others were ignored
        with pytest.raises(ValueError, match=r"not a column index in range\(1\)"):
            Feasibility([[1]]).point([1], without=without)


@contextmanager
def _logged_pivots():
    """The (row, column) of every ``_Tableau.pivot`` call in the block."""
    log, pivot = [], lp._Tableau.pivot

    def logged(self, r, c):
        log.append((r, c))
        pivot(self, r, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp._Tableau, "pivot", logged)
        yield log


def _as_point(answer, n):
    """The point of a ``Decision``, as ``Feasibility.point`` gives it."""
    support, den, _ = answer
    return None if support is None else [F(support.get(j, 0), den) for j in range(n)]


@contextmanager
def _recorded_points():
    """Every ``Feasibility.decide`` call in the block, as (tableau, b,
    without, point, pivots)."""
    calls, decide = [], lp.Feasibility.decide

    def recorded(self, b_ub, without=()):
        with _logged_pivots() as log:
            answer = decide(self, b_ub, without)
        calls.append((self, b_ub, set(without), _as_point(answer, self.n), log))
        return answer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp.Feasibility, "decide", recorded)
        yield calls


def _replay(calls):
    """Replay recorded ``point`` calls, in order, on one
    ``ReferenceFeasibility`` per ``Feasibility``: each gives the same point
    and pivots.  Returns the number of tableaus."""
    refs = {}
    for lps, b, without, x, pivots in calls:
        if lps not in refs:
            refs[lps] = ReferenceFeasibility(lps.A_ub)
        assert refs[lps].point(b, without) == (x, pivots)
    return len(refs)


class TestReferenceTableau:
    """The tableau takes the pivots of ``oracles.ReferenceTableau``, the
    list-of-ints tableau it replaced, and returns the same points: its
    pivot choices read only signs and basis indices, which the common
    denominator does not change."""

    def test_pruning_lps(self):
        with _recorded_points() as calls:
            for s in QUADRUPLE_SYSTEMS:
                for a in AXIOM_SETS:
                    derive_region(s, a)
        assert _replay(calls) == 8 and len(calls) == 51

    def test_containments(self):
        """cmg-subset-hod's containments at seed 7 that reach the LP, the 6
        that fail: on each dual tableau, its one row and then the Farkas
        question of inner's emptiness."""
        with _recorded_points() as calls:
            run_claim("cmg-subset-hod", 50, 7)
        assert _replay(calls) == 6 and len(calls) == 12

    @settings(max_examples=100, deadline=None)
    @given(mixed_lps())
    def test_mixed_problems(self, problem):
        """The one or two feasibility problems of each ``solve_lp``."""
        c, A_ub, b_ub, A_eq, b_eq = problem
        with _recorded_points() as calls:
            solve_lp(c, A_ub, b_ub, A_eq, b_eq)
        assert _replay(calls) == len(calls) in (1, 2)

    @settings(max_examples=100, deadline=None)
    @given(feasibility_problems(st.one_of(small_entries,
                                          st.sampled_from([2**31 - 1, 2**31, -2**31]))))
    # the widest entry an int64 tableau starts with, and the least it does not
    @example(([[2**31 - 1, -1], [-1, 2]], [([-1, 3], set()), ([1, -1], {0})]))
    @example(([[2**31, -1], [-1, 2]], [([-1, 3], set()), ([2, -1], {1})]))
    def test_feasibility_problems(self, problem):
        """A matrix of ints is also asked as an ``int64`` array, the form
        the pruning LP passes: it takes the list's pivots and gives equal
        decisions, and its tableau starts as ``object`` when an entry
        reaches 2**31."""
        A, problems = problem
        lps, ref = Feasibility(A), ReferenceFeasibility(A)
        ints = all(type(v) is int for a in A for v in a)
        array = Feasibility(np.array(A, dtype=np.int64)) if ints else None
        for b, without in problems:
            with _logged_pivots() as pivots:
                answer = lps.decide(b, without)
            assert ref.point(b, without) == (_as_point(answer, lps.n), pivots)
            if array is not None:
                with _logged_pivots() as array_pivots:
                    assert array.decide(b, without) == answer
                assert array_pivots == pivots
        if array is not None:
            wide = any(abs(v) >= 2**31 for a in A for v in a)
            start = lp._slack_tableau(array.A_ub, array.n)[0].A
            assert (start.dtype == object) == wide
