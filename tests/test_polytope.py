import functools
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icregions import claims, cli, polytope, regions, sampler
from icregions.claims import run_claim
from icregions.dist import Form, build_joint
from icregions.linsys import (QUADRUPLE_SYSTEMS, Inequality, LinearSystem,
                              fm_eliminate, substitute_rate_sums)
from icregions.polytope import (DEFAULT_EPS, SNAP_DEN, HPoly, area2, bind, contains,
                                fm_eliminate_numeric, one_row_bound, poly_equal,
                                snap_terms, substitute_rate_sums_numeric, vertices2)
from icregions.regions import REGION_IDS, build_system, region_for
from icregions.sampler import binary_alphabets, sample_spec
from icregions.terms import ALL_SYMBOLS, BASE_SYMBOLS, eval_terms
from oracles import brute_force_vertices, contains_lp, vertices2_fraction

F = Fraction


def square(side=1):
    return HPoly(("R1", "R2"), (
        ((F(1), F(0)), F(side)),
        ((F(0), F(1)), F(side)),
    ))


# R1/2 <= 1 and R2 <= 1: its grid scales the first row by k = 2, so eps
# raises that row's rhs by 2 * eps on the grid
HALF_ROW = HPoly(("R1", "R2"), (((F(1, 2), F(0)), F(1)), ((F(0), F(1)), F(1))))


def rect(width):
    """[0, width] x [0, 1]."""
    return HPoly(("R1", "R2"), (((F(1), F(0)), F(width)), ((F(0), F(1)), F(1))))


def hk2_binding(index):
    spec = sample_spec(binary_alphabets(), Form.HK2, [41, index])
    return snap_terms(eval_terms(build_joint(spec)))


class TestSnapTerms:
    def test_denominator_and_rounding(self):
        out = snap_terms({"a1": 0.5, "b1": 1.0 / 3.0})
        assert out["a1"] == SNAP_DEN // 2
        assert abs(F(out["b1"], SNAP_DEN) - F(1, 3)) <= F(1, 2 * SNAP_DEN)
        assert all(type(k) is int for k in out.values())

    def test_negative_roundoff_floors_to_zero(self):
        assert snap_terms({"a1": -1e-15})["a1"] == 0
        assert type(snap_terms({"a1": -1e-15})["a1"]) is int

    # 2**900 * 2**48 is still a finite float; a tie rounds to even.
    @given(st.floats(min_value=-2.0**900, max_value=2.0**900))
    @example(2.0**900)
    @example(2.0**-49)
    @example(3 * 2.0**-49)
    @example(5e-324)
    @example(-5e-324)
    def test_within_half_a_step_of_its_float(self, v):
        snapped = snap_terms({"a1": v})["a1"]
        assert type(snapped) is int
        if v < 0:
            assert snapped == 0
        else:
            assert abs(F(snapped, SNAP_DEN) - F(v)) <= F(1, 2 * SNAP_DEN)

    @pytest.mark.parametrize("v,message", [
        (float("nan"), "value of 'a1' must be a finite number, not nan"),
        (float("inf"), "value of 'a1' must be a finite number, not inf"),
        (float("-inf"), "value of 'a1' must be a finite number, not -inf"),
        (1e308, "value of 'a1' is too large to snap to a multiple of 2**-48: 1e+308"),
        (-1e300, "value of 'a1' is too large to snap to a multiple of 2**-48: -1e+300"),
    ], ids=["nan", "inf", "-inf", "overflow", "negative-overflow"])
    def test_unsnappable_float_refused(self, v, message):
        with pytest.raises(ValueError) as exc:
            snap_terms({"b1": 0.5, "a1": v})
        assert str(exc.value) == message

    def test_big_int_snaps_exactly(self):
        assert snap_terms({"a1": 10**400})["a1"] == 10**400 * SNAP_DEN

    # A string would be repeated 2**48 times, and a bool would snap to 0 or 1.
    @pytest.mark.parametrize("v", ["0.1", True, None], ids=["string", "bool", "none"])
    def test_non_number_refused(self, v):
        with pytest.raises(ValueError) as exc:
            snap_terms({"b1": 0.5, "a1": v})
        assert str(exc.value) == f"value of 'a1' must be a finite number, not {v!r}"

    def test_numpy_float_snaps(self):
        snapped = snap_terms({"a1": np.float64(0.5)})["a1"]
        assert snapped == SNAP_DEN // 2 and type(snapped) is int


class TestBind:
    def test_all_zero_binding_gives_origin(self):
        binding = {s: 0 for s in ALL_SYMBOLS}
        poly = bind(build_system("HK_R"), binding)
        assert vertices2(poly) == [(F(0), F(0))]

    def test_box_constraints_only(self):
        binding = {s: 1000 * SNAP_DEN for s in ALL_SYMBOLS}
        binding["d1"] = binding["d2"] = SNAP_DEN
        poly = bind(build_system("COMPACT_R"), binding)
        assert vertices2(poly) == [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)),
                                   (F(0), F(1))]

    ODD = LinearSystem(("R1", "R2"), (  # not canonical: Fraction coefficients
        Inequality.of({"R1": F(1, 2)}, {"a1": F(2, 3), "g2": -1}, const=F(1, 4)),))

    @settings(max_examples=40, deadline=None)
    @given(st.fixed_dictionaries({s: st.one_of(
        st.integers(-9, 9), st.integers(0, 2**50), st.integers(-2**70, 2**70))
        for s in BASE_SYMBOLS}))
    def test_rows_are_the_per_term_fraction_sums(self, binding):
        """Each bound row, built once per system and summed in integers,
        is the row's own lhs coefficients and the ``F(binding[k], 2**48) *
        coefficient`` sum, repr included."""
        for system in map(build_system, REGION_IDS):
            poly = bind(system, binding)
            expected = tuple(
                (tuple(dict(i.lhs).get(v, 0) for v in system.rate_vars),
                 F(sum((F(binding[k], SNAP_DEN) * c for k, c in i.rhs.coeffs),
                       i.rhs.const)))
                for i in system.inequalities)
            assert repr(poly.rows) == repr(expected)
            assert bind(system, binding).rows[0][0] is poly.rows[0][0]

    @pytest.mark.parametrize("system,value", [
        (ODD, 1), (build_system("HK_R"), F(0)), (build_system("HK_R"), 0.5),
        (build_system("HK_R"), np.int64(1))],
        ids=["fraction-row", "fraction-value", "float-value", "numpy-value"])
    def test_non_int_row_or_value_refused(self, system, value):
        """The grid holds integers only: a row with a Fraction coefficient,
        which no ``LinearSystem.of`` row has, or a term value that is not
        the int snap_terms gives, is refused."""
        with pytest.raises(ValueError) as exc:
            bind(system, {s: value for s in ALL_SYMBOLS})
        assert str(exc.value) == ("row 0 has a coefficient or term value that is "
                                  "not an int; bind takes the integers snap_terms gives")

    @pytest.mark.parametrize("rid", REGION_IDS)
    def test_bound_coefficients_are_ints(self, rid):
        # so the exact LP scales a containment's rows without an lcm
        poly = bind(build_system(rid), hk2_binding(0))
        assert all(type(c) is int for lhs, _ in poly.rows for c in lhs)

    def test_missing_symbol_reported(self):
        with pytest.raises(ValueError, match="missing term symbol"):
            bind(build_system("HK_R"), {"a1": 0})
        with pytest.raises(ValueError) as exc:
            bind(self.ODD, {"a1": 1})
        assert str(exc.value) == "binding is missing term symbol 'g2'"

    def test_verify_binds_without_a_fraction(self, monkeypatch, tmp_path):
        """The numeric path reads only the grid, so ``bind`` makes no
        ``Fraction``: a ``verify --claim all`` run binds its 16 polytopes
        (each sample's record binds a system once, whichever claims read
        it) without one, and the rows of a bound polytope, derived on
        first read, are the rows ``bind`` used to build."""
        made, bound = [], []
        new, real = Fraction.__new__, polytope.bind

        def counting_new(cls, *args, **kwargs):
            made.append(None)
            return new(cls, *args, **kwargs)

        def counting_bind(system, binding):
            bound.append(None)
            before = len(made)
            poly = real(system, binding)
            assert len(made) == before, "bind made a Fraction"
            assert "rows" not in vars(poly)
            return poly

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        for module in (polytope, claims, regions, cli):
            monkeypatch.setattr(module, "bind", counting_bind)
        assert cli.main(["verify", "--claim", "all", "--samples", "2", "--seed", "7",
                         "--out", str(tmp_path / "r.json")]) in (0, 1)
        assert len(bound) == 16
        poly = real(build_system("HOD_R"), hk2_binding(3))
        assert poly.rows == tuple((lhs, F(n, SNAP_DEN)) for lhs, _, n in poly.grid[1])
        assert vars(poly)["rows"] is poly.rows

    def test_feasibility_matches_direct_evaluation(self):
        binding = hk2_binding(0)
        poly = bind(build_system("HK_R"), binding)
        rows = poly.rows
        rng = np.random.default_rng(0)
        scale = (binding["d1"] + binding["d2"]) / SNAP_DEN + 1e-6
        pts = rng.random((10**4, 2)) * scale
        for x, y in pts:
            px, py = F(x).limit_denominator(10**6), F(y).limit_denominator(10**6)
            direct = all(a * px + b * py <= r for (a, b), r in rows)
            assert poly.contains_point((px, py)) == direct


def line(a, b, c):
    """a.x = c as two rows."""
    return ((F(a), F(b)), F(c)), ((F(-a), F(-b)), F(-c))


@st.composite
def boxed_regions(draw):
    """Small-integer rows, mostly inside a box [0, X] x [0, Y], plus up to
    two lines a.x = c as row pairs, so that segments, single points and
    empty regions come up as well as polygons.  Either box row may be left
    out, so some regions are bounded only by oblique rows and some are
    unbounded."""
    ints = st.integers(-3, 3)
    rows = [((F(draw(ints)), F(draw(ints))), F(draw(st.integers(-1, 6))))
            for _ in range(draw(st.integers(0, 4)))]
    for axis in ((F(1), F(0)), (F(0), F(1))):
        if draw(st.integers(0, 3)):
            rows.append((axis, F(draw(st.integers(0, 4)))))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        rows += line(draw(ints), draw(ints), draw(st.integers(0, 3)))
    return HPoly(("R1", "R2"), tuple(rows))


def _recedes(poly) -> bool:
    """Independent unboundedness check: some vertex of the (pointed) region
    stays feasible when moved far along a candidate recession direction,
    an axis or a direction along some row's boundary line."""
    dirs = [(F(1), F(0)), (F(0), F(1))]
    dirs += [d for (a, b), _ in poly.rows for d in ((b, -a), (-b, a))]
    dirs = [d for d in dirs if min(d) >= 0 and max(d) > 0]
    far = 10**6
    return any(poly.contains_point((x + far * dx, y + far * dy))
               for x, y in brute_force_vertices(poly.rows) for dx, dy in dirs)


DEGENERATE_REGIONS = (
    HPoly(("R1", "R2"), (((F(1), F(1)), F(-1)), ((F(1), F(0)), F(1)),
                         ((F(0), F(1)), F(1)))),  # empty
    HPoly(("R1", "R2"), (((F(1), F(0)), F(2)),
                         ((F(0), F(1)), F(0)))),  # segment on an axis
    HPoly(("R1", "R2"), (*line(1, 1, 1), ((F(1), F(0)), F(1)),
                         ((F(0), F(1)), F(1)))),  # diagonal segment
    HPoly(("R1", "R2"), (*line(1, 0, 1), *line(1, -1, 0),
                         ((F(1), F(0)), F(3)),
                         ((F(0), F(1)), F(3)))),  # the point (1, 1)
    HPoly(("R1", "R2"), (((F(1), F(0)), F(1)),
                         ((F(-1), F(0)), F(-2)))),  # empty, only directions left
    HPoly(("R1", "R2"), (((F(1), F(-1)), F(-1)),
                         ((F(-1), F(1)), F(-1)))),  # empty, only directions left
    HPoly(("R1", "R2"), line(1, -1, 0)),  # the diagonal ray, unbounded
)


def degenerate_examples(test):
    """Hypothesis examples: each of DEGENERATE_REGIONS as the only argument."""
    for poly in reversed(DEGENERATE_REGIONS):
        test = example(poly)(test)
    return test


GOLDEN_PAIR_REGIONS = ("HK_R", "HK_R_MODIFIED", "COMPACT_R", "CMG_R", "HOD_R")


@st.composite
def golden_regions(draw):
    """A golden rate-pair system bound to the snapped terms of a seeded
    HOD16 spec, so its right-hand sides have 2**-48 denominators."""
    seed = [draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))]
    binding = snap_terms(eval_terms(build_joint(
        sample_spec(binary_alphabets(), Form.HOD16, seed))))
    return bind(build_system(draw(st.sampled_from(GOLDEN_PAIR_REGIONS))), binding)


def int_entries(poly):
    """The polytope with every integral entry as an int, as rows may be."""
    def num(v):
        return int(v) if v.denominator == 1 else v
    return HPoly(poly.dims, tuple((tuple(map(num, lhs)), num(rhs))
                                  for lhs, rhs in poly.rows))


def boxed(poly, rows=()):
    """The polytope with extra rows and the box [0, 4] x [0, 4], so bounded."""
    return HPoly(poly.dims, poly.rows + tuple(rows)
                 + (((F(1), F(0)), F(4)), ((F(0), F(1)), F(4))))
# SHA-256 of the JSON list of vertices2 over the five golden rate-pair
# regions, each bound to the terms of 20 seeded HOD16 specs.
GOLDEN_VERTICES_DIGEST = "cad20f0d9f8b2839ec865141d482ffcedc277f648f3c1447564bfd5e16d0cf69"


class TestVertices2:
    @settings(max_examples=300, deadline=None)
    @given(boxed_regions())
    @degenerate_examples
    def test_degenerate_regions_match_brute_force(self, poly):
        try:
            vs = vertices2(poly)
        except ValueError:
            assert _recedes(poly)
            return
        assert set(vs) == brute_force_vertices(poly.rows)
        assert len(set(vs)) == len(vs)
        if vs:
            assert vs[0] == min(vs)
        if len(vs) >= 3:
            for a, b, c in zip(vs, vs[1:] + vs[:1], vs[2:] + vs[:2]):
                cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                assert cross > 0

    def test_golden_regions_pinned(self):
        lists = []
        for i in range(20):
            spec = sample_spec(binary_alphabets(), Form.HOD16, [43, i])
            binding = snap_terms(eval_terms(build_joint(spec)))
            for rid in GOLDEN_PAIR_REGIONS:
                lists.append([[str(x), str(y)]
                              for x, y in vertices2(bind(build_system(rid), binding))])
        text = json.dumps(lists)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_VERTICES_DIGEST

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(boxed_regions(), golden_regions()))
    @degenerate_examples
    def test_equals_the_fraction_clip(self, poly):
        try:
            expected = vertices2_fraction(poly)
        except ValueError:
            with pytest.raises(ValueError, match="unbounded"):
                vertices2(poly)
            return
        assert vertices2(poly) == expected

    def test_no_lp(self, monkeypatch):
        """vertices2 and area2 clip without solving an LP, and give the
        list of the LP-square clip, computed before the LP is taken away."""
        binding = hk2_binding(0)
        polys = [bind(build_system(rid), binding) for rid in GOLDEN_PAIR_REGIONS]
        polys += [*DEGENERATE_REGIONS, strip(1),
                  HPoly(("R1", "R2"), (((F(-1), F(0)), F(-1)),
                                       ((F(1), F(0)), F(0))))]
        expected = []
        for poly in polys:
            try:
                expected.append(vertices2_fraction(poly))
            except ValueError:
                expected.append(None)

        def no_lp(*args, **kwargs):
            raise AssertionError("solve_lp called")

        monkeypatch.setattr(polytope, "solve_lp", no_lp)
        assert None in expected and [] in expected
        for poly, vs in zip(polys, expected):
            if vs is None:
                with pytest.raises(ValueError, match="unbounded"):
                    vertices2(poly)
                with pytest.raises(ValueError, match="unbounded"):
                    area2(poly)
                continue
            assert vertices2(poly) == vs
            assert area2(poly) == sum((x1 * y2 - x2 * y1 for (x1, y1), (x2, y2)
                                       in zip(vs, vs[1:] + vs[:1])), F(0)) / 2

    def test_unit_square(self):
        assert vertices2(square()) == [(F(0), F(0)), (F(1), F(0)),
                                       (F(1), F(1)), (F(0), F(1))]

    def test_triangle(self):
        tri = HPoly(("R1", "R2"), (((F(1), F(1)), F(1)),))
        assert vertices2(tri) == [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]

    def test_empty_region(self):
        empty = HPoly(("R1", "R2"), (((F(-1), F(0)), F(-1)),
                                     ((F(1), F(0)), F(0))))
        assert vertices2(empty) == []

    def test_unbounded_detected(self):
        with pytest.raises(ValueError, match="unbounded"):
            vertices2(HPoly(("R1", "R2"), (((F(1), F(0)), F(1)),)))

    def test_vertices_satisfy_constraints_exactly(self):
        poly = bind(build_system("HK_R"), hk2_binding(1))
        for v in vertices2(poly):
            assert poly.contains_point(v, F(0))

    def test_matches_brute_force_oracle(self):
        for i in range(5):
            poly = bind(build_system("HK_R"), hk2_binding(2 + i))
            assert set(vertices2(poly)) == brute_force_vertices(poly.rows)

    def test_ccw_order_from_lex_smallest(self):
        vs = vertices2(bind(build_system("HK_R"), hk2_binding(7)))
        assert vs[0] == min(vs)
        for a, b, c in zip(vs, vs[1:], vs[2:]):
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert cross > 0


class TestContainsPoint:
    @pytest.mark.parametrize("point,n", [((), 0), ((F(0),), 1),
                                         ((F(0), F(0), F(7)), 3)],
                             ids=["empty", "short", "long"])
    def test_wrong_length_refused(self, point, n):
        with pytest.raises(ValueError,
                           match=f"point has {n} coordinates, polytope has 2"):
            square().contains_point(point)


def strip(top):
    """R2 <= top: a region with no bound on R1."""
    return HPoly(("R1", "R2"), (((F(0), F(1)), F(top)),))


TINY = F(1, 2**60)
THIRD = F(1, 3)  # an eps off the 2**-48 grid
NO_ROWS = HPoly(("R1", "R2"), ())  # the whole quadrant


def up_to_diagonal(top):
    """R2 - R1 <= top: unbounded along (1, 0) and (1, 1)."""
    return HPoly(("R1", "R2"), (((F(-1), F(1)), F(top)),))


QUAD_DIMS = ("S1", "T1", "S2", "T2")
QUAD_EMPTY = HPoly(QUAD_DIMS, (((F(1), F(0), F(0), F(0)), F(-1)),))  # S1 <= -1
QUAD_SLAB = HPoly(QUAD_DIMS, (((F(1), F(0), F(0), F(0)), F(1)),))  # S1 <= 1


QUARTERS = st.integers(-12, 12).map(lambda k: F(k, 4))
quad_polys = st.lists(st.tuples(st.tuples(*[QUARTERS] * 4), QUARTERS), max_size=6).map(
    lambda rows: HPoly(QUAD_DIMS, tuple(rows)))  # maybe empty, unbounded or rowless
SMALL = st.integers(-3, 3).map(F)
small_quads = st.lists(st.tuples(st.tuples(*[SMALL] * 4), SMALL), max_size=7).map(
    lambda rows: HPoly(QUAD_DIMS, tuple(rows)))


def quad(*rows):
    """The 4-D polytope of rows (a1, a2, a3, a4, rhs)."""
    return HPoly(QUAD_DIMS, tuple((tuple(map(F, row[:4])), F(row[4])) for row in rows))


# (outer, inner): S1 + T1 <= 3 holds by (S1 <= 1) + (T1 <= 2) only, which
# takes pivots on the dual tableau; S2 <= 0 has no multipliers, and only the
# pair S1 <= 1, S1 >= 2 shows inner empty
WARM_EMPTY = (quad((1, 1, 0, 0, 3), (0, 0, 1, 0, 0)),
              quad((1, 0, 0, 0, 1), (0, 1, 0, 0, 2), (-1, 0, 0, 0, -2)))


@functools.cache
def hod16_binding(index):
    spec = sample_spec(binary_alphabets(), Form.HOD16, [43, index])
    return snap_terms(eval_terms(build_joint(spec)))


@st.composite
def golden_quads(draw):
    """A golden quadruple system bound to the snapped terms of one of 16
    seeded HOD16 specs, each built once."""
    binding = hod16_binding(draw(st.integers(0, 15)))
    return bind(build_system(draw(st.sampled_from(
        ("HK_Q", "HK_Q_MODIFIED", "CMG_Q", "HOD_Q")))), binding)


@st.composite
def quad_pairs(draw):
    """(outer, inner): inner is random, golden, or outer with every rhs
    raised by 0, eps/2, eps or eps + 2**-60 (for eps 2**-30 or 1/3), with
    random rows added or not, so that inner's maxima lie just inside or
    just past rhs + eps."""
    outer = draw(st.one_of(quad_polys, golden_quads()))
    rise = draw(st.sampled_from((F(0), DEFAULT_EPS / 2, DEFAULT_EPS, DEFAULT_EPS + TINY,
                                 THIRD, THIRD + TINY)))
    raised = tuple((lhs, rhs + rise) for lhs, rhs in outer.rows)
    inner = draw(st.one_of(quad_polys, golden_quads(), st.just(HPoly(QUAD_DIMS, raised)),
                           quad_polys.map(lambda p: HPoly(QUAD_DIMS, raised + p.rows))))
    return outer, inner


class TestContains:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_vertex_test_matches_lp_loop(self, data):
        """The 2-D ring test against maximizing each outer row over inner.
        Inner is a bounded region, a region that may be unbounded or empty,
        one with no rows, or outer itself with every rhs raised by 0,
        eps/2, eps or eps + 2**-60 and boxed, so that some inner vertices
        lie just inside or just past rhs + eps; eps 1/3, off the 2**-48
        grid, checks the cross-multiplied bounds."""
        outer = data.draw(st.one_of(boxed_regions(), boxed_regions().map(int_entries),
                                    golden_regions()))
        eps = data.draw(st.sampled_from((F(0), DEFAULT_EPS, THIRD)))
        rise = data.draw(st.sampled_from((F(0), DEFAULT_EPS / 2, DEFAULT_EPS,
                                          DEFAULT_EPS + TINY, THIRD, THIRD + TINY)))
        raised = HPoly(outer.dims, tuple((lhs, rhs + rise) for lhs, rhs in outer.rows))
        inner = data.draw(st.one_of(boxed_regions().map(boxed), golden_regions(),
                                    st.just(boxed(raised)), boxed_regions(),
                                    st.just(NO_ROWS)))
        assert contains(outer, inner, eps) == contains_lp(outer, inner, eps)

    @pytest.mark.parametrize("outer,inner,eps,expected", [
        (square(1), square(1 + DEFAULT_EPS), DEFAULT_EPS, True),
        (square(1), square(1 + DEFAULT_EPS + TINY), DEFAULT_EPS, False),
        (int_entries(square(1)), square(1), F(0), True),
        (int_entries(square(1)), square(1 + TINY), F(0), False),
        (int_entries(square(1)), square(1 + DEFAULT_EPS), DEFAULT_EPS, True),
        (square(1), DEGENERATE_REGIONS[0], F(0), True),
        (strip(1), strip(F(1, 2)), F(0), True),
        (square(1), strip(F(1, 2)), DEFAULT_EPS, False),
        (square(1), square(1 + THIRD), THIRD, True),
        (square(1), square(1 + THIRD + TINY), THIRD, False),
        (HALF_ROW, rect(2 + 2 * THIRD), THIRD, True),
        (HALF_ROW, rect(2 + 2 * THIRD + TINY), THIRD, False),
        (NO_ROWS, NO_ROWS, F(0), True),
        (square(1), NO_ROWS, F(0), False),
        (up_to_diagonal(2 * THIRD), strip(1), THIRD, True),
        (up_to_diagonal(2 * THIRD - TINY), strip(1), THIRD, False),
        (HPoly(("R1", "R2"), (((F(1), F(-1)), F(5)),)), strip(1), THIRD, False),
    ], ids=["on-eps", "past-eps", "int-on", "int-past", "int-on-eps",
            "empty-inner", "unbounded-inside", "unbounded-outside",
            "on-third", "past-third", "half-row-on-third", "half-row-past-third",
            "no-rows-in-no-rows", "no-rows-in-square", "ray-on-third",
            "ray-past-third", "ray-outside"])
    def test_hand_built_cases(self, outer, inner, eps, expected):
        assert contains(outer, inner, eps) is expected
        assert contains_lp(outer, inner, eps) is expected

    def test_vertices2_looked_up_at_call_time(self, monkeypatch):
        """perfbench's tracer and its tests wrap polytope.vertices2, so
        area2 and the search's sum-rate objective must reach it through
        the module global."""
        calls = []
        right = polytope.vertices2
        monkeypatch.setattr(polytope, "vertices2",
                            lambda p: calls.append(p) or right(p))
        assert area2(square(3)) == 9
        assert calls == [square(3)]
        spec = sample_spec(binary_alphabets(), Form.HOD16, [43, 0])
        _, hod, hk = sampler._objective(spec, "sumrate")
        assert calls == [square(3), hod, hk]

    def test_2d_solves_no_lp(self, monkeypatch):
        """Every 2-D verdict is read from inner's ring, whether inner is
        bounded, unbounded, empty or has no rows: no LP is solved.  The
        pairs include the hand-built unbounded-inside and
        unbounded-outside cases."""
        binding = hod16_binding(0)
        polys = [*(bind(build_system(rid), binding) for rid in GOLDEN_PAIR_REGIONS),
                 *DEGENERATE_REGIONS, strip(1), strip(F(1, 2)), square(1), NO_ROWS]
        cases = [(outer, inner, eps) for outer in polys for inner in polys
                 for eps in (F(0), DEFAULT_EPS, THIRD)]
        expected = [contains_lp(*case) for case in cases]

        def no_lp(*args, **kwargs):
            raise AssertionError("Feasibility built")

        monkeypatch.setattr(polytope, "Feasibility", no_lp)
        assert [contains(*case) for case in cases] == expected

    def test_reflexive(self):
        poly = bind(build_system("HK_R"), hk2_binding(8))
        assert contains(poly, poly, F(0))

    def test_square_dilation(self):
        assert not contains(square(1), square(2), F(0))
        assert contains(square(2), square(1), F(0))

    def test_hod_equals_hk_under_independence(self):
        spec = sample_spec(binary_alphabets(), Form.HK2, [41, 9])
        assert poly_equal(region_for(spec, "HOD_R"), region_for(spec, "HK_R"),
                          DEFAULT_EPS)

    def test_unbounded_inner(self):
        strip = HPoly(("R1", "R2"), (((F(0), F(1)), F(1, 2)),))  # R2 <= 1/2
        assert contains(HPoly(("R1", "R2"), (((F(0), F(1)), F(1)),)), strip, F(0))
        assert not contains(strip, HPoly(("R1", "R2"), (((F(0), F(1)), F(1)),)), F(0))
        assert not contains(square(1), strip, F(0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(square(), HPoly(("S1", "T1", "S2", "T2"), ()), F(0))

    def test_one_coordinate_order(self):
        swapped = HPoly(("R2", "R1"), square().rows)
        with pytest.raises(ValueError, match="different rate variables"):
            contains(square(), swapped, F(0))

    @settings(max_examples=150, deadline=None)
    @given(quad_pairs(), st.sampled_from((F(0), DEFAULT_EPS, THIRD)))
    @example((QUAD_SLAB, QUAD_EMPTY), F(0))
    @example((HPoly(QUAD_DIMS, ()), QUAD_SLAB), F(0))
    @example((QUAD_SLAB, HPoly(QUAD_DIMS, ())), DEFAULT_EPS)
    @example((HPoly(QUAD_DIMS, (((F(1), F(0), F(0), F(0)), F(2)),)), QUAD_SLAB), F(0))
    @example((HPoly(QUAD_DIMS, (((F(0), F(1), F(0), F(0)), F(2)),)), QUAD_SLAB), F(0))
    @example((HPoly(QUAD_DIMS, (((F(1, 2), F(0), F(0), F(0)), F(1)),)),
              HPoly(QUAD_DIMS, (((F(1), F(0), F(0), F(0)), 2 + 2 * THIRD),))), THIRD)
    def test_4d_warm_lp_matches_cold_lp_loop(self, pair, eps):
        """4-D containment, decided on one warm-started dual tableau, against
        the oracle's cold LP per outer row: an empty inner, an unbounded
        inner inside and outside, and an outer with no rows among them."""
        outer, inner = pair
        assert contains(outer, inner, eps) == contains_lp(outer, inner, eps)

    @settings(max_examples=300, deadline=None)
    @given(small_quads, small_quads, st.sampled_from((F(0), THIRD, DEFAULT_EPS)))
    # empty inners, by one row and by two, under a row with no multipliers,
    # and a nonempty one under such a row
    @example(quad((0, 1, 0, 0, 0)), QUAD_EMPTY, F(0))
    @example(quad((0, 0, 1, 0, 0)), quad((1, 0, 0, 0, 1), (-1, 0, 0, 0, -2)), F(0))
    @example(quad((0, 1, 0, 0, 0)), quad((-1, 0, 0, 0, -1)), F(0))
    # unbounded inners: outside, and inside by two rows' multipliers
    @example(quad((0, 1, 0, 0, 3)), QUAD_SLAB, THIRD)
    @example(quad((1, 0, 0, 0, 2)), quad((1, -1, 0, 0, 1), (0, 1, 0, 0, 1)), F(0))
    @example(quad((1, 0, 0, 0, 1)), quad((1, -1, 0, 0, 1), (0, 1, 0, 0, 1)), DEFAULT_EPS)
    # no-row inners, one with rows that hold on it, and a no-row outer
    @example(quad((1, 0, 0, 0, 3)), quad(), F(0))
    @example(quad((-1, 0, 0, 0, -1)), quad(), THIRD)
    @example(quad((-1, 0, 0, 0, 0), (0, -1, 0, 0, 1)), quad(), F(0))
    @example(quad(), quad((1, 1, 1, 1, -1)), F(0))
    # an inner empty by two rows, whose first row with no multipliers is
    # asked after the dual pivoted for the row before it
    @example(*WARM_EMPTY, F(0))
    def test_4d_dual_feasibility_matches_oracle(self, outer, inner, eps):
        """4-D containment, each row left decided by its dual multipliers
        on one ``Feasibility`` tableau, against the oracle's cold
        Bland's-rule max per outer row, on small integer rows."""
        assert contains(outer, inner, eps) == contains_lp(outer, inner, eps)

    @pytest.mark.parametrize("index", [0, 5])
    def test_4d_lp_gets_only_ints(self, monkeypatch, index):
        """On golden 4-D pairs, contains hands ``Feasibility`` integer
        rows and right-hand sides only: the grids, with no ``Fraction``
        for the exact LP to scale.  HK_Q's rows over CMG_Q and HOD_Q at eps
        0 and 2**-30 leave rows no single inner row proves, as does the
        `two-rows` case at eps 1/3, an eps off the grid.  Each builds its
        one dual tableau and decides one row on it, and each of the 6 that
        fail asks the same tableau once more, for inner's emptiness."""
        calls = []

        class Checked(polytope.Feasibility):
            def __init__(self, A_ub):
                assert all(type(v) is int for row in A_ub for v in row)
                calls.append([])
                self.asked = calls[-1]
                super().__init__(A_ub)

            def decide(self, b_ub, without=()):
                assert all(type(v) is int for v in b_ub)
                self.asked.append(b_ub)
                return super().decide(b_ub, without)

        monkeypatch.setattr(polytope, "Feasibility", Checked)
        binding = hod16_binding(index)
        pairs = [(bind(build_system(outer_id), binding), bind(build_system(inner_id), binding),
                  eps)
                 for outer_id, inner_id in (("HK_Q", "CMG_Q"), ("HK_Q", "HOD_Q"),
                                            ("HK_Q_MODIFIED", "HOD_Q"))
                 for eps in (F(0), DEFAULT_EPS)]
        pairs.append((lifted(outer_rows((2, -1, 7)), QUAD_DIMS), lifted(CAPPED, QUAD_DIMS),
                      THIRD))
        verdicts = [contains(*pair) for pair in pairs]
        assert verdicts == [contains_lp(*pair) for pair in pairs]
        assert verdicts.count(False) == 6
        assert [len(asked) for asked in calls] == [1 + (not v) for v in verdicts]
        assert all(asked[1] == [0] * 4 + [-1] for asked in calls if len(asked) == 2)

    def test_4d_builds_at_most_one_tableau(self, monkeypatch):
        """A 4-D containment builds at most one ``Feasibility``, its dual
        tableau: a row with no multipliers asks the same tableau for a
        Farkas certificate of inner's emptiness.  Golden pairs on four
        HOD16 specs at eps 0 and 2**-30, and an inner that is empty only
        by two rows, asked after the dual pivoted."""
        built = []
        feasibility = polytope.Feasibility
        monkeypatch.setattr(polytope, "Feasibility",
                            lambda A_ub: built.append(A_ub) or feasibility(A_ub))
        pairs = [(bind(build_system(p), hod16_binding(index)),
                  bind(build_system(q), hod16_binding(index)), eps)
                 for index in range(4) for p in ("HK_Q", "CMG_Q", "HOD_Q")
                 for q in ("HK_Q", "CMG_Q", "HOD_Q") for eps in (F(0), DEFAULT_EPS)]
        pairs.append((*WARM_EMPTY, F(0)))
        counts, verdicts = [], []
        for pair in pairs:
            built.clear()
            verdicts.append(contains(*pair))
            counts.append(len(built))
        assert max(counts) == 1 and counts[-1] == 1 and verdicts[-1]
        assert any(n and not v for n, v in zip(counts, verdicts))

    def test_quadruple_containment_via_lp(self):
        binding = hk2_binding(10)
        hk_q = bind(build_system("HK_Q"), binding)
        # dropping the T bounds can only enlarge the region
        cmg_like = HPoly(hk_q.dims, tuple(
            row for row in hk_q.rows
            if any(c != 0 for c in (row[0][0], row[0][2]))))
        assert contains(cmg_like, hk_q, F(0))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_partial_order_on_random_polytopes(self, data):
        def rnd_poly():
            n = data.draw(st.integers(1, 4))
            rows = []
            for _ in range(n):
                a = data.draw(st.fractions(min_value=0, max_value=3,
                                           max_denominator=4))
                b = data.draw(st.fractions(min_value=0, max_value=3,
                                           max_denominator=4))
                r = data.draw(st.fractions(min_value=0, max_value=3,
                                           max_denominator=4))
                rows.append(((a, b), r))
            rows.append(((F(1), F(0)), F(3)))
            rows.append(((F(0), F(1)), F(3)))
            return HPoly(("R1", "R2"), tuple(rows))

        p, q, r = rnd_poly(), rnd_poly(), rnd_poly()
        assert contains(p, p, F(0))
        if contains(p, q, F(0)) and contains(q, p, F(0)):
            assert poly_equal(p, q, F(0))
        if contains(p, q, F(0)) and contains(q, r, F(0)):
            assert contains(p, r, F(0))
        if contains(p, q, F(0)):
            assert area2(p) >= area2(q)


def lifted(poly, dims):
    """The 2-D polytope over dims, each row padded with zero coefficients."""
    pad = (F(0),) * (len(dims) - 2)
    return HPoly(dims, tuple((tuple(lhs) + pad, rhs) for lhs, rhs in poly.rows))


def certificates(outer, inner, eps):
    """``one_row_bound`` for each outer row raised by eps, folded as
    ``contains`` folds it, with each integer certificate (j, t_n, t_d) read
    as (j, t) for the ``Fraction`` t = t_n / t_d."""
    den, rows = outer.grid
    en, ed = eps.as_integer_ratio()
    m = math.lcm(den, ed)
    certs = []
    for a, k, n in rows:
        cert = one_row_bound(a, n * (m // den) + k * en * (m // ed), m, inner.grid)
        if cert is not None:
            j, t_n, t_d = cert
            assert type(t_n) is int and type(t_d) is int and t_d > 0
            cert = j, F(t_n, t_d)
        certs.append(cert)
    return certs


def assert_certified(outer, inner, eps, certs):
    """Multiply each certificate out on the rational rows: (j, t) makes
    y = t * k'_j / k_i, with k the grid's row scales, a nonnegative
    multiplier of inner row j with y * lhs_j >= lhs_i componentwise and
    y * rhs_j <= rhs_i + eps."""
    for (lhs, rhs), (_, k, _), cert in zip(outer.rows, outer.grid[1], certs):
        if cert is None:
            continue
        j, t = cert
        assert type(t) is F and t >= 0
        inner_lhs, inner_rhs = inner.rows[j]
        y = t * inner.grid[1][j][1] / k
        assert all(y * u >= v for u, v in zip(inner_lhs, lhs))
        assert y * inner_rhs <= rhs + eps


SIGNED = st.integers(-8, 8).map(lambda k: F(k, 4))


def signed_polys(dims):
    """Up to five rows with negative, zero and positive quarter entries."""
    return st.lists(st.tuples(st.tuples(*[SIGNED] * len(dims)), SIGNED),
                    max_size=5).map(lambda rows: HPoly(dims, tuple(rows)))


@st.composite
def signed_pairs(draw):
    """(outer, inner) over 2 or 4 dims, either of them maybe rowless, empty or
    unbounded.  Inner may carry copies of outer rows scaled by 1/2, 1 or 3,
    their rhs moved by 0 or +-2**-60 and an entry raised or lowered by 1/4,
    so that one-row certificates hold, just fail, or just hold past eps."""
    dims = draw(st.sampled_from((("R1", "R2"), QUAD_DIMS)))
    outer = draw(signed_polys(dims))
    rows = list(draw(signed_polys(dims)).rows)
    for lhs, rhs in outer.rows:
        if draw(st.booleans()):
            t = draw(st.sampled_from((F(1, 2), F(1), F(3))))
            lhs = [v / t for v in lhs]
            i = draw(st.integers(0, len(dims) - 1))
            lhs[i] += draw(st.sampled_from((F(0), F(1, 4), F(-1, 4))))
            rows.append((tuple(lhs), (rhs + draw(st.sampled_from((F(0), TINY, -TINY)))) / t))
    rows = draw(st.permutations(rows))
    return outer, HPoly(dims, tuple(rows))


# Triangles and strips whose rows the bound proves, or leaves to the ring
# or the dual tableau; `two-rows` holds by 1 * (R1 - 2 R2 <= 1) + 1 * (R1 <= 4)
# only.
CAPPED = HPoly(("R1", "R2"), (((F(1), F(-2)), F(1)), ((F(1), F(0)), F(4)),
                              ((F(0), F(1)), F(4))))
BELOW = HPoly(("R1", "R2"), (((F(-1), F(1)), F(-1)), ((F(1), F(0)), F(4)),
                             ((F(0), F(1)), F(4))))  # R1 >= R2 + 1, boxed
EMPTY = HPoly(("R1", "R2"), (((F(1), F(1)), F(-1)),))


def outer_rows(*rows):
    return HPoly(("R1", "R2"), tuple(((F(a), F(b)), F(c)) for a, b, c in rows))


BOUND_CASES = [
    # t in [1, 3/2] from R1 - 2 R2 <= 1 (capped by its -2), n' >= 0: t = 1
    (outer_rows((1, -3, 1)), CAPPED, F(0), [(0, F(1))], True),
    # 2 R1 - R2: row 0 needs t >= 2 but its -2 caps t at 1/2, row 1 gives 8 > 7,
    # row 2 has no R1 entry; the max over inner is 13/2 (two rows)
    (outer_rows((2, -1, 7)), CAPPED, F(0), [None], True),
    (outer_rows((2, -1, 6)), CAPPED, F(0), [None], False),
    # n' = -1 < 0: t in [1, 2], and only t = 2 gives -2 <= -2, so the least
    # t leaves the row
    (outer_rows((-2, 1, -2)), BELOW, F(0), [None], True),
    (outer_rows((-2, 1, -2)), BELOW, TINY, [None], True),
    # a <= 0 over a rowless inner, the quadrant: no row to take a multiplier
    (outer_rows((-1, 0, 0)), NO_ROWS, F(0), [None], True),
    (outer_rows((-1, 0, -1)), NO_ROWS, F(0), [None], False),
    (HPoly(("R1", "R2"), (((F(-1), F(0)), -DEFAULT_EPS),)), NO_ROWS, DEFAULT_EPS,
     [None], True),
    # an empty inner, shown by a row with n' < 0: the least t, 1, gives
    # -1 > -5, so inner's emptiness decides the row
    (outer_rows((1, 0, -5)), EMPTY, F(0), [None], True),
    (outer_rows((1, 0, -5)), EMPTY, THIRD, [None], True),
]
BOUND_IDS = ["capped-low-end", "two-rows", "two-rows-past", "negative-rhs-high-end",
             "negative-rhs-tiny-eps", "quadrant-only", "quadrant-refused",
             "quadrant-eps", "empty-inner", "empty-inner-third"]


class TestOneRowBound:
    @settings(max_examples=300, deadline=None)
    @given(signed_pairs(), st.sampled_from((F(0), DEFAULT_EPS, THIRD)))
    @example((NO_ROWS, EMPTY), F(0))
    @example((HPoly(QUAD_DIMS, ()), QUAD_EMPTY), THIRD)
    @example(WARM_EMPTY, F(0))
    @example((quad((-1, 0, 0, 0, 0), (0, 0, 0, -1, 1)), quad()), F(0))
    @example((outer_rows((-1, 0, 0), (0, -1, 1)), NO_ROWS), F(0))
    def test_matches_lp(self, pair, eps):
        """contains against the oracle's cold LP per outer row, and every
        certificate the bound gives multiplied out."""
        outer, inner = pair
        assert contains(outer, inner, eps) == contains_lp(outer, inner, eps)
        assert_certified(outer, inner, eps, certificates(outer, inner, eps))

    @pytest.mark.parametrize("dims", [("R1", "R2"), QUAD_DIMS], ids=["2d", "4d"])
    @pytest.mark.parametrize("outer,inner,eps,certs,expected", BOUND_CASES, ids=BOUND_IDS)
    def test_hand_built_cases(self, monkeypatch, dims, outer, inner, eps, certs, expected):
        """Rows the bound proves and rows it leaves; a row it leaves, and
        only such a row, reaches the ring (2-D) or the dual tableau (4-D)."""
        outer, inner = lifted(outer, dims), lifted(inner, dims)
        assert certificates(outer, inner, eps) == certs
        assert_certified(outer, inner, eps, certs)
        reached = []
        ring, feasibility = polytope._ring, polytope.Feasibility
        monkeypatch.setattr(polytope, "_ring", lambda p: reached.append(p) or ring(p))
        monkeypatch.setattr(polytope, "Feasibility",
                            lambda A_ub: reached.append(A_ub) or feasibility(A_ub))
        assert contains(outer, inner, eps) is expected
        assert contains_lp(outer, inner, eps) is expected
        # one ring, or one dual tableau, which also decides inner's emptiness
        assert len(reached) == (None in certs)

    def test_golden_certificates_multiply_out(self, monkeypatch):
        """Every certificate for the containments of cmg-subset-hod (50
        samples) and compact-equivalence (20 samples) at seed 7, and for
        every ordered pair of golden quadruple regions on 4 HOD16 specs at
        three eps, passes the exact check.  678 of the 700 HOD_Q rows of
        cmg-subset-hod have one."""
        asked, right = [], claims.contains
        monkeypatch.setattr(claims, "contains", lambda *args: asked.append(args) or right(*args))
        run_claim("cmg-subset-hod", 50, 7)
        cmg = len(asked)
        run_claim("compact-equivalence", 20, 7)
        assert (cmg, len(asked)) == (50, 130)
        for index in range(4):
            polys = [bind(build_system(rid), hod16_binding(index))
                     for rid in ("HK_Q", "HK_Q_MODIFIED", "CMG_Q", "HOD_Q")]
            asked += [(p, q, eps) for p in polys for q in polys
                      for eps in (F(0), DEFAULT_EPS, THIRD)]
        found = []
        for outer, inner, eps in asked:
            certs = certificates(outer, inner, eps)
            assert_certified(outer, inner, eps, certs)
            found.append(sum(c is not None for c in certs))
        assert sum(found[:cmg]) == 678
        assert sum(found) > len(asked)


@st.composite
def same_normal_pairs(draw):
    """(outer, inner) over 2 or 4 dims with small integer lhs, some with no
    positive entry, and quarter rhs of either sign; inner carries up to two
    copies of each outer row's lhs, each with the rhs moved by 0, +-1 or
    +-2**-60, so that a same-lhs row proves its outer row, just fails, or
    fails while another inner row proves it."""
    dims = draw(st.sampled_from((("R1", "R2"), QUAD_DIMS)))
    row = st.tuples(st.tuples(*[st.integers(-2, 2)] * len(dims)),
                    st.integers(-8, 8).map(lambda k: F(k, 4)))
    outer = draw(st.lists(row, max_size=5))
    inner = draw(st.lists(row, max_size=3))
    for lhs, rhs in outer:
        for _ in range(draw(st.integers(0, 2))):
            inner.append((lhs, rhs + draw(st.sampled_from((F(0), F(1), F(-1), TINY, -TINY)))))
    return HPoly(dims, tuple(outer)), HPoly(dims, tuple(draw(st.permutations(inner))))


def rows_left(outer, inner, eps):
    """The outer rows, raised by eps as ``contains`` raises them, for which
    ``one_row_bound`` finds no one-row certificate, as (a, c) in order."""
    den, rows = outer.grid
    en, ed = eps.as_integer_ratio()
    m = math.lcm(den, ed)
    left = [(a, n * (m // den) + k * en * (m // ed)) for a, k, n in rows]
    return [(a, c) for a, c in left if one_row_bound(a, c, m, inner.grid) is None]


class TestSameNormal:
    """``contains`` proves an outer row by the inner row with its integer
    lhs at t = 1 before it scans; the rows it leaves are the scan's."""

    @settings(max_examples=300, deadline=None)
    @given(same_normal_pairs(), st.sampled_from((F(0), DEFAULT_EPS, THIRD)))
    @example((outer_rows((1, -1, 0), (-1, 0, -1)),
              outer_rows((1, -1, 1), (1, -1, 0), (-1, 0, -1))), F(0))
    def test_rows_left_match_the_scan(self, pair, eps):
        outer, inner = pair
        scanned, real = [], polytope.one_row_bound

        def scan(a, c, m, grid):
            cert = real(a, c, m, grid)
            scanned.append((a, c, cert))
            return cert

        polytope.one_row_bound = scan
        try:
            verdict = contains(outer, inner, eps)
        finally:
            polytope.one_row_bound = real
        assert [(a, c) for a, c, cert in scanned if cert is None] == \
            rows_left(outer, inner, eps)
        assert verdict == contains_lp(outer, inner, eps)

    def test_a_same_normal_row_needs_no_scan(self, monkeypatch):
        """Of R1 - R2 <= 0 and -R1 <= -1 in an inner that has both rows,
        the first is proved by its own lhs; the second, with no positive
        entry, and R1 - R2 <= -1, which the same lhs (rhs 0) does not
        prove, are scanned."""
        scanned = []
        monkeypatch.setattr(polytope, "one_row_bound",
                            lambda *args: scanned.append(args[:2]) or one_row_bound(*args))
        inner = outer_rows((1, -1, 1), (1, -1, 0), (-1, 0, -1))
        assert contains(outer_rows((1, -1, 0), (-1, 0, -1)), inner) is True
        assert scanned == [((-1, 0), -1)]
        assert inner.same_normal == {(1, -1): 0}
        assert contains(outer_rows((1, -1, -1)), inner) is False
        assert len(scanned) == 2

    def test_a_ring_is_clipped_once_per_inner(self, monkeypatch):
        clipped, ring = [], polytope._ring
        monkeypatch.setattr(polytope, "_ring", lambda p: clipped.append(p) or ring(p))
        inner = HPoly(("R1", "R2"), CAPPED.rows)
        for top in (7, 6, 7):
            contains(outer_rows((2, -1, top)), inner)
        assert clipped == [inner] and inner.ring == ring(inner)


def assert_views_agree(poly):
    """The rational rows are the integer grid divided back out: row i is
    (a / k, n / (k * den)) for its grid entry (a, k, n), and all of it ints."""
    den, grid = poly.grid
    assert type(den) is int and den > 0 and len(grid) == len(poly.rows)
    for (lhs, rhs), (a, k, n) in zip(poly.rows, grid):
        assert type(k) is int and k > 0 and type(n) is int
        assert all(type(v) is int for v in a)
        assert tuple(F(v, k) for v in a) == tuple(lhs)
        assert F(n, k * den) == rhs


class TestGrid:
    @pytest.mark.parametrize("form", [Form.HK2, Form.HOD16])
    def test_bound_and_projected_views_agree(self, form):
        """Every golden system bound to seeded specs, whose grid bind fills
        over 2**48, and the numeric substitution and projections of the
        quadruples, whose grids are derived on first use."""
        for i in range(4):
            binding = snap_terms(eval_terms(build_joint(
                sample_spec(binary_alphabets(), form, [47, i]))))
            for rid in REGION_IDS:
                poly = bind(build_system(rid), binding)
                assert poly.grid[0] == SNAP_DEN
                assert all(k == 1 for _, k, _ in poly.grid[1])
                assert_views_agree(poly)
                assert_views_agree(HPoly(poly.dims, poly.rows))  # derived
            for quad_id in QUADRUPLE_SYSTEMS.values():
                poly = substitute_rate_sums_numeric(bind(build_system(quad_id), binding))
                assert_views_agree(poly)
                for v in ("T1", "T2"):
                    poly = fm_eliminate_numeric(poly, v)
                    assert_views_agree(poly)
                    assert all(k == 1 for _, k, _ in poly.grid[1])

    @settings(max_examples=100, deadline=None)
    @given(quad_polys)
    def test_quarter_coefficient_views_agree(self, poly):
        assert_views_agree(poly)

    def test_grid_is_not_part_of_equality(self):
        binding = hod16_binding(1)
        poly = bind(build_system("HOD_R"), binding)
        derived = HPoly(poly.dims, poly.rows)
        assert derived == poly and hash(derived) == hash(poly)
        assert "grid" not in repr(poly)


class TestArea2:
    def test_unit_square(self):
        assert area2(square()) == 1

    def test_empty(self):
        empty = HPoly(("R1", "R2"), (((F(-1), F(0)), F(-1)),
                                     ((F(1), F(0)), F(0))))
        assert area2(empty) == 0

    def test_monte_carlo_oracle(self):
        poly = bind(build_system("HK_R"), hk2_binding(11))
        vs = vertices2(poly)
        box_w = float(max(v[0] for v in vs))
        box_h = float(max(v[1] for v in vs))
        rows = [(float(a), float(b), float(r)) for (a, b), r in poly.rows]
        rng = np.random.default_rng(1)
        n = 10**6
        pts = rng.random((n, 2)) * [box_w, box_h]
        hits = np.ones(n, dtype=bool)
        for a, b, r in rows:
            hits &= a * pts[:, 0] + b * pts[:, 1] <= r
        frac = hits.mean()
        est = frac * box_w * box_h
        se = box_w * box_h * np.sqrt(frac * (1 - frac) / n)
        assert abs(float(area2(poly)) - est) <= 3 * se + 1e-12


class TestNumericFm:
    def test_projection_matches_symbolic_route(self):
        quad_sym = build_system("HK_Q")
        for i in range(3):
            binding = hk2_binding(12 + i)
            quad = bind(quad_sym, binding)
            shadow = fm_eliminate_numeric(
                fm_eliminate_numeric(substitute_rate_sums_numeric(quad), "T1"),
                "T2")
            pair = bind(build_system("HK_R"), binding)
            assert poly_equal(shadow, pair, F(0))

    def test_symbolic_and_numeric_substitution_agree(self):
        binding = hk2_binding(15)
        sym = bind(substitute_rate_sums(build_system("HK_Q")), binding)
        num = substitute_rate_sums_numeric(bind(build_system("HK_Q"), binding))
        assert sym.dims == num.dims
        for v in ("R1", "T1", "R2", "T2"):
            obj = [F(1) if d == v else F(0) for d in sym.dims]
            assert sym.maximize(obj).value == num.maximize(obj).value

    def test_unknown_variable_refused(self):
        with pytest.raises(ValueError) as exc:
            fm_eliminate_numeric(square(), "Z9")
        assert str(exc.value) == "variable 'Z9' not in system dims ('R1', 'R2')"

    def test_infeasible_constant_row_raises(self):
        bad = HPoly(("R1", "R2"), (((F(-1), F(0)), F(-2)),
                                   ((F(1), F(0)), F(1))))
        with pytest.raises(ValueError):
            fm_eliminate_numeric(bad, "R1")

    # SHA-256 of the reprs of the numeric rows, in order: the nine golden
    # systems bound to each of acceptance criterion 7's bindings, then each
    # quadruple system of the binding's form substituted and projected on
    # T1 and then on T2.  Each coefficient is written as a Fraction, so an
    # int coefficient and the equal Fraction give one digest.
    NUMERIC_ROWS_DIGEST = "1726d8a22c8853ef0fa636ee4555fcfb278e1027dc0b735069bd81598c1d99fb"
    QUADS = {Form.HK2: ("HK_Q", "HK_Q_MODIFIED"), Form.CMG9: ("CMG_Q",),
             Form.HOD16: ("HOD_Q",)}

    def test_numeric_rows_pinned(self):
        digest = hashlib.sha256()

        def update(poly):
            rows = tuple((tuple(map(F, lhs)), rhs) for lhs, rhs in poly.rows)
            digest.update(repr(rows).encode())

        for i in range(20):
            for form, quads in self.QUADS.items():
                binding = snap_terms(eval_terms(build_joint(
                    sample_spec(binary_alphabets(), form, [91, i]))))
                for rid in REGION_IDS:
                    update(bind(build_system(rid), binding))
                for quad_id in quads:
                    poly = substitute_rate_sums_numeric(bind(build_system(quad_id), binding))
                    update(poly)
                    for v in ("T1", "T2"):
                        poly = fm_eliminate_numeric(poly, v)
                        update(poly)
        assert digest.hexdigest() == self.NUMERIC_ROWS_DIGEST

    # Few distinct values, zeros among them, make projections with
    # duplicate rows and 0 <= c rows.
    @settings(max_examples=20, deadline=None)
    @given(st.fixed_dictionaries({s: st.sampled_from(
        (0, SNAP_DEN // 8, SNAP_DEN // 4, SNAP_DEN // 2, SNAP_DEN)) for s in BASE_SYMBOLS}))
    def test_projection_drops_duplicate_and_constant_rows(self, binding):
        for quad_id in QUADRUPLE_SYSTEMS.values():
            quad = build_system(quad_id)
            for v in quad.rate_vars:
                shadow = fm_eliminate_numeric(bind(quad, binding), v)
                assert poly_equal(shadow, bind(fm_eliminate(quad, v), binding), F(0))
                assert len(set(shadow.rows)) == len(shadow.rows)
                assert all(any(lhs) for lhs, _ in shadow.rows)
