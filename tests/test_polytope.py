import functools
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icregions import polytope
from icregions.dist import Form, build_joint
from icregions.linsys import (QUADRUPLE_SYSTEMS, Inequality, LinearSystem,
                              fm_eliminate, substitute_rate_sums)
from icregions.polytope import (DEFAULT_EPS, SNAP_DEN, HPoly,
                                UnboundedRegionError, area2, bind, contains,
                                fm_eliminate_numeric, poly_equal, snap_terms,
                                substitute_rate_sums_numeric, vertices2)
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


def hk2_binding(index):
    spec = sample_spec(binary_alphabets(), Form.HK2, [41, index])
    return snap_terms(eval_terms(build_joint(spec)))


class TestSnapTerms:
    def test_denominator_and_rounding(self):
        out = snap_terms({"a1": 0.5, "b1": 1.0 / 3.0})
        assert out["a1"] == F(1, 2)
        assert abs(out["b1"] - F(1, 3)) <= F(1, 2 * SNAP_DEN)
        assert out["b1"].denominator <= SNAP_DEN

    def test_negative_roundoff_floors_to_zero(self):
        assert snap_terms({"a1": -1e-15})["a1"] == 0

    # 2**900 * 2**48 is still a finite float; a tie rounds to even.
    @given(st.floats(min_value=-2.0**900, max_value=2.0**900))
    @example(2.0**900)
    @example(2.0**-49)
    @example(3 * 2.0**-49)
    @example(5e-324)
    @example(-5e-324)
    def test_within_half_a_step_of_its_float(self, v):
        snapped = snap_terms({"a1": v})["a1"]
        if v < 0:
            assert snapped == 0
        else:
            assert abs(snapped - F(v)) <= F(1, 2 * SNAP_DEN)

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
        assert snap_terms({"a1": 10**400})["a1"] == 10**400

    # A string would be repeated 2**48 times, and a bool would snap to 0 or 1.
    @pytest.mark.parametrize("v", ["0.1", True, None], ids=["string", "bool", "none"])
    def test_non_number_refused(self, v):
        with pytest.raises(ValueError) as exc:
            snap_terms({"b1": 0.5, "a1": v})
        assert str(exc.value) == f"value of 'a1' must be a finite number, not {v!r}"

    def test_numpy_float_snaps(self):
        assert snap_terms({"a1": np.float64(0.5)})["a1"] == F(1, 2)


class TestBind:
    def test_all_zero_binding_gives_origin(self):
        binding = {s: F(0) for s in ALL_SYMBOLS}
        poly = bind(build_system("HK_R"), binding)
        assert vertices2(poly) == [(F(0), F(0))]

    def test_box_constraints_only(self):
        binding = {s: F(1000) for s in ALL_SYMBOLS}
        binding["d1"] = binding["d2"] = F(1)
        poly = bind(build_system("COMPACT_R"), binding)
        assert vertices2(poly) == [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)),
                                   (F(0), F(1))]

    ODD = LinearSystem(("R1", "R2"), (  # not canonical: Fraction coefficients
        Inequality.of({"R1": F(1, 2)}, {"a1": F(2, 3), "g2": -1}, const=F(1, 4)),))

    @settings(max_examples=40, deadline=None)
    @given(st.fixed_dictionaries({s: st.one_of(
        st.integers(-9, 9), st.integers(0, 2**50).map(lambda k: F(k, 2**48)),
        st.floats(-9, 9)) for s in BASE_SYMBOLS}))
    def test_rows_are_the_per_term_fraction_sums(self, binding):
        """Each bound row, built once per system and summed in integers,
        is the row's own lhs coefficients and the ``F(binding[k]) *
        coefficient`` sum, repr included, for int, Fraction and float
        values."""
        for system in [*map(build_system, REGION_IDS), self.ODD]:
            poly = bind(system, binding)
            expected = tuple(
                (tuple(dict(i.lhs).get(v, 0) for v in system.rate_vars),
                 F(sum((F(binding[k]) * c for k, c in i.rhs.coeffs), i.rhs.const)))
                for i in system.inequalities)
            assert repr(poly.rows) == repr(expected)
            assert bind(system, binding).rows[0][0] is poly.rows[0][0]

    @pytest.mark.parametrize("rid", REGION_IDS)
    def test_bound_coefficients_are_ints(self, rid):
        # so the exact LP scales a containment's rows without an lcm
        poly = bind(build_system(rid), hk2_binding(0))
        assert all(type(c) is int for lhs, _ in poly.rows for c in lhs)

    def test_missing_symbol_reported(self):
        with pytest.raises(ValueError, match="missing term symbol"):
            bind(build_system("HK_R"), {"a1": F(0)})
        with pytest.raises(ValueError) as exc:
            bind(self.ODD, {"a1": 1})
        assert str(exc.value) == "binding is missing term symbol 'g2'"

    def test_feasibility_matches_direct_evaluation(self):
        binding = hk2_binding(0)
        poly = bind(build_system("HK_R"), binding)
        rows = poly.rows
        rng = np.random.default_rng(0)
        scale = float(binding["d1"]) + float(binding["d2"]) + 1e-6
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
        except UnboundedRegionError:
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
        except UnboundedRegionError:
            with pytest.raises(UnboundedRegionError):
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
            except UnboundedRegionError:
                expected.append(None)

        def no_lp(*args, **kwargs):
            raise AssertionError("solve_lp called")

        monkeypatch.setattr(polytope, "solve_lp", no_lp)
        assert None in expected and [] in expected
        for poly, vs in zip(polys, expected):
            if vs is None:
                with pytest.raises(UnboundedRegionError):
                    vertices2(poly)
                with pytest.raises(UnboundedRegionError):
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
        with pytest.raises(UnboundedRegionError):
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

QUAD_DIMS = ("S1", "T1", "S2", "T2")
QUAD_EMPTY = HPoly(QUAD_DIMS, (((F(1), F(0), F(0), F(0)), F(-1)),))  # S1 <= -1
QUAD_SLAB = HPoly(QUAD_DIMS, (((F(1), F(0), F(0), F(0)), F(1)),))  # S1 <= 1


QUARTERS = st.integers(-12, 12).map(lambda k: F(k, 4))
quad_polys = st.lists(st.tuples(st.tuples(*[QUARTERS] * 4), QUARTERS), max_size=6).map(
    lambda rows: HPoly(QUAD_DIMS, tuple(rows)))  # maybe empty, unbounded or rowless


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
    raised by 0, eps/2, eps or eps + 2**-60, with random rows added or not,
    so that inner's maxima lie just inside or just past rhs + eps."""
    outer = draw(st.one_of(quad_polys, golden_quads()))
    rise = draw(st.sampled_from((F(0), DEFAULT_EPS / 2, DEFAULT_EPS, DEFAULT_EPS + TINY)))
    raised = tuple((lhs, rhs + rise) for lhs, rhs in outer.rows)
    inner = draw(st.one_of(quad_polys, golden_quads(), st.just(HPoly(QUAD_DIMS, raised)),
                           quad_polys.map(lambda p: HPoly(QUAD_DIMS, raised + p.rows))))
    return outer, inner


class TestContains:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_vertex_test_matches_lp_loop(self, data):
        """The 2-D vertex test against maximizing each outer row over
        inner.  Inner is a bounded region, or outer itself with every
        rhs raised by 0, eps/2, eps or eps + 2**-60 and boxed, so that
        some inner vertices lie just inside or just past rhs + eps."""
        outer = data.draw(st.one_of(boxed_regions(), boxed_regions().map(int_entries),
                                    golden_regions()))
        eps = data.draw(st.sampled_from((F(0), DEFAULT_EPS)))
        rise = data.draw(st.sampled_from((F(0), DEFAULT_EPS / 2, DEFAULT_EPS,
                                          DEFAULT_EPS + TINY)))
        raised = HPoly(outer.dims, tuple((lhs, rhs + rise) for lhs, rhs in outer.rows))
        inner = data.draw(st.one_of(boxed_regions().map(boxed), golden_regions(),
                                    st.just(boxed(raised))))
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
    ], ids=["on-eps", "past-eps", "int-on", "int-past", "int-on-eps",
            "empty-inner", "unbounded-inside", "unbounded-outside"])
    def test_hand_built_cases(self, outer, inner, eps, expected):
        assert contains(outer, inner, eps) is expected
        assert contains_lp(outer, inner, eps) is expected

    def test_vertices2_looked_up_at_call_time(self, monkeypatch):
        """perfbench's tracer and its tests wrap polytope.vertices2, so
        contains and area2 must reach it through the module global."""
        calls = []
        right = polytope.vertices2
        monkeypatch.setattr(polytope, "vertices2",
                            lambda p: calls.append(p) or right(p))
        assert contains(square(2), square(1), F(0))
        assert calls == [square(1)]
        assert area2(square(3)) == 9
        assert calls == [square(1), square(3)]

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
    @given(quad_pairs(), st.sampled_from((F(0), DEFAULT_EPS)))
    @example((QUAD_SLAB, QUAD_EMPTY), F(0))
    @example((HPoly(QUAD_DIMS, ()), QUAD_SLAB), F(0))
    @example((QUAD_SLAB, HPoly(QUAD_DIMS, ())), DEFAULT_EPS)
    @example((HPoly(QUAD_DIMS, (((F(1), F(0), F(0), F(0)), F(2)),)), QUAD_SLAB), F(0))
    @example((HPoly(QUAD_DIMS, (((F(0), F(1), F(0), F(0)), F(2)),)), QUAD_SLAB), F(0))
    def test_4d_warm_lp_matches_cold_lp_loop(self, pair, eps):
        """4-D containment, decided on one warm-started tableau, against
        the oracle's cold LP per outer row: an empty inner, an unbounded
        inner inside and outside, and an outer with no rows among them."""
        outer, inner = pair
        assert contains(outer, inner, eps) == contains_lp(outer, inner, eps)

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
        (F(0), F(1, 8), F(1, 4), F(1, 2), F(1))) for s in BASE_SYMBOLS}))
    def test_projection_drops_duplicate_and_constant_rows(self, binding):
        for quad_id in QUADRUPLE_SYSTEMS.values():
            quad = build_system(quad_id)
            for v in quad.rate_vars:
                shadow = fm_eliminate_numeric(bind(quad, binding), v)
                assert poly_equal(shadow, bind(fm_eliminate(quad, v), binding), F(0))
                assert len(set(shadow.rows)) == len(shadow.rows)
                assert all(any(lhs) for lhs, _ in shadow.rows)
