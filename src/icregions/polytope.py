"""Exact-rational half-space polyhedra over the rate variables.

Term values measured in bits are snapped once to the integer k of
k * 2**-48; everything downstream (binding, vertex enumeration,
containment, area) is exact.  Cross-region comparisons that combine
independently snapped values use a generous eps of 2**-30.

A polytope has two views of its rows: ``rows``, rational, for its readers
(JSON output, ``contains_point``, the projections), and ``grid``, the same
rows over integers, for the computation.  ``bind`` fills only the grid:
its rows have ``int`` coefficients and each rhs is summed in integers as
const * 2**48 + sum(c * k), so the grid is those rows over the one
denominator 2**48, and the rational rows are derived from it on first
read.  Any other polytope derives its grid on first use.
Integers, not ``Fraction``s (whose every operation runs a ``gcd`` on
2**-48-scale denominators), carry every decision: ``vertices2`` clips the
quadrant x, y >= 0 itself by each grid row, its two directions written as
points at infinity, keeps its ring in integer homogeneous coordinates and
decides each step by the sign of an integer expression (Yap, "Towards
exact geometric computation", 1997).  ``contains`` folds eps into
outer's grid rows as an integer and first proves what rows it can from a
single inner row by weak LP duality (``one_row_bound``, whose integer
(j, t) is the one-multiplier containment certificate); it tests each
point of inner's ring, vertex or direction, against the rows left, so a
2-D verdict solves no LP, and in 4-D asks one exact LP tableau, in
integers, for each row left's dual multipliers and, for a row with none,
for a Farkas certificate of inner's emptiness.  Only the vertices
returned are ``Fraction``s.  The numeric projection runs the
Fourier-Motzkin step, S->R substitution and canonicaliser of ``linsys``
on rows whose right-hand sides are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .lp import Feasibility, _integers, solve_lp
from .linsys import LinearSystem, _canonical, fm_rows, substitution_rows

F = Fraction

SNAP_DEN = 2**48
DEFAULT_EPS = F(1, 2**30)


def snap_terms(term_values: dict) -> dict:
    """Round each term (bits) to the nearest multiple k * 2**-48, floored at
    0, and give it as the integer k; a value that is not an ``int`` or
    ``float`` (``bool`` included), or a float that is not finite or too large
    to snap, raises a ValueError."""
    out = {}
    for k, v in term_values.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"value of {k!r} must be a finite number, not {v!r}")
        if isinstance(v, float) and not math.isfinite(v * SNAP_DEN):
            why = ("is too large to snap to a multiple of 2**-48:" if math.isfinite(v)
                   else "must be a finite number, not")
            raise ValueError(f"value of {k!r} {why} {v!r}")
        n = round(v * SNAP_DEN)
        out[k] = n if n > 0 else 0
    return out


@dataclass(frozen=True)
class HPoly:
    """Intersection of half-spaces a.x <= b with implicit x >= 0."""

    dims: tuple  # rate-variable names, fixing coordinate order
    # ((coeffs aligned with dims, ints when bound), Fraction rhs): the
    # rational view, which every reader uses; ``grid`` serves the computation
    rows: tuple

    @cached_property
    def grid(self) -> tuple:
        """The rows over integers, (den, ((a, k, n), ...)): row i times the
        least positive integer k that makes its coefficients integers a, its
        rhs k * b as n / den over one common den.  ``bind`` sets it (k = 1,
        den = 2**48); any other polytope derives it here on first use."""
        rows = [(*_integers(lhs), F(rhs)) for lhs, rhs in self.rows]
        den = math.lcm(*((k * b).denominator for _, k, b in rows))
        return den, tuple((tuple(a), k, int(k * b * den)) for a, k, b in rows)

    def __getattr__(self, name):
        # called only for an attribute not found: the rows of a polytope
        # ``bind`` made, each (a, 1, n) of its grid read as (a, n / den)
        if name != "rows" or "grid" not in self.__dict__:
            raise AttributeError(f"'HPoly' object has no attribute {name!r}")
        den, grid = self.grid
        rows = self.__dict__["rows"] = tuple((a, F(n, den)) for a, _, n in grid)
        return rows

    def contains_point(self, point, eps=F(0)) -> bool:
        if len(point) != len(self.dims):
            raise ValueError(f"point has {len(point)} coordinates, "
                             f"polytope has {len(self.dims)}")
        if any(x < -eps for x in point):
            return False
        return all(
            sum(c * x for c, x in zip(lhs, point)) <= rhs + eps
            for lhs, rhs in self.rows
        )

    def maximize(self, objective):
        """Exact max of objective.x over the polytope (x >= 0 implicit)."""
        return solve_lp(objective, A_ub=[lhs for lhs, _ in self.rows],
                        b_ub=[rhs for _, rhs in self.rows])


def bind(system: LinearSystem, binding: dict) -> HPoly:
    """The numeric polytope of the system at a binding made by
    ``snap_terms``, each term symbol to the integer k of k * 2**-48.

    Each rhs is summed in integers as const * 2**48 + sum(c * k), with no
    lcm or gcd, into the grid; the rational rows, which the numeric path
    never reads, are derived from it on first read.  A row with a
    coefficient that is not an ``int`` (no ``LinearSystem.of`` row has
    one), or a term value that is not, raises a ValueError."""
    grid = []
    for i, (lhs, ineq) in enumerate(zip(system.dense_lhs, system.inequalities)):
        n = ineq.rhs.const * SNAP_DEN
        try:
            for k, c in ineq.rhs.coeffs:
                n += c * binding[k]
        except KeyError as exc:
            raise ValueError(f"binding is missing term symbol {exc.args[0]!r}") from None
        if type(n) is not int or type(sum(lhs)) is not int:
            raise ValueError(f"row {i} has a coefficient or term value that is not "
                             "an int; bind takes the integers snap_terms gives")
        grid.append((lhs, 1, n))
    poly = object.__new__(HPoly)
    # the fields but rows, and what the grid's cached_property holds
    poly.__dict__.update(dims=tuple(system.rate_vars), grid=(SNAP_DEN, tuple(grid)))
    return poly


def _ring(p: HPoly) -> list:
    """The quadrant x, y >= 0 clipped by each grid row of the 2-D polytope:
    its ring of integer triples (X, Y, W), as ``vertices2`` describes."""
    den, rows = p.grid
    ring = [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
    for (a, b), _, c in rows:
        a, b = a * den, b * den
        fs = [a * x + b * y - c * w for x, y, w in ring]
        clipped = []
        for P, Q, fp, fq in zip(ring, ring[1:] + ring[:1], fs, fs[1:] + fs[:1]):
            if fp <= 0:
                clipped.append(P)
            if (fp < 0 < fq) or (fq < 0 < fp):
                x, y, w = (abs(fq) * pi + abs(fp) * qi for pi, qi in zip(P, Q))
                g = math.gcd(x, y, w)
                clipped.append((x // g, y // g, w // g))
        ring = clipped
    return ring


def vertices2(p: HPoly):
    """Exact vertex list of a bounded 2-D polytope.

    The ring starts as the quadrant x, y >= 0 in oriented projective
    coordinates (Stolfi, "Oriented Projective Geometry", 1991): a point is
    an integer triple (X, Y, W) with no common factor and X, Y, W >= 0,
    standing for (X/W, Y/W) when W > 0 and for the direction (X, Y) when
    W = 0.  The origin (0, 0, 1) and the directions (1, 0, 0) and (0, 1, 0)
    make a counterclockwise ring.  Clipping it by each row (Sutherland and
    Hodgman, "Reentrant polygon clipping", 1974) leaves the region's ring;
    its vertices are the points where the ring turns left, listed from the
    lexicographically smallest one.  A point or a segment gives its sorted
    distinct ends; an empty region gives an empty list, and an unbounded
    one raises a ``ValueError``.

    Each grid row a.x <= n / den, its row lhs.x <= rhs times k, is read
    as den*a.x <= n, so fp = den*a1*X + den*a2*Y - n*W is a positive
    multiple of the rational lhs.p - rhs when W > 0 and has its sign.  The crossing of P and Q
    is the positive combination |fq|*P + |fp|*Q, reduced by its gcd, and a
    left turn at Q from O to R is a positive determinant of the rows O, Q, R.
    Every ring point is a positive combination of the start triple, so all
    stay in X, Y, W >= 0, and the clip is an ordinary convex clip seen
    through the projection onto the triangle X + Y + W = 1, which keeps
    orientation.  The final ring spans the cone of the homogenised region
    {(X, Y, W) >= 0 : a1*X + a2*Y <= c*W for each row}.  That cone has a
    point with W > 0 exactly when the region is nonempty, and a ray with
    W = 0 exactly when the region also recedes along it.  So no W > 0 point
    means empty, a W = 0 point left beside one means unbounded, and
    otherwise the ring is the region's polygon in integer coordinates:
    every keep, drop, crossing and corner decision is the sign of a
    positive multiple of the rational one, and only the output is built as
    ``Fraction`` pairs.
    """
    if len(p.dims) != 2:
        raise ValueError("vertices2 requires a 2-D polytope")
    ring = _ring(p)
    if not any(w for _, _, w in ring):
        return []
    if not all(w for _, _, w in ring):
        raise ValueError("2-D region is unbounded; missing a box constraint")
    corners = [q for o, q, r in zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1])
               if o[0] * (q[1] * r[2] - q[2] * r[1]) - o[1] * (q[0] * r[2] - q[2] * r[0])
               + o[2] * (q[0] * r[1] - q[1] * r[0]) > 0]
    if not corners:  # a point or a segment: at most two distinct ring points
        return sorted({(F(x, w), F(y, w)) for x, y, w in ring})
    corners = [(F(x, w), F(y, w)) for x, y, w in corners]
    i = corners.index(min(corners))
    return corners[i:] + corners[:i]


def area2(p: HPoly) -> Fraction:
    """Exact shoelace area of the 2-D region (0 for empty/degenerate)."""
    vs = vertices2(p)  # the module global, so a tracer or a test can wrap it
    if len(vs) < 3:
        return F(0)
    total = F(0)
    for (x1, y1), (x2, y2) in zip(vs, vs[1:] + vs[:1]):
        total += x1 * y2 - x2 * y1
    return total / 2


def one_row_bound(a, c, m, inner_grid):
    """A one-multiplier certificate that the polytope whose grid is
    inner_grid satisfies a.x <= c / m, or None.

    Weak LP duality with y = t*e_j: if inner's grid row j, a'.x <= n' / den',
    and some t >= 0 have t*a' >= a componentwise, then every x >= 0 of
    inner has a.x <= t*a'.x <= t*n' / den', which proves the row when
    t*n' / den' <= c / m.  Each a'_i > 0 gives t >= a_i / a'_i, each
    a'_i < 0 gives t <= a_i / a'_i, and each a'_i = 0 needs a_i <= 0; the
    least such t >= 0 is tried, which is the best one when n' >= 0, as on
    every bound polytope.  Rows are tried in order, every comparison is
    cross-multiplied in integers, and the certificate is (j, t_n, t_d), the
    integers of t = t_n / t_d with t_d > 0."""
    den, rows = inner_grid
    for j, (aj, _, n) in enumerate(rows):
        lo, lo_d, hi, hi_d = 0, 1, None, 1  # t in [lo / lo_d, hi / hi_d]
        for ai, bi in zip(a, aj):
            if bi > 0:
                if ai * lo_d > lo * bi:
                    lo, lo_d = ai, bi
            elif bi < 0:
                if hi is None or -ai * hi_d < hi * -bi:
                    hi, hi_d = -ai, -bi
            elif ai > 0:
                break
        else:
            if (hi is None or lo * hi_d <= hi * lo_d) and lo * n * m <= c * den * lo_d:
                return j, lo, lo_d
    return None


def contains(outer: HPoly, inner: HPoly, eps=F(0)) -> bool:
    """True iff inner is inside outer slackened by eps (exact test).

    Both read the grids.  Each outer grid row a.x <= n / den, raised by
    k * eps = k * en / ed, is a.x <= c / m over m = lcm(den, ed), so eps on
    the 2**-48 grid keeps m = den.  A row that ``one_row_bound`` proves is
    decided; only the rows left go on, in their order, and when none is
    left no ring and no tableau is built.  In 2-D, inner's ring (the clip
    that ``vertices2`` reads) spans the cone of inner homogenised,
    {(X, Y, W) >= 0 : lhs.(X, Y) <= rhs*W for each inner row}.  A ring
    with no W > 0 point is an empty inner, inside anything.  Otherwise its
    W > 0 points hold inner's vertices and its W = 0 points the directions
    inner recedes along, and a nonempty polyhedron lies in a half-space iff
    every one of them satisfies the homogenised row: each ring point is
    tested against each row left as m*(a1*X + a2*Y) <= c*W.  So bounded,
    unbounded and empty inners are decided alike, in integers and with no
    LP.

    In any other dimension each row left is a question of LP duality.  A
    row a.x <= c / m holds on a nonempty inner {x >= 0 : A'x <= n' / den'}
    iff some y >= 0 has yA' >= a and y.n' / den' <= c / m (weak duality
    gives the if, strong duality the only if).  That is the set
    {y >= 0 : -A'^T y <= -a, m*n'.y <= c*den'}, one column per inner grid
    row, whose matrix is the same for every row left, so one
    ``lp.Feasibility`` tableau decides them all in turn, each from the
    basis the previous one left.  The first row with no y ends the test:
    it fails unless inner is empty, which by Farkas' lemma holds iff some
    y >= 0 has yA' >= 0 and n'.y < 0, the right-hand side (0, -1) on the
    same tableau."""
    if outer.dims != inner.dims:
        raise ValueError("polytopes are over different rate variables or orders")
    den, rows = outer.grid
    en, ed = eps.as_integer_ratio()
    m = math.lcm(den, ed)
    grid = inner.grid
    left = []  # the rows no single inner row proves, (a, c)
    for a, k, n in rows:
        c = n * (m // den) + k * en * (m // ed)
        if one_row_bound(a, c, m, grid) is None:
            left.append((a, c))
    if not left:
        return True
    if len(outer.dims) == 2:
        ring = _ring(inner)
        return not any(w for _, _, w in ring) or all(
            m * (a * x + b * y) <= c * w for x, y, w in ring for (a, b), c in left)
    den, inner_rows = grid
    # a column per inner row: -A'^T y <= -a, m*n'.y <= c*den'
    dual = Feasibility([*([-a[i] for a, _, _ in inner_rows] for i in range(len(outer.dims))),
                        [m * n for _, _, n in inner_rows]])
    for a, c in left:
        if dual.decide([*(-v for v in a), c * den]).support is None:
            return dual.decide([0] * len(a) + [-1]).support is not None
    return True


def poly_equal(p: HPoly, q: HPoly, eps=F(0)) -> bool:
    return contains(p, q, eps) and contains(q, p, eps)


def _hpoly(dims, rows) -> HPoly:
    """The rows, each its coefficients and then its rhs, with ``Fraction`` rhs."""
    return HPoly(dims, tuple((row[:-1], F(row[-1])) for row in rows))


def fm_eliminate_numeric(p: HPoly, dim: str) -> HPoly:
    """Exact Fourier-Motzkin projection of a numeric polytope.

    The implicit dim >= 0 row participates as a lower bound.  ``linsys``'s
    step runs on the grid's rows as canonical integers, a . x <= n read as
    (den * a, n), and each result is canonical."""
    if dim not in p.dims:
        raise ValueError(f"variable {dim!r} not in system dims {p.dims}")
    den, grid = p.grid
    rows = [(_canonical((*(v * den for v in a), n)), 0) for a, _, n in grid]
    # drop vacuous 0 <= rhs rows and exact duplicates, keeping first occurrences
    out = {}
    for row, _ in fm_rows(rows, p.dims.index(dim), len(p.dims)):
        if any(row[:-1]):
            out.setdefault(_canonical(row))
        elif row[-1] < 0:
            raise ValueError("projection produced an infeasible constant row")
    return _hpoly(tuple(d for d in p.dims if d != dim), out)


def substitute_rate_sums_numeric(p: HPoly) -> HPoly:
    """Numeric analogue of the symbolic S_i := R_i - T_i substitution, by
    ``linsys``'s step on the rows as they are, each keeping its scale."""
    if p.dims != ("S1", "T1", "S2", "T2"):
        raise ValueError("expected a quadruple polytope over (S1, T1, S2, T2)")
    return _hpoly(("R1", "T1", "R2", "T2"),
                  substitution_rows([(*lhs, rhs) for lhs, rhs in p.rows], p.dims, 1))
