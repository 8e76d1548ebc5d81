"""Exact-rational half-space polyhedra over the rate variables.

Term values measured in bits are snapped once to rationals with denominator
2**48; everything downstream (binding, vertex enumeration, containment,
area) is exact.  Cross-region comparisons that combine independently
snapped values use a generous eps of 2**-30.

``vertices2`` clips the quadrant x, y >= 0 itself by each row, its two
directions written as points at infinity, and reads the vertices, or
emptiness or unboundedness, off the clipped ring with no LP.  The 2-D path
computes in integers, not ``Fraction``s (whose every operation runs a
``gcd`` on 2**-48-scale denominators): the clip keeps its ring in integer
homogeneous coordinates and decides each step by the sign of an integer
expression (Yap, "Towards exact geometric computation", 1997), and
``contains`` tests each vertex against outer rows scaled to integers.
Only the vertices returned are ``Fraction``s.  The numeric projection
runs the Fourier-Motzkin step, S->R substitution and canonicaliser of
``linsys`` on rows whose right-hand sides are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lp import _integers, maximize_each, solve_lp
from .linsys import (Combo, Inequality, LinearSystem, dense_lhs, fm_rows, ratios,
                     substitution_rows)

F = Fraction

SNAP_DEN = 2**48
DEFAULT_EPS = F(1, 2**30)


class UnboundedRegionError(ValueError):
    pass


def snap_terms(term_values: dict) -> dict:
    """Round each term (bits) to the nearest multiple of 2**-48, floored at 0;
    a value that is not an ``int`` or ``float`` (``bool`` included), or a
    float that is not finite or too large to snap, raises a ValueError."""
    out = {}
    for k, v in term_values.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"value of {k!r} must be a finite number, not {v!r}")
        if isinstance(v, float) and not math.isfinite(v * SNAP_DEN):
            why = ("is too large to snap to a multiple of 2**-48:" if math.isfinite(v)
                   else "must be a finite number, not")
            raise ValueError(f"value of {k!r} {why} {v!r}")
        r = F(round(v * SNAP_DEN), SNAP_DEN)
        out[k] = r if r > 0 else F(0)
    return out


@dataclass(frozen=True)
class HPoly:
    """Intersection of half-spaces a.x <= b with implicit x >= 0."""

    dims: tuple  # rate-variable names, fixing coordinate order
    rows: tuple  # ((coeffs aligned with dims), Fraction rhs)

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


def _hpoly(dims, lhs_rows, ineqs, binding: dict) -> HPoly:
    """The inequalities in order as dense rows over dims: the given
    ``dense_lhs`` rows, and each rhs at the binding, which is converted to
    integer pairs once, so that each rhs is summed in integers and built as
    one ``Fraction``."""
    binding = ratios(binding)
    try:
        rhs = [ineq.rhs.evaluate_ratios(binding) for ineq in ineqs]
    except KeyError as exc:
        raise ValueError(f"binding is missing term symbol {exc.args[0]!r}") from None
    return HPoly(tuple(dims), tuple(zip(lhs_rows, rhs)))


def bind(system: LinearSystem, binding: dict) -> HPoly:
    """Evaluate every rhs combo at the binding, yielding a numeric polytope."""
    return _hpoly(system.rate_vars, system.dense_lhs, system.inequalities, binding)


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
    one raises ``UnboundedRegionError``.

    Each row a.x <= c is scaled once to integers by the least positive
    integer, so fp = a1*X + a2*Y - c*W is a positive multiple of the
    rational a.p - c when W > 0 and has its sign.  The crossing of P and Q
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
    ring = [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
    for lhs, rhs in p.rows:
        (a, b, c), _ = _integers((*lhs, rhs))
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
    if not any(w for _, _, w in ring):
        return []
    if not all(w for _, _, w in ring):
        raise UnboundedRegionError("2-D region is unbounded; missing a box constraint")
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


def contains(outer: HPoly, inner: HPoly, eps=F(0)) -> bool:
    """True iff inner is inside outer slackened by eps (exact test).

    A bounded 2-D inner uses vertex enumeration: each outer row, its rhs
    raised by eps, is scaled to integers once, and a vertex (x, y) is
    tested as a1*xn*yd + a2*yn*xd <= c*xd*yd over the numerators and
    denominators of x and y.  Otherwise each outer constraint is
    maximized over inner by the exact LP, all of them on one tableau of
    inner's rows (``lp.maximize_each``): the dual-rule phase 1 repairs the
    slack basis once, and each outer row starts from the basis the previous
    one ended at.  The results are taken one at a time, so the first row
    that fails, or an empty inner, ends the test without solving the rest;
    an outer with no rows solves no LP."""
    if outer.dims != inner.dims:
        raise ValueError("polytopes are over different rate variables or orders")
    eps = F(eps)
    if len(outer.dims) == 2:
        try:
            vs = vertices2(inner)  # the module global, so a tracer or a test can wrap it
        except UnboundedRegionError:
            pass  # the LP loop below decides an unbounded inner
        else:
            rows = [_integers((*lhs, rhs + eps))[0] for lhs, rhs in outer.rows]
            for x, y in vs:
                xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
                u, v, d = xn * yd, yn * xd, xd * yd
                if any(a * u + b * v > c * d for a, b, c in rows):
                    return False
            return True
    results = maximize_each((list(lhs) for lhs, _ in outer.rows),
                            [lhs for lhs, _ in inner.rows], [rhs for _, rhs in inner.rows])
    for (_, rhs), res in zip(outer.rows, results):
        if res.status == "infeasible":
            return True  # empty inner
        if res.status == "unbounded":
            return False
        if res.value > rhs + eps:
            return False
    return True


def poly_equal(p: HPoly, q: HPoly, eps=F(0)) -> bool:
    return contains(p, q, eps) and contains(q, p, eps)


def _ineqs(p: HPoly) -> list:
    """The rows as inequalities whose right-hand sides are constants."""
    return [Inequality.of(dict(zip(p.dims, lhs)), Combo(const=rhs))
            for lhs, rhs in p.rows]


def fm_eliminate_numeric(p: HPoly, dim: str) -> HPoly:
    """Exact Fourier-Motzkin projection of a numeric polytope.

    The implicit dim >= 0 row participates as a lower bound."""
    if dim not in p.dims:
        raise ValueError(f"variable {dim!r} not in system dims {p.dims}")
    # drop vacuous 0 <= rhs rows and exact duplicates, keeping first occurrences
    rows = {}
    for ineq, _ in fm_rows([(i, frozenset()) for i in _ineqs(p)], dim):
        if ineq.is_term_fact():
            if ineq.rhs.const < 0:
                raise ValueError("projection produced an infeasible constant row")
            continue
        rows.setdefault(ineq.canonical())
    dims = tuple(d for d in p.dims if d != dim)
    return _hpoly(dims, dense_lhs(dims, rows), rows, {})


def substitute_rate_sums_numeric(p: HPoly) -> HPoly:
    """Numeric analogue of the symbolic S_i := R_i - T_i substitution."""
    if p.dims != ("S1", "T1", "S2", "T2"):
        raise ValueError("expected a quadruple polytope over (S1, T1, S2, T2)")
    dims, rows = ("R1", "T1", "R2", "T2"), substitution_rows(_ineqs(p))
    return _hpoly(dims, dense_lhs(dims, rows), rows, {})
