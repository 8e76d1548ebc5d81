"""Independently coded reference implementations used only by the tests.

These deliberately avoid the library's vectorized/einsum code paths:
joints are built by explicit nested loops over flat index tuples, mutual
informations by direct summation over dictionaries, polygon vertices
by a from-scratch pairwise-intersection search, redundancy pruning by
the pruning LP written with equality rows only, and Fourier-Motzkin
steps over ``Fraction`` dictionaries that drop no row.  Three references keep an
earlier form of library code: the 2-D clip over ``Fraction`` points,
containment decided by the exact LP alone, and the exact LP's tableau
as lists of Python ints, with the Bland's-rule primal simplex the
library no longer has.  Every LP of these oracles is solved on that
tableau (``reference_maximize_each``), not by ``icregions.lp``.
"""

import math
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from icregions.dist import Var
from icregions.linsys import LinearSystem
from icregions.lp import LPResult, _as_ub
from icregions.terms import BASE_SYMBOLS

VARS = list(Var)


def naive_joint(spec):
    """Entry-by-entry product of the factor tables (pure Python loops)."""
    n = {v: spec.alphabets.size(v) for v in VARS}
    out = {}
    for q, u1, w1, u2, w2, x1, x2, y1, y2 in product(
            *[range(n[v]) for v in VARS]):
        p = (spec.q[q]
             * spec.w1_given_q[q][w1]
             * spec.u1_given_q_w1[q][w1][u1]
             * spec.w2_given_q[q][w2]
             * spec.u2_given_q_w2[q][w2][u2]
             * spec.x1_given_q_u1_w1[q][u1][w1][x1]
             * spec.x2_given_q_u2_w2[q][u2][w2][x2]
             * spec.channel[x1][x2][y1][y2])
        out[(q, u1, w1, u2, w2, x1, x2, y1, y2)] = p
    return out


def naive_marginal(table: dict, keep_axes):
    out = {}
    for idx, p in table.items():
        key = tuple(idx[a] for a in keep_axes)
        out[key] = out.get(key, 0.0) + p
    return out


def dict_from_tensor(tensor):
    out = {}
    it = tensor.reshape(-1)
    shape = tensor.shape
    for flat, p in enumerate(it):
        idx = []
        rem = flat
        for s in reversed(shape):
            idx.append(rem % s)
            rem //= s
        out[tuple(reversed(idx))] = float(p)
    return out


def naive_entropy(table: dict) -> float:
    return -sum(p * math.log2(p) for p in table.values() if p > 0)


def naive_cmi(table: dict, a_axes, b_axes, c_axes) -> float:
    """I(A;B|C) by direct summation: sum p(abc) log2 p(abc)p(c)/(p(ac)p(bc))."""
    abc = naive_marginal(table, list(a_axes) + list(b_axes) + list(c_axes))
    ac = naive_marginal(table, list(a_axes) + list(c_axes))
    bc = naive_marginal(table, list(b_axes) + list(c_axes))
    c = naive_marginal(table, list(c_axes))
    na, nb = len(a_axes), len(b_axes)
    total = 0.0
    for idx, p in abc.items():
        if p <= 0:
            continue
        ai, bi, ci = idx[:na], idx[na:na + nb], idx[na + nb:]
        total += p * math.log2(p * c.get(ci, 1.0) / (ac[ai + ci] * bc[bi + ci]))
    return total


def cmi_vars(joint, a_vars, b_vars, c_vars) -> float:
    table = dict_from_tensor(joint.tensor)
    ax = {v: i for i, v in enumerate(VARS)}
    return naive_cmi(table, [ax[v] for v in a_vars], [ax[v] for v in b_vars],
                     [ax[v] for v in c_vars])


def naive_term_vector(joint) -> dict:
    """The 22 named terms computed only through naive_cmi."""
    Q, U1, W1, U2, W2 = Var.Q, Var.U1, Var.W1, Var.U2, Var.W2
    Y1, Y2 = Var.Y1, Var.Y2
    tv = {}
    for i, (u, w, wj, y) in (
            (1, (U1, W1, W2, Y1)), (2, (U2, W2, W1, Y2))):
        tv[f"a{i}"] = cmi_vars(joint, [y], [u], [w, wj, Q])
        tv[f"b{i}"] = cmi_vars(joint, [y], [w], [u, wj, Q])
        tv[f"c{i}"] = cmi_vars(joint, [y], [wj], [u, w, Q])
        tv[f"d{i}"] = cmi_vars(joint, [y], [u, w], [wj, Q])
        tv[f"e{i}"] = cmi_vars(joint, [y], [u, wj], [w, Q])
        tv[f"f{i}"] = cmi_vars(joint, [y], [w, wj], [u, Q])
        tv[f"g{i}"] = cmi_vars(joint, [y], [u, w, wj], [Q])
        rho = cmi_vars(joint, [u], [w], [Q])
        tv[f"rho{i}"] = rho
        tv[f"B{i}"] = tv[f"b{i}"] + rho
        tv[f"C{i}"] = tv[f"c{i}"] + rho
        tv[f"F{i}"] = tv[f"f{i}"] + rho
    return tv


def brute_force_vertices(rows, eps=Fraction(0)):
    """Vertex set of {x >= 0, a.x <= b} in 2-D, coded from scratch.

    rows: list of ((a1, a2), b) with Fractions.  Returns a set of exact
    points.
    """
    all_rows = list(rows) + [((Fraction(-1), Fraction(0)), Fraction(0)),
                             ((Fraction(0), Fraction(-1)), Fraction(0))]

    def feasible(pt):
        return all(a1 * pt[0] + a2 * pt[1] <= b + eps
                   for (a1, a2), b in all_rows)

    pts = set()
    for i in range(len(all_rows)):
        (a1, b1), c1 = all_rows[i]
        for j in range(i + 1, len(all_rows)):
            (a2, b2), c2 = all_rows[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if feasible((x, y)):
                pts.add((x, y))
    # drop non-extreme points: p is extreme iff it is not a convex
    # combination of two other feasible intersection points
    extreme = set()
    for p in pts:
        others = [q for q in pts if q != p]
        inside = False
        for a in others:
            for b in others:
                if a >= b:
                    continue
                # p on segment [a, b]?
                cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                if cross == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) \
                        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]):
                    inside = True
                    break
            if inside:
                break
        if not inside:
            extreme.add(p)
    return extreme


def prune_redundant_eq(system, axioms):
    """Redundancy pruning with the LP in equality form: an inequality goes
    when it equals a nonnegative combination of the remaining ones, -v <= 0
    for each rate variable, the axioms and term facts, 0 <= s for each term
    symbol and a nonnegative constant, one equality row per rate variable,
    term symbol and the constant.  Rows are visited in order, and each LP
    is decided by ``reference_maximize_each`` with a zero objective.  Its
    phase 1 is the dual rule the library's ``lp.Feasibility`` runs, on the
    reference tableau, so this oracle differs from the library in the
    statement of the LP: equality rows (each as two ``<=`` rows) with fixed
    columns for -v <= 0, 0 <= s and the constant."""
    keys = list(system.rate_vars) + list(BASE_SYMBOLS) + [None]

    def column(lhs, coeffs, const):
        col = dict.fromkeys(keys, Fraction(0))
        col.update(lhs)
        col.update(coeffs)
        col[None] = const
        return [col[k] for k in keys]

    fixed = [column({v: -1}, (), 0) for v in system.rate_vars]
    fixed += [column((), c.coeffs, c.const) for c in (*axioms, *system.term_facts)]
    fixed += [column((), {s: 1}, 0) for s in BASE_SYMBOLS]
    fixed.append(column((), (), 1))
    cols = [column(i.lhs, i.rhs.coeffs, i.rhs.const) for i in system.inequalities]
    kept = list(range(len(cols)))
    for i in range(len(cols)):
        others = [j for j in kept if j != i]
        use = [*(cols[j] for j in others), *fixed]
        (res,), _ = reference_maximize_each([[0] * len(use)],
                                            A_eq=[list(r) for r in zip(*use)], b_eq=cols[i])
        if res.status != "infeasible":
            kept = others
    return LinearSystem.of(system.rate_vars,
                           [system.inequalities[j] for j in kept],
                           system.term_facts)


def fm_step_keys(system, *variables):
    """Fourier-Motzkin on ``Fraction`` dictionaries, one step per variable
    in turn, every row paired with every other (the implicit -v <= 0 as a
    lower bound) and no row dropped.  Returns the canonical keys of the
    rows that keep a rate variable after the last step, each scaled to
    integers of content 1, and the term facts (the system's own and the
    pairs' that keep none) as (coefficients, constant) pairs with zero ones
    left out."""
    def as_dicts(lhs, rhs, const):
        return ({k: Fraction(c) for k, c in lhs}, {k: Fraction(c) for k, c in rhs},
                Fraction(const))

    def nonzero(d):
        return tuple(sorted((k, c) for k, c in d.items() if c != 0))

    keys = {(i.lhs, i.rhs.coeffs, i.rhs.const) for i in system.inequalities}
    facts = {(c.coeffs, c.const) for c in system.term_facts}
    for v in variables:
        rows = [as_dicts(*key) for key in keys]
        rows.append(({v: Fraction(-1)}, {}, Fraction(0)))
        keep = [r for r in rows if r[0].get(v, 0) == 0]
        for up in (r for r in rows if r[0].get(v, 0) > 0):
            for lo in (r for r in rows if r[0].get(v, 0) < 0):
                a, b = up[0][v], -lo[0][v]
                pair = []
                for part in range(2):
                    d = {}
                    for k in set(up[part]) | set(lo[part]):
                        d[k] = b * up[part].get(k, 0) + a * lo[part].get(k, 0)
                    pair.append(d)
                pair[0].pop(v)
                keep.append((pair[0], pair[1], b * up[2] + a * lo[2]))
        keys = set()
        for lhs, rhs, const in keep:
            lhs, rhs = nonzero(lhs), nonzero(rhs)
            if not lhs:
                if rhs or const:
                    facts.add((rhs, const))
                continue
            values = [c for _, c in lhs + rhs] + [const]
            scale = Fraction(lcm(*(c.denominator for c in values)),
                             gcd(*(c.numerator for c in values)))
            keys.add((tuple((k, int(c * scale)) for k, c in lhs),
                      tuple((k, int(c * scale)) for k, c in rhs), int(const * scale)))
    return keys, facts


def combination(terms) -> dict:
    """sum w * c over the (w, Combo) pairs, exactly: a dict from term symbol
    to coefficient, with None for the constant.  Certificates are
    multiplied out with it; the library has no Combo arithmetic."""
    out = {None: Fraction(0)}
    for w, c in terms:
        for k, v in (*c.coeffs, (None, c.const)):
            out[k] = out.get(k, 0) + w * v
    return out


def vertices2_fraction(p):
    """The earlier ``vertices2``, kept on purpose as an independent
    reference: one exact LP decides emptiness and boundedness and gives a
    square [0, M]^2 around the region, and the square is clipped over
    ``Fraction`` points.  ``vertices2`` clips the quadrant itself in
    integer coordinates with no LP, but keeps the row order, clip rule and
    left-turn corner test, so this list, order included, is the one
    ``vertices2`` must return."""
    if len(p.dims) != 2:
        raise ValueError("vertices2 requires a 2-D polytope")
    res = reference_max(p, [1, 1])
    if res.status == "infeasible":
        return []
    if res.status != "optimal":
        raise ValueError("2-D region is unbounded; missing a box constraint")
    m = res.value
    ring = [(Fraction(0), Fraction(0)), (m, Fraction(0)), (m, m), (Fraction(0), m)]
    for (a, b), c in p.rows:
        clipped = []
        for (px, py), (qx, qy) in zip(ring, ring[1:] + ring[:1]):
            fp, fq = a * px + b * py - c, a * qx + b * qy - c
            if fp <= 0:
                clipped.append((px, py))
            if (fp < 0 < fq) or (fq < 0 < fp):
                t = fp / (fp - fq)
                clipped.append((px + t * (qx - px), py + t * (qy - py)))
        ring = clipped
    corners = [q for o, q, r in zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1])
               if (q[0] - o[0]) * (r[1] - q[1]) - (q[1] - o[1]) * (r[0] - q[0]) > 0]
    if not corners:  # a point or a segment: at most two distinct ring points
        return sorted(set(ring))
    i = corners.index(min(corners))
    return corners[i:] + corners[:i]


def reference_max(p, objective):
    """The max of objective.x over the polytope p by
    ``reference_maximize_each``, as an ``LPResult``."""
    (res,), _ = reference_maximize_each([list(objective)], [list(lhs) for lhs, _ in p.rows],
                                        [rhs for _, rhs in p.rows])
    return res


def contains_lp(outer, inner, eps):
    """Containment by the exact LP alone: inner lies in outer slackened by
    eps iff inner is empty or no outer row's maximum over inner exceeds
    its rhs + eps.  Each maximum is a cold Bland's-rule solve on the
    reference tableau."""
    for lhs, rhs in outer.rows:
        res = reference_max(inner, lhs)
        if res.status == "infeasible":
            return True
        if res.status == "unbounded" or res.value > rhs + eps:
            return False
    return True


class ReferenceTableau:
    """The exact LP's tableau as it was before its coefficients moved to
    one NumPy array, kept as the reference for ``lp._Tableau``'s pivots:
    integer rows ``R[i]`` (the right-hand side last, the objective row
    appended last) over positive denominators ``den[i]``, each lifted to
    the common denominator D only when a pivot touches it.  ``pivots``
    lists every (row, column) pivot taken."""

    def __init__(self, rows, basis):
        self.R = rows
        self.den = [1] * len(rows)
        self.basis = basis
        self.D = 1  # |det| of the current basis
        self.pivots = []

    def lift(self, i):
        """Bring row i up to the common denominator D (exact by the
        invariant)."""
        d, D = self.den[i], self.D
        if d != D:
            self.R[i] = [v * D // d for v in self.R[i]]
            self.den[i] = D

    def pivot(self, r, c):
        self.pivots.append((r, c))
        R, D = self.R, self.D
        self.lift(r)
        pr = R[r]
        p = pr[c]
        if p < 0:
            pr = R[r] = [-v for v in pr]
            p = -p
        # with p == D the denominator stays and only the pivot row's
        # nonzero columns change: (p*v - a*w) / D == v - a*w/D
        nz = [(j, w) for j, w in enumerate(pr) if w] if p == D else None
        for i, row in enumerate(R):
            if i == r or row[c] == 0:
                continue
            self.lift(i)
            row = R[i]
            a = row[c]
            if nz is not None:
                for j, w in nz:
                    row[j] -= a * w // D
            else:
                R[i] = [(p * v - a * w) // D for v, w in zip(row, pr)]
            self.den[i] = p
        self.den[r] = p
        self.D = p
        self.basis[r] = c

    def price(self, cost):
        """Append the objective row of maximizing ``cost . x``, priced out
        against the basis at denominator D."""
        obj = [self.D * v for v in cost] + [0]
        for i, b in enumerate(self.basis):
            coef = cost[b]
            if coef:
                self.lift(i)
                obj = [o - coef * v for o, v in zip(obj, self.R[i])]
        self.R.append(obj)
        self.den.append(self.D)

    def phase(self, ncols):
        """Maximize the objective stored in the last row (Bland's rule)."""
        R, basis = self.R, self.basis
        while True:
            obj = R[-1]
            col = next((j for j in range(ncols) if obj[j] > 0), None)
            if col is None:
                return "optimal"
            # ratio R[i][-1] / R[i][col] does not depend on den[i]
            best_r = best_num = best_den = None
            for i in range(len(R) - 1):
                f = R[i][col]
                if f > 0:
                    e = R[i][-1]
                    if best_r is None:
                        better = True
                    else:
                        lhs, rhs = e * best_den, best_num * f
                        better = lhs < rhs or (lhs == rhs and basis[i] < basis[best_r])
                    if better:
                        best_r, best_num, best_den = i, e, f
            if best_r is None:
                return "unbounded"
            self.pivot(best_r, col)


def _reference_integers(values):
    """Integer vector ``k * values`` for the least positive integer ``k``,
    and ``k``."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    k = lcm(*(v.denominator for v in values))
    return [v.numerator * (k // v.denominator) for v in values], k


def _reference_slack_tableau(A_ub, n):
    """Row i of ``A_ub`` times s_i > 0 to integers, its slack basic and
    scaled to 1, a right-hand side column left 0; and the scales s_i."""
    m = len(A_ub)
    rows, scale = [], []
    for i, a in enumerate(A_ub):
        row, s = _reference_integers(a)
        row += [0] * (m + 1)
        row[n + i] = 1
        rows.append(row)
        scale.append(s)
    return ReferenceTableau(rows, [n + i for i in range(m)]), scale


def _reference_repair(t, scale, b_ub, without=()):
    """Phase 1 by the least-index dual rule, as ``lp._repair``: the factor
    K > 0 of the right-hand sides, or None when the set is empty."""
    R, basis, m = t.R, t.basis, len(scale)
    b = [Fraction(v) * s for v, s in zip(b_ub, scale)]
    K = lcm(*(v.denominator for v in b))
    b = [v.numerator * (K // v.denominator) for v in b]
    for row in R:  # the slack columns hold D * B^-1
        row[-1] = sum(w * v for w, v in zip(row[-1 - m:-1], b) if w)
    for r in range(m):
        if basis[r] in without:
            t.pivot(r, next(j for j, w in enumerate(R[r][:-1])
                            if w and j not in without))
    while True:
        r = min((i for i in range(m) if R[i][-1] < 0),
                key=basis.__getitem__, default=None)
        if r is None:
            return K
        col = next((j for j, w in enumerate(R[r][:-1])
                    if w < 0 and j not in without), None)
        if col is None:
            return None
        t.pivot(r, col)


def _reference_point(t, n, K):
    x = [Fraction(0)] * n
    for i, j in enumerate(t.basis):
        if j < n:
            x[j] = Fraction(t.R[i][-1], t.den[i] * K)
    return x


class ReferenceFeasibility:
    """``lp.Feasibility`` on a ``ReferenceTableau``: ``point`` returns the
    point (or None) and the pivots that problem took.  ``A_ub`` is a list
    of rows or, as ``lp.Feasibility`` also takes it, an integer array."""

    def __init__(self, A_ub):
        if isinstance(A_ub, np.ndarray):
            A_ub = A_ub.tolist()
        self.A_ub = A_ub
        self.n = len(A_ub[0]) if A_ub else 0
        self.t, self.scale = _reference_slack_tableau(A_ub, self.n)

    def point(self, b_ub, without=()):
        start = len(self.t.pivots)
        K = _reference_repair(self.t, self.scale, b_ub, set(without))
        x = None if K is None else _reference_point(self.t, self.n, K)
        return x, self.t.pivots[start:]


def reference_one_row(C, nr, rays):
    """``linsys._one_row_certified`` pair by pair over ``Fraction``s, for
    rows ``C`` (lists of ints: the rate coefficients negated, then the
    rest) and ``rays`` (lists of ints over the rest).  For rows i and j,
    t is the largest lhs_i[k] / lhs_j[k] over the k with lhs_j[k] > 0
    when it is > 0, as (tn, td) = (lhs_i[k], lhs_j[k]) at the first such
    k, and t = 0 = 0 / 1 otherwise; ``ok[i][j]`` when t*lhs_j >= lhs_i
    and P_i - t*P_j >= 0 on every ray, P_i being row i's rest on each ray.
    Returns ok, alone, tn, td and P as nested lists."""
    L = [[-v for v in c[:nr]] for c in C]
    P = [[sum(a * b for a, b in zip(c[nr:], r)) for r in rays] for c in C]
    n = len(C)
    ok = [[False] * n for _ in range(n)]
    tn = [[0] * n for _ in range(n)]
    td = [[1] * n for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        ratios = [(Fraction(L[i][k], L[j][k]), k) for k in range(nr) if L[j][k] > 0]
        t = max((q for q, _ in ratios), default=Fraction(0))
        if t > 0:
            k = next(k for q, k in ratios if q == t)
            tn[i][j], td[i][j] = L[i][k], L[j][k]
        else:
            t = Fraction(0)
        ok[i][j] = (all(t * a >= b for a, b in zip(L[j], L[i]))
                    and all(p - t * q >= 0 for p, q in zip(P[i], P[j])))
    alone = [all(v <= 0 for v in L[i]) and all(v >= 0 for v in P[i]) for i in range(n)]
    return ok, alone, tn, td, P


def reference_maximize_each(objectives, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Maximize each objective over {x >= 0 : A_ub x <= b_ub, A_eq x = b_eq}
    on one ``ReferenceTableau``: phase 1 by the least-index dual rule once,
    then each objective priced onto the last basis and maximized by
    Bland's rule.  Returns the list of every objective's ``LPResult`` (one
    ``infeasible`` result for an empty set) and the pivots taken."""
    A, b = _as_ub(A_ub, b_ub, A_eq, b_eq)
    n = len(objectives[0])
    t, scale = _reference_slack_tableau(A, n)
    K = _reference_repair(t, scale, b)
    if K is None:
        return [LPResult("infeasible", None, None)], t.pivots
    results = []
    for c in objectives:
        ci, kc = _reference_integers(c)
        t.price(ci + [0] * len(A))
        if t.phase(n + len(A)) == "unbounded":
            results.append(LPResult("unbounded", None, None))
        else:
            results.append(LPResult("optimal", -Fraction(t.R[-1][-1], t.den[-1] * K * kc),
                                    _reference_point(t, n, K)))
        t.R.pop()
        t.den.pop()
    return results, t.pivots
