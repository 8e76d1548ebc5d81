"""Exact linear programming by one algorithm: the least-index dual rule
on a fraction-free integer tableau.

``Feasibility(A_ub).decide(b, without)`` decides the set
{x >= 0 : A_ub x <= b, x_j = 0 for j in without} exactly and in
integers: it returns the support of a point of it, or, when it is
empty, a Farkas certificate y, so each answer is a proof, not a
tolerance judgment.  ``point`` gives the same answer as a point in
``Fraction``s, or None.  One tableau serves many right-hand sides over
the same matrix, each decided from the basis the previous one left.
Problem sizes here are tiny (tens of rows).

The tableau is fraction-free (Bareiss 1968; see also Applegate, Cook,
Dash and Espinoza, "Exact solutions to linear programming problems",
2007).  Each row is scaled by a positive integer ``s_i`` to integer
coefficients, and its slack column is scaled to 1 (a change of unit for
a slack the caller never sees); one common factor ``K`` scales the
right-hand sides to integers.  A matrix given as a 2-D integer array,
as ``linsys`` gives its pruning LP's columns, goes into the tableau as
it is, every s_i = 1, and integer right-hand sides keep K = 1.  The
tableau starts from the basis the problem already has (the slack, or
crash, start), which is the identity.
The stored tableau is the rational one times ``D = |det B|``, the
determinant of the current basis in the scaled integer matrix, and it is
integral: by Cramer's rule each entry is, up to sign, an m-by-m minor of
the starting matrix.  So a pivot on entry ``p`` updates every row
exactly as ``(p*R - R[c]*R_pivot) / D``, with an exact integer division,
and ``|p|`` is the new ``D``.  Scaling a row or a slack column or all
right-hand sides by a positive number changes the sign of no entry, and
ties are broken by basis index, so the pivot sequence is the one a
``Fraction`` tableau of the unscaled problem takes from the same basis.
``point`` and ``solve_lp`` return ``Fraction``s; ``decide`` returns
integers.

The coefficient rows are one NumPy ``int64`` array, updated in one
vectorised step per pivot, and every row sits at the one denominator
``D``.  A row whose pivot-column entry is 0 is still scaled by p / D:
leaving it out saves nothing in a vectorised step and would need a
denominator per row.  The right-hand sides are Python ints beside the
array, since right-hand sides on the 2**-48 grid are far wider than 64
bits.  An exact guard keeps ``int64`` safe.  While every entry is below
2**31, each product ``p*v`` and ``R[c]*w`` of a pivot is below 2**62 and
their difference below 2**63.  A bound ``M`` on the entries is kept: a
pivot on ``p`` makes them at most ``(p + M) * M / D``, and none ever
exceeds Hadamard's bound on the minors, the product of the starting
rows' 1-norms.  Before a pivot with ``M >= 2**31`` the largest entry is
measured, and once it is >= 2**31 the array turns into ``dtype=object``
(Python ints, the same code) for good.  No pruning LP of the package
gets there: on the 8 derivations no entry exceeds 8.  A containment
tableau of ``polytope.contains`` starts there, since its budget row
holds right-hand sides on the 2**-48 grid, so ``_slack_tableau`` builds
it as ``dtype=object`` at once.

Each problem is decided by ``_repair``.  It sets the right-hand sides
to B^-1 b, which the slack columns S already hold as D * B^-1, so this
is one product ``S @ b``, in ``int64`` while ``M * sum |b|`` is below
2**63 and over Python ints otherwise.  A basic column that must be 0 is
pivoted out first, on the least-index allowed column with a nonzero
entry in its row.  One always exists: the row's slack entries are a row
of the nonsingular B^-1, so one is nonzero, and a basic slack is 0
there.  Feasibility is then repaired by the least-index dual rule: the
negative row whose basic variable has the least index leaves, and the
allowed column of least index with a negative entry in that row enters;
when there is none, the row proves the set empty.  Its slack entries
are a row of D * B^-1, and times the row scales they are a y >= 0 with
y.A_j >= 0 on every allowed column j and y.b < 0 (Farkas' lemma), which
``decide`` returns.  With no objective
every reduced cost is 0, so this is Terlaky's least-index criss-cross
rule (T. Terlaky, "A convergent criss-cross method", Optimization 16,
1985), which is finite.  On the slack basis with every right-hand side
>= 0 it makes no pivot.

Optimization is a feasibility question too, by LP duality.
``solve_lp`` maximizes c.x over {x >= 0 : A_ub x <= b_ub, A_eq x = b_eq}
with each equality row written as two ``<=`` rows, A x <= b in all, by
asking for one point (x, y) >= 0 of

    A x <= b,   -A^T y <= -c,   -c.x + b.y <= 0.

x and y of such a point are primal and dual feasible, and weak duality
(c.x <= b.y) makes the last row an equality, so c.x is the maximum.
When the system is empty, the primal or the dual is (strong duality
would give a point otherwise), and one more ``Feasibility`` on
A x <= b alone tells ``infeasible`` (no x) from ``unbounded`` (an x,
and no dual y).  ``feasible`` is the one-problem case of
``Feasibility``, with equality rows as well.  ``polytope.contains``
asks containment rows as dual feasibility questions in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

import numpy as np

# While every int64 tableau entry is below 2**31, a pivot's products stay
# below 2**62 and their differences below 2**63
_WIDE = 2**31


def _bound(A) -> int:
    """The largest |entry| of the integer array ``A`` (0 when empty)."""
    return max(int(A.max()), -int(A.min())) if A.size else 0


class Decision(NamedTuple):
    """The answer of ``Feasibility.decide``, in integers.  A nonempty set
    gives ``support``, the nonzero coordinates of a point as {column:
    x_j * den}, and ``den > 0``; an empty one gives ``den == 0`` and
    ``farkas``, a y >= 0 with y.A_j >= 0 on every allowed column j and
    y.b < 0, one entry per row of A_ub."""

    support: dict | None
    den: int
    farkas: list | None


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: list | None


class _Tableau:
    """The tableau over the common denominator ``D``: the coefficient rows
    ``A``, an ``int64`` array while its entries stay below ``_WIDE`` (``M``
    bounds them) and an ``object`` array after, and the right-hand sides
    ``b``, a list of Python ints."""

    def __init__(self, rows, basis):
        """``rows`` is the 2-D integer array of the coefficient rows, of
        ``dtype=object`` when an entry reaches ``_WIDE``."""
        self.M = _bound(rows)
        if self.M < _WIDE:
            # every entry, now and after any pivot, is up to sign an m-by-m
            # minor of these rows (Cramer's rule), so at most the product
            # of their 1-norms (Hadamard's bound)
            self.cap = prod(np.abs(rows).sum(axis=1).tolist())
        self.A = rows
        self.b = [0] * len(rows)
        self.basis = basis
        self.D = 1  # |det| of the current basis

    def pivot(self, r, c):
        A, D, b = self.A, self.D, self.b
        if self.M >= _WIDE and A.dtype != object:
            self.M = _bound(A)
            if self.M >= _WIDE:
                A = self.A = A.astype(object)
        p = A.item(r, c)
        if p < 0:
            A[r] *= -1
            b[r] *= -1
            p = -p
        # row i becomes (p*A[i] - col[i]*A[r]) / D; col[r] = p - D keeps
        # the pivot row, since (p - (p - D)) * A[r] / D == A[r]
        col = A[:, c].copy()
        col[r] = p - D
        update = np.multiply.outer(col, A[r])
        if p != 1:
            A *= p
        A -= update
        if D != 1:
            A //= D
        # the same on the Python ints; when p == D, v - a*w/D changes only
        # the entries with a*w != 0
        br = b[r]
        if p == D:
            for i, s in enumerate(col.tolist()):
                if s:
                    b[i] -= s * br // D
        else:
            self.b = [(p * v - s * br) // D for v, s in zip(b, col.tolist())]
        if A.dtype != object:
            self.M = min(self.cap, max(self.M, (p + self.M) * self.M // D))
        self.D = p
        self.basis[r] = c


def _integers(values):
    """Integer vector ``k * values`` for the least positive integer ``k``,
    and ``k``."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    ratios = [(v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio()
              for v in values]
    k = lcm(*(d for _, d in ratios))
    return [n * (k // d) for n, d in ratios], k


def _slack_tableau(A_ub, n):
    """The tableau of row i of ``A_ub`` (``n`` entries) times s_i > 0
    (integer lhs), its slack in units of 1/s_i basic, and the scales s_i;
    the right-hand sides are set by ``_repair``.  An integer array is
    taken as it is, every s_i = 1."""
    m = len(A_ub)
    if isinstance(A_ub, np.ndarray):
        rows, scale = A_ub, [1] * m
        big = _bound(rows) >= _WIDE
    else:
        rows, scale = [], []
        for a in A_ub:
            row, s = _integers(a)
            rows.append(row)
            scale.append(s)
        big = m and n and max(max(map(max, rows)), -min(map(min, rows))) >= _WIDE
    # built once, in the type the tableau keeps: Python ints from the start
    # when an entry reaches _WIDE, as the budget row of a containment does
    A = np.zeros((m, n + m), dtype=object if big else np.int64)
    if m:
        A[:, :n] = rows
        A[:, n:][np.diag_indices(m)] = 1
    return _Tableau(A, [n + i for i in range(m)]), scale


def _repair(t, scale, b_ub, without=()):
    """Decide a set on a tableau of ``_slack_tableau`` with row scales
    ``scale``: set its right-hand side column for ``b_ub``, pivot the basic columns of
    ``without`` out and repair feasibility by the least-index dual rule, no
    column of ``without`` entering (see the module docstring).  Returns the
    factor K > 0 of the right-hand sides and None, or, when the set is
    empty, None and the index of the row that proves it."""
    basis, m = t.basis, len(scale)
    # b times the row scales and one K > 0 (a change of unit for x); the
    # slack columns S hold D * B^-1, so the right-hand sides are S @ b, in
    # int64 when no partial sum can reach 2**63 (|S| <= M)
    if all(type(v) is int for v in b_ub):
        b, K = [v * s for v, s in zip(b_ub, scale)], 1
    else:
        b = [Fraction(v) * s for v, s in zip(b_ub, scale)]
        K = lcm(*(v.denominator for v in b))
        b = [v.numerator * (K // v.denominator) for v in b]
    wide = t.A.dtype == object or t.M * sum(map(abs, b)) >= 2**63
    S = t.A[:, t.A.shape[1] - m:]
    t.b = (S @ np.array(b, dtype=object if wide else np.int64)).tolist()
    # a basic column of ``without`` leaves for the least-index allowed
    # column with a nonzero entry: its row's slack entries are a row of
    # B^-1, and the basic slacks are 0 there
    for r in range(m):
        if basis[r] in without:
            t.pivot(r, next(j for j, w in enumerate(t.A[r].tolist())
                            if w and j not in without))
    # least-index dual rule: the negative row with the least basic index
    # leaves, the least allowed column with a negative entry enters
    while True:
        r = min((i for i, v in enumerate(t.b) if v < 0),
                key=basis.__getitem__, default=None)
        if r is None:
            return K, None
        col = next((j for j, w in enumerate(t.A[r].tolist())
                    if w < 0 and j not in without), None)
        if col is None:
            return None, r
        t.pivot(r, col)


def _as_ub(A_ub, b_ub, A_eq, b_eq) -> tuple:
    """The rows and right-hand sides of {A_ub x <= b_ub, A_eq x = b_eq},
    None read as empty, with each equality row as two ``<=`` rows, once
    each b has one entry per row of its A."""
    A_ub, b_ub = A_ub or [], b_ub or []
    A_eq, b_eq = A_eq or [], b_eq or []
    for name, A, b in (("A_ub", A_ub, b_ub), ("A_eq", A_eq, b_eq)):
        if len(b) != len(A):
            raise ValueError(f"b_{name[2:]} has {len(b)} entries for the "
                             f"{len(A)} rows of {name}")
    return ([*A_ub, *A_eq, *([-v for v in a] for a in A_eq)],
            [*b_ub, *b_eq, *(-v for v in b_eq)])


class Feasibility:
    """The sets {x >= 0 : A_ub x <= b, x_j = 0 for j in without} of one
    matrix, decided one right-hand side at a time on one tableau, which is
    built when the first point is asked for (see the module docstring)."""

    def __init__(self, A_ub):
        """``A_ub`` is a list of rows of numbers, or a 2-D integer array
        (``int64``, or ``object`` holding Python ints), which the tableau
        takes as it is."""
        self.A_ub = A_ub
        self._t = self._scale = None
        if isinstance(A_ub, np.ndarray):
            self.n = A_ub.shape[1]  # 2-D: no ragged rows
            return
        self.n = len(A_ub[0]) if A_ub else 0
        for i, a in enumerate(A_ub):
            if len(a) != self.n:
                raise ValueError(f"row {i} of A_ub has {len(a)} entries, "
                                 f"row 0 has {self.n}")

    def decide(self, b_ub, without=()) -> Decision:
        """Decide the set for ``b_ub``, with no column of ``without`` used,
        in integers.  The support is that of the basic point the tableau
        ends on; the Farkas y is the slack part of the row that proves the
        set empty, times the row scales.  Each entry of ``without`` must be
        an ``int`` in ``range(n)``."""
        m = len(self.A_ub)
        if len(b_ub) != m:
            raise ValueError(f"b_ub has {len(b_ub)} entries for the {m} rows of A_ub")
        for j in without:
            if type(j) is not int or not 0 <= j < self.n:
                raise ValueError(f"without holds {j!r}, not a column index "
                                 f"in range({self.n})")
        if self._t is None:
            self._t, self._scale = _slack_tableau(self.A_ub, self.n)
        t, n = self._t, self.n
        K, r = _repair(t, self._scale, b_ub, set(without))
        if K is None:
            y = [w * s for w, s in zip(t.A[r, n:].tolist(), self._scale)]
            return Decision(None, 0, y)
        return Decision({j: v for j, v in zip(t.basis, t.b) if j < n and v},
                        t.D * K, None)

    def point(self, b_ub, without=()) -> list | None:
        """A point of the set for ``b_ub`` (a list of ``Fraction``s, empty
        when there are no columns), 0 on every column in ``without``, or
        None when the set is empty: ``decide``'s answer."""
        support, den, _ = self.decide(b_ub, without)
        if support is None:
            return None
        return [Fraction(support.get(j, 0), den) for j in range(self.n)]


def feasible(A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> list | None:
    """Exact feasibility of {x >= 0 : A_ub x <= b_ub, A_eq x = b_eq}: a
    point of it (a list of ``Fraction``s, empty when there are no columns)
    as a certificate, or None when it is empty.  The one-problem case of
    ``Feasibility``."""
    A, b = _as_ub(A_ub, b_ub, A_eq, b_eq)
    return Feasibility(A).point(b)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    """Maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0, as
    one point of the primal-dual system (see the module docstring)."""
    A, b = _as_ub(A_ub, b_ub, A_eq, b_eq)
    n, m = len(c), len(A)
    for name, rows in (("A_ub", A_ub), ("A_eq", A_eq)):
        for i, a in enumerate(rows or ()):
            if len(a) != n:
                raise ValueError(f"row {i} of {name} has {len(a)} entries, "
                                 f"c has {n}")
    # columns (x, y): A x <= b, -A^T y <= -c, -c.x + b.y <= 0
    rows = [[*a] + [0] * m for a in A]
    rows += ([0] * n + [-a[j] for a in A] for j in range(n))
    rows.append([*(-v for v in c), *b])
    xy = Feasibility(rows).point([*b, *(-v for v in c), 0])
    if xy is None:
        status = "infeasible" if Feasibility(A).decide(b).support is None else "unbounded"
        return LPResult(status, None, None)
    x = xy[:n]
    return LPResult("optimal", sum((Fraction(v) * w for v, w in zip(c, x)), Fraction(0)), x)
