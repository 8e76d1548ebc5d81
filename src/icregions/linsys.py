"""Symbolic linear-inequality systems over rate variables.

An ``Inequality`` is   sum_v lhs[v] * v  <=  Combo   where the right-hand
side is a formal rational combination of the information-term symbols.
Composite symbols (B, C, F) are expanded into base + rho at construction,
so all arithmetic happens in the 16-symbol base space.  Coefficients are
Python ``int``s where they are integral and ``Fraction``s otherwise; every
row of a ``LinearSystem`` is canonical, with ``int`` coefficients of
content 1.  Substitution, Fourier-Motzkin and the pruning LP work on one
layout, ``LinearSystem.rows``: each row an integer tuple over the rate
variables, ``BASE_SYMBOLS`` and the constant.  A derived system builds
its ``Inequality`` objects only when they are read.

``fm_eliminate`` is exact Fourier-Motzkin projection, which drops the rows
Imbert's rule proves implied.  ``prune_redundant`` removes an inequality
only when an exact certificate proves it a nonnegative combination of the
remaining inequalities, the rate-variable nonnegativity facts, the
term-symbol nonnegativity facts and the supplied axioms, and keeps it only
when a Farkas certificate proves that there is none.  Most rows need no
LP: a removal that uses one other row is a multiplier t for it, checked
against the extreme rays of the axioms' cone (``cone_rays``, by double
description), and a row whose receiver twin the LP kept is kept by the
twin's Farkas point, mirrored, when that point still separates.  The
exact LP decides the rest over the same rays: one LP row per rate
variable and per ray, one column per row, and none for an axiom or term
fact.  Each axiom set is an irredundant basis of its cone: no fact is a
nonnegative combination of the others and term nonnegativity.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from fractions import Fraction
from math import gcd, isfinite, lcm

import numpy as np

from . import lp
from .terms import BASE_SYMBOLS, COMPOSITE_EXPANSION

RATE_VARS = ("S1", "T1", "S2", "T2", "R1", "R2")

feasible = lp.feasible  # not called here; perfbench's tracer test needs this binding

F = Fraction


def _num(v):
    """An ``int`` as is, any other number as a ``Fraction``."""
    return v if type(v) is int else F(v)


def _clean(d: dict) -> dict:
    return {k: v for k, v in ((k, _num(v)) for k, v in d.items()) if v}


@dataclass(frozen=True, slots=True)
class Combo:
    """Formal rational combination of term symbols plus a constant."""

    coeffs: tuple = ()
    const: int | Fraction = 0

    @staticmethod
    def of(d: dict | None = None, const=0) -> "Combo":
        d = dict(d or {})
        for comp, (base, rho) in COMPOSITE_EXPANSION.items():
            if comp in d:
                c = _num(d.pop(comp))
                d[base] = _num(d.get(base, 0)) + c
                d[rho] = _num(d.get(rho, 0)) + c
        d = _clean(d)
        unknown = set(d) - set(BASE_SYMBOLS)
        if unknown:
            raise ValueError(f"unknown term symbols: {sorted(unknown)}")
        return Combo(tuple(sorted(d.items())), _num(const))

    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0


@dataclass(frozen=True, slots=True)
class Inequality:
    """lhs . rates <= rhs (rhs a Combo).  All-zero lhs is a pure term-fact."""

    lhs: tuple  # sorted ((var, int or Fraction), ...)
    rhs: Combo

    @staticmethod
    def of(lhs: dict, rhs: Combo | dict, const=0) -> "Inequality":
        """``const`` joins a dict ``rhs``; a ``Combo`` carries its own."""
        if not isinstance(rhs, Combo):
            rhs = Combo.of(rhs, const)
        elif const != 0:
            raise ValueError("Inequality.of got both a Combo rhs and a nonzero "
                             "const; put the constant in the Combo")
        lhs = _clean(lhs)
        unknown = set(lhs) - set(RATE_VARS)
        if unknown:
            raise ValueError(f"unknown rate variables: {sorted(unknown)}")
        return Inequality(tuple(sorted(lhs.items())), rhs)

    def is_term_fact(self) -> bool:
        return not self.lhs

    def canonical(self) -> "Inequality":
        """Scale by the unique positive rational giving integer content 1,
        with ``int`` coefficients; an all-``int`` row is only divided by its
        gcd."""
        lhs, rhs = self.lhs, self.rhs
        values = [v for _, v in lhs] + [v for _, v in rhs.coeffs] + [rhs.const]
        ints = all(type(v) is int for v in values)
        m = 1 if ints else lcm(*(F(v).denominator for v in values))
        g = gcd(*(int(v * m) for v in values)) or 1
        if ints and g == 1:
            return self

        def scaled(v):
            return int(v * m) // g

        return Inequality(tuple((k, scaled(v)) for k, v in lhs),
                          Combo(tuple((k, scaled(v)) for k, v in rhs.coeffs),
                                scaled(rhs.const)))

    def key(self):
        c = self.canonical()
        return (c.lhs, c.rhs.coeffs, c.rhs.const)


def _facts(facts) -> tuple:
    """The nonzero term facts, each once, in order of first occurrence; a
    negative constant fact is refused."""
    facts = dict.fromkeys(c for c in facts if not c.is_zero())
    for c in facts:
        if not c.coeffs and c.const < 0:
            raise ValueError(f"the constant term fact 0 <= {c.const} is infeasible")
    return tuple(facts)


@dataclass(frozen=True)
class LinearSystem:
    """Inequalities plus implicit rate nonnegativity and pure term-facts.

    The inequalities are canonical, distinct and sorted.  ``rows`` is the
    same rows as integer tuples, the view the derivation works on."""

    rate_vars: tuple
    inequalities: tuple
    term_facts: tuple = field(default=())  # Combos asserted >= 0

    @cached_property
    def rows(self) -> tuple:
        """Each row as integers over the rate variables, ``BASE_SYMBOLS``
        and the constant.  ``substitute_rate_sums`` and ``fm_eliminate``
        set it; any other system derives it here on first use."""
        return tuple((*(lhs.get(v, 0) for v in self.rate_vars),
                      *(rhs.get(s, 0) for s in BASE_SYMBOLS), ineq.rhs.const)
                     for ineq, lhs, rhs in ((i, dict(i.lhs), dict(i.rhs.coeffs))
                                            for i in self.inequalities))

    def __getattr__(self, name):
        # called only for an attribute not found: the inequalities of a
        # system built from its rows, each built on first read
        if name != "inequalities" or "rows" not in self.__dict__:
            raise AttributeError(f"'LinearSystem' object has no attribute {name!r}")
        ineqs = self.__dict__["inequalities"] = _inequalities(self.rate_vars, self.rows)
        return ineqs

    @cached_property
    def dense_lhs(self) -> tuple:
        """The rows' rate coefficients, built on first use and kept: binding
        the system sets only its right-hand sides."""
        return tuple(row[:len(self.rate_vars)] for row in self.rows)

    @cached_property
    def rhs_symbols(self) -> frozenset:
        """The base term symbols the rows' right-hand sides read: all that
        binding the system needs."""
        return frozenset(k for ineq in self.inequalities for k, _ in ineq.rhs.coeffs)

    @staticmethod
    def of(rate_vars, inequalities, term_facts=()) -> "LinearSystem":
        """The system of these rows, checked: the rate variables are distinct
        members of ``RATE_VARS`` and every row uses only them."""
        rows, facts = {}, list(term_facts)
        for ineq in inequalities:
            if ineq.is_term_fact():
                facts.append(ineq.rhs)
            else:
                c = ineq.canonical()  # once: the stored row gives its own key
                rows.setdefault((c.lhs, c.rhs.coeffs, c.rhs.const), c)
        dims, facts = tuple(rate_vars), _facts(facts)
        used = {v for c in rows.values() for v, _ in c.lhs}
        if len(set(dims)) != len(dims) or not used <= set(dims) <= set(RATE_VARS):
            raise ValueError(f"rate_vars {list(dims)} do not fit the rows' {sorted(used)}")
        return LinearSystem(dims, tuple(rows[k] for k in sorted(rows)), facts)


# --- the integer row layout -------------------------------------------------

# BASE_SYMBOLS's positions in name order, the order a Combo keeps
_BY_NAME = sorted(range(len(BASE_SYMBOLS)), key=BASE_SYMBOLS.__getitem__)


def _parts(rate_vars):
    """The function taking a row to its (lhs, rhs coefficients, constant)
    as an ``Inequality`` holds them, names sorted and zeros left out:
    ``LinearSystem.of``'s sort key."""
    nr, order = len(rate_vars), sorted(range(len(rate_vars)), key=rate_vars.__getitem__)
    return lambda row: (tuple([(rate_vars[k], row[k]) for k in order if row[k]]),
                        tuple([(BASE_SYMBOLS[k], row[nr + k]) for k in _BY_NAME if row[nr + k]]),
                        row[-1])


def _inequalities(rate_vars, rows) -> tuple:
    return tuple(Inequality(lhs, Combo(coeffs, const))
                 for lhs, coeffs, const in map(_parts(rate_vars), rows))


def _canonical(row) -> tuple:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g < 2 else tuple(v // g for v in row)


def _system(rate_vars, rows, facts) -> LinearSystem:
    """The system of these distinct canonical rows, in the order given."""
    system = object.__new__(LinearSystem)
    system.__dict__.update(rate_vars=rate_vars, rows=tuple(rows), term_facts=facts)
    return system


def fm_rows(rows, col: int, nr: int, bit: int = 0, most=None) -> list:
    """One Fourier-Motzkin step, unsorted, on (row, history) pairs of integer
    rows with ``nr`` rate columns: the rows free of column ``col``, then each
    upper bound on it paired with each lower bound, of which the implicit
    -v <= 0 (history ``bit``) is the last, each with the column dropped.  A
    pair's history bitmask is the union of its two; a pair that keeps a rate
    variable and whose history has more than ``most`` bits is dropped."""
    keep, uppers, lowers = [], [], []
    for row, hist in rows:
        c = row[col]
        if c == 0:
            keep.append((row[:col] + row[col + 1:], hist))
        elif c > 0:
            uppers.append((row, c, hist))
        else:
            lowers.append((row, -c, hist))
    width = len(uppers[0][0]) if uppers else 0
    lowers.append(([-1 if k == col else 0 for k in range(width)], 1, bit))
    for up, a, up_hist in uppers:
        for lo, b, lo_hist in lowers:
            hist = up_hist | lo_hist
            row = [b * x + a * y for x, y in zip(up, lo)]
            del row[col]
            if most is not None and hist.bit_count() > most and any(row[:nr - 1]):
                continue
            keep.append((tuple(row), hist))
    return keep


def fm_eliminate(system: LinearSystem, *variables) -> LinearSystem:
    """Project out the rate variables in the given order (each one's implicit
    v >= 0 supplies a lower bound); pure term-facts generated by pairing are
    kept as facts, in order.

    Works on ``system.rows``.  Each row carries its history, the bitmask of
    the input rows (and implicit -v <= 0 rows, a bit each) it combines.
    After the k-th elimination a row whose history has more than k + 1
    bits is implied by the others and is dropped (Imbert's first
    acceleration theorem: J.-L. Imbert, "Fourier's elimination: which to
    choose?", PPCP 1993), so a one-variable call drops nothing.  After each
    elimination the rows are canonicalised, deduplicated (a duplicate keeps
    the smallest history) and sorted as ``LinearSystem.of`` does, so the
    result is built from them directly."""
    rate_vars, facts = system.rate_vars, list(system.term_facts)
    rows = [(row, 1 << n) for n, row in enumerate(system.rows)]
    for k, v in enumerate(variables, 1):
        if v not in rate_vars:
            raise ValueError(f"variable {v!r} not in system dims {rate_vars}")
        col, nr = rate_vars.index(v), len(rate_vars)
        rate_vars = rate_vars[:col] + rate_vars[col + 1:]
        best, parts = {}, _parts(rate_vars)
        for row, hist in fm_rows(rows, col, nr, 1 << (len(system.rows) + k), most=k + 1):
            if not any(row[:nr - 1]):
                facts.append(Combo(*parts(row)[1:]))
                continue
            row = _canonical(row)
            if row not in best or hist.bit_count() < best[row].bit_count():
                best[row] = hist
        rows = sorted(best.items(), key=lambda item: parts(item[0]))
    return _system(rate_vars, (row for row, _ in rows), _facts(facts))


def substitution_rows(rows, dims, width: int) -> list:
    """Rewrite rows over dims, of (S1,T1,S2,T2) and R1, R2 unused, and then
    ``width`` right-hand-side entries, over (R1,T1,R2,T2) via
    R_i = S_i + T_i, in order, followed by S_i >= 0 as T_i <= R_i."""
    at = {v: k for k, v in enumerate(dims)}
    if any(row[at[r]] for r in ("R1", "R2") if r in at for row in rows):
        raise ValueError("system already mentions R variables")
    out = []
    for row in rows:
        s1, t1, s2, t2 = (row[at[v]] if v in at else 0 for v in ("S1", "T1", "S2", "T2"))
        out.append((s1, t1 - s1, s2, t2 - s2, *row[len(dims):]))
    zero = (0,) * width
    return out + [(-1, 1, 0, 0, *zero), (0, 0, -1, 1, *zero)]


def substitute_rate_sums(system: LinearSystem) -> LinearSystem:
    """Rewrite the (S1,T1,S2,T2) system over (R1,T1,R2,T2) via R_i = S_i + T_i.

    S_i >= 0 materializes as T_i <= R_i.  The substitution is unimodular,
    so canonical rows stay canonical."""
    dims = ("R1", "T1", "R2", "T2")
    rows = substitution_rows(system.rows, system.rate_vars, len(BASE_SYMBOLS) + 1)
    return _system(dims, sorted(dict.fromkeys(rows), key=_parts(dims)), system.term_facts)


# --- bound notation and axioms ----------------------------------------------

_MIRROR = str.maketrans("12", "21")
_TERM = re.compile(r"([1-9]\d*)?([A-Za-z]\w*)")
_SIDE = re.compile(rf"\s*(0|{_TERM.pattern}(\s*\+\s*{_TERM.pattern})*)\s*")


def parse_bounds(texts) -> list:
    """Every receiver-1 bound, then every receiver-2 image (indices swapped in
    all names; ``LinearSystem.of`` drops a self-mirrored copy), as inequalities.
    Each side is 0 or '+'-joined terms with positive integer coefficients, such
    as '2R1 + R2', else a ValueError.  Term symbols on the left move right."""
    def row(text, swap):
        halves = text.split("<=")
        if len(halves) != 2 or not all(map(_SIDE.fullmatch, halves)):
            raise ValueError(f"cannot read the bound {text!r}")
        lhs, rhs = (sum((Counter({name.translate(swap): int(c or 1)})
                         for c, name in _TERM.findall(half)), Counter())
                    for half in halves)
        for name in set(lhs) - set(RATE_VARS):
            rhs[name] -= lhs.pop(name)
        return Inequality.of(lhs, rhs)

    return [row(text, swap) for swap in ({}, _MIRROR) for text in texts]


# Each axiom set is an irredundant basis of its cone, closed under the
# receiver mirror: no fact is a nonnegative combination of the others and
# 0 <= s for the term symbols s, so no double-description step is wasted.
# True facts that the basis implies are left out: a1 <= d1, b1 <= d1,
# a1 <= e1, b1 <= f1, g1 <= c1 + d1, g1 <= e1 + B1 and g1 <= a1 + F1 (a1 <= d1,
# say, is g1 + a1 <= d1 + e1 plus e1 <= g1).
_BASIS = (
    # chain-rule monotonicity (true for every joint)
    "d1 <= g1", "e1 <= g1", "f1 <= g1",
    # true for every factorization with (U_i,W_i) independent of W_j
    # given Q (the correlated-input form and all its special cases)
    "d1 <= a1 + B1", "e1 <= a1 + c1", "f1 <= b1 + c1", "g1 + b1 <= d1 + f1",
    "g1 + a1 <= d1 + e1",
)
# Chain-rule monotonicity of c1; under hk-indep c1 + g1 <= e1 + f1 with
# f1 <= g1 gives c1 <= e1, and with e1 <= g1 gives c1 <= f1.
_MONOTONE_C = ("c1 <= e1", "c1 <= f1")
# Facts that need U_i independent of W_i given Q, and only through rho1:
# c1 + g1 <= e1 + f1 + rho1 holds for every distribution, and dropping its
# rho1 takes rho1 <= 0 (C1 <= e1 is c1 <= e1 plus rho1 <= 0).
_INDEP = ("c1 + g1 <= e1 + f1", "rho1 <= 0")

AXIOMS_CHAIN = tuple(i.rhs for i in parse_bounds(_MONOTONE_C + _BASIS))
AXIOMS_HK_INDEP = tuple(i.rhs for i in parse_bounds(_BASIS + _INDEP))

AXIOM_SETS = {"chain": AXIOMS_CHAIN, "hk-indep": AXIOMS_HK_INDEP}


# --- redundancy pruning -----------------------------------------------------

def _integer_row(combo: Combo) -> tuple:
    """A term fact 0 <= combo as integers over ``BASE_SYMBOLS`` and the
    constant, scaled by the least positive integer that clears its
    denominators (the half-space does not change)."""
    return tuple(lp._integers([*map(dict(combo.coeffs).get, BASE_SYMBOLS, repeat(0)),
                               combo.const])[0])


@lru_cache(maxsize=16)
def _axiom_rows(axioms: tuple) -> tuple:
    """``_integer_row`` of each axiom, computed once per axiom set.  Its
    tuple of integer tuples keys ``_rays``, whose lookups so hash ints,
    not the axioms' ``Combo``s."""
    return tuple(map(_integer_row, axioms))


def _dd_step(rays, tight, row, bit):
    """One step of the double-description method (T. S. Motzkin et al.,
    "The double description method", 1953; K. Fukuda and A. Prodon,
    "Double description method revisited", 1996): the extreme rays of
    {z in cone(rays) : row.z >= 0}, given the extreme rays ``rays`` of a
    pointed cone and, for each, the bitmask ``tight`` of the constraints
    that hold with equality there.  ``bit`` is the new constraint's bit.
    Rays on or inside the half-space stay; each adjacent pair across it
    gives the ray where the segment between them meets row.z = 0.  Two
    extreme rays are adjacent iff no third one is tight wherever both
    are, and they need ``dim - 2`` common tight constraints for that."""
    vals = [sum(a * v for a, v in zip(row, r) if a) for r in rays]
    out = [(r, z | (v == 0) << bit) for r, z, v in zip(rays, tight, vals) if v >= 0]
    for p, zp, vp in zip(rays, tight, vals):
        if vp <= 0:
            continue
        for q, zq, vq in zip(rays, tight, vals):
            common = zp & zq
            if vq >= 0 or common.bit_count() < len(row) - 2 or any(
                    z & common == common for z in tight if z != zp and z != zq):
                continue
            r = [vp * a - vq * b for a, b in zip(q, p)]
            g = gcd(*r)
            out.append((tuple(v // g for v in r), common | 1 << bit))
    return [r for r, _ in out], [z for _, z in out]


def _int64_or_object(rows, width) -> np.ndarray:
    """``rows`` of ``width`` Python ints as an ``int64`` array, or as an
    ``object`` array when an entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), width)


def _dot(A, B) -> np.ndarray:
    """A @ B.T of two integer arrays, exactly: in ``int64`` when no partial
    sum can reach 2**63, over Python ints otherwise."""
    bound = A.shape[1] * (A.size and int(np.abs(A).max())) * (B.size and int(np.abs(B).max()))
    if bound >= 2**63:
        A, B = A.astype(object), B.astype(object)
    return A @ B.T


@lru_cache(maxsize=16)
def _rays(axioms: tuple, cuts: tuple = ()) -> tuple:
    """The extreme rays of {z >= 0 : c.z >= 0 for each axiom and cut c},
    each given as its ``_integer_row``, over the term symbols and the
    homogenising constant coordinate w: as integer tuples, their
    tight-constraint bitmasks (bits 0 to dim - 1 are z >= 0, one bit per
    axiom and cut follows) and an integer array, a row per ray.  Computed
    on first use, not at import, and kept; a cut is one more step on the
    rays without it."""
    dim = len(BASE_SYMBOLS) + 1
    if cuts:
        rays, tight, _ = _rays(axioms, cuts[:-1])
        rays, tight = _dd_step(rays, tight, cuts[-1], dim + len(axioms) + len(cuts) - 1)
    else:
        rays = [tuple(int(k == j) for k in range(dim)) for j in range(dim)]
        tight = [((1 << dim) - 1) ^ 1 << j for j in range(dim)]
        for bit, ax in enumerate(axioms, dim):
            rays, tight = _dd_step(rays, tight, ax, bit)
    V = _int64_or_object(rays, dim)
    V.flags.writeable = False  # shared by every caller
    return rays, tight, V


def cone_rays(axioms, term_facts=()) -> np.ndarray:
    """The extreme rays V of K = {(tau, w) >= 0 : ax.tau >= 0 for each
    axiom, f.tau + f0*w >= 0 for each term fact f with constant f0}, as an
    integer array, a row over ``BASE_SYMBOLS`` and w per ray.  A
    combination c of the term symbols with constant c0 is a nonnegative
    combination of the axioms, the term facts, 0 <= s and a nonnegative
    constant iff (c, c0).v >= 0 for every v in V (Farkas' lemma: K is that
    cone's dual).  The axiom set's rays are computed once; a term fact is
    a further double-description step, a cut, only where some ray
    violates it: a fact that no ray of the axiom cone violates holds on
    that cone, and on every cone inside it."""
    return _cone(_axiom_rows(tuple(axioms)), [*map(_integer_row, term_facts)])


def _cone(axiom_rows: tuple, fact_rows: list) -> np.ndarray:
    """``cone_rays`` of the axioms and term facts given as their
    ``_integer_row``s."""
    V, cuts = _rays(axiom_rows)[2], ()
    if not fact_rows:
        return V
    F = _int64_or_object(fact_rows, V.shape[1])
    for fact, row, low in zip(fact_rows, F, _dot(F, V).min(axis=1, initial=0)):
        if low < 0 and (_dot(row[None, :], V) < 0).any():
            cuts += (fact,)
            V = _rays(axiom_rows, cuts)[2]
    return V


def _one_row_certified(C, nr, rays):
    """``ok[i, j]``: row j alone, times t = ``tn[i, j] / td[i, j]``, the
    least t >= 0 with t*lhs_j >= lhs_i, certifies row i, that is
    rhs_i - t*rhs_j (constant included) is >= 0 on every ray; and
    ``alone[i]``: row i needs no other row, lhs_i <= 0 and rhs_i >= 0 on
    every ray.  ``C`` holds the rows over ``_pruning``'s keys, the rate
    coefficients negated, then the term coefficients and the constant.
    Also returns P, the rows' rhs on each ray, ``int64`` when it fits:
    the pruning LP reads it.  Every test is exact: in ``int64`` when no
    product can reach 2**63, over Python ints otherwise."""
    n = len(C)
    L, P = -C[:, :nr], _dot(C[:, nr:], rays)
    Q, lmax = P, L.size and int(np.abs(L).max())
    if 2 * lmax * max(lmax, P.size and int(np.abs(P).max())) >= 2**63:
        L, Q = L.astype(object), P.astype(object)
    # t = tn / td: the largest lhs_i / lhs_j over the coordinates with
    # lhs_j > 0, or 0, compared cross-multiplied (i down, j across)
    tn = np.zeros((n, n), dtype=L.dtype)
    td = np.ones((n, n), dtype=L.dtype)
    for k in range(nr):
        a, b = L[:, k, None], L[:, k]
        better = (b > 0) & (a * td > tn * b)
        tn, td = np.where(better, a, tn), np.where(better, b, td)
    # t*lhs_j >= lhs_i, one coordinate at a time; the rays are tested on
    # the pairs so covered only (59% of them on the 8 derivations)
    ok = np.ones((n, n), dtype=bool)
    for k in range(nr):
        ok &= tn * L[:, k] >= td * L[:, k, None]
    i, j = np.nonzero(ok)
    t_n, t_d = tn[i, j][:, None], td[i, j][:, None]
    ok[i, j] = (t_d * Q[i] >= t_n * Q[j]).all(axis=1)
    alone = (L <= 0).all(axis=1) & (Q >= 0).all(axis=1)
    return ok, alone, tn, td, P


def prune_redundant(system: LinearSystem, axioms) -> LinearSystem:
    """Remove every inequality provably implied by the rest plus axioms.

    An inequality goes when an exact certificate proves it a nonnegative
    combination of the remaining inequalities, rate nonnegativity and the
    axioms and term facts, up to a nonnegative slack in each term symbol
    and in the constant; it stays when a Farkas certificate proves that no
    such combination exists.  Inequalities are visited in canonical order,
    so the result is deterministic.  Each decision is the one the exact LP
    would make, whichever certificate makes it, and ``_pruning`` yields
    them.  Two certificates are tried before the LP:

    - *One row over the rays.*  Row i is lhs_i . r <= rhs_i.  One other
      kept row j, times t >= 0, covers the rate side iff t*lhs_j >= lhs_i
      in every coordinate.  Row i then goes when rhs_i - t*rhs_j is a
      nonnegative combination of the axioms, the term facts, 0 <= s and a
      nonnegative constant, that is (``cone_rays``) when it is >= 0 on
      every extreme ray of the axioms' and facts' cone, the constant read
      by the homogenising coordinate.  The least such t is tried, for all
      pairs at once, and t = 0 with no row j.
    - *The receiver twin's Farkas point, mirrored.*  A row's twin swaps
      the indices 1 and 2 in every name.  When an LP kept the twin, its
      Farkas y over the rate variables, term symbols and constant (below),
      mirrored, keeps the row if it is < 0 on the row's coefficients (the
      rate ones negated) and >= 0 on every other kept row's and on every
      axiom and term fact: one integer product.
    - *The LP*, for the rows neither decides, of which the one-row test
      is the one-column case.  Row i goes iff some lambda >= 0 over
      the other kept rows has sum_j lambda_j lhs_j >= lhs_i and
      sum_j lambda_j P_j <= P_i on every ray, where P_j is rhs_j
      (constant included) on the rays.  So the LP has only ``<=`` rows,
      ``-sum_j lambda_j lhs_j[v] <= -lhs_i[v]`` for each rate variable v
      and ``sum_j lambda_j P_j[r] <= P_i[r]`` for each ray r, and one
      column per row; the rays stand for every axiom and term fact, which
      have no column.  All the LPs of one call share one
      ``lp.Feasibility`` tableau: each sets its right-hand side to the
      tested row, may not use that row or the rows already removed, and
      starts from the basis the one before it left.  A feasible LP
      removes the row; an empty one keeps it, and
      ``lp.Feasibility.decide`` gives a Farkas y, one multiplier per rate
      variable and per ray.  The ray part times V is a point of the
      axioms' and facts' cone, so y maps to a y' >= 0 over the rate
      variables, term symbols and constant that is >= 0 on every axiom
      and term fact, and y'.row_j = y.column_j: the twin reads y'.

    On the 8 derivations 174 of the 264 rows go by one row over the rays
    and 39 stay by a twin's Farkas y, so the LP decides 51."""
    kept = [system.rows[i] for i, how, _ in _pruning(system, axioms)
            if how in ("farkas", "twin")]
    return LinearSystem(system.rate_vars, _inequalities(system.rate_vars, kept),
                        system.term_facts)


def _pruning(system: LinearSystem, axioms):
    """The decisions of ``prune_redundant``, one per row in canonical
    order, as (i, how, certificate): ``"row"`` removes row i by one row
    over the rays, (j, tn, td) with t = tn / td, j None for t = 0 and no
    row; ``"lp"`` removes it by the LP, whose ``lp.Decision`` gives
    multipliers over kept rows only, their combined rhs checked against
    row i's on the rays as a (j, t) certificate's is; ``"farkas"`` keeps
    it by the LP's Farkas y and ``"twin"`` by the twin's, mirrored.  A y
    has one entry per key: the rate variables, the term symbols, the
    constant (the LP's ray multipliers times the rays)."""
    keys = list(system.rate_vars) + list(BASE_SYMBOLS) + [None]  # None: constant
    index = {k: r for r, k in enumerate(keys)}
    rows, nr = system.rows, len(system.rate_vars)
    n = len(rows)
    # every row and every fact in integers, the rows' rate coefficients
    # negated; 0 <= ax contributes +ax to the certified rhs (a fact times a
    # positive integer keeps the sign of y.col for any y); each converted once
    axiom_rows, fact_rows = _axiom_rows(tuple(axioms)), [*map(_integer_row, system.term_facts)]
    M = _int64_or_object([*rows, *((0,) * nr + f for f in (*axiom_rows, *fact_rows))],
                         len(keys))
    M = M.astype(object) if (M == -2**63).any() else M  # whose negation int64 lacks

    # the receiver mirror as one permutation of ``keys``; a key whose
    # image is not in ``keys`` stays put, and a vector nonzero there has no twin
    mirror = [index.get(k if k is None else k.translate(_MIRROR)) for k in keys]
    lone = [r for r, m in enumerate(mirror) if m is None]
    mirror = [r if m is None else m for r, m in enumerate(mirror)]

    def twin(vec):
        """The vector over ``keys`` with the indices 1 and 2 swapped in
        every key, or None when a swapped key is not in ``keys``."""
        return None if any(vec[r] for r in lone) else tuple(map(vec.__getitem__, mirror))

    # every row's twin at once, by permuting the columns of the rows
    row_of = {row: j for j, row in enumerate(rows)}
    twin_row = [None if hit else row_of.get(tuple(row)) for hit, row in
                zip(M[:n, lone].any(axis=1).tolist(), M[:n, mirror].tolist())]

    M[:n, :nr] *= -1
    V = _cone(axiom_rows, fact_rows)
    ok, alone, tn, td, P = _one_row_certified(M[:n], nr, V)

    # row j's LP column: its rate coefficients negated, then P_j; the
    # tableau takes the integer array as it is
    C = np.hstack([M[:n, :nr], P])
    lps = lp.Feasibility(C.T)
    kept = list(range(n))
    removed = set()
    farkas = {}  # row kept by an LP -> its Farkas y
    for i, ok_i, alone_i in zip(range(n), ok.tolist(), alone.tolist()):
        j = None if alone_i else next((j for j in kept if ok_i[j] and j != i), None)
        if alone_i or j is not None:
            kept.remove(i)
            removed.add(i)
            yield i, "row", (j, 0, 1) if j is None else (j, int(tn[i, j]), int(td[i, j]))
            continue
        y = twin(farkas[twin_row[i]]) if twin_row[i] in farkas else None
        if y is not None:
            others = [j for j in kept if j != i]
            yM = _dot(M, _int64_or_object([y], len(keys)))[:, 0]
            if yM[i] < 0 and (yM[others] >= 0).all() and (yM[n:] >= 0).all():
                yield i, "twin", y
                continue
        answer = lps.decide(C[i].tolist(), without=removed | {i})
        if answer.support is None:
            # the ray multipliers times V: a point of the cone, so >= 0 on
            # every term symbol, axiom and term fact
            mu = _int64_or_object([answer.farkas[nr:]], len(V))
            y = farkas[i] = answer.farkas[:nr] + _dot(V.T, mu)[:, 0].tolist()
            yield i, "farkas", y
        else:
            kept.remove(i)
            removed.add(i)
            yield i, "lp", answer


def substitute_zero(system: LinearSystem, symbols) -> LinearSystem:
    """Set the given term symbols to zero in every combo (e.g. rho_i := 0,
    which turns the composite B/C/F bounds back into b/c/f)."""
    symbols = set(symbols)

    def strip(combo: Combo) -> Combo:
        return Combo(tuple((k, v) for k, v in combo.coeffs if k not in symbols),
                     combo.const)

    ineqs = [Inequality(i.lhs, strip(i.rhs)) for i in system.inequalities]
    facts = [strip(c) for c in system.term_facts]
    return LinearSystem.of(system.rate_vars, ineqs, facts)


def system_equal(sys_a: LinearSystem, sys_b: LinearSystem):
    """Canonical-set equality plus a diff of one-sided inequalities."""
    if set(sys_a.rate_vars) != set(sys_b.rate_vars):
        raise ValueError("systems are over different rate variables")
    ka = {i.key(): i for i in sys_a.inequalities}
    kb = {i.key(): i for i in sys_b.inequalities}
    only_a = tuple(ka[k] for k in sorted(ka.keys() - kb.keys()))
    only_b = tuple(kb[k] for k in sorted(kb.keys() - ka.keys()))
    return (not only_a and not only_b), {"only_a": only_a, "only_b": only_b}


# Each system id derive_region accepts -> the bundled quadruple system it
# starts from; hk-mod drops the two cross T-bounds from the HK system.
QUADRUPLE_SYSTEMS = {
    "hk": "HK_Q",
    "hk-mod": "HK_Q_MODIFIED",
    "cmg": "CMG_Q",
    "hod": "HOD_Q",
}


def derive_region(system_id: str, axioms_id: str = "chain") -> LinearSystem:
    """Substitute R_i = S_i + T_i, eliminate T1 and T2, then prune.

    system_id: a key of ``QUADRUPLE_SYSTEMS``."""
    from . import regions

    if system_id not in QUADRUPLE_SYSTEMS:
        raise ValueError(f"unknown system id {system_id!r}")
    if axioms_id not in AXIOM_SETS:
        raise ValueError(f"unknown axiom set {axioms_id!r}")
    sys0 = regions.build_system(QUADRUPLE_SYSTEMS[system_id])
    sys1 = substitute_rate_sums(sys0)
    sys2 = fm_eliminate(sys1, "T1", "T2")
    return prune_redundant(sys2, AXIOM_SETS[axioms_id])


# --- JSON interchange -------------------------------------------------------

def _frac_to_obj(v: Fraction):
    return int(v) if v.denominator == 1 else {"num": v.numerator, "den": v.denominator}


def _obj_to_frac(o) -> Fraction:
    """A finite JSON number or {"num": int, "den": nonzero int}; booleans,
    strings, NaN, infinities and any other object are not numbers."""
    parts = (o.get("num"), o.get("den")) if isinstance(o, dict) else (o,)
    if (all(type(p) is int for p in parts) and parts[1:] != (0,)
            or type(o) is float and isfinite(o)):
        return F(*parts)
    raise ValueError(f"coefficient {o!r} is not a number")


def system_to_json(system: LinearSystem) -> dict:
    return {
        "rate_vars": list(system.rate_vars),
        "inequalities": [
            {
                "lhs": {k: _frac_to_obj(v) for k, v in i.lhs},
                "rhs": {k: _frac_to_obj(v) for k, v in i.rhs.coeffs},
                "const": _frac_to_obj(i.rhs.const),
            }
            for i in system.inequalities
        ],
        "term_facts": [
            {
                "coeffs": {k: _frac_to_obj(v) for k, v in c.coeffs},
                "const": _frac_to_obj(c.const),
            }
            for c in system.term_facts
        ],
    }


def system_from_json(d: dict) -> LinearSystem:
    ineqs = [
        Inequality.of(
            {k: _obj_to_frac(v) for k, v in i["lhs"].items()},
            Combo.of({k: _obj_to_frac(v) for k, v in i["rhs"].items()},
                     _obj_to_frac(i.get("const", 0))),
        )
        for i in d["inequalities"]
    ]
    facts = [
        Combo.of({k: _obj_to_frac(v) for k, v in c["coeffs"].items()},
                 _obj_to_frac(c.get("const", 0)))
        for c in d.get("term_facts", [])
    ]
    return LinearSystem.of(tuple(d["rate_vars"]), ineqs, facts)
