"""Symbolic linear-inequality systems over rate variables.

An ``Inequality`` is   sum_v lhs[v] * v  <=  Combo   where the right-hand
side is a formal rational combination of the information-term symbols.
Composite symbols (B, C, F) are expanded into base + rho at construction,
so all arithmetic happens in the 16-symbol base space.  Coefficients are
Python ``int``s where they are integral and ``Fraction``s otherwise; every
row of a ``LinearSystem`` is canonical, with ``int`` coefficients of
content 1, so substitution, Fourier-Motzkin and the pruning LP work in
integers.

``fm_eliminate`` is exact Fourier-Motzkin projection, which drops the rows
Imbert's rule proves implied; ``prune_redundant`` removes an inequality
only when an exact certificate proves it a nonnegative combination of the
remaining inequalities, the rate-variable nonnegativity facts, the
term-symbol nonnegativity facts and the supplied axioms: the certificate
of its own exact LP, or its receiver twin's, mirrored.  Each axiom set is
an irredundant basis of its cone: no fact is a nonnegative combination of
the others and term nonnegativity.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, isfinite, lcm

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

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def __add__(self, other: "Combo") -> "Combo":
        d = dict(self.coeffs)
        for k, v in other.coeffs:
            d[k] = d.get(k, 0) + v
        return Combo(tuple(sorted((k, v) for k, v in d.items() if v)),
                     self.const + other.const)

    def scale(self, s) -> "Combo":
        s = _num(s)
        return Combo(tuple((k, v * s) for k, v in self.coeffs), self.const * s)

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

    def coeff(self, v):
        return dict(self.lhs).get(v, 0)

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

    The inequalities are canonical, distinct and sorted."""

    rate_vars: tuple
    inequalities: tuple
    term_facts: tuple = field(default=())  # Combos asserted >= 0

    @cached_property
    def dense_lhs(self) -> tuple:
        """``dense_lhs`` of the rows, built on first use and kept: binding
        the system sets only its right-hand sides."""
        return dense_lhs(self.rate_vars, self.inequalities)

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


def dense_lhs(dims, ineqs) -> tuple:
    """Each inequality's lhs as a tuple over dims, of its own coefficients
    (``int`` for a canonical row) and 0 where it has none."""
    return tuple(tuple(lhs.get(v, 0) for v in dims)
                 for lhs in (dict(ineq.lhs) for ineq in ineqs))


def fm_rows(rows, v: str, most=None) -> list:
    """One Fourier-Motzkin step, unsorted, on (inequality, history) pairs: the
    rows free of ``v``, then each upper bound on ``v`` paired with each lower
    bound, of which the implicit v >= 0 (history ``{v}``) is the last.  A
    pair's history is the union of its two.  A pair that keeps a rate
    variable and whose history has more than ``most`` members is skipped
    before its rhs is built."""
    keep, uppers, lowers = [], [], []
    for ineq, hist in rows:
        c = ineq.coeff(v)
        if c == 0:
            keep.append((ineq, hist))
        elif c > 0:
            uppers.append((ineq, c, hist))
        else:
            lowers.append((ineq, -c, hist))
    lowers.append((Inequality(((v, -1),), Combo()), 1, frozenset([v])))  # -v <= 0
    for up, a, up_hist in uppers:
        for lo, b, lo_hist in lowers:
            hist = up_hist | lo_hist
            combined = {k: b * val for k, val in up.lhs if k != v}
            for k, val in lo.lhs:
                if k != v:
                    combined[k] = combined.get(k, 0) + a * val
            lhs = tuple(sorted((k, val) for k, val in combined.items() if val))
            if most is not None and len(hist) > most and lhs:
                continue
            keep.append((Inequality(lhs, up.rhs.scale(b) + lo.rhs.scale(a)), hist))
    return keep


def fm_eliminate(system: LinearSystem, *variables) -> LinearSystem:
    """Project out the rate variables in the given order (each one's implicit
    v >= 0 supplies a lower bound); pure term-facts generated by pairing are
    kept as facts, in order.

    Each row carries its history, the set of input rows (and implicit
    -v <= 0 rows) it combines.  After the k-th elimination a row whose
    history has more than k + 1 members is implied by the others and is
    dropped (Imbert's first acceleration theorem: J.-L. Imbert, "Fourier's
    elimination: which to choose?", PPCP 1993), so a one-variable call
    drops nothing.  After each elimination the rows are canonicalised,
    deduplicated (a duplicate keeps the smallest history) and sorted as
    ``LinearSystem.of`` does, so the result is built from them directly."""
    rate_vars, facts = system.rate_vars, list(system.term_facts)
    rows = [(ineq, frozenset([n])) for n, ineq in enumerate(system.inequalities)]
    for k, v in enumerate(variables, 1):
        if v not in rate_vars:
            raise ValueError(f"variable {v!r} not in system dims {rate_vars}")
        rate_vars = tuple(r for r in rate_vars if r != v)
        best = {}
        for ineq, hist in fm_rows(rows, v, most=k + 1):
            if ineq.is_term_fact():
                facts.append(ineq.rhs)
                continue
            c = ineq.canonical()
            key = (c.lhs, c.rhs.coeffs, c.rhs.const)
            if key not in best or len(hist) < len(best[key][1]):
                best[key] = (c, hist)
        rows = [best[key] for key in sorted(best)]
    return LinearSystem(rate_vars, tuple(ineq for ineq, _ in rows), _facts(facts))


def substitution_rows(inequalities) -> list:
    """Rewrite rows over (S1,T1,S2,T2) over (R1,T1,R2,T2) via R_i = S_i + T_i,
    in order, followed by S_i >= 0 as T_i <= R_i."""
    out = []
    for ineq in inequalities:
        if ineq.coeff("R1") or ineq.coeff("R2"):
            raise ValueError("system already mentions R variables")
        lhs = dict(ineq.lhs)
        for s, r, t in (("S1", "R1", "T1"), ("S2", "R2", "T2")):
            c = lhs.pop(s, 0)
            if c:
                lhs[r] = lhs.get(r, 0) + c
                lhs[t] = lhs.get(t, 0) - c
        out.append(Inequality.of(lhs, ineq.rhs))
    out.append(Inequality.of({"T1": 1, "R1": -1}, Combo()))
    out.append(Inequality.of({"T2": 1, "R2": -1}, Combo()))
    return out


def substitute_rate_sums(system: LinearSystem) -> LinearSystem:
    """Rewrite the (S1,T1,S2,T2) system over (R1,T1,R2,T2) via R_i = S_i + T_i.

    S_i >= 0 materializes as T_i <= R_i."""
    return LinearSystem.of(("R1", "T1", "R2", "T2"),
                           substitution_rows(system.inequalities),
                           system.term_facts)


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
# 0 <= s for the term symbols s, so no column of the pruning LP is wasted.
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
# Facts that additionally need U_i independent of W_i given Q (C1 <= e1 is
# c1 <= e1 plus rho1 <= 0).
_INDEP = ("c1 + g1 <= e1 + f1", "rho1 <= 0")

AXIOMS_CHAIN = tuple(i.rhs for i in parse_bounds(_MONOTONE_C + _BASIS))
AXIOMS_HK_INDEP = tuple(i.rhs for i in parse_bounds(_BASIS + _INDEP))

AXIOM_SETS = {"chain": AXIOMS_CHAIN, "hk-indep": AXIOMS_HK_INDEP}


# --- redundancy pruning -----------------------------------------------------

def prune_redundant(system: LinearSystem, axioms) -> LinearSystem:
    """Remove every inequality provably implied by the rest plus axioms.

    An inequality goes when an exact certificate proves it a nonnegative
    combination of the remaining inequalities, rate nonnegativity and the
    axioms and term facts, up to a nonnegative slack in each term symbol
    and in the constant.  The certificate is a point of the LP with one
    column per usable fact and only ``<=`` rows.  The row of a rate
    variable v, ``-sum_j lambda_j lhs_j[v] <= -lhs_i[v]``, says that the
    combination's coefficient of v is at least the tested row's; its
    surplus is the multiplier of 0 <= v.  The row of a term symbol s,
    ``sum_j lambda_j rhs_j[s] <= rhs_i[s]``, and the constant's have as
    slacks the multipliers of 0 <= s and of a nonnegative constant.  Each
    slack starts basic where its right-hand side is >= 0.  The columns
    hold the rows' ``int`` coefficients, the rate ones negated (only a
    term fact read from rational input can bring in a ``Fraction``), and
    the shipped axiom sets are irredundant bases, so no axiom column is
    one the others make useless.  All the LPs of one call share these rows
    and one ``lp.Feasibility`` tableau with a column for every inequality
    and fact: each sets its right-hand side to the tested row and may not
    use that row or the rows already removed, and starts from the basis
    the one before it left.  A removal depends only on whether the LP is
    feasible, not on which point it returns.  Inequalities are visited in
    canonical order, so the result is deterministic.

    The LP is skipped where the row's receiver twin (every name with the
    indices 1 and 2 swapped) was visited before and its answer carries
    over exactly.  If the twin was removed by an LP, each row its
    certificate uses has a twin still kept and each fact it uses has a
    twin fact, the mirrored certificate removes the row.  If the twin was
    kept by an LP, the facts are closed under the mirror and every
    remaining row is the twin of one the twin was tested against, the row
    is kept: a certificate for it would mirror to one for its twin."""
    keys = list(system.rate_vars) + list(BASE_SYMBOLS) + [None]  # None: constant
    index = {k: r for r, k in enumerate(keys)}

    def column(lhs, rhs: Combo) -> list:
        """The LP column of a row: its rate coefficients negated, then its
        term coefficients and its constant."""
        col = [0] * len(keys)
        for k, v in lhs:
            col[index[k]] = -v
        for k, v in rhs.coeffs:
            col[index[k]] = v
        col[-1] = rhs.const
        return col

    # 0 <= ax contributes +ax to the certified rhs
    fixed = [column((), ax) for ax in (*axioms, *system.term_facts)]
    cols = [column(i.lhs, i.rhs) for i in system.inequalities]

    mirror = [index.get(k if k is None else k.translate(_MIRROR)) for k in keys]

    def twin(col):
        """The column with the indices 1 and 2 swapped in every key, or None
        when a swapped key is not in ``keys``."""
        out = [0] * len(keys)
        for r, v in enumerate(col):
            if v:
                if mirror[r] is None:
                    return None
                out[mirror[r]] = v
        return tuple(out)

    row_of = {tuple(c): j for j, c in enumerate(cols)}
    twin_row = [row_of.get(twin(c)) for c in cols]
    fixed_set = set(map(tuple, fixed))
    fixed_twinned = [twin(f) in fixed_set for f in fixed]
    fixed_closed = all(fixed_twinned)

    lps = lp.Feasibility([[c[r] for c in (*cols, *fixed)] for r in range(len(keys))])
    kept = list(range(len(cols)))
    removed_with = {}  # row removed by an LP -> (rows used, all facts used twinned)
    kept_against = {}  # row kept by an LP -> the rows it was tested against
    for i in range(len(cols)):
        others = [j for j in kept if j != i]
        m = twin_row[i]
        if m in removed_with:
            used, twinned = removed_with[m]
            if twinned and all(twin_row[j] in others for j in used):
                kept = others
                continue
        elif (m in kept_against and fixed_closed
              and all(twin_row[j] in kept_against[m] for j in others)):
            continue
        x = lps.point(cols[i], without=set(range(len(cols))) - set(others))
        if x is not None:
            used = [j for j in others if x[j]]
            twinned = all(t for t, w in zip(fixed_twinned, x[len(cols):]) if w)
            removed_with[i] = (used, twinned)
            kept = others
        else:
            kept_against[i] = set(others)
    return LinearSystem(system.rate_vars,
                        tuple(system.inequalities[j] for j in kept),
                        system.term_facts)


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
