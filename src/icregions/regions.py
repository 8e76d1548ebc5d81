"""Golden inequality systems for the named achievable rate regions.

These systems are hard-coded data, not derived, so the Fourier-Motzkin
pipeline has an independent target to reproduce.  Quadruple systems are
over (S1, T1, S2, T2); rate-pair systems over (R1, R2).
"""

from __future__ import annotations

import functools

from .dist import FactorSpec, Form, build_joint
from .linsys import Combo, Inequality, LinearSystem
from .polytope import HPoly, bind, snap_terms
from .terms import eval_terms

QUAD_VARS = ("S1", "T1", "S2", "T2")
PAIR_VARS = ("R1", "R2")

# Theorem-1-form distributions make U_i and W_i independent given Q, so the
# HK quadruple systems carry rho_i = 0 as intrinsic term-facts.
_RHO_ZERO = (Combo.of({"rho1": -1}), Combo.of({"rho2": -1}))


def _hk_q_rows(b="b", c="c", f="f"):
    """Theorem-1-shaped quadruple rows; the Hodtani variant swaps in the
    composite B/C/F bounds on the T rates."""
    return [
        ({"S1": 1}, {"a1": 1}),
        ({"T1": 1}, {f"{b}1": 1}),
        ({"T2": 1}, {f"{c}1": 1}),
        ({"S1": 1, "T1": 1}, {"d1": 1}),
        ({"S1": 1, "T2": 1}, {"e1": 1}),
        ({"T1": 1, "T2": 1}, {f"{f}1": 1}),
        ({"S1": 1, "T1": 1, "T2": 1}, {"g1": 1}),
        ({"S2": 1}, {"a2": 1}),
        ({"T2": 1}, {f"{b}2": 1}),
        ({"T1": 1}, {f"{c}2": 1}),
        ({"S2": 1, "T2": 1}, {"d2": 1}),
        ({"S2": 1, "T1": 1}, {"e2": 1}),
        ({"T1": 1, "T2": 1}, {f"{f}2": 1}),
        ({"S2": 1, "T1": 1, "T2": 1}, {"g2": 1}),
    ]


_CMG_Q_ROWS = [
    ({"S1": 1}, {"a1": 1}),
    ({"S1": 1, "T1": 1}, {"d1": 1}),
    ({"S1": 1, "T2": 1}, {"e1": 1}),
    ({"S1": 1, "T1": 1, "T2": 1}, {"g1": 1}),
    ({"S2": 1}, {"a2": 1}),
    ({"S2": 1, "T2": 1}, {"d2": 1}),
    ({"S2": 1, "T1": 1}, {"e2": 1}),
    ({"S2": 1, "T1": 1, "T2": 1}, {"g2": 1}),
]

_HK_R_ROWS = [
    ({"R1": 1}, {"d1": 1}),
    ({"R1": 1}, {"a1": 1, "c2": 1}),
    ({"R2": 1}, {"d2": 1}),
    ({"R2": 1}, {"a2": 1, "c1": 1}),
    ({"R1": 1, "R2": 1}, {"a1": 1, "g2": 1}),
    ({"R1": 1, "R2": 1}, {"a2": 1, "g1": 1}),
    ({"R1": 1, "R2": 1}, {"e1": 1, "e2": 1}),
    ({"R1": 2, "R2": 1}, {"a1": 1, "g1": 1, "e2": 1}),
    ({"R1": 1, "R2": 2}, {"a2": 1, "g2": 1, "e1": 1}),
]

# The two inequalities that are redundant given independent U_i, W_i.
HK_R_REDUNDANT = (
    Inequality.of({"R1": 2, "R2": 1}, {"a1": 2, "e2": 1, "f2": 1}),
    Inequality.of({"R1": 1, "R2": 2}, {"a2": 2, "e1": 1, "f1": 1}),
)

_HK_R_MODIFIED_ROWS = [
    ({"R1": 1}, {"d1": 1}),
    ({"R1": 1}, {"a1": 1, "e2": 1}),
    ({"R1": 1}, {"a1": 1, "f2": 1}),
    ({"R2": 1}, {"d2": 1}),
    ({"R2": 1}, {"a2": 1, "e1": 1}),
    ({"R2": 1}, {"a2": 1, "f1": 1}),
    ({"R1": 1, "R2": 1}, {"a2": 1, "g1": 1}),
    ({"R1": 1, "R2": 1}, {"a1": 1, "g2": 1}),
    ({"R1": 1, "R2": 1}, {"e1": 1, "e2": 1}),
    ({"R1": 2, "R2": 1}, {"a1": 1, "g1": 1, "e2": 1}),
    ({"R1": 2, "R2": 1}, {"a1": 2, "e2": 1, "f2": 1}),
    ({"R1": 1, "R2": 2}, {"a2": 1, "g2": 1, "e1": 1}),
    ({"R1": 1, "R2": 2}, {"a2": 2, "e1": 1, "f1": 1}),
]

_CMG_R_ROWS = [
    ({"R1": 1}, {"d1": 1}),
    ({"R1": 1}, {"a1": 1, "e2": 1}),
    ({"R2": 1}, {"d2": 1}),
    ({"R2": 1}, {"a2": 1, "e1": 1}),
    ({"R1": 1, "R2": 1}, {"a1": 1, "g2": 1}),
    ({"R1": 1, "R2": 1}, {"a2": 1, "g1": 1}),
    ({"R1": 1, "R2": 1}, {"e1": 1, "e2": 1}),
    ({"R1": 2, "R2": 1}, {"a1": 1, "g1": 1, "e2": 1}),
    ({"R1": 1, "R2": 2}, {"a2": 1, "g2": 1, "e1": 1}),
]

_COMPACT_R_ROWS = [
    ({"R1": 1}, {"d1": 1}),
    ({"R2": 1}, {"d2": 1}),
    ({"R1": 1, "R2": 1}, {"a1": 1, "g2": 1}),
    ({"R1": 1, "R2": 1}, {"a2": 1, "g1": 1}),
    ({"R1": 1, "R2": 1}, {"e1": 1, "e2": 1}),
    ({"R1": 2, "R2": 1}, {"a1": 1, "g1": 1, "e2": 1}),
    ({"R1": 1, "R2": 2}, {"a2": 1, "g2": 1, "e1": 1}),
]

_HOD_R_ROWS = [
    ({"R1": 1}, {"d1": 1}),
    ({"R1": 1}, {"a1": 1, "C2": 1}),
    ({"R1": 1}, {"a1": 1, "e2": 1}),
    ({"R2": 1}, {"d2": 1}),
    ({"R2": 1}, {"a2": 1, "C1": 1}),
    ({"R2": 1}, {"a2": 1, "e1": 1}),
    ({"R1": 1, "R2": 1}, {"a2": 1, "g1": 1}),
    ({"R1": 1, "R2": 1}, {"a1": 1, "g2": 1}),
    ({"R1": 1, "R2": 1}, {"e1": 1, "e2": 1}),
    ({"R1": 2, "R2": 1}, {"a1": 1, "g1": 1, "e2": 1}),
    ({"R1": 2, "R2": 1}, {"a1": 2, "e2": 1, "F2": 1}),
    ({"R1": 1, "R2": 2}, {"a2": 1, "g2": 1, "e1": 1}),
    ({"R1": 1, "R2": 2}, {"a2": 2, "e1": 1, "F1": 1}),
]


_HK_Q_DROPPED = (({"T2": 1}, {"c1": 1}), ({"T1": 1}, {"c2": 1}))
_HOD_FORMS = (Form.HOD16, Form.GENERAL1, Form.HK2)

# Region id -> (rate variables, rows, term facts, forms whose specs it binds).
_CATALOGUE = {
    "HK_Q": (QUAD_VARS, _hk_q_rows(), _RHO_ZERO, (Form.HK2,)),
    "HK_Q_MODIFIED": (QUAD_VARS, [r for r in _hk_q_rows() if r not in _HK_Q_DROPPED],
                      _RHO_ZERO, (Form.HK2,)),
    "HK_R": (PAIR_VARS, _HK_R_ROWS, (), (Form.HK2,)),
    "HK_R_MODIFIED": (PAIR_VARS, _HK_R_MODIFIED_ROWS, (), (Form.HK2,)),
    "CMG_Q": (QUAD_VARS, _CMG_Q_ROWS, (), (Form.CMG9,)),
    "CMG_R": (PAIR_VARS, _CMG_R_ROWS, (), (Form.CMG9,)),
    "COMPACT_R": (PAIR_VARS, _COMPACT_R_ROWS, (), (Form.HK2, Form.CMG9)),
    "HOD_Q": (QUAD_VARS, _hk_q_rows(b="B", c="C", f="F"), (), _HOD_FORMS),
    "HOD_R": (PAIR_VARS, _HOD_R_ROWS, (), _HOD_FORMS),
}

REGION_IDS = tuple(_CATALOGUE)


@functools.cache
def build_system(region_id: str) -> LinearSystem:
    """Return the named golden system (verbatim inequality list), built once
    on first use and shared, since it is immutable."""
    if region_id not in _CATALOGUE:
        raise ValueError(f"unknown region id {region_id!r}")
    rate_vars, rows, term_facts, _ = _CATALOGUE[region_id]
    return LinearSystem.of(
        rate_vars, [Inequality.of(lhs, rhs) for lhs, rhs in rows], term_facts)


@functools.cache
def hk_r_with_redundant() -> LinearSystem:
    """The eleven-inequality rate-pair system before independence pruning, built once."""
    base = build_system("HK_R")
    return LinearSystem.of(PAIR_VARS, list(base.inequalities) + list(HK_R_REDUNDANT))


class FormMismatchError(ValueError):
    pass


def region_for(spec: FactorSpec, region_id: str) -> HPoly:
    """build_joint -> eval_terms -> snap -> bind for a named region."""
    system = build_system(region_id)
    *_, accepted = _CATALOGUE[region_id]
    if spec.form not in accepted:
        hint = ""
        if spec.form in (Form.HOD16, Form.GENERAL1):
            hint = " (apply independence_projection first)"
        raise FormMismatchError(
            f"region {region_id} does not accept form {spec.form.value}{hint}")
    binding = snap_terms(eval_terms(build_joint(spec)))
    return bind(system, binding)
