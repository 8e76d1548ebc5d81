"""Golden inequality systems for the named achievable rate regions.

These systems are hard-coded data, not derived, so the Fourier-Motzkin
pipeline has an independent target to reproduce.  Quadruple systems are
over (S1, T1, S2, T2); rate-pair systems over (R1, R2).

Each bound is written once, for receiver 1; ``linsys.parse_bounds`` adds
its image under swapping the indices 1 and 2 in every name (S1<->S2,
a1<->a2, rho1<->rho2, C2<->C1), the device ``terms`` uses for receiver 2.
Every rate-pair system is the seven-row core that Chong, Motani, Garg and
El Gamal (IEEE Trans. IT 54(7), 2008) reduce the HK region to (COMPACT_R)
plus the region's own bounds.  The quadruple systems all start from HK_Q's
Theorem-1 rows: HOD_Q writes the composite B, C, F for b, c, f, CMG_Q
keeps the rows with S_i and HK_Q_MODIFIED drops T_j <= c_i.
"""

from __future__ import annotations

import functools

from .dist import FactorSpec, Form, build_joint
from .linsys import LinearSystem, parse_bounds
from .polytope import HPoly, bind, snap_terms
from .terms import eval_terms

QUAD_VARS = ("S1", "T1", "S2", "T2")
PAIR_VARS = ("R1", "R2")

# Theorem-1-form distributions make U_i and W_i independent given Q, so the
# HK quadruple systems carry rho_i = 0 as intrinsic term-facts.
_RHO_ZERO = tuple(i.rhs for i in parse_bounds(["rho1 <= 0"]))

_HK_Q = ("S1 <= a1", "T1 <= b1", "T2 <= c1", "S1 + T1 <= d1", "S1 + T2 <= e1",
         "T1 + T2 <= f1", "S1 + T1 + T2 <= g1")
_COMPOSITE = str.maketrans("bcf", "BCF")

# The rate-pair core (COMPACT_R), and the bound that is redundant given
# independent U_i, W_i.
_CORE_R = ("R1 <= d1", "R1 + R2 <= a1 + g2", "R1 + R2 <= e1 + e2",
           "2R1 + R2 <= a1 + g1 + e2")
_REDUNDANT_R = "2R1 + R2 <= 2a1 + e2 + f2"
HK_R_REDUNDANT = tuple(parse_bounds([_REDUNDANT_R]))

_HOD_FORMS = (Form.HOD16, Form.GENERAL1, Form.HK2)

# Region id -> (rate variables, receiver-1 bounds, term facts, forms whose
# specs it binds).
_CATALOGUE = {
    "HK_Q": (QUAD_VARS, _HK_Q, _RHO_ZERO, (Form.HK2,)),
    "HK_Q_MODIFIED": (QUAD_VARS, [b for b in _HK_Q if b != "T2 <= c1"], _RHO_ZERO,
                      (Form.HK2,)),
    "HK_R": (PAIR_VARS, (*_CORE_R, "R1 <= a1 + c2"), (), (Form.HK2,)),
    "HK_R_MODIFIED": (PAIR_VARS, (*_CORE_R, "R1 <= a1 + e2", "R1 <= a1 + f2", _REDUNDANT_R),
                      (), (Form.HK2,)),
    "CMG_Q": (QUAD_VARS, [b for b in _HK_Q if "S1" in b], (), (Form.CMG9,)),
    "CMG_R": (PAIR_VARS, (*_CORE_R, "R1 <= a1 + e2"), (), (Form.CMG9,)),
    "COMPACT_R": (PAIR_VARS, _CORE_R, (), (Form.HK2, Form.CMG9)),
    "HOD_Q": (QUAD_VARS, [b.translate(_COMPOSITE) for b in _HK_Q], (), _HOD_FORMS),
    "HOD_R": (PAIR_VARS, (*_CORE_R, "R1 <= a1 + C2", "R1 <= a1 + e2",
                          "2R1 + R2 <= 2a1 + e2 + F2"), (), _HOD_FORMS),
}

REGION_IDS = tuple(_CATALOGUE)


@functools.cache
def build_system(region_id: str) -> LinearSystem:
    """Return the named golden system (verbatim inequality list), built once
    on first use and shared, since it is immutable."""
    if region_id not in _CATALOGUE:
        raise ValueError(f"unknown region id {region_id!r}")
    rate_vars, bounds, term_facts, _ = _CATALOGUE[region_id]
    return LinearSystem.of(rate_vars, parse_bounds(bounds), term_facts)


@functools.cache
def hk_r_with_redundant() -> LinearSystem:
    """The eleven-inequality rate-pair system before independence pruning, built once."""
    base = build_system("HK_R")
    return LinearSystem.of(PAIR_VARS, list(base.inequalities) + list(HK_R_REDUNDANT))


class FormMismatchError(ValueError):
    pass


def region_for(spec: FactorSpec, region_id: str) -> HPoly:
    """build_joint -> eval_terms -> snap -> bind for a named region; only
    the terms the system's right-hand sides read are evaluated."""
    system = build_system(region_id)
    *_, accepted = _CATALOGUE[region_id]
    if spec.form not in accepted:
        hint = " (apply independence_projection first)" if spec.form is Form.HOD16 else ""
        raise FormMismatchError(
            f"region {region_id} does not accept form {spec.form.value}{hint}")
    binding = snap_terms(eval_terms(build_joint(spec), system.rhs_symbols))
    return bind(system, binding)
