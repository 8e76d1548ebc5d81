"""Seeded random FactorSpecs and a random-restart improvement search.

Random conditional rows are independent uniform(0,1) draws normalized to
sum 1.  Draw order is fixed (q, w1|q, u-factor 1, w2|q, u-factor 2,
encoder 1, encoder 2, channel, each row-major), so a seed fully determines
the spec.  Per-sample generators are seeded with the pair (seed, index).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .dist import (AlphabetSpec, FactorSpec, Form, Var, build_joint,
                   cmg9_spec, hk2_spec, independence_projection)
from .polytope import area2, snap_terms
from .regions import region_for
from .terms import eval_terms


def _rows(rng, shape) -> np.ndarray:
    t = rng.random(shape)
    return t / t.sum(axis=-1, keepdims=True)


def binary_alphabets(**overrides) -> AlphabetSpec:
    sizes = {v: 2 for v in Var}
    for name, n in overrides.items():
        sizes[Var[name]] = n
    return AlphabetSpec(sizes)


def sample_spec(alphabets: AlphabetSpec, form: Form, seed) -> FactorSpec:
    """Draw a random FactorSpec of the given form, deterministically."""
    rng = np.random.default_rng(seed)
    n = {v: alphabets.size(v) for v in Var}
    q = _rows(rng, (n[Var.Q],))
    w1 = _rows(rng, (n[Var.Q], n[Var.W1]))
    if form is Form.CMG9:
        x1_w = _rows(rng, (n[Var.Q], n[Var.W1], n[Var.X1]))
        w2 = _rows(rng, (n[Var.Q], n[Var.W2]))
        x2_w = _rows(rng, (n[Var.Q], n[Var.W2], n[Var.X2]))
        ch = _rows(rng, (n[Var.X1], n[Var.X2], n[Var.Y1] * n[Var.Y2]))
        ch = ch.reshape(n[Var.X1], n[Var.X2], n[Var.Y1], n[Var.Y2])
        return cmg9_spec(alphabets, q, w1, x1_w, w2, x2_w, ch)
    if form is Form.HK2:
        u1 = _rows(rng, (n[Var.Q], n[Var.U1]))
    else:
        u1 = _rows(rng, (n[Var.Q], n[Var.W1], n[Var.U1]))
    w2 = _rows(rng, (n[Var.Q], n[Var.W2]))
    if form is Form.HK2:
        u2 = _rows(rng, (n[Var.Q], n[Var.U2]))
    else:
        u2 = _rows(rng, (n[Var.Q], n[Var.W2], n[Var.U2]))
    x1 = _rows(rng, (n[Var.Q], n[Var.U1], n[Var.W1], n[Var.X1]))
    x2 = _rows(rng, (n[Var.Q], n[Var.U2], n[Var.W2], n[Var.X2]))
    ch = _rows(rng, (n[Var.X1], n[Var.X2], n[Var.Y1] * n[Var.Y2]))
    ch = ch.reshape(n[Var.X1], n[Var.X2], n[Var.Y1], n[Var.Y2])
    if form is Form.HK2:
        return hk2_spec(alphabets, q, w1, u1, w2, u2, x1, x2, ch)
    return FactorSpec(form, alphabets, q, w1, u1, w2, u2, x1, x2, ch)


def cmg_as_hod(spec: FactorSpec) -> FactorSpec:
    """Re-express a CMG9 spec in the correlated HOD16 form (U axes are X
    copies, encoders are identity); the joint tensor is unchanged."""
    if spec.form is not Form.CMG9:
        raise ValueError("expected a CMG9 spec")
    return replace(spec, form=Form.HOD16)


@dataclass(frozen=True)
class SearchConfig:
    alphabets: AlphabetSpec
    budget: int = 100
    restarts: int = 4
    step: float = 0.25
    seed: int = 0
    objective: str = "area"  # "area" | "sumrate"

    def __post_init__(self):
        if self.budget < 1 or self.restarts < 1:
            raise ValueError("budget and restarts must be >= 1")
        if not 0 < self.step < 1:
            raise ValueError("step must be in (0, 1)")
        if self.objective not in ("area", "sumrate"):
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass
class SearchResult:
    best_spec: FactorSpec
    objective: Fraction
    hod_vertices: list
    hk_vertices: list
    trace: list = field(default_factory=list)
    restart: int = -1


def hod_vs_projected_hk(spec: FactorSpec):
    """The two rate-pair polytopes compared by the search: the correlated
    region of the spec and the HK region of its independence projection."""
    hod = region_for(spec, "HOD_R")
    hk = region_for(independence_projection(spec), "HK_R")
    return hod, hk


def _objective(spec: FactorSpec, which: str):
    """The gain of the spec's correlated region over the projected HK
    region, with the two polytopes it compares: (gain, hod, hk)."""
    hod, hk = hod_vs_projected_hk(spec)
    if which == "area":
        return area2(hod) - area2(hk), hod, hk
    m_hod = hod.maximize([1, 1])
    m_hk = hk.maximize([1, 1])
    return m_hod.value - m_hk.value, hod, hk


def _perturb(spec: FactorSpec, rng, step: float) -> FactorSpec:
    def mix(t):
        fresh = _rows(rng, t.shape)
        return (1 - step) * t + step * fresh

    # the channel's probability vector spans the last two axes jointly
    ch = spec.channel
    ch_flat = ch.reshape(ch.shape[:2] + (-1,))
    new_ch = mix(ch_flat).reshape(ch.shape)
    return FactorSpec(Form.HOD16, spec.alphabets, mix(spec.q),
                      mix(spec.w1_given_q), mix(spec.u1_given_q_w1),
                      mix(spec.w2_given_q), mix(spec.u2_given_q_w2),
                      mix(spec.x1_given_q_u1_w1), mix(spec.x2_given_q_u2_w2),
                      new_ch)


def improvement_search(cfg: SearchConfig) -> SearchResult:
    """Hill-climb with random restarts for a correlated spec whose region
    strictly exceeds the HK region of its independence projection.

    A nonpositive best gap is a legitimate (and reported) outcome."""
    best: SearchResult | None = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        spec = sample_spec(cfg.alphabets, Form.HOD16, [cfg.seed, r, 0])
        val, hod, hk = _objective(spec, cfg.objective)
        trace = [float(val)]
        for _ in range(cfg.budget - 1):
            cand = _perturb(spec, rng, cfg.step)
            cval, chod, chk = _objective(cand, cfg.objective)
            if cval > val:
                spec, val, hod, hk = cand, cval, chod, chk
            trace.append(float(val))
        if best is None or val > best.objective:
            from .polytope import vertices2

            best = SearchResult(spec, val, vertices2(hod), vertices2(hk),
                                trace, r)
    return best
