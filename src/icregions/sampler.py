"""Seeded random FactorSpecs and a random-restart improvement search.

Random conditional rows are independent uniform(0,1) draws normalized to
sum 1.  Draw order is fixed: each stored table in ``FACTORS`` order
(``dist.stored_factors``), each row-major; ``_perturb`` mixes the channel
first.  So a seed fully determines the spec.  ``sample_spec`` makes one
draw for all the tables and splits it in that order, the stream that one
draw per table gives.  Per-sample generators are seeded with the pair
(seed, index).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import polytope
from .dist import (FACTORS, AlphabetSpec, FactorSpec, Form, Var, from_stored,
                   independence_projection, stored_factors)
from .polytope import area2
from .regions import region_for


def _rows(rng, shape) -> np.ndarray:
    t = rng.random(shape)
    return t / t.sum(axis=-1, keepdims=True)


def binary_alphabets(**overrides) -> AlphabetSpec:
    sizes = {v: 2 for v in Var}
    for name, n in overrides.items():
        sizes[Var[name]] = n
    return AlphabetSpec(sizes)


def sample_spec(alphabets: AlphabetSpec, form: Form, seed) -> FactorSpec:
    """Draw a random FactorSpec of the given form, deterministically: one
    uniform draw for all stored tables, split in ``stored_factors`` order,
    and each table's rows normalised to sum 1."""
    alphabets.check_joint_size()
    shapes = [(tuple(map(alphabets.size, given)), tuple(map(alphabets.size, of)))
              for _, _, given, of in stored_factors(form)]
    draws = np.random.default_rng(seed).random(sum(math.prod(r + c) for r, c in shapes))
    tables, start = [], 0
    for rows, cells in shapes:
        t = draws[start:start + math.prod(rows + cells)].reshape(rows + (math.prod(cells),))
        start += t.size
        tables.append((t / t.sum(axis=-1, keepdims=True)).reshape(rows + cells))
    return from_stored(form, alphabets, tables)


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


# The joint size, in cells, from which ``hod_vs_projected_hk`` evaluates
# its two regions on two threads.  Most of a wide region's time is NumPy
# work that releases the interpreter lock; on smaller joints the work held
# by the lock dominates and the threads contend for it.  Both regions on
# threads against serial calls, best of 5 on a shared 2-vCPU VM, three
# runs: 0.59-0.90x at 13 122 cells, 1.07-1.23x at 41 472, 1.44-1.63x at
# 131 072.
CONCURRENT_CELLS = 2**15


def hod_vs_projected_hk(spec: FactorSpec):
    """The two rate-pair polytopes compared by the search: the correlated
    region of the spec and the HK region of its independence projection.

    When the joint has at least ``CONCURRENT_CELLS`` cells, the HK region
    is evaluated on a thread of its own, started and joined here, while
    the calling thread evaluates the correlated one.  Each region makes the
    same NumPy calls on its own joint either way, so the polytopes are the
    same to the bit.  An exception is raised as the serial calls would
    raise it: the correlated region's first, then the HK region's."""
    if math.prod(spec.alphabets.shape) < CONCURRENT_CELLS:
        return region_for(spec, "HOD_R"), region_for(independence_projection(spec), "HK_R")
    hk = []  # the HK region, or what its evaluation raised

    def evaluate_hk():
        try:
            hk.append(region_for(independence_projection(spec), "HK_R"))
        except BaseException as exc:  # re-raised in the calling thread
            hk.append(exc)

    worker = threading.Thread(target=evaluate_hk, name="projected-hk")
    worker.start()
    try:
        hod = region_for(spec, "HOD_R")
    finally:
        worker.join()
    if isinstance(hk[0], BaseException):
        raise hk[0]
    return hod, hk[0]


def _objective(spec: FactorSpec, which: str):
    """The gain of the spec's correlated region over the projected HK
    region, with the two polytopes it compares: (gain, hod, hk)."""
    hod, hk = hod_vs_projected_hk(spec)
    if which == "area":
        return area2(hod) - area2(hk), hod, hk
    # both regions hold the origin and are bounded, so a vertex is optimal
    hod_max, hk_max = (max(x + y for x, y in polytope.vertices2(p)) for p in (hod, hk))
    return hod_max - hk_max, hod, hk


def _perturb(spec: FactorSpec, rng, step: float) -> FactorSpec:
    def mix(name, given):
        # each row is one probability vector over all conditioned axes
        t = getattr(spec, name)
        flat = t.reshape(t.shape[:len(given)] + (-1,))
        return ((1 - step) * flat + step * _rows(rng, flat.shape)).reshape(t.shape)

    # the channel (last in FACTORS) is drawn first
    tables = {name: mix(name, given) for name, given, _ in FACTORS[-1:] + FACTORS[:-1]}
    return FactorSpec(Form.HOD16, spec.alphabets, **tables)


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
            best = SearchResult(spec, val, polytope.vertices2(hod),
                                polytope.vertices2(hk), trace, r)
    return best
