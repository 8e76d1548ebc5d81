"""The benchmark's workloads: inputs made from a seed, the public package
call each input makes, and the checks on what the call returns.

A workload's *pass* is its full input list.  The package receives only
those inputs; the seed never reaches it directly.

- ``derive-all``: ``linsys.derive_region`` on all eight (system, axiom set)
  pairs, in an order set by the seed.  Symbolic path; the exact LP runs as
  a phase-1 feasibility test inside redundancy pruning.
- ``verify-claims``: ``claims.run_claim`` on one sample at a time for the
  six sample-based claims, binary alphabets.  Numeric path; the exact LP
  runs as phase-2 maximisation over polytopes with 2**-48 denominators.
- ``search-wide``: ``sampler.improvement_search`` with the area objective on
  HOD16 specs whose joint has 131 072 cells, so that building the joint and
  evaluating the information terms carry most of the work.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from icregions import claims, linsys, regions, sampler
from icregions.dist import spec_to_json

SYSTEMS = ("hk", "hk-mod", "cmg", "hod")
AXIOMS = ("chain", "hk-indep")
PAIRS = tuple((s, a) for s in SYSTEMS for a in AXIOMS)

# fm-reproduction is left out: it repeats the derive-all derivations.
CLAIMS = ("reduction-independence", "redundancy-relations", "cmg-subset-hod",
          "hod-extra-terms", "compact-equivalence", "remark2-data")

WIDE_ALPHABETS = (("Q", 2), ("U1", 4), ("U2", 4), ("W1", 4), ("W2", 4),
                  ("X1", 4), ("X2", 4), ("Y1", 4), ("Y2", 4))


@dataclass(frozen=True)
class Size:
    name: str
    pairs: tuple
    claim_samples: int
    searches: int
    budget: int
    alphabets: tuple


FULL = Size("full", PAIRS, claim_samples=20, searches=10, budget=4,
            alphabets=WIDE_ALPHABETS)
# Small enough for the self-test: one cheap derivation, one sample per
# claim, one two-step search on binary alphabets.
TINY = Size("tiny", (("cmg", "chain"),), claim_samples=1, searches=1, budget=2,
            alphabets=())
SIZES = {s.name: s for s in (FULL, TINY)}


def _seeds(seed: int, n: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(n)]


def _frac(v: Fraction):
    v = Fraction(v)
    return [v.numerator, v.denominator]


def _golden(pair):
    """Golden rate-pair system for a derivation, and whether rho1 = rho2 = 0
    is substituted into the derived system before comparing."""
    system, axioms = pair
    if system == "hk":
        if axioms == "chain":
            return regions.hk_r_with_redundant(), False
        return regions.build_system("HK_R"), False
    if system == "hk-mod":
        return regions.build_system("HK_R_MODIFIED"), False
    if system == "cmg":
        return regions.build_system("CMG_R"), False
    if axioms == "chain":
        return regions.build_system("HOD_R"), False
    # hk-indep asserts rho_i = 0 as an axiom, so the correlated system
    # prunes to the HK rows with composite C_j = c_j + rho_j bounds.
    return regions.build_system("HK_R"), True


class Workload:
    name = ""
    # (module, function) whose calls are the ops, when one top-level call
    # makes several; None when one op is one top-level call.
    op_boundary = None
    # (module, name) called often inside long top-level calls, where the
    # host-speed probe may run (see hostspeed.py); None when calls are short.
    probe_point = None

    def ops(self, item):
        return 1

    def cmg_failures(self, items, results):
        """cmg-subset-hod samples answered ok=False (correct answers)."""
        return 0


class DeriveAll(Workload):
    name = "derive-all"
    # Derivations take 1-8 s; each redundancy check is one LP of ~0.1 s.
    probe_point = (linsys, "feasible")

    def inputs(self, seed, size):
        pairs = list(size.pairs)
        random.Random(seed).shuffle(pairs)
        return pairs

    def call(self, pair):
        return linsys.derive_region(*pair)

    def key(self, pair):
        return "/".join(pair)

    def serialize(self, pair, system):
        return json.dumps(linsys.system_to_json(system), sort_keys=True)

    def check(self, pair, system):
        want, zero_rho = _golden(pair)
        got = linsys.substitute_zero(system, {"rho1", "rho2"}) if zero_rho else system
        equal, diff = linsys.system_equal(got, want)
        if not equal:
            return (f"{self.key(pair)}: {len(diff['only_a'])} derived rows not in "
                    f"the golden system, {len(diff['only_b'])} golden rows missing")
        return None


class VerifyClaims(Workload):
    name = "verify-claims"

    def inputs(self, seed, size):
        # Claims interleaved, so every prefix of the pass has the same mix.
        return [(claim, s) for s in _seeds(seed, size.claim_samples)
                for claim in CLAIMS]

    def call(self, item):
        claim, sample_seed = item
        return claims.run_claim(claim, 1, sample_seed)

    def key(self, item):
        return f"{item[0]}@{item[1]}"

    def serialize(self, item, report):
        return json.dumps(report.to_json(), sort_keys=True)

    def check(self, item, report):
        claim = item[0]
        if report.claim_id != claim or len(report.samples) != 1:
            return f"{self.key(item)}: report does not hold exactly one sample"
        if claim == "cmg-subset-hod":
            # A failed containment is a correct answer: the claim holds only
            # as a union over input distributions.  It must carry its witness.
            sample = report.samples[0]
            if sample["ok"] is False and ("spec" not in sample or not report.notes):
                return f"{self.key(item)}: counterexample lacks its spec or note"
            return None
        if report.hard and not report.ok:
            return f"{self.key(item)}: hard claim failed"
        return None

    def cmg_failures(self, items, results):
        return sum(r.failed for (claim, _), r in zip(items, results)
                   if claim == "cmg-subset-hod" and r is not None)


class SearchWide(Workload):
    name = "search-wide"
    # One op is one objective evaluation (two region_for and two area2
    # calls) inside the search, timed at this function.
    op_boundary = (sampler, "_objective")

    def inputs(self, seed, size):
        alphabets = sampler.binary_alphabets(**dict(size.alphabets))
        return [sampler.SearchConfig(alphabets=alphabets, budget=size.budget,
                                     restarts=1, seed=s, objective="area")
                for s in _seeds(seed, size.searches)]

    def call(self, cfg):
        return sampler.improvement_search(cfg)

    def ops(self, cfg):
        return cfg.budget

    def key(self, cfg):
        return str(cfg.seed)

    def serialize(self, cfg, res):
        return json.dumps({
            "objective": _frac(res.objective),
            "restart": res.restart,
            "trace": res.trace,
            "hod_vertices": [[_frac(a), _frac(b)] for a, b in res.hod_vertices],
            "hk_vertices": [[_frac(a), _frac(b)] for a, b in res.hk_vertices],
            "best_spec": spec_to_json(res.best_spec),
        }, sort_keys=True)

    def check(self, cfg, res):
        key = self.key(cfg)
        if len(res.trace) != cfg.budget or res.restart != 0:
            return f"{key}: expected {cfg.budget} evaluations in restart 0"
        if any(b < a for a, b in zip(res.trace, res.trace[1:])):
            return f"{key}: hill-climb trace decreases"
        if res.trace[-1] != float(res.objective):
            return f"{key}: objective differs from the last trace value"
        # Rebuild the best spec's polytopes and find their vertices without
        # the package's vertices2/area2, so that a wrong vertex list or area
        # cannot check itself.
        hod, hk = sampler.hod_vs_projected_hk(res.best_spec)
        hod_vs, hk_vs = _vertex_set(hod), _vertex_set(hk)
        if set(res.hod_vertices) != hod_vs or set(res.hk_vertices) != hk_vs:
            return f"{key}: returned vertices differ from a direct enumeration"
        gap = _area(hod_vs) - _area(hk_vs)
        if gap != res.objective:
            return f"{key}: objective {res.objective} != vertex-area gap {gap}"
        return None


def _vertex_set(poly) -> set:
    """Vertices of the 2-D polytope {x >= 0, rows}, by enumeration.

    A point of a polyhedron is a vertex exactly when two constraints with
    independent normals are tight there, so the vertices are the feasible
    intersections of pairs of constraint lines."""
    rows = list(poly.rows) + [((-1, 0), 0), ((0, -1), 0)]
    points = set()
    for i, ((a1, b1), c1) in enumerate(rows):
        for (a2, b2), c2 in rows[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            pt = (Fraction(c1 * b2 - c2 * b1) / det,
                  Fraction(a1 * c2 - a2 * c1) / det)
            if all(a * pt[0] + b * pt[1] <= c for (a, b), c in rows):
                points.add(pt)
    return points


def _area(points) -> Fraction:
    """Exact area of the convex hull of a set of its vertices."""
    if len(points) < 3:
        return Fraction(0)
    n = len(points)
    cx = sum(x for x, _ in points) / n
    cy = sum(y for _, y in points) / n

    def upper(d):  # angle in [0, pi) from the +x direction
        return d[1] > 0 or (d[1] == 0 and d[0] > 0)

    def by_angle(p, q):  # counterclockwise order around (cx, cy)
        dp, dq = (p[0] - cx, p[1] - cy), (q[0] - cx, q[1] - cy)
        if upper(dp) != upper(dq):
            return -1 if upper(dp) else 1
        cross = dp[0] * dq[1] - dp[1] * dq[0]
        return -1 if cross > 0 else 1 if cross < 0 else 0

    ring = sorted(points, key=functools.cmp_to_key(by_angle))
    twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2)
                in zip(ring, ring[1:] + ring[:1]))
    return abs(Fraction(twice)) / 2


WORKLOADS = {w.name: w for w in (DeriveAll(), VerifyClaims(), SearchWide())}


def digest(workload, items, results) -> str:
    """SHA-256 of every serialized output, ordered by input key so that the
    seed-chosen order of a pass does not change it."""
    h = hashlib.sha256()
    for key, text in sorted((workload.key(i), workload.serialize(i, r))
                            for i, r in zip(items, results)):
        h.update(f"{key}\t{text}\n".encode())
    return h.hexdigest()


def platform_id() -> dict:
    """What the float outputs depend on: interpreter, NumPy and the SIMD
    targets NumPy dispatches to (its log2 and sums differ in the last bits
    between targets)."""
    try:
        from numpy._core import _multiarray_umath as umath
        dispatch = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    except (ImportError, AttributeError):
        dispatch = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "numpy_cpu_dispatch": dispatch}


def machine() -> dict:
    """The machine fields every result is recorded with.  gmpy2 switches the
    LP arithmetic, so runs with and without it are never compared."""
    import importlib.util

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None}
