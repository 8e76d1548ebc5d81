"""In-memory span tracer for the icregions layers.

``Tracer.install`` replaces each traced function by a timing wrapper at
every binding site in the loaded ``icregions`` modules, not only in the
module that defines it: ``from .lp import solve_lp`` in ``polytope`` makes
a second name for the same function, and a call through that name would
otherwise escape the trace.  Spans (name, start, end, parent) and counters
stay in memory until ``dump`` writes them out.  ``uninstall`` restores the
original functions, so untraced runs execute the package unmodified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _lp_tableau_cells(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Cells of the dense tableau ``lp.solve_lp`` builds for these arguments:
    (rows + objective) x (structural + slack + artificial + rhs)."""
    m_ub = len(A_ub or ())
    m = m_ub + len(A_eq or ())
    return (m + 1) * (len(c) + m_ub + m + 1)


def _count_solve_lp(counts, args, kwargs, result):
    counts["lp.solve_lp.tableau_cells"] += _lp_tableau_cells(*args, **kwargs)
    counts["lp.solve_lp.infeasible"] += result.status == "infeasible"


def _count_prune(counts, args, kwargs, result):
    checked = len(args[0].inequalities)  # one LP certificate test each
    counts["linsys.prune_redundant.checks"] += checked
    counts["linsys.prune_redundant.removed"] += checked - len(result.inequalities)


def _count_fm(counts, args, kwargs, result):
    counts["linsys.fm_eliminate.rows_out"] += len(result.inequalities)


def _count_vertices2(counts, args, kwargs, result):
    p = args[0]
    n = len(p.rows) + len(p.dims)  # explicit rows plus x_i >= 0
    counts["polytope.vertices2.pairs"] += n * (n - 1) // 2


def _count_contains(counts, args, kwargs, result):
    counts[f"polytope.contains.dim{len(args[0].dims)}"] += 1


def _count_build_joint(counts, args, kwargs, result):
    counts["dist.build_joint.bytes_computed"] += result.tensor.nbytes


# (module, function or Class.method, counter hook).  Each target reports
# <module>.<function>.calls and .self_s.
TARGETS = (
    ("lp", "solve_lp", _count_solve_lp),
    ("lp", "feasible", None),
    ("linsys", "derive_region", None),
    ("linsys", "fm_eliminate", _count_fm),
    ("linsys", "prune_redundant", _count_prune),
    ("polytope", "vertices2", _count_vertices2),
    ("polytope", "contains", _count_contains),
    ("polytope", "area2", None),
    ("polytope", "HPoly.maximize", None),
    ("dist", "build_joint", _count_build_joint),
    ("dist", "cond_mutual_info", None),
    ("terms", "eval_terms", None),
    ("regions", "region_for", None),
    ("regions", "build_system", None),
    ("claims", "run_claim", None),
    ("sampler", "improvement_search", None),
    ("sampler", "sample_spec", None),
    ("sampler", "hod_vs_projected_hk", None),
)

COUNTERS = (
    "lp.solve_lp.tableau_cells",
    "lp.solve_lp.infeasible",
    "linsys.prune_redundant.checks",
    "linsys.prune_redundant.removed",
    "linsys.fm_eliminate.rows_out",
    "polytope.vertices2.pairs",
    "polytope.contains.dim2",
    "polytope.contains.dim4",
    "dist.build_joint.bytes_computed",
)


def span_names():
    return [f"{module}.{qual}" for module, qual, _ in TARGETS]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "icregions" or name.startswith("icregions."))]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.sites = defaultdict(list)  # span name -> binding sites wrapped
        self._stack = []
        self._undo = []

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for module_name, qual, hook in TARGETS:
            name = f"{module_name}.{qual}"
            module = sys.modules[f"icregions.{module_name}"]
            cls_name, _, attr = qual.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                self._replace(cls, attr, self._wrap(name, vars(cls)[attr], hook),
                              f"{module_name}.{qual}", name)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper, f"{m.__name__}.{key}", name)

    def _replace(self, owner, attr, wrapper, site, name):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)
        self.sites[name].append(site)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """Per-span calls and self time (duration minus direct children),
        the counters, and the pruning ratio."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
        out.update(self.counts)
        checks = self.counts["linsys.prune_redundant.checks"]
        out["linsys.prune_redundant.removed_ratio"] = (
            self.counts["linsys.prune_redundant.removed"] / checks if checks else 0.0)
        return out

    def dump(self, path, meta: dict):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                **meta,
                "span_fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, round(s - origin, 9), round(e - origin, 9), p]
                          for n, s, e, p in self.spans],
                "counters": self.counts,
                "binding_sites": dict(self.sites),
            }, fh)
            fh.write("\n")
