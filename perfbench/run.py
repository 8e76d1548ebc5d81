"""Run one icregions benchmark workload and print its metrics.

    python3 perfbench/run.py --workload derive-all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run repeats the workload's pass (its full input list, see workloads.py)
until ``--seconds`` have passed, always in whole passes, so every run
measures the same mix of inputs.  Each pass's outputs are checked and
hashed; every pass must hash the same, and for the seeds listed in
digests.json the hash must equal the committed one.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the pass once untraced and once traced, and prints the
per-layer metrics of the traced pass; the spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 when every output
is correct, 1 on any wrong output, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 9
# The load is one process and one thread.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes_computed"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Pass:
    results: list
    # Times in seconds, scaled to the reference host speed (hostspeed.py).
    latencies: list  # per op
    busy_s: float  # inside the package's top-level calls
    host_speed: float  # relative to the reference, as the probes saw it
    attempted: int
    failed: int
    problems: list
    digest: str | None


def run_pass(workloads, wl, items, tracer=None) -> Pass:
    """Call the package once per input, timing each op; check and hash the
    outputs afterwards, outside the timed calls and outside the trace."""
    call_spans, op_spans, results, problems = [], [], [], []
    speed = HostSpeed()
    patched = []  # (module, attr, original), undone in reverse

    def patch(point, make_wrapper):
        module, attr = point
        inner = getattr(module, attr)
        setattr(module, attr, make_wrapper(inner))
        patched.append((module, attr, inner))

    if wl.op_boundary is not None:
        def timed(inner):
            def timed_op(*args, **kwargs):
                start = clock()
                try:
                    return inner(*args, **kwargs)
                finally:
                    op_spans.append((start, clock()))
            return timed_op
        patch(wl.op_boundary, timed)
    # Probing inside calls would land in the spans of a traced pass.
    if (tracer is None and wl.probe_point is not None
            and hasattr(*wl.probe_point)):
        def probing(inner):
            def probed(*args, **kwargs):
                if speed.due():
                    speed.probe()
                return inner(*args, **kwargs)
            return probed
        patch(wl.probe_point, probing)
    speed.probe()
    if tracer is not None:
        tracer.install()
    try:
        for item in items:
            if speed.due():
                speed.probe()
            start = clock()
            try:
                result = wl.call(item)
            except Exception as exc:  # a failing op is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                result = None
                problems.append(f"{wl.key(item)}: raised {type(exc).__name__}: {exc}")
            call_spans.append((start, clock()))
            results.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for module, attr, inner in reversed(patched):
            setattr(module, attr, inner)
    speed.probe()
    if wl.op_boundary is None:
        op_spans = call_spans

    attempted = failed = 0
    for item, result in zip(items, results):
        attempted += wl.ops(item)
        problem = None if result is None else wl.check(item, result)
        if problem is not None:
            problems.append(problem)
        if result is None or problem is not None:
            failed += wl.ops(item)
    digest = None if failed else workloads.digest(wl, items, results)
    return Pass(
        results,
        [speed.duration(a, b) for a, b in op_spans],
        sum(speed.duration(a, b) for a, b in call_spans),
        speed.speed(), attempted, failed, problems, digest)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q=0.5 is the median)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def measure_setup(workload: str, seed: int, size_name: str) -> float:
    """Median wall time for a fresh interpreter to import icregions and make
    the workload's inputs, scaled to the reference host speed.  A first,
    untimed start fills bytecode caches."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; workloads.WORKLOADS[{workload!r}]"
            f".inputs({seed}, workloads.SIZES[{size_name!r}])")
    speed = HostSpeed()
    spans = []
    for i in range(SETUP_REPEATS + 1):
        start = clock()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if i:
            spans.append((start, clock()))
        speed.probe()
    return statistics.median(speed.duration(a, b) for a, b in spans)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def expected_digest(workloads, wl, seed: int, size) -> str | None:
    """The committed hash for this run, or None where none applies.

    derive-all outputs are exact rationals and its hash holds for every
    seed and platform.  The other workloads carry floats, whose last bits
    depend on the NumPy build and CPU, so their hashes apply only on the
    platform they were recorded on."""
    if size is not workloads.FULL or not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    entry = table["workloads"].get(wl.name, {})
    if "any" in entry:
        return entry["any"]
    if table["platform"] != workloads.platform_id():
        print("digest check skipped: platform differs from digests.json",
              file=sys.stderr)
        return None
    return entry.get(str(seed))


def main(argv=None, size_name: str = "full") -> int:
    if not (SRC / "icregions" / "__init__.py").is_file():
        print(f"perfbench: no icregions package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    import icregions
    import tracer as tracing
    import workloads

    if Path(icregions.__file__).resolve().parent != (SRC / "icregions").resolve():
        print(f"perfbench: icregions imported from {icregions.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")

    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[size_name]
    items = wl.inputs(args.seed, size)
    expected = expected_digest(workloads, wl, args.seed, size)
    print("machine:", json.dumps(workloads.machine(), sort_keys=True))

    if args.trace:
        base = run_pass(workloads, wl, items)
        tr = tracing.Tracer()
        traced = run_pass(workloads, wl, items, tr)
        problems = base.problems + traced.problems
        if base.digest != traced.digest:
            problems.append("tracing changed the outputs")
        elif expected is not None and traced.digest != expected:
            problems.append(f"output digest {traced.digest} != committed {expected}")
        metrics = tr.metrics()
        metrics["claims.cmg_subset_hod.failed"] = wl.cmg_failures(items, traced.results)
        metrics["trace.untraced_pass_s"] = base.busy_s
        metrics["trace.traced_pass_s"] = traced.busy_s
        metrics["trace.overhead_s"] = traced.busy_s - base.busy_s
        metrics["trace.spans"] = len(tr.spans)
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"trace-{wl.name}-seed{args.seed}.json",
                {"workload": wl.name, "seed": args.seed, "size": size.name,
                 "machine": workloads.machine()})
        # Each workload's top-level call is traced, so the self times add up
        # to the traced pass.
        self_s = {k[:-len(".self_s")]: v for k, v in metrics.items()
                  if k.endswith(".self_s") and v}
        total = sum(self_s.values())
        shares = sorted(((v / total, k) for k, v in self_s.items()), reverse=True)
        print("self-time share of the traced pass:",
              ", ".join(f"{name} {share:.1%}" for share, name in shares))
        attempted = base.attempted + traced.attempted
        failed = base.failed + traced.failed
        unit_of = per_layer_unit
    else:
        setup_s = measure_setup(wl.name, args.seed, size.name)
        passes = []
        deadline = clock() + args.seconds
        while True:
            passes.append(run_pass(workloads, wl, items))
            if clock() >= deadline or passes[-1].failed:
                break
        problems = [msg for ps in passes for msg in ps.problems]
        if len({ps.digest for ps in passes}) != 1:
            problems.append("outputs differ between passes")
        elif expected is not None and passes[0].digest != expected:
            problems.append(f"output digest {passes[0].digest} != committed {expected}")
        attempted = sum(ps.attempted for ps in passes)
        failed = sum(ps.failed for ps in passes)
        completed = attempted - failed
        latencies = [t for ps in passes for t in ps.latencies]
        metrics = {
            "ops_per_s": completed / sum(ps.busy_s for ps in passes),
            "op_p50_ms": percentile(latencies, 0.5) * 1e3,
            "op_p90_ms": percentile(latencies, 0.9) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        print(f"{wl.name} seed {args.seed}: {len(passes)} pass(es), "
              f"{len(latencies)} op latencies, "
              f"op_fail_ratio {failed / attempted:g} ({failed}/{attempted}), "
              f"cmg-subset-hod ok=False samples per pass "
              f"{wl.cmg_failures(items, passes[0].results)}, "
              f"digest {passes[0].digest} "
              f"({'checked' if expected else 'no committed digest'}), "
              f"host speed {statistics.median(ps.host_speed for ps in passes):.3f}x "
              f"reference")
        unit_of = END_TO_END_UNITS.__getitem__

    for msg in problems:
        print(f"output check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
