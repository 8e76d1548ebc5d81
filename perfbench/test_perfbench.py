"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json prints with its unit,
traced and untraced, that tracing leaves the outputs byte-identical, that
the output checks catch a wrong answer, and that the benchmark refuses to
run without the package source.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from icregions import regions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_binding_site_is_wrapped():
    tr = tracer.Tracer()
    original = regions.eval_terms
    tr.install()
    try:
        sites = {s for group in tr.sites.values() for s in group}
        for site in ("icregions.polytope.solve_lp", "icregions.linsys.feasible",
                     "icregions.lp.solve_lp", "icregions.regions.eval_terms",
                     "icregions.regions.build_joint", "icregions.claims.eval_terms",
                     "icregions.claims.build_joint", "icregions.sampler.area2"):
            assert site in sites
        assert regions.eval_terms is not original
    finally:
        tr.uninstall()
    assert regions.eval_terms is original


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_outputs_byte_identical(name):
    wl = workloads.WORKLOADS[name]
    items = wl.inputs(3, workloads.TINY)
    tr = tracer.Tracer()
    plain = run.run_pass(workloads, wl, items)
    traced = run.run_pass(workloads, wl, items, tr)
    assert not plain.problems and not traced.problems
    assert plain.digest == traced.digest
    assert len(plain.latencies) > 0 and plain.busy_s > 0
    assert tr.spans and all(span is not None for span in tr.spans)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(name, trace, section, capsys):
    argv = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size_name="tiny") == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_wrong_derivation_is_caught():
    wl = workloads.WORKLOADS["derive-all"]
    assert wl.check(("hk", "chain"), regions.build_system("HK_R")) is not None
    assert wl.check(("hk", "hk-indep"), regions.build_system("HK_R")) is None


def test_wrong_search_objective_is_caught():
    wl = workloads.WORKLOADS["search-wide"]
    cfg = wl.inputs(3, workloads.TINY)[0]
    res = wl.call(cfg)
    assert wl.check(cfg, res) is None
    res.objective += Fraction(1, 2**60)
    assert wl.check(cfg, res) is not None


def test_wrong_vertices_are_caught(monkeypatch):
    # A vertices2 that drops a vertex gives an area2 that agrees with it,
    # so only the benchmark's own vertex enumeration can catch it.
    from icregions import polytope

    wl = workloads.WORKLOADS["search-wide"]
    cfg = wl.inputs(3, workloads.TINY)[0]
    right = polytope.vertices2
    monkeypatch.setattr(polytope, "vertices2", lambda p: right(p)[:-1])
    res = wl.call(cfg)
    assert "direct enumeration" in wl.check(cfg, res)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "derive-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
