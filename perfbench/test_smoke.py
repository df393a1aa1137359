"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced, checks that the outputs
are verified and the result has the shape the benchmark promises, that the
tracer reports a missing function as absent, and that an unexpected failure
makes a run incorrect.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", list(run.WHY))
def test_workload_tiny_untraced(workload):
    res = run.run(workload, seed=3, seconds=0, trace=False, tiny=True, probes=1)
    assert res["error"] is None
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in run.BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["attempted"] == res["n_ops"] * len(res["passes"])
    failures = {o["name"] for o in res["ops"] if not o["ok"]}
    assert failures == ({"expect"} if workload == "explore" else set())
    assert all(o["known_defect"] for o in res["ops"] if not o["ok"])
    assert res["env"]["workers"] == 2 and res["env"]["backend"]


@pytest.mark.parametrize("workload", list(run.WHY))
def test_workload_tiny_traced(workload):
    res = run.run(workload, seed=4, seconds=0, trace=True, tiny=True)
    assert res["correct"]
    assert list(res["metrics"]) == [m["name"] for m in run.BENCH["per_layer"]]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["cli.main.calls"] == res["n_ops"]
    assert 0 <= m["cli.main.self_s"] <= m["cli.main.busy_s"]
    assert m["harness.draw_normalized_samples.draws"] > 0
    assert (ROOT / ".perfbench" / "spans" / f"{workload}.jsonl").is_file()


def test_tracer_reports_missing_function_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import levyou

    monkeypatch.delattr(levyou._kernels, "gathered_central_moments")
    t = tracer.Tracer()
    t.install()
    try:
        levyou.cdf(0.0, levyou.expansion_coefficients(
            2, levyou.cumulant_table(2, levyou.ModelParams(1.0, 0.0, 1.0, 0.5),
                                     levyou.stationary_cumulants(
                                         levyou.driver_cumulants(
                                             levyou.DriverSpec.gaussian(0.0, 1.0), 2), 1.0),
                                     10.0)))
    finally:
        t.uninstall()
    assert t.absent == ["kernels.gathered_central_moments"]
    m = tracer.layer_metrics(t.spans, t.absent, workers=2)
    assert m["kernels.gathered_central_moments.calls"] is None
    assert m["kernels.gathered_central_moments.bytes_computed"] is None
    assert m["edgeworth.cdf.calls"] == 1
    assert m["harness.k_statistics.calls"] == 0
    assert not hasattr(levyou.cdf, "__wrapped__")


def test_unexpected_failure_is_not_a_known_defect(tmp_path):
    ops = workloads.build("jumps", 5, ROOT, tmp_path, tiny=True)
    ops[0]["argv"] += ["--set", "n_samples=50"]  # below the schema minimum: exit 2
    job = {"src": str(ROOT / "src"), "ops": ops, "workers": 2, "trace": False,
           "mode": "pass"}
    res = run._run_child(job, tmp_path, "bad", deadline=run.time.monotonic() + 60)
    (outcome,) = res["ops"]
    assert not outcome["ok"] and not outcome["known_defect"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jumps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
