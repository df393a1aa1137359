#!/usr/bin/env python3
"""The levyou benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload {acc06,jumps,explore} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports `levyou` from that checkout's
`src/` and exits 2 when there is none.  Each pass of the workload runs every
op through `levyou.cli.main` in one fresh child process with 2 worker
threads, in a fresh directory and with its own seed derived from N, and then
checks every op's output.  Passes repeat while another one still fits in S
seconds (at least one runs); the set-up probes run between them and are not
counted in S.

--trace 0 prints the end-to-end metrics:
  wall_s       median over passes of first cli.main call -> last return
  setup_s      median over 5 fresh processes (probes) of `import levyou` plus
               load_config/overrides/validate_config of each op's config
  peak_rss_mb  median over passes of the child's maximum RSS
and, on its own line, fail_frac = failed ops / attempted ops.  An op fails
when it exits nonzero or its output fails its check (workloads.py).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics as medians over the traced passes, including the tracing overhead
(median traced wall_s minus median untraced wall_s).  Workloads and metrics,
with their units and reasons, are read from BENCHMARK.json.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  `correct` is false when any op fails other than by a known
defect named in workloads.NOTES.  Every run also writes the full result, with
its environment, to .perfbench/results/, and a traced run writes its spans
to .perfbench/spans/ as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# Every child must end before the 180 s a whole run may take.
RUN_DEADLINE_S = 170.0

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCH["workloads"]}
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # Worker threads come only from --workers; keep BLAS single-threaded and
    # the kernel backend at its default.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("LEVYOU_BACKEND", None)
    env.pop("PYTHONPATH", None)
    return env


def _run_child(job: dict, work: Path, tag: str, deadline: float) -> dict:
    job = dict(job, result=str(work / f"{tag}.result.json"))
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    log_path = work / f"{tag}.log"
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 1.0:
        raise ChildFailed(f"{tag}: no time left before the run deadline")
    with log_path.open("w") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                  cwd=ROOT, env=_child_env(), stdout=log, stderr=log,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            raise ChildFailed(f"{tag}: timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise ChildFailed(f"{tag}: exit {proc.returncode}\n{tail}")
    result = json.loads(Path(job["result"]).read_text())
    result["process_s"] = time.monotonic() - t0
    return result


def _git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cache_sizes() -> dict:
    """L2/L3 sizes of cpu0 as sysfs reports them, e.g. {"L2": "2048K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def environment(seed: int, child_env: dict | None) -> dict:
    env = {
        "git_sha": _git_sha(ROOT),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workers": workloads.WORKERS,
        "cache": _cache_sizes(),
    }
    env.update(child_env or {})
    return env


def _median(values: list) -> float | None:
    vals = [v for v in values if v is not None]
    return statistics.median(vals) if len(vals) == len(values) and vals else None


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; returns the full result (see module docstring).

    `tiny` and `probes` exist for the smoke test: tiny sizes, fewer probes.
    """
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    state = ROOT / ".perfbench"
    for sub in ("tmp", "results", "spans"):
        (state / sub).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=state / "tmp"))
    try:
        error = None
        setup = []
        passes: list[dict] = []
        traced: list[dict] = []
        n_probes = 0 if trace else probes
        n_ops = len(workloads.build(workload, 0, ROOT, work, tiny=tiny))

        def child(tag: str, k: int, **job) -> dict:
            # Pass k of run seed s takes seed 1009*s + k (mod 2**63: config seeds
            # are >= 0), so the median over passes covers several inputs instead
            # of repeating one.  Each child gets a fresh directory, removed once
            # its result is read.
            d = work / tag
            d.mkdir()
            ops = workloads.build(workload, (1009 * seed + k) % (1 << 63), ROOT, d, tiny=tiny)
            job = {"src": str(ROOT / "src"), "ops": ops, "workers": workloads.WORKERS,
                   "trace": False, **job}
            try:
                return _run_child(job, d, tag, deadline)
            finally:
                shutil.rmtree(d, ignore_errors=True)

        def probe() -> None:
            i = len(setup)
            setup.append(child(f"setup{i}", i, mode="setup")["setup_s"])

        try:
            units: list[float] = []
            while True:
                # One probe ahead of each pass spreads the probes over the run,
                # so their median is not taken from one stretch of machine load.
                if len(setup) < n_probes:
                    probe()
                t_unit = time.monotonic()
                k = len(units)
                passes.append(child(f"pass{k}", k, mode="pass"))
                if trace:
                    spans = state / "spans" / f"{workload}.jsonl"  # the last traced pass
                    traced.append(child(f"traced{k}", k, mode="pass", trace=True,
                                        spans=str(spans)))
                units.append(time.monotonic() - t_unit)
                if sum(units) + statistics.median(units) > seconds:
                    break
            while len(setup) < n_probes:
                probe()
        except ChildFailed as e:
            error = str(e)
        all_passes = passes + traced
        outcomes = [o for p in all_passes for o in p["ops"]]
        attempted = len(outcomes) + (n_ops if error else 0)
        failed = sum(1 for o in outcomes if not o["ok"]) + (n_ops if error else 0)
        correct = error is None and all(o["ok"] or o["known_defect"] for o in outcomes)
        if trace:
            metrics = {name: _median([t["layers"][name] for t in traced])
                       for name in tracer.PER_LAYER}
            if traced:
                metrics["trace.overhead_s"] = (_median([t["wall_s"] for t in traced])
                                               - _median([p["wall_s"] for p in passes]))
        else:
            metrics = {
                "wall_s": _median([p["wall_s"] for p in passes]),
                "setup_s": _median(setup),
                "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
            }
        return {
            "workload": workload,
            "why": WHY[workload],
            "n_ops": n_ops,
            "trace": int(trace),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted if attempted else None,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            "passes": [{k: p[k] for k in ("wall_s", "peak_rss_mb", "cpu_s", "import_s",
                                          "process_s")}
                       for p in passes],
            "traced_passes": [{k: t[k] for k in ("wall_s", "peak_rss_mb", "n_spans")}
                              for t in traced],
            "setup_probes": setup,
            "ops": outcomes,
            "absent": traced[0]["absent"] if traced else [],
            "error": error,
            "notes": workloads.NOTES.get(workload, ""),
            "env": environment(seed, passes[0]["env"] if passes else None),
            "elapsed_s": time.monotonic() - start,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _report(res: dict) -> None:
    print(f"workload {res['workload']}: {res['why']}")
    print(f"  {len(res['passes'])} untraced and {len(res['traced_passes'])} traced pass(es) "
          f"of {res['n_ops']} op(s); {len(res['setup_probes'])} set-up probe(s); "
          f"{res['elapsed_s']:.1f} s in all")
    for name, m in res["metrics"].items():
        v = m["value"]
        shown = "absent" if v is None else f"{v:.6g}"
        print(f"  {name:<48} {shown:>14} {m['unit']}")
    print(f"  {'fail_frac':<48} {res['fail_frac']:>14.6g} "
          f"({res['failed']}/{res['attempted']} ops)")
    seen = set()
    for o in res["ops"]:
        line = (f"  op {o['name']}: {'ok' if o['ok'] else 'FAILED'}"
                f"{' (known defect)' if o['known_defect'] else ''} - {o['detail']}")
        if line not in seen:
            seen.add(line)
            print(line)
    if res["absent"]:
        print(f"  absent functions: {', '.join(res['absent'])}")
    if res["error"]:
        print(f"  error: {res['error']}")
    print(f"  env {json.dumps(res['env'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/levyou/__init__.py", "docs/example_gamma_ou.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a levyou checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not res["passes"]:
        print(f"no pass completed: {res['error']}", file=sys.stderr)
        return 1
    out = ROOT / ".perfbench" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(res, indent=1) + "\n")
    _report(res)
    print(f"  full result in {out.relative_to(ROOT)}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
