#!/usr/bin/env python3
"""Record a baseline of the benchmark and check that it is steady.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json, runs the benchmark once per seed 1-10,
untraced, for BENCHMARK.json's run_seconds, then once traced with seed 1.
For every end-to-end metric it records the values, their median and
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median, and
flags a spread that is not under a third of the metric's bound.  The result
goes to perfbench/baseline.json, rewritten after each workload.
"""

from __future__ import annotations

import json
import statistics
import sys

import run

SEEDS = list(range(1, 11))
OUT = run.HERE / "baseline.json"


def _checked(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    res = run.run(workload, seed, seconds, trace)
    if res["error"] is not None:
        raise SystemExit(f"{workload} seed {seed}: {res['error']}")
    return res


def main() -> int:
    seconds = run.BENCH["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in run.BENCH["end_to_end"]}
    baseline = json.loads(OUT.read_text()) if OUT.is_file() else {"workloads": {}}
    baseline["run_seconds"] = seconds
    for workload in run.WHY:
        runs = [_checked(workload, seed, seconds, False) for seed in SEEDS]
        entry: dict = {
            "seeds": SEEDS,
            "correct_all": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_ops": sorted({o["name"] for r in runs for o in r["ops"] if not o["ok"]}),
            "end_to_end": {},
        }
        entry["fail_frac"] = entry["failed"] / entry["attempted"]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "steady": spread < bound / 3,
                "unit": runs[0]["metrics"][name]["unit"], "values": values,
                "passes": [len(r["passes"]) for r in runs],
            }
            print(f"{workload:8} {name:12} median {med:10.4f}  "
                  f"spread {spread:.4f}  bound {bound}  "
                  f"{'steady' if spread < bound / 3 else 'NOT under a third of the bound'}",
                  flush=True)
        traced = _checked(workload, SEEDS[0], seconds, True)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced"] = {
            "seed": SEEDS[0],
            "correct": traced["correct"],
            "per_layer": layers,
            "cli_main_self_share": layers["cli.main.self_s"]
            / entry["end_to_end"]["wall_s"]["median"],
            "absent": traced["absent"],
        }
        print(f"{workload:8} traced: cli.main self share "
              f"{entry['traced']['cli_main_self_share']:.4f}, overhead "
              f"{layers['trace.overhead_s']:.3f} s", flush=True)
        entry["env"] = runs[0]["env"]
        entry["notes"] = runs[0]["notes"]
        baseline["workloads"][workload] = entry
        OUT.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
