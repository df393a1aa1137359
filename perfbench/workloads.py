"""The benchmark's workloads: the `levyou` CLI calls each one makes and the
checks that decide whether each call's output is correct.

Every workload runs its calls with `--workers 2`, takes its random seed from
the benchmark's `--seed`, and writes into a fresh directory.

A known defect is counted, not hidden: see NOTES.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

WORKERS = 2

NOTES = {
    "explore": "Known defect: `expect` on the shipped example config exits 2 with "
               "'polynomial degree 3 exceeds growth bound 2', because the config asks "
               "for moments up to 3 while its p_orders include p=2, whose growth bound "
               "is 2.  The call is kept as shipped and counts as a failed op in every "
               "pass; it leaves the run correct only while it fails in exactly this "
               "way.  Should it start to succeed, its output is checked like any other.",
}

_EXPECT_DEFECT = {"exit": 2, "stderr": "exceeds growth bound"}


def _acc06_config(seed: int, tiny: bool) -> dict:
    return {
        "params": {"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": 0.5},
        "driver": {"variant": "cpexp", "b": 1.0, "c": 1.0, "alpha": 1.0},
        "T_grid": [5.0, 10.0, 20.0],
        "p_orders": [2, 3],
        "n_samples": 20_000 if tiny else 1_000_000,
        "seed": seed,
        "test_points": [-1.0, 0.0, 1.0],
        "workers": WORKERS,
    }


def _jumps_config(seed: int, tiny: bool) -> dict:
    return {
        "params": {"lam": 0.5, "gamma": 0.1, "beta": 1.0, "rho": 0.5},
        "driver": {"variant": "mixed", "b": 0.8, "C": 1.0, "c": 20.0, "alpha": 1.5},
        "T_grid": [10.0, 40.0],
        "p_orders": [2, 3, 4],
        "n_samples": 5_000 if tiny else 200_000,
        "seed": seed,
        "test_points": [-1.0, 0.0, 1.0],
        "workers": WORKERS,
    }


def _op(sub: str, config: Path, out: Path, check: dict, sets=(), seed: int | None = None,
        known_defect: dict | None = None) -> dict:
    argv = [sub, "--config", str(config), "--out", str(out), "--workers", str(WORKERS)]
    for assignment in sets:
        argv += ["--set", assignment]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return {"name": sub, "argv": argv, "config": str(config), "set": list(sets),
            "seed": seed, "out": str(out), "check": check, "known_defect": known_defect}


def build(name: str, seed: int, root: Path, work: Path, tiny: bool = False) -> list[dict]:
    """The ops of workload `name` for `seed`, with configs written under `work`.

    `root` is the checkout holding `docs/example_gamma_ou.json`; `tiny`
    shrinks every size so the smoke test runs in seconds.
    """
    if name in ("acc06", "jumps"):
        cfg = (_acc06_config if name == "acc06" else _jumps_config)(seed, tiny)
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n")
        check = {"kind": "validate", "min_improved": 8 if name == "acc06" and not tiny else 0}
        return [_op("validate", path, work / "out_validate", check)]
    if name != "explore":
        raise ValueError(f"unknown workload {name!r}")
    example = root / "docs" / "example_gamma_ou.json"
    n_steps, n_paths = (1_000, 2) if tiny else (100_000, 4)
    return [
        _op("cumulants", example, work / "out_cumulants", {"kind": "cumulants"}),
        _op("density", example, work / "out_density", {"kind": "density"}),
        _op("expect", example, work / "out_expect", {"kind": "expect"},
            known_defect=_EXPECT_DEFECT),
        _op("converge", example, work / "out_converge", {"kind": "converge"}),
        _op("simulate", example, work / "out_simulate",
            {"kind": "simulate", "n_steps": n_steps, "n_paths": n_paths},
            sets=[f"sim.n_steps={n_steps}", f"sim.n_paths={n_paths}"], seed=seed),
        _op("theta-hat", example, work / "out_theta",
            {"kind": "theta_hat"},
            sets=["params.rho=0", "T_grid=[50]", f"n_samples={5_000 if tiny else 100_000}"],
            seed=seed),
    ]


# --- output checks ---------------------------------------------------------
# Each takes (op, levyou package, resolved config dict) and returns
# (passed, detail).  They run after the timed region of a pass.

def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _model(lv, cfg: dict):
    params = lv.ModelParams(**{k: float(v) for k, v in cfg["params"].items()})
    drv = dict(cfg["driver"])
    driver = lv.DriverSpec(variant=drv.pop("variant"), **{k: float(v) for k, v in drv.items()})
    max_p = max(max(cfg.get("p_orders", [2, 3, 4])), 4)
    kappa_f = lv.stationary_cumulants(lv.driver_cumulants(driver, max_p), params.lam)
    return params, max_p, kappa_f


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_validate(op, lv, cfg):
    report = json.loads((Path(op["out"]) / "report.json").read_text())
    if report["partial"]:
        return False, "report is partial"
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed:
        return False, f"report checks failed: {failed}"
    by_cell: dict = {}
    for cell in report["cells"]:
        by_cell.setdefault((cell["T"], cell["a"]), {})[cell["p"]] = cell
    informative = [c for c in by_cell.values() if c[2]["informative"]]
    improved = sum(1 for c in informative if 3 in c and c[3]["gap"] <= c[2]["gap"])
    detail = f"{len(report['checks'])} checks passed; {improved}/{len(informative)} " \
             "informative cells improve from p=2 to p=3"
    return improved >= op["check"]["min_improved"], detail


def check_theta_hat(op, lv, cfg):
    s = json.loads((Path(op["out"]) / "theta_hat.json").read_text())["summary"]
    bias_z = abs(s["bias"]) / s["bias_se"]
    var_z = abs(s["var_scaled_error"] - s["var_predicted"]) / s["var_se_boot"]
    return bias_z <= 4.0 and var_z <= 4.0, f"bias {bias_z:.2f} SE, variance {var_z:.2f} SE"


def check_density(op, lv, cfg):
    import numpy as np

    files = sorted(Path(op["out"]).glob("density_T*.csv"))
    if len(files) != len(cfg["T_grid"]):
        return False, f"{len(files)} density files for {len(cfg['T_grid'])} horizons"
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 has only trapz
    worst = 0.0
    for f in files:
        data = np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2)
        for col in range(1, data.shape[1]):
            worst = max(worst, abs(float(trapezoid(data[:, col], data[:, 0])) - 1.0))
    return worst <= 1e-3, f"max |trapezoid mass - 1| = {worst:.2e}"


def check_simulate(op, lv, cfg):
    import numpy as np

    n_steps, n_paths = op["check"]["n_steps"], op["check"]["n_paths"]
    for i in range(n_paths):
        path = Path(op["out"]) / f"path_{i:03d}.csv"
        with path.open() as fh:
            if fh.readline().strip() != "t,X,Y":
                return False, f"path {i}: header is not t,X,Y"
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (n_steps + 1, 3):
            return False, f"path {i}: shape {data.shape}, expected {(n_steps + 1, 3)}"
        if not np.isfinite(data).all():
            return False, f"path {i}: non-finite value"
    return True, f"{n_paths} paths of {n_steps + 1} finite rows"


def check_cumulants(op, lv, cfg):
    params, max_p, kappa_f = _model(lv, cfg)
    rows = _rows(Path(op["out"]) / "cumulants.csv")
    tables = {T: lv.cumulant_table(max_p, params, kappa_f, T) for T in cfg["T_grid"]}
    if len(rows) != len(tables) * (max_p - 1):
        return False, f"{len(rows)} rows, expected {len(tables) * (max_p - 1)}"
    for r in rows:
        want = tables[float(r["T"])].get(int(r["r"]))
        if not _close(float(r["cumulant"]), want, 1e-12):
            return False, f"T={r['T']} r={r['r']}: {r['cumulant']} != {want!r}"
    return True, f"{len(rows)} rows match cumulant_table to 1e-12"


def check_expect(op, lv, cfg):
    params, max_p, kappa_f = _model(lv, cfg)
    rows = _rows(Path(op["out"]) / "expect.csv")
    n_want = len(cfg["T_grid"]) * len(cfg["p_orders"]) * (
        len(cfg["test_points"]) + len(cfg.get("moments", [1, 2, 3])))
    if len(rows) != n_want:
        return False, f"{len(rows)} rows, expected {n_want}"
    for r in rows:
        if r["kind"] != "indicator_le":
            continue
        ec = lv.expansion_coefficients(
            int(r["p"]), lv.cumulant_table(max_p, params, kappa_f, float(r["T"])))
        want = lv.cdf(float(r["arg"]), ec)
        if not _close(float(r["value"]), want, 1e-12):
            return False, f"indicator T={r['T']} p={r['p']} a={r['arg']}: {r['value']} != {want!r}"
    return True, f"{len(rows)} rows, indicators match cdf"


def check_converge(op, lv, cfg):
    params, _, kappa_f = _model(lv, cfg)
    rows = _rows(Path(op["out"]) / "converge.csv")
    if len(rows) != 3 * len(cfg["T_grid"]):
        return False, f"{len(rows)} rows, expected {3 * len(cfg['T_grid'])}"
    for r in rows:
        limit = lv.normalized_cumulant_limit(int(r["r"]), params, kappa_f)
        scaled = float(r["scaled"])
        if not (_close(float(r["limit"]), limit, 1e-12)
                and _close(float(r["gap"]), abs(scaled - limit), 1e-12)):
            return False, f"r={r['r']} T={r['T']}: limit or gap mismatch"
    return True, f"{len(rows)} rows consistent with their limits"


CHECKS = {
    "validate": check_validate,
    "theta_hat": check_theta_hat,
    "density": check_density,
    "simulate": check_simulate,
    "cumulants": check_cumulants,
    "expect": check_expect,
    "converge": check_converge,
}
