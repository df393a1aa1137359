"""Command-line front end.

Subcommands: cumulants, density, expect, simulate, validate, theta-hat,
converge.  One JSON config file drives everything; individual keys can be
overridden with repeated `--set dot.path=value` flags.  Exit codes:
0 success, 2 config error, 3 model degeneracy, 4 strict-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, apply_override, load_config
from .cumulants import normalized_cumulant_limit
from .edgeworth import (
    GrowthBoundError,
    NonPositiveVarianceError,
    TestFunction,
    cdf,
    density,
    expansion_coefficients,
    expect,
    negative_density_report,
)
from .harness import convergence_study, mean_estimator_demo, run_validation
from .simulate import sample_path, write_path_csv

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DEGENERATE = 3
_EXIT_STRICT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyou",
        description="Cumulants, Edgeworth expansions, and exact Monte Carlo "
                    "for the integrated Levy-driven OU model.",
    )
    parser.add_argument("subcommand", choices=list(_DISPATCH))
    parser.add_argument("--config", required=True, help="path to JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry by dot path (repeatable)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["csv", "json", "table"], default="csv")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="override worker count (0 = hardware parallelism)")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when any internal report check fails")
    return parser


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_rows(rows: list[dict], columns: list[str], out_dir: Path, stem: str,
                fmt: str) -> None:
    if fmt == "table":
        lines = [columns] + [[str(row[c]) for c in columns] for row in rows]
        widths = [max(len(line[i]) for line in lines) for i in range(len(columns))]
        for line in lines:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
        return
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        _write_json(path, {"rows": rows})
    else:
        path = out_dir / f"{stem}.csv"
        with path.open("w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(row[c])) if isinstance(row[c], float)
                                  else str(row[c]) for c in columns) + "\n")
    print(f"wrote {path}")


def cmd_cumulants(ecfg: ExperimentConfig, args) -> int:
    rows = []
    for T in ecfg.T_grid:
        table = ecfg.table(T)
        for r in range(2, table.order + 1):
            value = table.get(r)
            try:
                scaled = T ** ((r - 2) / 2.0) * value
            except OverflowError:
                raise OverflowError(f"scaled cumulant of order {r} at T={T!r} "
                                    "is beyond float range") from None
            rows.append({
                "T": T, "r": r,
                "cumulant": value,
                "scaled": scaled,
                "limit": normalized_cumulant_limit(r, ecfg.params, ecfg.kappa_f),
            })
    _write_rows(rows, ["T", "r", "cumulant", "scaled", "limit"],
                Path(args.out), "cumulants", args.format)
    return _EXIT_OK


def cmd_density(ecfg: ExperimentConfig, args) -> int:
    from ._shortest import RowWriter  # imported here so that `import levyou` does not pay for it

    if ecfg.params.degenerate:
        raise NonPositiveVarianceError("model is degenerate (beta + rho*lam = 0): the limiting "
                                       "variance vanishes and no expansion density is emitted")
    # a file per horizon, named by T to 6 significant digits: horizons that
    # round alike would overwrite each other, so refuse them before writing
    names = {}
    for T in ecfg.T_grid:
        name = f"density_T{T:g}.csv"
        if name in names:
            raise ValueError(f"horizons T={names[name]!r} and T={T!r} would both "
                             f"write {name}; make them differ in their first 6 "
                             "significant digits")
        names[name] = T
    ys = np.linspace(*ecfg.density_grid)
    out_dir = Path(args.out)
    writer = RowWriter()  # formats ys once for every horizon
    for name, T in names.items():
        table = ecfg.table(T)
        ecs = {p: expansion_coefficients(p, table) for p in ecfg.p_orders}
        cols = {p: density(ys, ec) for p, ec in ecs.items()}
        path = out_dir / name
        with path.open("wb") as fh:
            fh.write(("y," + ",".join(f"g_{p}" for p in ecfg.p_orders) + "\n").encode())
            writer.write(fh, [ys] + [cols[p] for p in ecfg.p_orders])
        print(f"wrote {path}")
        for p in ecfg.p_orders:
            mn, at = negative_density_report(ecs[p])
            if mn < 0:
                print(f"  T={T:g} p={p}: density dips to {mn:.3e} at y={at:.3f} "
                      "(signed measure, not clipped)")
    return _EXIT_OK


def cmd_expect(ecfg: ExperimentConfig, args) -> int:
    # A moment above its order's growth bound has no expansion value: its
    # rows read nan, with one note per (p, m), so every row is still written.
    rows = []
    noted = set()
    for T in ecfg.T_grid:
        table = ecfg.table(T)
        for p in ecfg.p_orders:
            ec = expansion_coefficients(p, table)
            for a in ecfg.test_points:
                rows.append({"T": T, "p": p, "kind": "indicator_le", "arg": a,
                             "value": cdf(a, ec)})
            for m in ecfg.moments:
                f = TestFunction.polynomial([0.0] * m + [1.0])
                try:
                    value = expect(f, ec)
                except GrowthBoundError as e:
                    value = math.nan
                    if (p, m) not in noted:
                        noted.add((p, m))
                        print(f"note: p={p} moment {m}: {e}; written as nan",
                              file=sys.stderr)
                rows.append({"T": T, "p": p, "kind": "moment", "arg": float(m),
                             "value": value})
    _write_rows(rows, ["T", "p", "kind", "arg", "value"],
                Path(args.out), "expect", args.format)
    return _EXIT_OK


def cmd_simulate(ecfg: ExperimentConfig, args) -> int:
    from ._shortest import RowWriter  # imported here so that `import levyou` does not pay for it

    T = ecfg.T_grid[0]
    out_dir = Path(args.out)
    deviations = []
    writer = RowWriter()  # formats the time grid shared by the paths once
    for i in range(ecfg.n_paths):
        child = int(np.random.SeedSequence(ecfg.seed, spawn_key=(i,)).generate_state(1)[0])
        path = sample_path(ecfg.params, ecfg.driver, T, ecfg.n_steps, seed=child)
        fname = out_dir / f"path_{i:03d}.csv"
        with fname.open("wb") as fh:
            write_path_csv(path, fh, writer)
        deviations.append(path.deviation)
        del path  # the next path is sampled without this one beside it
    summary = out_dir / "simulate_summary.json"
    _write_json(summary, {
        "config_hash": ecfg.config_hash(),
        "T": T, "n_steps": ecfg.n_steps, "n_paths": ecfg.n_paths,
        "deviations": deviations,
    })
    print(f"wrote {ecfg.n_paths} path file(s) and {summary}")
    return _EXIT_OK


def cmd_validate(ecfg: ExperimentConfig, args) -> int:
    report = run_validation(ecfg)
    out_dir = Path(args.out)
    json_path = out_dir / "report.json"
    _write_json(json_path, report.to_json_dict())
    csv_path = out_dir / "report.csv"
    with csv_path.open("w") as fh:
        report.write_cells_csv(fh)
    print(f"wrote {json_path} and {csv_path}")
    for check in report.checks:
        status = "ok" if check["passed"] else "FAILED"
        print(f"  check {check['name']}: {status} ({check.get('detail', '')})")
    if report.degenerate:
        print("  note: parameters are degenerate (beta + rho*lam = 0)")
    if args.strict and not report.all_checks_passed():
        return _EXIT_STRICT
    return _EXIT_OK


def cmd_theta_hat(ecfg: ExperimentConfig, args) -> int:
    result = mean_estimator_demo(ecfg)
    out_path = Path(args.out) / "theta_hat.json"
    _write_json(out_path, {
        "config_hash": ecfg.config_hash(),
        "theta_hat": result.theta_hat,
        "theta0": result.theta0,
        "summary": result.summary,
    })
    print(f"wrote {out_path}")
    return _EXIT_OK


def cmd_converge(ecfg: ExperimentConfig, args) -> int:
    study = convergence_study(ecfg)
    _write_rows(study.rows, ["r", "T", "scaled", "limit", "gap"],
                Path(args.out), "converge", args.format)
    slopes_path = Path(args.out) / "converge_slopes.json"
    _write_json(slopes_path, {str(r): s for r, s in study.slopes.items()})
    print(f"wrote {slopes_path}")
    return _EXIT_OK


_DISPATCH = {
    "cumulants": cmd_cumulants,
    "density": cmd_density,
    "expect": cmd_expect,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "theta-hat": cmd_theta_hat,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for assignment in args.set:
            apply_override(cfg, assignment)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.workers is not None:
            cfg["workers"] = args.workers
        ecfg = ExperimentConfig.from_dict(cfg)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.subcommand](ecfg, args)
    except NonPositiveVarianceError as e:
        print(f"model degeneracy: {e}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except (ValueError, ArithmeticError, MemoryError, OSError) as e:
        # e.g. values outside float range, unaffordable sizes, an unwritable --out
        detail = e if isinstance(e, ValueError) else f"{type(e).__name__}: {e}"
        print(f"config error: {detail}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
