"""CLI surface: exit codes, file formats, determinism, schema round-trips."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levyou import (
    ExperimentConfig,
    cdf,
    cumulant_table,
    density,
    driver_cumulants,
    expansion_coefficients,
    float_canary,
    normalized_cumulant_limit,
    sample_path,
    stationary_cumulants,
)
from levyou import simulate
from levyou.cli import main
from levyou.config import CONFIG_SCHEMA, REPORT_SCHEMA
from levyou.harness import CHUNK

from conftest import base_config

EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "example_gamma_ou.json"

# theta_hat.json of TestThetaHatCommand's benchmark op, as written with jump
# counts by guide-table inversion, arrival times from a child stream, sizes
# by inversion, the kernels' constants folded into their expm1 forms and the
# draws and k-statistics in CHUNK-sized (16384-draw) chunks, recorded with
# numpy 2.4 on x86-64 under the two float canaries (`levyou.float_canary()`,
# with and without AVX-512 exp, expm1 and log).  The draws differ in their
# last bits between the two, but at this chunk size the file's bytes do not.
THETA_HAT_DIGESTS = {
    "5ae24f5423a60241": "70af38ddb63095c311eea06692e51471b9a99715def97d0559d19337412c6bee",
    "0e9b78da95299c0e": "70af38ddb63095c311eea06692e51471b9a99715def97d0559d19337412c6bee",
}

# path_000.csv .. path_003.csv of TestSimulateCommand's benchmark op, as
# written with jump counts by guide-table inversion, arrival times from a
# child stream, sizes by inversion and the kernels' constants folded into
# their expm1 forms, recorded with numpy 2.4 on x86-64 under the two float
# canaries, which give these paths the same bits.
SIMULATE_DIGESTS = {
    "5ae24f5423a60241": (
        "54ab2165b7b7fb12b2e8cb919ce55e2d541a74898717ccd3f58618e9942438ee",
        "69e748017fcc7aa8a794a6b54018cf82d7dd5f2c987b8c923f186c84ca999c45",
        "9fee78324da9de2bc6cbd1ddf621b61d5f4a2f6b1b6eb3af0cc7d5077b9648a4",
        "259c5b5ccb3e3236b4a3e9427e021dc733dd8b633dc7c51e3c23ba80d43548a4",
    ),
    "0e9b78da95299c0e": (
        "54ab2165b7b7fb12b2e8cb919ce55e2d541a74898717ccd3f58618e9942438ee",
        "69e748017fcc7aa8a794a6b54018cf82d7dd5f2c987b8c923f186c84ca999c45",
        "9fee78324da9de2bc6cbd1ddf621b61d5f4a2f6b1b6eb3af0cc7d5077b9648a4",
        "259c5b5ccb3e3236b4a3e9427e021dc733dd8b633dc7c51e3c23ba80d43548a4",
    ),
}


def run_cli(subcommand, config_path, out_dir, *extra):
    return main([subcommand, "--config", str(config_path), "--out", str(out_dir),
                 *extra])


def test_example_config_validates():
    example = json.loads(EXAMPLE.read_text())
    import jsonschema
    jsonschema.validate(example, CONFIG_SCHEMA)


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert run_cli("cumulants", tmp_path / "nope.json", tmp_path) == 2

    def test_schema_violation(self, write_config, tmp_path):
        cfg = base_config()
        del cfg["params"]
        assert run_cli("cumulants", write_config(cfg), tmp_path) == 2

    def test_too_few_samples(self, write_config, tmp_path):
        assert run_cli("validate", write_config(base_config(n_samples=50)), tmp_path) == 2

    def test_bad_override(self, write_config, tmp_path):
        path = write_config(base_config())
        assert run_cli("cumulants", path, tmp_path, "--set", "n_samples=-3") == 2
        assert run_cli("cumulants", path, tmp_path, "--set", "garbage") == 2

    def test_zero_beta_rejected_by_schema(self, write_config, tmp_path):
        cfg = base_config(params={"lam": 1.0, "gamma": 0.0, "beta": 0, "rho": 0.0})
        assert run_cli("cumulants", write_config(cfg), tmp_path) == 2

    def test_gaussian_driver_with_jump_rate_exits_2(self, write_config, tmp_path, capsys):
        # the jumps would be dropped while c still entered config_hash
        cfg = base_config(driver={"variant": "gaussian", "C": 1.0, "c": 5.0})
        out = tmp_path / "out"
        assert run_cli("cumulants", write_config(cfg), out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "c = 0" in err and "Traceback" not in err
        assert list(out.glob("*")) == []

    def test_gaussian_driver_with_jump_size_rate_exits_2(self, tmp_path, capsys):
        # alpha would change nothing but config_hash
        out = tmp_path / "out"
        assert run_cli("cumulants", EXAMPLE, out, "--set",
                       'driver={"variant":"gaussian","b":1.0,"C":1.0,"alpha":5}') == 2
        err = capsys.readouterr().err
        assert "config error" in err and "alpha = 1" in err and "Traceback" not in err
        assert list(out.glob("*")) == []
        # the default alpha, given or not, keeps the hash gaussian configs had
        cfg = json.loads(EXAMPLE.read_text())
        for driver in ({"variant": "gaussian", "b": 1.0, "C": 1.0},
                       {"variant": "gaussian", "b": 1.0, "C": 1.0, "alpha": 1}):
            cfg["driver"] = driver
            assert ExperimentConfig.from_dict(cfg).config_hash().startswith("c2b88520d6ca")


class TestCumulantsCommand:
    def test_json_roundtrip_and_bit_exact(self, write_config, tmp_path):
        cfg = base_config(p_orders=[2, 3, 4])
        assert run_cli("cumulants", write_config(cfg), tmp_path, "--format", "json") == 0
        data = json.loads((tmp_path / "cumulants.json").read_text())
        ecfg = ExperimentConfig.from_dict(cfg)
        kf = stationary_cumulants(driver_cumulants(ecfg.driver, 4), ecfg.params.lam)
        for row in data["rows"]:
            table = cumulant_table(4, ecfg.params, kf, row["T"])
            assert row["cumulant"] == table.get(row["r"])
            assert row["limit"] == normalized_cumulant_limit(row["r"], ecfg.params, kf)

    def test_gaussian_high_orders_vanish(self, write_config, tmp_path):
        cfg = base_config(driver={"variant": "gaussian", "b": 0.0, "C": 2.0},
                          p_orders=[2, 3, 4])
        assert run_cli("cumulants", write_config(cfg), tmp_path, "--format", "json") == 0
        data = json.loads((tmp_path / "cumulants.json").read_text())
        assert all(row["cumulant"] == 0.0 for row in data["rows"] if row["r"] >= 3)

    def test_csv_output(self, write_config, tmp_path):
        assert run_cli("cumulants", write_config(base_config()), tmp_path) == 0
        lines = (tmp_path / "cumulants.csv").read_text().strip().split("\n")
        assert lines[0] == "T,r,cumulant,scaled,limit"
        assert len(lines) == 1 + 3  # one T, r in 2..4

    def test_table_columns_aligned(self, write_config, tmp_path, capsys):
        cfg = base_config(T_grid=[5.0, 10.0, 20.0], p_orders=[2, 3, 4])
        assert run_cli("cumulants", write_config(cfg), tmp_path, "--format", "table") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 3 * 3
        starts = [[m.start() for m in re.finditer(r"\S+", line)] for line in lines]
        assert len(starts[0]) == 5
        assert all(s == starts[0] for s in starts)


class TestDensityCommand:
    def test_normalization_riemann_sum(self, write_config, tmp_path):
        cfg = base_config(T_grid=[10.0], p_orders=[2, 3, 4],
                          density_grid={"lo": -30.0, "hi": 30.0, "n": 2401})
        assert run_cli("density", write_config(cfg), tmp_path) == 0
        rows = (tmp_path / "density_T10.csv").read_text().strip().split("\n")
        assert rows[0] == "y,g_2,g_3,g_4"
        table = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
        dy = table[1, 0] - table[0, 0]
        for col in (1, 2, 3):
            assert abs(table[:, col].sum() * dy - 1.0) < 1e-6

    def test_gaussian_columns_identical(self, write_config, tmp_path):
        cfg = base_config(driver={"variant": "gaussian", "b": 0.0, "C": 2.0},
                          T_grid=[5.0], p_orders=[2, 3, 4],
                          density_grid={"lo": -8.0, "hi": 8.0, "n": 321})
        assert run_cli("density", write_config(cfg), tmp_path) == 0
        rows = (tmp_path / "density_T5.csv").read_text().strip().split("\n")[1:]
        for line in rows:
            _, g2, g3, g4 = line.split(",")
            assert g2 == g3 == g4

    def test_single_point_grid(self, write_config, tmp_path):
        cfg = base_config(T_grid=[5.0], density_grid={"lo": 0.0, "hi": 0.0, "n": 1})
        assert run_cli("density", write_config(cfg), tmp_path) == 0
        rows = (tmp_path / "density_T5.csv").read_text().strip().split("\n")
        assert len(rows) == 2

    def test_degenerate_model_exits_3(self, write_config, tmp_path, capsys):
        cfg = base_config(params={"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": -1.0})
        assert run_cli("density", write_config(cfg), tmp_path) == 3
        assert capsys.readouterr().err.startswith("model degeneracy: model is degenerate")

    def test_horizons_sharing_a_file_name_exit_2_before_writing(self, write_config,
                                                               tmp_path, capsys):
        # 5.0 and 5.0000001 are both "5" to 6 significant digits
        cfg = base_config(T_grid=[5.0, 5.0000001, 10.0])
        assert run_cli("density", write_config(cfg), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "config error" in err and "T=5.0 " in err and "T=5.0000001 " in err
        assert "density_T5.csv" in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_file_bytes_are_repr_of_each_value(self, write_config, tmp_path):
        # the per-row repr loop the density command wrote before
        cfg = base_config(T_grid=[5.0], p_orders=[2, 3, 4],
                          density_grid={"lo": -12.0, "hi": 12.0, "n": 481})
        assert run_cli("density", write_config(cfg), tmp_path) == 0
        ecfg = ExperimentConfig.from_dict(cfg)
        ys = np.linspace(*ecfg.density_grid)
        cols = [density(ys, expansion_coefficients(p, ecfg.table(5.0))) for p in (2, 3, 4)]
        expected = "y,g_2,g_3,g_4\n" + "".join(
            f"{float(y)!r},{vals}\n" for y, vals in
            zip(ys, (",".join(repr(float(c[i])) for c in cols) for i in range(ys.size))))
        assert (tmp_path / "density_T5.csv").read_text() == expected


@pytest.mark.parametrize("subcommand", ["density", "validate", "expect", "simulate"])
def test_nonpositive_variance_exits_3(subcommand, tmp_path, capsys):
    # C = 5e-324, the least positive double, gives a variance that underflows
    # to 0.0: the expansion's, or a path step's
    assert run_cli(subcommand, EXAMPLE, tmp_path, "--set", "n_samples=1000", "--set",
                   'driver={"variant":"gaussian","b":0.0,"C":5e-324}') == 3
    err = capsys.readouterr().err
    variance = ("step variance v11 of the Gaussian increment of X" if subcommand == "simulate"
                else "variance sigma")
    assert f"model degeneracy: {variance} must be positive, got 0.0" in err


@pytest.mark.parametrize("subcommand", ["validate", "theta-hat", "simulate"])
def test_too_many_expected_jumps_exits_2(subcommand, write_config, tmp_path, capsys):
    # c*T = 1e9 jumps per draw: the samplers refuse it before drawing, while
    # the closed forms still evaluate
    cfg = base_config(params={"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": 0.0})
    path = write_config(cfg)
    overrides = ("--set", "driver.c=1000", "--set", "T_grid=[1e6]")
    assert run_cli(subcommand, path, tmp_path, *overrides) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "jumps" in err and "Traceback" not in err
    assert run_cli("cumulants", path, tmp_path, *overrides) == 0


@pytest.mark.parametrize("subcommand, horizons", [
    ("validate", "[1.0,1e6]"), ("theta-hat", "[1e6,1.0]"), ("simulate", "[1e6]"),
])
def test_jump_budget_is_checked_before_any_draw(subcommand, horizons, write_config,
                                                tmp_path, monkeypatch):
    # every exact draw starts from the stationary state; none may happen, not
    # even for a horizon within the budget that comes first
    draws = []
    real = simulate.sample_stationary_state
    monkeypatch.setattr(simulate, "sample_stationary_state",
                        lambda *a, **k: draws.append(1) or real(*a, **k))
    cfg = base_config(params={"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": 0.0})
    overrides = ("--set", "driver.c=1000", "--set", f"T_grid={horizons}")
    assert run_cli(subcommand, write_config(cfg), tmp_path, *overrides) == 2
    assert draws == []


@pytest.mark.parametrize("subcommand, overrides, names", [
    ("cumulants", ["driver.alpha=1e-200"], "driver cumulant of order 2"),  # OverflowError
    # alpha**4 underflows to 0, where the cumulant would divide by zero
    ("cumulants", ["driver.alpha=1e-100"], "driver cumulant of order 4"),  # OverflowError
    ("cumulants", ["p_orders=[12]", "T_grid=[1e300]"], "scaled"),  # OverflowError
    ("cumulants", ["p_orders=[12]", "params.lam=1e-30", "T_grid=[1e40]"], None),  # OverflowError
    # a kernel weight integral beyond float range, which numpy would give as inf
    ("cumulants", ["p_orders=[12]", "params.lam=1e-25", "T_grid=[1e40]"], None),  # OverflowError
    ("density", ["driver.alpha=1e-30", "p_orders=[12]"],
     "driver cumulant of order 11"),  # OverflowError
    # T**-3.5 at T = 1e-100, in the normalized cumulant of order 9
    ("density", ["T_grid=[1e-100]", "p_orders=[12]"], "normalized cumulant"),  # OverflowError
    # 8 PB of grid, beyond the address space, so the allocation fails at once
    ("density", ["density_grid.n=1000000000000000"], None),  # MemoryError
    ("cumulants", None, None),  # --out names an existing file: FileExistsError
    # lam*r*W_r overflows before the division by T, though the value is finite
    ("cumulants", ["params.lam=1e10", "params.beta=1e10", "T_grid=[1e300]"],
     "normalized cumulant of order 2 at T=1e+300 is inf"),  # OverflowError
    # lam*4*W_4 = inf times the gaussian driver's kappa_F(4) = 0
    ("cumulants", ['driver={"variant":"gaussian","b":1.0,"C":1.0}', "params.lam=10",
                   "params.beta=1e6", "T_grid=[4.1e287]"],
     "normalized cumulant of order 4 at T=4.1e+287 is nan"),  # OverflowError
    ("cumulants", ["driver.b=0", "params.lam=1e-5", "driver.c=1e300"],
     "large-T limit of the normalized cumulant of order 2"),  # OverflowError
    # (beta/lam)**2 = 1e406, which Python's float power refuses
    ("cumulants", ["params.beta=1e200", "params.lam=1e-3", "T_grid=[1e-300]"],
     "large-T limit of the normalized cumulant of order 2"),  # OverflowError
    # (beta * k_T)**r beyond float range, which Python's float power refuses
    ("cumulants", ["params.beta=1e200"], "normalized cumulant of order 2 at T=5.0"),
    ("density", ["params.beta=1e150"], "normalized cumulant of order 3 at T=5.0"),
    ("expect", ["params.beta=1e100", "p_orders=[4]"],
     "normalized cumulant of order 4 at T=5.0"),  # OverflowError
    # kappa_3**2 = inf in the term of Hermite degree 6
    ("expect", ["driver.alpha=1e-60", "p_orders=[4]", "moments=[4]"],
     "order-4 expansion coefficient of Hermite degree 6 is inf"),  # ValueError
], ids=["alpha-tiny", "alpha-tiny-order-4", "T-huge", "lam-tiny", "lam-tiny-weight-inf",
        "density-alpha-tiny", "density-T-tiny", "grid-huge", "out-is-file",
        "table-inf", "table-nan", "limit-inf", "limit-power-overflows",
        "beta-huge", "density-beta-huge", "expect-beta-huge", "expect-coefficient-inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy warns of no overflow on the way
def test_schema_valid_extremes_exit_2(subcommand, overrides, names, tmp_path, capsys):
    out = tmp_path / "out"
    if overrides is None:
        out.write_text("")
        overrides = []
    extra = [arg for o in overrides for arg in ("--set", o)]
    assert run_cli(subcommand, EXAMPLE, out, *extra) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    if names is not None:  # the message names the quantity that overflowed
        assert names in err and "(34, " not in err, err


def test_huge_alpha_gives_finite_cumulants(tmp_path, capsys):
    # alpha**4 overflows at alpha = 1e100; c * k! * (1/alpha)**k does not
    extra = ["--set", "driver.alpha=1e100", "--format", "json"]
    assert run_cli("cumulants", EXAMPLE, tmp_path, *extra) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads((tmp_path / "cumulants.json").read_text())["rows"]
    assert rows and all(math.isfinite(row[key]) for row in rows
                        for key in ("cumulant", "scaled", "limit"))


def test_huge_lam_cumulants_equal_their_limits(tmp_path):
    # at lam = 1e300 every horizon is far past the relaxation time, so each
    # rescaled cumulant is its limit; no intermediate may overflow on the way
    extra = ["--set", "params.lam=1e300", "--set", "p_orders=[12]", "--format", "json"]
    assert run_cli("cumulants", EXAMPLE, tmp_path, *extra) == 0
    rows = json.loads((tmp_path / "cumulants.json").read_text())["rows"]
    assert {row["r"] for row in rows} == set(range(2, 13))
    for row in rows:
        assert abs(row["scaled"] - row["limit"]) <= 1e-12 * abs(row["limit"])


@pytest.mark.parametrize("subcommand, override", [
    ("cumulants", "T_grid=[NaN]"),  # wrote nan rows
    ("cumulants", "T_grid=[Infinity]"),  # wrote nan rows
    ("validate", "test_points=[NaN]"),  # wrote nan cells
    ("cumulants", "driver.alpha=Infinity"),  # wrote all-zero cumulants
])
def test_non_finite_numbers_are_schema_violations(subcommand, override, write_config,
                                                  tmp_path, capsys):
    # Python's json reads NaN and Infinity; the schema's numbers are finite
    out = tmp_path / "out"
    assert run_cli(subcommand, write_config(base_config()), out, "--set", override) == 2
    err = capsys.readouterr().err
    assert "config schema violation" in err and "Traceback" not in err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("overrides", [
    ['chi_override={"99": 1.0}'],
    ['chi_override={"0": 1.0}'],
    ['chi_override={"1": 1.0}'],
    ['chi_override={"007": 1.0}'],
    ['chi_override={"7": 1.0}'],
    ["p_orders=[12]", 'chi_override={"12": 1.0, "12\\n": 2.0}'],
], ids=["99", "0", "1", "007", "7", "12-twice"])
def test_chi_override_outside_the_table_exits_2(overrides, write_config, tmp_path, capsys):
    # chi_override, which replaced the closed-form cumulants, is not a config key:
    # every spelling of its orders, inside the table or not, is refused alike
    out = tmp_path / "out"
    extra = [arg for o in overrides for arg in ("--set", o)]
    assert run_cli("cumulants", write_config(base_config()), out, *extra) == 2
    err = capsys.readouterr().err
    assert "config schema violation" in err and "'chi_override'" in err
    assert "Traceback" not in err and list(out.glob("*")) == []


def test_cli_leaves_jsonschema_unloaded(tmp_path):
    # the schema is checked in config.py itself; jsonschema is a test oracle
    code = ("import sys; from levyou.cli import main; "
            "ex, out = sys.argv[1:]; "
            "codes = [main(['cumulants', '--config', ex, '--out', out, *extra]) "
            "         for extra in ([], ['--set', 'params.lam=0'])]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code, str(EXAMPLE), str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 2] []"


class TestExpectCommand:
    def test_moment_columns(self, write_config, tmp_path):
        cfg = base_config(T_grid=[5.0], p_orders=[2], moments=[0, 2])
        assert run_cli("expect", write_config(cfg), tmp_path, "--format", "json") == 0
        rows = json.loads((tmp_path / "expect.json").read_text())["rows"]
        ecfg = ExperimentConfig.from_dict(cfg)
        kf = stationary_cumulants(driver_cumulants(ecfg.driver, 4), ecfg.params.lam)
        sigma = cumulant_table(4, ecfg.params, kf, 5.0).get(2)
        by_kind = {(r["kind"], r["arg"]): r["value"] for r in rows}
        assert by_kind[("moment", 0.0)] == pytest.approx(1.0, abs=1e-12)
        assert by_kind[("moment", 2.0)] == pytest.approx(sigma, rel=1e-13)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_example_moments_above_growth_bound_are_nan(self, fmt, tmp_path, capsys):
        # The example asks for moments up to 3; p = 2 and p = 3 allow degree
        # <= 2, so those rows read nan and every other row is a number.
        assert run_cli("expect", EXAMPLE, tmp_path, "--format", fmt) == 0
        err = capsys.readouterr().err
        text = (tmp_path / f"expect.{fmt}").read_text()
        if fmt == "json":
            assert "NaN" in text
            rows = json.loads(text)["rows"]
        else:
            assert ",nan\n" in text
            rows = [{"T": float(r["T"]), "p": int(r["p"]), "kind": r["kind"],
                     "arg": float(r["arg"]), "value": float(r["value"])}
                    for r in csv.DictReader(text.splitlines())]
        assert len(rows) == 3 * 3 * (3 + 3)  # T_grid x p_orders x (test_points + moments)
        nan_rows = [(r["T"], r["p"], r["arg"]) for r in rows if math.isnan(r["value"])]
        assert sorted(nan_rows) == [(T, p, 3.0) for T in (5.0, 10.0, 20.0) for p in (2, 3)]
        assert err.count("note:") == 2 and "Traceback" not in err
        assert "p=2 moment 3" in err and "p=3 moment 3" in err
        ecfg = ExperimentConfig.from_dict(json.loads(EXAMPLE.read_text()))
        for r in rows:
            if r["kind"] == "indicator_le":
                ec = expansion_coefficients(r["p"], ecfg.table(r["T"]))
                assert r["value"] == cdf(r["arg"], ec)


class TestSimulateCommand:
    def test_path_files_written(self, write_config, tmp_path):
        cfg = base_config(T_grid=[2.0], sim={"n_steps": 8, "n_paths": 3})
        assert run_cli("simulate", write_config(cfg), tmp_path) == 0
        for i in range(3):
            lines = (tmp_path / f"path_{i:03d}.csv").read_text().strip().split("\n")
            assert lines[0] == "t,X,Y"
            assert len(lines) == 10
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert len(summary["deviations"]) == 3

    def test_path_file_round_trips(self, write_config, tmp_path):
        # float() of every written value gives back the sampled path exactly
        cfg = base_config(T_grid=[5.0], sim={"n_steps": 10_000, "n_paths": 1})
        assert run_cli("simulate", write_config(cfg), tmp_path) == 0
        ecfg = ExperimentConfig.from_dict(cfg)
        seed = int(np.random.SeedSequence(ecfg.seed, spawn_key=(0,)).generate_state(1)[0])
        path = sample_path(ecfg.params, ecfg.driver, 5.0, 10_000, seed=seed)
        lines = (tmp_path / "path_000.csv").read_text().splitlines()
        assert lines[0] == "t,X,Y" and len(lines) == 10_002
        t, X, Y = (np.array(col) for col in zip(*(map(float, line.split(","))
                                                   for line in lines[1:])))
        assert np.array_equal(t, path.times)
        assert np.array_equal(X, path.X) and np.array_equal(Y, path.Y)
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["deviations"] == [path.deviation]

    def test_benchmark_op_writes_the_recorded_bytes(self, tmp_path):
        # the benchmark's explore simulate op: four 100k-step paths, whose
        # time column the command's writer formats once
        canary = float_canary()
        if canary not in SIMULATE_DIGESTS:
            pytest.skip(f"no digests recorded under float canary {canary}")
        assert run_cli("simulate", EXAMPLE, tmp_path, "--set", "sim.n_steps=100000",
                       "--set", "sim.n_paths=4", "--seed", "4242", "--workers", "2") == 0
        got = tuple(hashlib.sha256((tmp_path / f"path_{i:03d}.csv").read_bytes()).hexdigest()
                    for i in range(4))
        assert got == SIMULATE_DIGESTS[canary]


class TestValidateCommand:
    def test_smoke_run(self, write_config, tmp_path):
        cfg = base_config(n_samples=100)
        assert run_cli("validate", write_config(cfg), tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        import jsonschema
        jsonschema.validate(report, REPORT_SCHEMA)
        csv_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "T,a,p,empirical,se,psi_p,gap,informative"
        # meta names the arithmetic the bytes came from
        assert report["meta"]["float_canary"] == float_canary()
        assert re.fullmatch("[0-9a-f]{16}", report["meta"]["float_canary"])

    def test_strict_passes_on_clean_run(self, write_config, tmp_path):
        cfg = base_config(n_samples=2000)
        assert run_cli("validate", write_config(cfg), tmp_path, "--strict") == 0

    def test_strict_fails_with_wrong_cumulant(self, write_config, tmp_path, k2_of_40):
        cfg = base_config(n_samples=5000)
        assert run_cli("validate", write_config(cfg), tmp_path, "--strict") == 4
        # without --strict the run still completes
        assert run_cli("validate", write_config(cfg), tmp_path) == 0

    def test_seed_repetition_identical_files(self, write_config, tmp_path):
        path = write_config(base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("validate", path, out1, "--seed", "7") == 0
        assert run_cli("validate", path, out2, "--seed", "7") == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_worker_count_does_not_change_bytes(self, write_config, tmp_path):
        path = write_config(base_config(n_samples=2 * CHUNK + 1))  # three chunks
        files = set()
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            assert run_cli("validate", path, out, "--workers", str(workers)) == 0
            files.add((out / "report.csv").read_bytes())
        assert len(files) == 1


class TestThetaHatCommand:
    def test_runs_with_required_shape(self, write_config, tmp_path):
        cfg = base_config(params={"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": 0.0},
                          T_grid=[10.0], n_samples=2000)
        assert run_cli("theta-hat", write_config(cfg), tmp_path) == 0
        data = json.loads((tmp_path / "theta_hat.json").read_text())
        assert data["theta0"] == 1.0
        assert math.isfinite(data["summary"]["ks_order3"])
        assert data["config_hash"] == ExperimentConfig.from_dict(cfg).config_hash()

    def test_wrong_shape_is_config_error(self, write_config, tmp_path):
        assert run_cli("theta-hat", write_config(base_config()), tmp_path) == 2

    def test_worker_count_does_not_change_bytes(self, write_config, tmp_path):
        cfg = base_config(params={"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": 0.0},
                          T_grid=[10.0], n_samples=2 * CHUNK + 1)  # three chunks
        path = write_config(cfg)
        files = set()
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            assert run_cli("theta-hat", path, out, "--workers", str(workers)) == 0
            files.add((out / "theta_hat.json").read_bytes())
        assert len(files) == 1

    def test_benchmark_op_writes_the_recorded_bytes(self, tmp_path):
        # the benchmark's explore theta-hat op at the example's own seed
        canary = float_canary()
        if canary not in THETA_HAT_DIGESTS:
            pytest.skip(f"no digest recorded under float canary {canary}")
        assert run_cli("theta-hat", EXAMPLE, tmp_path, "--set", "params.rho=0",
                       "--set", "T_grid=[50]", "--set", "n_samples=100000",
                       "--workers", "2") == 0
        got = hashlib.sha256((tmp_path / "theta_hat.json").read_bytes()).hexdigest()
        assert got == THETA_HAT_DIGESTS[canary]


class TestConvergeCommand:
    def test_writes_table_and_slopes(self, write_config, tmp_path):
        cfg = base_config(T_grid=[10.0, 100.0, 1000.0, 10000.0])
        assert run_cli("converge", write_config(cfg), tmp_path) == 0
        lines = (tmp_path / "converge.csv").read_text().strip().split("\n")
        assert lines[0] == "r,T,scaled,limit,gap"
        slopes = json.loads((tmp_path / "converge_slopes.json").read_text())
        assert -1.2 <= slopes["2"] <= -0.8

    def test_too_few_horizons_is_config_error(self, write_config, tmp_path):
        assert run_cli("converge", write_config(base_config(T_grid=[1.0, 10.0])),
                       tmp_path) == 2

    def test_repeated_horizons_are_config_error(self, write_config, tmp_path, capsys):
        # one distinct horizon leaves the log-log slopes undetermined
        assert run_cli("converge", write_config(base_config(T_grid=[5.0, 5.0, 5.0])),
                       tmp_path) == 2
        assert "3 distinct horizons" in capsys.readouterr().err
        assert list(tmp_path.glob("converge*")) == []


def test_set_override_reaches_nested_keys(write_config, tmp_path):
    path = write_config(base_config())
    assert main(["cumulants", "--config", path, "--out", str(tmp_path),
                 "--format", "json", "--set", "params.lam=2.0"]) == 0
    rows = json.loads((tmp_path / "cumulants.json").read_text())["rows"]
    # lam = 2 changes every cumulant away from the lam = 1 values
    assert all(math.isfinite(r["cumulant"]) for r in rows)
