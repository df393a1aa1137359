"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with output visible:  pytest -s tests/test_acceptance.py
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from levyou import (
    CumulantTable,
    DriverSpec,
    ExperimentConfig,
    ModelParams,
    cumulant_table,
    density,
    driver_cumulants,
    expansion_coefficients,
    integrated_decay,
    k_statistics,
    mean_estimator_demo,
    normalized_cumulant,
    normalized_cumulant_limit,
    run_validation,
    sample_deviation,
    sample_path,
    stationary_cumulants,
    wiener_nondegeneracy_det,
)
from levyou.cli import main as cli_main
from levyou.cumulants import CumulantKind, CumulantVector

from test_edgeworth import brute_force_terms, charfn_series_residual, fd_stencil, gaussian_pdf

KS_LEVEL = 0.001


def _ok(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


def gamma_ou_model(rho):
    params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=rho)
    driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
    kappa_f = stationary_cumulants(driver_cumulants(driver, 6), params.lam)
    return params, driver, kappa_f


def test_01_cumulant_closed_form_vs_integral_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        lam = rng.uniform(0.3, 2.5)
        sign = rng.choice([-1.0, 1.0])
        beta = sign * rng.uniform(0.3, 2.0)
        rho = sign * rng.uniform(0.0, 1.5)
        T = rng.uniform(2.0, 50.0)
        params = ModelParams(lam=lam, gamma=0.0, beta=beta, rho=rho)
        kappa_f = CumulantVector(CumulantKind.STATIONARY,
                                 tuple(rng.uniform(0.2, 3.0) for _ in range(6)))
        k_T = integrated_decay(lam, T)
        for r in range(2, 7):
            integral, _ = quad(
                lambda v: (rho + beta * integrated_decay(lam, v)) ** r,
                0, T, epsabs=1e-13, epsrel=1e-13, limit=300)
            oracle = (T ** (-(r - 2) / 2.0)
                      * ((beta * k_T) ** r / T + lam * r * integral / T)
                      * kappa_f.get(r))
            got = normalized_cumulant(r, params, kappa_f, T)
            worst = max(worst, abs(got - oracle) / abs(oracle))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    _ok(1, "cumulant closed form vs integral oracle",
        f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_limit_variance():
    params, _, kappa_f = gamma_ou_model(rho=0.0)
    sigma = normalized_cumulant(2, params, kappa_f, 1e3)
    limit = normalized_cumulant_limit(2, params, kappa_f)
    assert limit == pytest.approx(2.0, abs=1e-14)
    assert abs(sigma - 2.0) < 0.01 * 2.0
    _ok(2, "limit variance", f"Sigma_T(1e3) = {sigma:.5f} vs limit 2")


def test_03_mc_cumulant_match():
    t0 = time.perf_counter()
    params, driver, kappa_f = gamma_ou_model(rho=0.5)
    T, n = 10.0, 200_000
    samples = sample_deviation(params, driver, T, np.random.default_rng(303),
                               size=n) / math.sqrt(T)
    ks = k_statistics(samples, r_max=3)
    details = []
    for r in (2, 3):
        pred = normalized_cumulant(r, params, kappa_f, T)
        dev = abs(ks.values[r - 1] - pred)
        assert dev <= 4.0 * ks.se[r - 1]
        details.append(f"k{r} off by {dev / ks.se[r - 1]:.2f} SE")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(3, "MC cumulant match", f"{'; '.join(details)}, {elapsed:.1f}s")


def test_04_gaussian_exactness():
    params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5)
    driver = DriverSpec.gaussian(b=0.5, C=2.0)
    kappa_f = stationary_cumulants(driver_cumulants(driver, 4), params.lam)
    T = 5.0
    sigma = normalized_cumulant(2, params, kappa_f, T)
    assert normalized_cumulant(3, params, kappa_f, T) == 0.0
    assert normalized_cumulant(4, params, kappa_f, T) == 0.0
    samples = sample_deviation(params, driver, T, np.random.default_rng(404),
                               size=10_000) / math.sqrt(T)
    res = stats.kstest(samples, stats.norm(scale=math.sqrt(sigma)).cdf)
    assert res.pvalue > KS_LEVEL
    table = cumulant_table(4, params, kappa_f, T)
    ys = np.linspace(-8.0, 8.0, 641)
    g2 = density(ys, expansion_coefficients(2, table))
    g4 = density(ys, expansion_coefficients(4, table))
    assert np.array_equal(g2, g4)
    _ok(4, "gaussian exactness", f"KS p = {res.pvalue:.3f}, g_4 == g_2 pointwise")


def test_05_fourier_series_oracle():
    rng = np.random.default_rng(505)
    grid = np.linspace(-10.0, 10.0, 101)
    worst = 0.0
    for _ in range(20):
        sigma = rng.uniform(0.3, 3.0)
        values = (sigma,) + tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        table = CumulantTable(T=rng.uniform(1.0, 100.0), values=values)
        for p in (3, 4, 5):
            for u in grid:
                _, residual = charfn_series_residual(p, table, float(u))
                worst = max(worst, residual)
    assert worst < 1e-12
    _ok(5, "fourier series oracle", f"max residual {worst:.2e}")


def test_06_edgeworth_improvement():
    t0 = time.perf_counter()
    params, driver, _ = gamma_ou_model(rho=0.5)
    cfg = ExperimentConfig(params=params, driver=driver,
                           T_grid=(5.0, 10.0, 20.0), p_orders=(2, 3),
                           n_samples=1_000_000, seed=606,
                           test_points=(-1.0, 0.0, 1.0), workers=0)
    report = run_validation(cfg)
    gaps = {}
    for cell in report.cells:
        gaps.setdefault((cell["T"], cell["a"]), {})[cell["p"]] = cell
    improved = 0
    informative = 0
    for (T, a), by_p in sorted(gaps.items()):
        if not by_p[2]["informative"]:
            continue
        informative += 1
        if by_p[3]["gap"] <= by_p[2]["gap"]:
            improved += 1
    elapsed = time.perf_counter() - t0
    assert improved >= 8, f"only {improved} of {informative} informative cells improved"
    assert elapsed < 600.0
    _ok(6, "edgeworth improvement",
        f"{improved}/{informative} informative cells improved, {elapsed:.0f}s")


def test_07_degenerate_regime():
    params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=-1.0)
    assert params.degenerate
    driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
    kappa_f = stationary_cumulants(driver_cumulants(driver, 4), params.lam)
    bound = 2.0 * (params.beta / params.lam) ** 2 * kappa_f.get(2)
    scaled = [T * normalized_cumulant(2, params, kappa_f, T)
              for T in (1.0, 10.0, 1e2, 1e3)]
    assert all(0.0 < v <= bound * (1.0 + 1e-12) for v in scaled)
    T_grid = (1.0, 10.0, 100.0)
    variances = []
    for i, T in enumerate(T_grid):
        s = sample_deviation(params, driver, T, np.random.default_rng(700 + i),
                             size=100_000) / math.sqrt(T)
        variances.append(s.var(ddof=1))
    slope = float(np.polyfit(np.log(T_grid), np.log(variances), 1)[0])
    assert -1.15 <= slope <= -0.85
    _ok(7, "degenerate regime",
        f"T*Sigma_T in (0, {max(scaled):.3f}], var slope {slope:.3f}")


def test_08_hermite_and_composition_correctness():
    from levyou import hermite
    worst = 0.0
    for sigma in (0.7, 1.0, 2.5):
        h = 1e-2 * math.sqrt(sigma)
        for r in range(1, 6):
            offsets, weights = fd_stencil(r)
            for x in (0.4, 2.6):
                y = x * math.sqrt(sigma)
                fd = sum(w * gaussian_pdf(y + o * h, sigma)
                         for o, w in zip(offsets, weights)) / h ** r
                oracle = (-1.0) ** r * fd / gaussian_pdf(y, sigma)
                rel = abs(hermite(r, y, sigma) - oracle) / abs(oracle)
                worst = max(worst, rel)
                assert rel < 1e-4
    rng = np.random.default_rng(808)
    for p in range(3, 9):
        values = (rng.uniform(0.5, 2.0),) + tuple(rng.uniform(-2.0, 2.0)
                                                  for _ in range(p - 2))
        table = CumulantTable(T=7.0, values=values)
        got = dict(expansion_coefficients(p, table).terms)
        want = brute_force_terms(p, table)
        assert set(got) == set(want)
        for deg in want:
            assert got[deg] == pytest.approx(want[deg], rel=1e-13, abs=1e-15)
    _ok(8, "hermite and composition correctness", f"worst FD rel err {worst:.2e}")


def test_09_simulator_cross_validation():
    params = ModelParams(lam=1.0, gamma=0.2, beta=1.0, rho=0.5)
    drivers = {
        "gaussian": DriverSpec.gaussian(b=0.5, C=2.0),
        "cpexp": DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0),
        "mixed": DriverSpec.mixed(b=0.8, C=1.0, c=1.0, alpha=1.5),
    }
    T, n = 5.0, 10_000
    pvals = {}
    for name, driver in drivers.items():
        direct = sample_deviation(params, driver, T,
                                  np.random.default_rng(hash(name) % 2 ** 32), size=n)
        seeds = np.random.SeedSequence(900 + len(name)).generate_state(n)
        via_path = np.array([sample_path(params, driver, T, 8, seed=int(s)).deviation
                             for s in seeds])
        p = stats.ks_2samp(direct, via_path).pvalue
        assert p > KS_LEVEL, f"{name}: p = {p}"
        pvals[name] = p
    _ok(9, "simulator cross-validation",
        ", ".join(f"{k} p = {v:.3f}" for k, v in pvals.items()))


def test_10_determinism_across_workers(tmp_path):
    cfg = {
        "params": {"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": 0.5},
        "driver": {"variant": "cpexp", "b": 1.0, "c": 1.0, "alpha": 1.0},
        "T_grid": [5.0, 10.0],
        "p_orders": [2, 3],
        "n_samples": 20000,
        "seed": 1010,
        "test_points": [-1.0, 0.0, 1.0],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        code = cli_main(["validate", "--config", str(cfg_path), "--out", str(out),
                         "--workers", str(workers)])
        assert code == 0
        outs[workers] = (out / "report.csv").read_bytes()
    assert outs[1] == outs[4]
    _ok(10, "determinism across workers", f"{len(outs[1])} identical bytes")


def test_11_mean_estimator_demo():
    params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
    driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
    res = mean_estimator_demo(ExperimentConfig(params=params, driver=driver, T_grid=(50.0,),
                                               n_samples=100_000, seed=1111, workers=0))
    s = res.summary
    assert abs(s["bias"]) <= 4.0 * s["bias_se"]
    assert abs(s["var_scaled_error"] - s["var_predicted"]) <= 4.0 * s["var_se_boot"]
    _ok(11, "mean estimator demo",
        f"bias {s['bias']:+.2e} (se {s['bias_se']:.2e}), "
        f"var {s['var_scaled_error']:.4f} vs {s['var_predicted']:.4f}")


def test_12_nondegeneracy_diagnostic():
    rng = np.random.default_rng(1212)
    count = 0
    while count < 1000:
        lam = rng.uniform(1e-3, 5.0)
        t0 = rng.uniform(1e-3, 5.0)
        beta = rng.uniform(-3.0, 3.0)
        rho = rng.uniform(-3.0, 3.0)
        if beta == 0 or abs(beta + rho * lam) <= 1e-3:
            continue
        params = ModelParams(lam=lam, gamma=0.0, beta=beta, rho=rho)
        assert wiener_nondegeneracy_det(rng.uniform(0.1, 4.0), params, t0) > 0.0
        count += 1
    degenerate = ModelParams(lam=2.0, gamma=0.0, beta=1.0, rho=-0.5)
    assert wiener_nondegeneracy_det(1.0, degenerate, 1.0) == 0.0
    _ok(12, "nondegeneracy diagnostic", "1000 positive draws, exact zero at degeneracy")
