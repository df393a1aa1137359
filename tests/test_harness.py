"""Estimators, report plumbing, determinism, and the estimator demo."""

import io
import math
import tracemalloc

import jsonschema
import numpy as np
import pytest
from scipy import stats

from levyou import (
    DriverSpec,
    ExperimentConfig,
    KStatistics,
    ModelParams,
    convergence_study,
    draw_normalized_samples,
    driver_cumulants,
    estimate_indicator,
    k_statistics,
    mean_estimator_demo,
    normalized_cumulant,
    run_validation,
    stationary_cumulants,
)
from levyou.config import REPORT_SCHEMA
from levyou.harness import _pairwise_sum

from conftest import base_config


class TestEstimateIndicator:
    def test_all_below_threshold(self):
        est, se = estimate_indicator(np.array([-3.0, -2.0, -1.0]), 0.0)
        assert (est, se) == (1.0, 0.0)

    def test_two_point_sample(self):
        est, se = estimate_indicator(np.array([-1.0, 1.0]), 0.0)
        assert est == 0.5
        assert se == pytest.approx(0.3535533905932738, abs=1e-15)

    def test_normal_median(self):
        samples = np.random.default_rng(0).standard_normal(1_000_000)
        est, se = estimate_indicator(samples, 0.0)
        assert abs(est - 0.5) <= 4.0 * se

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_indicator(np.array([1.0]), 0.0)


# sample sizes around the 2^15-sample blocks of k_statistics and numpy's
# 8-aligned pairwise splits
BLOCK_EDGES = [4, 5, 127, 128, 129, 2**15, 2**15 + 1, 2**16 + 8, 100_003, 1_000_000]


class TestKStatistics:
    def test_constant_sample(self):
        ks = k_statistics(np.full(50, 2.5), r_max=4)
        assert tuple(ks.values) == (2.5, 0.0, 0.0, 0.0)
        assert tuple(ks.se[1:]) == (0.0, 0.0, 0.0)
        # non-dyadic constants leave only rounding residue in the mean
        ks = k_statistics(np.full(50, 3.3), r_max=4)
        assert np.all(np.abs(ks.values[1:]) < 1e-25)

    def test_two_point_variance(self):
        # k2 = n*m2/(n-1): exactly 2 for the sample {-1, 1}
        ks = k_statistics(np.array([-1.0, 1.0]), r_max=2)
        assert ks.values[1] == 2.0
        big = np.tile([-1.0, 1.0], 500)
        ks = k_statistics(big, r_max=2)
        assert ks.values[1] == pytest.approx(big.size / (big.size - 1), rel=1e-14)

    def test_exponential_cumulants(self):
        # Exp(1) has cumulants (r-1)!: (1, 1, 2, 6)
        samples = np.random.default_rng(11).exponential(1.0, 1_000_000)
        ks = k_statistics(samples, r_max=4)
        for i, expected in enumerate((1.0, 1.0, 2.0, 6.0)):
            assert abs(ks.values[i] - expected) <= 5.0 * ks.se[i]

    def test_insufficient_sample(self):
        with pytest.raises(ValueError):
            k_statistics(np.array([1.0, 2.0, 3.0]), r_max=4)
        with pytest.raises(ValueError):
            k_statistics(np.array([1.0]), r_max=1)

    @pytest.mark.parametrize("law, n_var, rel", [
        # n * Var(k_r) -> these limits (Kendall & Stuart vol. 1, ch. 12):
        # N(0,1): 1, 2, 6, 24; Exp(1), r <= 3: 1, 8, 216
        ("normal", (1.0, 2.0, 6.0, 24.0), 0.03),
        ("exponential", (1.0, 8.0, 216.0), 0.05),
    ])
    def test_se_matches_asymptotic_variance(self, law, n_var, rel):
        rng = np.random.default_rng(31)
        n = 1_000_000
        x = rng.standard_normal(n) if law == "normal" else rng.exponential(1.0, n)
        ks = k_statistics(x, r_max=len(n_var))
        np.testing.assert_allclose(math.sqrt(n) * ks.se, np.sqrt(n_var), rtol=rel)

    def test_se_matches_numerical_influence_function(self):
        # IF_r(x_i) is the derivative in eps of the plug-in cumulant at the
        # empirical law moved by eps towards a point mass at x_i
        x = np.random.default_rng(5).exponential(1.0, 40)
        n, eps = x.size, 1e-6
        uniform, point = np.full(n, 1.0 / n), np.eye(n)
        infl = np.array([(plug_in_cumulants(x, (1 - eps) * uniform + eps * point[i])
                          - plug_in_cumulants(x, (1 + eps) * uniform - eps * point[i]))
                         / (2 * eps) for i in range(n)])
        np.testing.assert_allclose(k_statistics(x).se, np.sqrt(np.mean(infl ** 2, axis=0) / n),
                                   rtol=1e-6)

    @pytest.mark.parametrize("driver", [
        DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0),
        DriverSpec.mixed(b=1.5, C=2.0, c=1.0, alpha=1.0),
    ], ids=["cpexp", "mixed"])
    def test_coverage_of_1_96_se(self, driver):
        # |k_r - kappa_r| <= 1.96 se should hold in 95% of independent runs;
        # the count over n_runs must lie in the central 99.9% binomial band
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5)
        T, n_runs = 10.0, 200
        kf = stationary_cumulants(driver_cumulants(driver, 4), params.lam)
        kappa = np.array([0.0] + [normalized_cumulant(r, params, kf, T) for r in (2, 3, 4)])
        hits = np.zeros(4, dtype=int)
        for seed in range(n_runs):
            ks = k_statistics(draw_normalized_samples(params, driver, T, 20_000, seed))
            hits += np.abs(ks.values - kappa) <= 1.96 * ks.se
        lo, hi = stats.binom.interval(0.999, n_runs, 0.95)
        assert np.all((lo <= hits) & (hits <= hi)), hits

    def test_se_agrees_with_bootstrap(self, gamma_ou):
        params, driver = gamma_ou
        samples = draw_normalized_samples(params, driver, 10.0, 100_000, seed=8)
        ks = k_statistics(samples)
        np.testing.assert_allclose(ks.se, bootstrap_se(samples, np.random.default_rng(9)),
                                   rtol=0.2)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_equals_the_whole_array_formulas(self, n):
        # rounding in every sum shows up in the last bits unless the block
        # sums are combined in add.reduce's own order
        rng = np.random.default_rng(n)
        x = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n) - 2.0
        for r_max in range(1, 5):
            got, want = k_statistics(x, r_max), reference_k_statistics(x, r_max)
            assert np.array_equal(got.values, want.values), (r_max, got.values, want.values)
            assert np.array_equal(got.se, want.se), (r_max, got.se, want.se)

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_pairwise_sum_is_numpys_order(self, n):
        # pins numpy's split rule: should a numpy release change it, this
        # fails instead of the report bytes moving silently
        x = np.random.default_rng(n + 1).standard_normal(n) * 1e6 + 0.1
        assert _pairwise_sum(lambda i, j: np.add.reduce(x[i:j]), n) == np.add.reduce(x)

    def test_memory_stays_block_sized(self):
        # the whole-array formulas peak at ~30 MB of temporaries here
        x = np.random.default_rng(3).standard_normal(1_000_000)
        tracemalloc.start()
        try:
            k_statistics(x, r_max=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


def reference_k_statistics(samples, r_max=4):
    """Reference: k-statistics and SEs from whole-array temporaries (n >= 4)."""
    n = samples.size
    mean = float(samples.mean())
    d = samples - mean
    d2 = d * d
    m2, m3, m4 = float(d2.mean()), float((d2 * d).mean()), float((d2 * d2).mean())
    values = [mean, n * m2 / (n - 1), n * n * m3 / ((n - 1) * (n - 2)),
              n * n * ((n + 1) * m4 - 3 * (n - 1) * m2 * m2) / ((n - 1) * (n - 2) * (n - 3))]
    influences = (d, d2 - m2, d2 * d - m3 - 3.0 * m2 * d,
                  d2 * d2 - m4 - 4.0 * m3 * d - 6.0 * m2 * (d2 - m2))
    se = [math.sqrt(float(np.mean(np.square(f))) / n) for f in influences[:r_max]]
    return KStatistics(values=np.array(values[:r_max]), se=np.array(se))


def plug_in_cumulants(x, w):
    """Cumulants 1..4 of the discrete law with weights w (summing to 1) at x."""
    mean = w @ x
    d = x - mean
    m2, m3, m4 = w @ d ** 2, w @ d ** 3, w @ d ** 4
    return np.array([mean, m2, m3, m4 - 3.0 * m2 * m2])


def bootstrap_se(samples, rng, n_boot=200, r_max=4):
    """Reference: the standard deviation of each k-statistic over n_boot
    nonparametric bootstrap resamples."""
    n = samples.size
    boots = np.array([k_statistics(samples[rng.integers(0, n, n)], r_max).values
                      for _ in range(n_boot)])
    return boots.std(axis=0, ddof=1)


class TestExperimentConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(base_config(n_samples=50))
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(base_config(p_orders=[2, 13]))
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(base_config(T_grid=[-1.0]))

    def test_hash_stable_under_field_order(self):
        d1 = base_config()
        d2 = {k: d1[k] for k in reversed(list(d1))}
        d2["params"] = {k: d1["params"][k] for k in reversed(list(d1["params"]))}
        h1 = ExperimentConfig.from_dict(d1).config_hash()
        h2 = ExperimentConfig.from_dict(d2).config_hash()
        assert h1 == h2

    def test_hash_ignores_workers(self):
        h1 = ExperimentConfig.from_dict(base_config(workers=1)).config_hash()
        h2 = ExperimentConfig.from_dict(base_config(workers=8)).config_hash()
        assert h1 == h2

    def test_hash_sensitive_to_model(self):
        h1 = ExperimentConfig.from_dict(base_config()).config_hash()
        h2 = ExperimentConfig.from_dict(base_config(seed=100)).config_hash()
        assert h1 != h2

    @pytest.mark.parametrize("override", [
        {"sim": {"n_steps": 8}},
        {"sim": {"n_paths": 3}},
        {"density_grid": {"lo": -6.0, "hi": 6.0, "n": 121}},
        {"moments": [1, 2]},
    ])
    def test_hash_covers_output_fields(self, override):
        h1 = ExperimentConfig.from_dict(base_config()).config_hash()
        h2 = ExperimentConfig.from_dict(base_config(**override)).config_hash()
        assert h1 != h2

    @pytest.mark.parametrize("override", [
        {"sim": {"n_steps": 0}},
        {"sim": {"n_paths": 0}},
        {"density_grid": {"lo": -1.0, "hi": 1.0, "n": 0}},
        {"moments": [1, -1]},
    ])
    def test_rejects_values_below_schema_minimum(self, override):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(base_config(**override))

    def test_absent_optional_keys_take_defaults(self):
        explicit = base_config(density_grid={"lo": -6, "hi": 6, "n": 241},
                               moments=[1, 2, 3], sim={"n_steps": 64, "n_paths": 1})
        assert ExperimentConfig.from_dict(explicit) == ExperimentConfig.from_dict(base_config())


class TestDrawNormalizedSamples:
    def test_worker_count_does_not_change_samples(self, gamma_ou):
        params, driver = gamma_ou
        a = draw_normalized_samples(params, driver, 5.0, 20_000, seed=5, workers=1)
        b = draw_normalized_samples(params, driver, 5.0, 20_000, seed=5, workers=4)
        assert np.array_equal(a, b)

    def test_stream_tag_separates_horizons(self, gamma_ou):
        params, driver = gamma_ou
        a = draw_normalized_samples(params, driver, 5.0, 1000, seed=5, stream_tag=0)
        b = draw_normalized_samples(params, driver, 5.0, 1000, seed=5, stream_tag=1)
        assert not np.array_equal(a, b)

    def test_se_scales_like_root_n(self, gamma_ou):
        params, driver = gamma_ou
        ses = {}
        for n in (10_000, 100_000, 1_000_000):
            s = draw_normalized_samples(params, driver, 5.0, n, seed=17)
            ses[n] = estimate_indicator(s, 0.5)[1]
        for n in (10_000, 100_000):
            ratio = ses[n] / ses[10 * n]
            assert abs(ratio - math.sqrt(10.0)) <= 0.2 * math.sqrt(10.0)


class TestRunValidation:
    def test_smoke_run_emits_schema_valid_report(self):
        cfg = ExperimentConfig.from_dict(base_config(n_samples=100))
        report = run_validation(cfg)
        jsonschema.validate(report.to_json_dict(), REPORT_SCHEMA)
        assert not report.partial
        assert report.all_checks_passed()
        # one cell per (T, a, p)
        assert len(report.cells) == len(cfg.T_grid) * len(cfg.test_points) * len(cfg.p_orders)

    def test_csv_header_and_shape(self):
        cfg = ExperimentConfig.from_dict(base_config(n_samples=500))
        report = run_validation(cfg)
        buf = io.StringIO()
        report.write_cells_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "T,a,p,empirical,se,psi_p,gap,informative"
        assert len(lines) == 1 + len(report.cells)
        assert lines[1].split(",")[-1] in ("0", "1")

    def test_gaussian_gaps_statistically_zero(self, gaussian_model):
        # exact normality: every (T, a, p) gap inside 4 SE
        params, driver = gaussian_model
        cfg = ExperimentConfig(params=params, driver=driver, T_grid=(2.0, 8.0),
                               p_orders=(2, 3, 4), n_samples=20_000, seed=31,
                               test_points=(-1.0, 0.0, 1.0), workers=1)
        report = run_validation(cfg)
        for cell in report.cells:
            assert cell["gap"] <= 4.0 * cell["se"]
            assert not cell["informative"]

    def test_deterministic_across_workers(self, gamma_ou):
        params, driver = gamma_ou
        base = dict(params=params, driver=driver, T_grid=(3.0, 6.0),
                    p_orders=(2, 3), n_samples=10_000, seed=8,
                    test_points=(0.0, 1.0))
        r1 = run_validation(ExperimentConfig(**base, workers=1))
        r2 = run_validation(ExperimentConfig(**base, workers=4))
        d1, d2 = r1.to_json_dict(), r2.to_json_dict()
        del d1["meta"], d2["meta"]
        assert d1 == d2

    def test_cumulant_override_breaks_match_check(self, gamma_ou):
        params, driver = gamma_ou
        cfg = ExperimentConfig(params=params, driver=driver, T_grid=(5.0,),
                               p_orders=(2, 3), n_samples=20_000, seed=9,
                               test_points=(0.0,), workers=1,
                               cumulant_override=((2, 40.0),))
        report = run_validation(cfg)
        failed = {c["name"] for c in report.checks if not c["passed"]}
        assert "cumulant_match" in failed
        assert not report.all_checks_passed()

    def test_degenerate_flag_propagates(self):
        cfg = ExperimentConfig.from_dict(base_config(
            params={"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": -1.0}))
        report = run_validation(cfg)
        assert report.degenerate


class TestMeanEstimatorDemo:
    def test_parameter_enforcement(self, gamma_ou):
        params, driver = gamma_ou  # rho = 0.5 violates the required shape
        with pytest.raises(ValueError):
            mean_estimator_demo(params, driver, 10.0, 1000, seed=0)

    def test_bias_and_variance(self):
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
        res = mean_estimator_demo(params, driver, 20.0, 20_000, seed=13)
        s = res.summary
        assert abs(s["bias"]) <= 4.0 * s["bias_se"]
        assert abs(s["var_scaled_error"] - s["var_predicted"]) <= 4.0 * s["var_se_boot"]
        assert res.theta0 == 1.0

    def test_expansion_beats_normal_in_ks(self):
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
        res = mean_estimator_demo(params, driver, 10.0, 20_000, seed=14)
        assert res.summary["ks_order3"] <= res.summary["ks_normal"]


class TestConvergenceStudy:
    def test_gaussian_odd_orders_identically_zero(self, gaussian_model):
        params, driver = gaussian_model
        cfg = ExperimentConfig(params=params, driver=driver,
                               T_grid=(10.0, 100.0, 1000.0), n_samples=100,
                               seed=0, workers=1)
        study = convergence_study(cfg)
        rows3 = [r for r in study.rows if r["r"] == 3]
        assert all(r["scaled"] == 0.0 and r["limit"] == 0.0 and r["gap"] == 0.0
                   for r in rows3)
        assert study.slopes[3] is None

    def test_gap_decreases_and_slope_near_minus_one(self, gamma_ou):
        params, driver = gamma_ou
        cfg = ExperimentConfig(params=params, driver=driver,
                               T_grid=(10.0, 100.0, 1000.0, 10_000.0),
                               n_samples=100, seed=0, workers=1)
        study = convergence_study(cfg)
        gaps2 = [r["gap"] for r in study.rows if r["r"] == 2]
        assert all(a > b for a, b in zip(gaps2, gaps2[1:]))
        assert -1.2 <= study.slopes[2] <= -0.8

    def test_cumulant_override_applies(self, gamma_ou):
        params, driver = gamma_ou
        cfg = ExperimentConfig(params=params, driver=driver,
                               T_grid=(10.0, 100.0, 1000.0), n_samples=100,
                               seed=0, workers=1, cumulant_override=((2, 40.0),))
        study = convergence_study(cfg)
        assert all(r["scaled"] == 40.0 for r in study.rows if r["r"] == 2)

    def test_needs_three_horizons(self, gamma_ou):
        params, driver = gamma_ou
        cfg = ExperimentConfig(params=params, driver=driver, T_grid=(1.0, 10.0),
                               n_samples=100, seed=0, workers=1)
        with pytest.raises(ValueError):
            convergence_study(cfg)
