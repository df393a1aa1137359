"""Estimators, report plumbing, determinism, and the estimator demo."""

import decimal
import io
import math
import tracemalloc
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from scipy import stats

from levyou import (
    DriverSpec,
    ExperimentConfig,
    KStatistics,
    ModelParams,
    cdf,
    convergence_study,
    draw_normalized_samples,
    driver_cumulants,
    estimate_indicator,
    expansion_coefficients,
    k_statistics,
    mean_estimator_demo,
    normalized_cumulant,
    run_validation,
    stationary_cumulants,
)
from levyou import harness
from levyou.config import REPORT_SCHEMA
from levyou.harness import CHUNK, _ks_distance

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


# sample sizes around powers of two and numpy's 8-aligned pairwise splits
BLOCK_EDGES = [4, 5, 127, 128, 129, 2**15, 2**15 + 1, 2**16 + 8, 100_003, 1_000_000]

# draws whose k-statistics are held to the exact oracle: heavy and light
# tails, a large common offset, and the sampler's own output
ORACLE_LAWS = {
    "exp": lambda rng, n: rng.exponential(1.0, n) * 10.0 - 2.0,
    "normal": lambda rng, n: rng.standard_normal(n) + 1e3,
    "pareto": lambda rng, n: rng.pareto(5.0, n),
    "cpexp": lambda rng, n: draw_normalized_samples(
        ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5),
        DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0), 10.0, n, seed=n),
    "mixed": lambda rng, n: draw_normalized_samples(
        ModelParams(lam=0.5, gamma=0.1, beta=1.0, rho=0.5),
        DriverSpec.mixed(b=0.8, C=1.0, c=20.0, alpha=1.5), 10.0, n, seed=n),
}


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
        # draws over six decades: the slice sums' k-statistics equal the
        # whole-array formulas' up to the rounding that the oracle bounds
        rng = np.random.default_rng(n)
        assert_within_the_oracle_bound(
            rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n) - 2.0)

    @pytest.mark.parametrize("n", [4, 4095, 4096, 4097, 8193, 9000,
                                   CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("law", list(ORACLE_LAWS))
    def test_within_the_oracle_bound(self, law, n):
        # within one of the CHUNK-sized slices whose sums k_statistics
        # combines, and around their edges
        assert_within_the_oracle_bound(ORACLE_LAWS[law](np.random.default_rng(n), n))

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


EPS = Fraction(2) ** -52


def oracle_k_statistics(x):
    """Reference: the k-statistics k_1..k_4 of the float sample x and their
    SEs in exact rational arithmetic, each SE from the mean V_r of the
    squared influences IF_r (as in `k_statistics`) and a 60-digit square
    root, with the scale of each: for k_r, mean |x|, then the formula of k_r
    over absolute central moments; for an SE, the SE times W_r / V_r, W_r the
    polynomial of V_r in the central moments (as in `k_statistics`) with
    absolute coefficients and absolute central moments, so that a relative
    rounding of eps in W_r moves the SE by eps times its scale."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    scale = max(q for _, q in ratios)  # a power of two, so every x * scale is an integer
    xs = [p * (scale // q) for p, q in ratios]
    n, total = len(xs), sum(xs)
    y = [n * v - total for v in xs]  # d * n * scale, d = x - mean
    big = n * scale

    def k_stats(mean, m2, m3, m4, sign=-1):
        return [mean, n * m2 / (n - 1), n * n * m3 / ((n - 1) * (n - 2)),
                n * n * ((n + 1) * m4 + sign * 3 * (n - 1) * m2 * m2)
                / ((n - 1) * (n - 2) * (n - 3))]

    p2, p3, p4 = (sum(v ** k for v in y) for k in (2, 3, 4))
    values = k_stats(Fraction(total, big), *(Fraction(p, n * big ** k)
                                              for p, k in ((p2, 2), (p3, 3), (p4, 4))))
    a = {}  # absolute central moments mean |d|^k
    power = magnitude = list(map(abs, y))
    for k in range(2, 9):
        power = [u * v for u, v in zip(power, magnitude)]
        a[k] = Fraction(sum(power), n * big ** k)
    scales = k_stats(Fraction(sum(map(abs, xs)), big), a[2], a[3], a[4], sign=1)
    # n^(r-1) * big^r * IF_r for each draw, all integers
    squared = [
        Fraction(sum(v * v for v in y), big ** 2),
        Fraction(sum((n * v * v - p2) ** 2 for v in y), n ** 2 * big ** 4),
        Fraction(sum((n * v ** 3 - p3 - 3 * p2 * v) ** 2 for v in y), n ** 2 * big ** 6),
        Fraction(sum((n * n * v ** 4 - n * p4 - 4 * n * p3 * v - 6 * n * p2 * v * v
                      + 6 * p2 * p2) ** 2 for v in y), n ** 4 * big ** 8),
    ]
    mean_squared = [s / n for s in squared]
    spread = [a[2], a[4] + a[2] ** 2, a[6] + 6 * a[2] * a[4] + a[3] ** 2 + 9 * a[2] ** 3,
              a[8] + 12 * a[2] * a[6] + 8 * a[3] * a[5] + a[4] ** 2 + 48 * a[2] ** 2 * a[4]
              + 64 * a[2] * a[3] ** 2 + 36 * a[2] ** 4]
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        se = [Fraction((decimal.Decimal(v.numerator) / decimal.Decimal(v.denominator * n)).sqrt())
              for v in mean_squared]
    return values, se, scales, [s * w / v for s, w, v in zip(se, spread, mean_squared)]


def assert_within_the_oracle_bound(x):
    """Every value and SE of k_statistics(x) is within twice the whole-array
    formulas' own error of the exact one, or within 8 eps of its scale (see
    `oracle_k_statistics`: the rounding that any evaluation from rounded sums
    carries where the terms of k_r or of V_r cancel), and fewer orders give
    the same leading values and SEs."""
    got, ref = k_statistics(x), reference_k_statistics(x)
    values, se, value_scales, se_scales = oracle_k_statistics(x)
    for name, exact, scales, g, r in [("k", values, value_scales, got.values, ref.values),
                                      ("se", se, se_scales, got.se, ref.se)]:
        for i, (want, size) in enumerate(zip(exact, scales)):
            err_got, err_ref = (abs(Fraction(float(v)) - want) for v in (g[i], r[i]))
            bound = max(2 * err_ref, 8 * EPS * abs(size))
            assert err_got <= bound, (name, i + 1, float(err_got / size), float(err_ref / size))
    for r_max in (1, 2, 3):
        low = k_statistics(x, r_max)
        assert np.array_equal(low.values, got.values[:r_max])
        assert np.array_equal(low.se, got.se[:r_max])


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

    def test_worker_count_does_not_change_samples_of_many_runs(self):
        # c*T = 800: each whole chunk holds ~13M jumps, some 250 runs of the
        # jump buffers, while other threads draw other chunks
        params = ModelParams(lam=0.5, gamma=0.1, beta=1.0, rho=0.5)
        driver = DriverSpec.mixed(b=0.8, C=1.0, c=20.0, alpha=1.5)
        n = 2 * CHUNK + 1
        a = draw_normalized_samples(params, driver, 40.0, n, seed=6, workers=1)
        for workers in (2, 4):
            b = draw_normalized_samples(params, driver, 40.0, n, seed=6, workers=workers)
            assert np.array_equal(a, b), workers

    def test_whole_chunks_do_not_depend_on_n(self, gamma_ou):
        params, driver = gamma_ou
        a = draw_normalized_samples(params, driver, 5.0, 2 * CHUNK + 1, seed=5, workers=2)
        b = draw_normalized_samples(params, driver, 5.0, 3 * CHUNK, seed=5, workers=2)
        assert np.array_equal(a[:2 * CHUNK], b[:2 * CHUNK])

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
                    p_orders=(2, 3), n_samples=2 * CHUNK + 1, seed=8,
                    test_points=(0.0, 1.0))
        r1 = run_validation(ExperimentConfig(**base, workers=1))
        r2 = run_validation(ExperimentConfig(**base, workers=4))
        d1, d2 = r1.to_json_dict(), r2.to_json_dict()
        del d1["meta"], d2["meta"]
        assert d1 == d2

    def test_cumulant_override_breaks_match_check(self, gamma_ou, k2_of_40):
        params, driver = gamma_ou
        cfg = ExperimentConfig(params=params, driver=driver, T_grid=(5.0,),
                               p_orders=(2, 3), n_samples=20_000, seed=9,
                               test_points=(0.0,), workers=1)
        report = run_validation(cfg)
        failed = {c["name"] for c in report.checks if not c["passed"]}
        assert "cumulant_match" in failed
        assert not report.all_checks_passed()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stage", ["draws", "k_statistics"])
    def test_interrupt_keeps_the_completed_horizons(self, gamma_ou, monkeypatch, workers, stage):
        # interrupted while drawing the second horizon, or after its cells
        params, driver = gamma_ou
        cfg = ExperimentConfig(params=params, driver=driver, T_grid=(3.0, 6.0),
                               p_orders=(2, 3), n_samples=2 * CHUNK + 1, seed=8,
                               test_points=(0.0, 1.0), workers=workers)
        full = run_validation(cfg)
        draw, finish = harness.sample_deviation, harness._k_from_sums
        finish_calls = []

        def draws_but_the_second_horizon(params, driver, T, rng, size):
            if T == cfg.T_grid[1]:
                raise KeyboardInterrupt
            return draw(params, driver, T, rng, size=size)

        def k_statistics_of_the_first_horizon(rows, r_max):
            finish_calls.append(r_max)
            if len(finish_calls) == 2:
                raise KeyboardInterrupt
            return finish(rows, r_max=r_max)

        if stage == "draws":
            monkeypatch.setattr(harness, "sample_deviation", draws_but_the_second_horizon)
        else:  # each horizon's k-statistics come from its chunk sums after its cells
            monkeypatch.setattr(harness, "_k_from_sums", k_statistics_of_the_first_horizon)
        report = run_validation(cfg)
        assert report.partial and not full.partial
        assert len(report.cells) == 4 and {c["T"] for c in report.cells} == {3.0}
        assert [row["T"] for row in report.cumulants] == [3.0] * 4
        assert report.cells == full.cells[:4]
        assert report.cumulants == full.cumulants[:4]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_report_equals_the_whole_array_statistics(self, gamma_ou, workers):
        # the streamed chunk sums give the bits of k_statistics and
        # estimate_indicator on the horizon's whole draw array
        params, driver = gamma_ou
        cfg = ExperimentConfig(params=params, driver=driver, T_grid=(3.0, 6.0),
                               p_orders=(2, 3), n_samples=2 * CHUNK + 1, seed=8,
                               test_points=(-1.0, 0.0, 1.0), workers=workers)
        report = run_validation(cfg)
        for t_idx, T in enumerate(cfg.T_grid):
            draws = draw_normalized_samples(params, driver, T, cfg.n_samples, cfg.seed,
                                            stream_tag=t_idx)
            ks = k_statistics(draws, r_max=4)
            rows = [row for row in report.cumulants if row["T"] == T]
            assert [row["k_stat"] for row in rows] == ks.values.tolist()
            assert [row["se"] for row in rows] == ks.se.tolist()
            for cell in (c for c in report.cells if c["T"] == T):
                assert (cell["empirical"], cell["se"]) == estimate_indicator(draws, cell["a"])

    def test_memory_does_not_grow_with_the_draws(self, gamma_ou):
        # each chunk's draws are reduced to ~100 bytes of sums where they are
        # drawn; holding a horizon's draws would add 8 bytes each (2.8 MB here)
        params, driver = gamma_ou

        def peak(n):
            cfg = ExperimentConfig(params=params, driver=driver, T_grid=(5.0,),
                                   p_orders=(2, 3), n_samples=n, seed=12,
                                   test_points=(-1.0, 0.0, 1.0), workers=1)
            tracemalloc.start()
            try:
                run_validation(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # a first call also counts numpy's lazy imports
        growth = peak(400_000) - peak(50_000)
        assert growth < 0.3e6, growth

    def test_pending_chunks_do_not_grow_with_the_draws(self, gamma_ou):
        # 4M draws are 245 chunks, but at most a few are submitted ahead of
        # the one collected: only the ~100-byte row of each chunk's sums grows
        params, driver = gamma_ou

        def peak(n):
            cfg = ExperimentConfig(params=params, driver=driver, T_grid=(5.0,),
                                   p_orders=(2, 3), n_samples=n, seed=12,
                                   test_points=(-1.0, 0.0, 1.0), workers=1)
            tracemalloc.start()
            try:
                run_validation(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # a first call also counts numpy's lazy imports
        growth = peak(4_000_000) - peak(400_000)
        assert growth < 50e3, growth

    def test_degenerate_flag_propagates(self):
        cfg = ExperimentConfig.from_dict(base_config(
            params={"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": -1.0}))
        report = run_validation(cfg)
        assert report.degenerate


def ks_distance_formula(sorted_samples, ec):
    """Reference: _ks_distance from whole-array temporaries."""
    n = sorted_samples.size
    fx = cdf(sorted_samples, ec)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(upper - fx)), np.max(np.abs(fx - lower))))


class TestKSDistance:
    @pytest.fixture()
    def table(self, gamma_ou):
        params, driver = gamma_ou
        return ExperimentConfig(params=params, driver=driver, T_grid=(10.0,),
                                n_samples=1000, seed=0).table(10.0)

    @pytest.mark.parametrize("n", [1, 2**15 - 1, 2**15, 2**15 + 1, 100_000])
    def test_equals_the_whole_array_formula(self, table, n):
        x = np.sort(np.random.default_rng(n).gamma(2.0, 1.0, n) - 2.0)
        for p in (2, 3, 4):
            ec = expansion_coefficients(p, table)
            assert _ks_distance(x, ec) == ks_distance_formula(x, ec)

    def test_memory_stays_block_sized(self, table):
        # the whole-array formula peaks at ~65 MB of temporaries here
        ec = expansion_coefficients(3, table)
        x = np.sort(np.random.default_rng(4).standard_normal(1_000_000))
        tracemalloc.start()
        try:
            _ks_distance(x, ec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


class TestMeanEstimatorDemo:
    def test_parameter_enforcement(self, gamma_ou):
        params, driver = gamma_ou  # rho = 0.5 violates the required shape
        with pytest.raises(ValueError):
            mean_estimator_demo(ExperimentConfig(params=params, driver=driver, T_grid=(10.0,),
                                                 n_samples=1000, seed=0))

    def test_bias_and_variance(self):
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
        res = mean_estimator_demo(ExperimentConfig(params=params, driver=driver, T_grid=(20.0,),
                                                   n_samples=20_000, seed=13, workers=1))
        s = res.summary
        assert abs(s["bias"]) <= 4.0 * s["bias_se"]
        assert abs(s["var_scaled_error"] - s["var_predicted"]) <= 4.0 * s["var_se_boot"]
        assert res.theta0 == 1.0

    def test_expansion_beats_normal_in_ks(self):
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
        res = mean_estimator_demo(ExperimentConfig(params=params, driver=driver, T_grid=(10.0,),
                                                   n_samples=20_000, seed=14, workers=1))
        assert res.summary["ks_order3"] <= res.summary["ks_normal"]

    @pytest.mark.parametrize("n", [100, 2**15 + 1, 100_000])
    def test_theta_hat_fields_are_rescaled_k_statistics(self, n):
        # each theta-hat is theta0 + d / sqrt(T) for a draw d
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
        T = 50.0
        cfg = ExperimentConfig(params=params, driver=driver, T_grid=(T,),
                               n_samples=n, seed=17, workers=1)
        res = mean_estimator_demo(cfg)
        draws = draw_normalized_samples(params, driver, T, n, 17)
        k1, k2 = k_statistics(draws, r_max=2).values
        assert res.summary["bias"] == k1 / math.sqrt(T)
        assert res.theta_hat == res.theta0 + k1 / math.sqrt(T)
        assert res.summary["bias_se"] == math.sqrt(k2 / (T * n))
        # the same estimators as the theta-hats' mean and std(ddof=1)/sqrt(n)
        theta_hats = res.theta0 + draws / math.sqrt(T)
        assert res.summary["bias"] == pytest.approx(theta_hats.mean() - res.theta0,
                                                    rel=1e-12, abs=1e-15)
        assert res.summary["bias_se"] == pytest.approx(theta_hats.std(ddof=1) / math.sqrt(n),
                                                       rel=1e-12)

    def test_memory_holds_the_draws_and_a_block(self):
        # 100k draws: the draws with one run of jump buffers, then the draws
        # and block-sized k-statistic and KS passes (the draws are sorted in
        # place); whole-array theta-hats and their deviations would add two
        # more arrays of the draws' size
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)

        def config(n):
            return ExperimentConfig(params=params, driver=driver, T_grid=(50.0,),
                                    n_samples=n, seed=16, workers=1)

        n = 100_000
        mean_estimator_demo(config(1000))  # a first call also counts numpy's lazy imports
        tracemalloc.start()
        try:
            mean_estimator_demo(config(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n, peak / (8 * n)


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

    def test_needs_three_horizons(self, gamma_ou):
        params, driver = gamma_ou
        cfg = ExperimentConfig(params=params, driver=driver, T_grid=(1.0, 10.0),
                               n_samples=100, seed=0, workers=1)
        with pytest.raises(ValueError):
            convergence_study(cfg)
