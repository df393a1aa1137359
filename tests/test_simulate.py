"""Exact-sampler validation: moment matches, KS tests, grid exactness."""

import hashlib
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from levyou import _kernels, simulate
from levyou import (
    DriverSpec,
    ExperimentConfig,
    ModelParams,
    cumulant_table,
    driver_cumulants,
    expected_terminal,
    integrated_decay,
    k_statistics,
    kernel_weight_integral,
    normalized_cumulant,
    sample_deviation,
    sample_path,
    sample_stationary_state,
    stationary_cumulants,
    write_path_csv,
)
from levyou.config import load_config
from levyou.harness import CHUNK

KS_LEVEL = 0.001
EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "example_gamma_ou.json"


def jump_counts(sampler, params, driver, span, seed, n):
    """Per-span jump counts of SAMPLERS[sampler](params, driver, span, seed,
    n), replayed by its documented draw order."""
    rng = np.random.default_rng(seed)
    if sampler == "path":
        sample_stationary_state(driver, params.lam, rng)
        n_normals = 2 * n
    else:
        sample_stationary_state(driver, params.lam, rng, size=n)
        n_normals = n
    if driver.C > 0:
        rng.standard_normal(n_normals)
    return rng.poisson(driver.c * span, n)


def sample_deviation_and_next(params, driver, span, seed, n):
    rng = np.random.default_rng(seed)
    return sample_deviation(params, driver, span, rng, size=n), rng.random()


def sample_path_xy(params, driver, span, seed, n):
    path = sample_path(params, driver, span * n, n, seed=seed)
    return path.X, path.Y


# The jump-drawing samplers over n spans of one length: n draws at T = span
# (with the stream's next double, for its final position), or the X and Y of
# one path of n steps of length span.
SAMPLERS = {"deviation": sample_deviation_and_next, "path": sample_path_xy}


def child_stream(rng):
    """The generator that `simulate._jump_runs` draws arrival times from,
    seeded by the next draw of rng."""
    return np.random.Generator(type(rng.bit_generator)(int(rng.integers(1 << 63))))


def replay_deviation(params, driver, T, rng, size):
    """sample_deviation(..., rng, size) replayed in its documented draw order,
    each kind of variate drawn as one block: the jumps' counts, then the
    child stream's seed, then every arrival time from the child, then every
    size from rng.  Returns each draw's part without jumps and its jump sum,
    the latter by math.fsum of the jump weights written out unfolded, with
    sizes by inversion."""
    lam, beta, rho = params.lam, params.beta, params.rho
    x0 = sample_stationary_state(driver, lam, rng, size=size)
    base = (beta * integrated_decay(lam, T) * x0 - T * (beta + rho * lam) * driver.b / lam
            + driver.b0 * kernel_weight_integral(1, params, T))
    if driver.C > 0:
        base = base + (math.sqrt(driver.C * kernel_weight_integral(2, params, T))
                       * rng.standard_normal(size))
    counts = rng.poisson(driver.c * T, size)
    to_horizon = T * child_stream(rng).random(counts.sum())  # T - (arrival time), in law
    sizes = -np.log(1.0 - rng.random(counts.sum())) / driver.alpha
    terms = ((rho + beta * (-np.expm1(-lam * to_horizon)) / lam) * sizes).tolist()
    ends = np.cumsum(counts)
    return base, np.array([math.fsum(terms[e - k:e]) for k, e in zip(counts, ends)])


def replay_path(params, driver, T, n_steps, rng):
    """X and Y of sample_path replayed in its documented draw order, each kind
    of variate drawn as one block (the arrival times from the child stream,
    as in replay_deviation) and the jumps of all steps summed at once."""
    lam, dt = params.lam, T / n_steps
    x0 = sample_stationary_state(driver, lam, rng)
    z1, z2 = rng.standard_normal(n_steps), rng.standard_normal(n_steps)
    counts = rng.poisson(driver.c * dt, n_steps)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    jt = child_stream(rng).random(counts.sum())
    js = np.log(1.0 - rng.random(counts.sum()))
    dxj, ij = _kernels.jump_step_sums(jt, js, offsets, lam, dt, driver.alpha)
    eta_d = integrated_decay(lam, dt)
    a11, a21, a22 = simulate._step_gaussian_cholesky(driver.C, lam, dt)
    g1 = a11 * z1 + driver.b0 * eta_d + dxj
    g2 = a21 * z1 + a22 * z2 + ij
    return _kernels.path_recursion(x0, math.exp(-lam * dt), eta_d,
                                   driver.b0 * (dt - eta_d) / lam, g1, g2,
                                   lam, params.beta, params.gamma, params.rho, dt)


def _pcg64_with_buffered_uint32():
    rng = np.random.default_rng(35)
    rng.integers(0, 1 << 32, dtype=np.uint32)  # leaves half an output buffered
    return rng


# numpy's five bit generators, and PCG64 with half an output buffered
STREAMS = {
    "PCG64": lambda: np.random.default_rng(35),
    "PCG64-uint32": _pcg64_with_buffered_uint32,
    "PCG64DXSM": lambda: np.random.Generator(np.random.PCG64DXSM(35)),
    "SFC64": lambda: np.random.Generator(np.random.SFC64(35)),
    "Philox": lambda: np.random.Generator(np.random.Philox(35)),
    "MT19937": lambda: np.random.Generator(np.random.MT19937(35)),
}


# The jumps benchmark model (c*T = 800 at T = 40) and the acceptance-06 model.
JUMPS_MODEL = (ModelParams(lam=0.5, gamma=0.1, beta=1.0, rho=0.5),
               DriverSpec.mixed(b=0.8, C=1.0, c=20.0, alpha=1.5))
ACC06_MODEL = (ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5),
               DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0))


def float_canary():
    """A digest of the elementwise exp, expm1 and log and the distributions
    the samplers draw from.  numpy's exp, expm1 and log take different code
    paths on different CPUs (AVX-512 or not) and versions, which move last
    bits of the draws; equal canaries mean the same arithmetic."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-40.0, 0.0, 1 << 16)
    parts = (np.expm1(x), np.exp(x), np.log(1.0 - rng.random(1 << 16)),
             rng.poisson(800.0, 4096), rng.poisson(0.8, 4096),
             rng.gamma(40.0, 1.0 / 1.5, 4096), rng.gamma(1.0, 1.0, 4096),
             rng.standard_normal(4096))
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()[:16]


def deviation_digest(model, T, n):
    """sha256 of n draws at seed 20261019 and the stream's next double."""
    rng = np.random.default_rng(20261019)
    draws = sample_deviation(*model, T, rng, size=n)
    return hashlib.sha256(draws.tobytes() + np.float64(rng.random()).tobytes()).hexdigest()


def path_digest(model, T, n_steps):
    path = sample_path(*model, T, n_steps, seed=20261019)
    return hashlib.sha256(path.X.tobytes() + path.Y.tobytes()).hexdigest()


# Each case's digest as the sampler gives it with arrival times from a child
# stream, sizes by inversion and the kernels' constants folded into their
# expm1 forms, recorded with numpy 2.4 on x86-64 under two float canaries:
# with and without numpy's AVX-512 exp, expm1 and log
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").  jumps-T40's
# drift takes the correctly rounded kernel weight W_1 = 96 + 4 e^{-20} at
# T = 40.
DIGEST_CASES = {
    # ~62 runs
    "jumps-T40": lambda: deviation_digest(JUMPS_MODEL, 40.0, 4096),
    # ~82k jumps: two runs
    "acc06-T20": lambda: deviation_digest(ACC06_MODEL, 20.0, 4096),
    # ~20k jumps: one run
    "acc06-T20-one-run": lambda: deviation_digest(ACC06_MODEL, 20.0, 1000),
    # 1000 steps holding ~80k jumps: two runs
    "path-T4000": lambda: path_digest(JUMPS_MODEL, 4000.0, 1000),
}
RECORDED_DIGESTS = {
    "af6c5de4a420a779": {
        "jumps-T40": "cbbd546c46e0f87e9b1e07167b2f9a5fa2ff14a25701eb8b48003ae2a4748c5e",
        "acc06-T20": "fdd6b1db6987df424eaa0c1b1211d1f5b36953aac68e47c885c23b6fab72c8b9",
        "acc06-T20-one-run": "d776863c8d8cc519279b1aecb2fec03ddf6303d61ddb68c7ee9fcba629561192",
        "path-T4000": "95fdb1673a6f8f96f4522611b49f8dedd46a5b8da4999e653db2be10a25ebd30",
    },
    "150bdcdaa4cc9966": {
        "jumps-T40": "12e564b45b7609dd32e6f3f3429f1e17f14c0baee086f53f5208292e3c10ff5d",
        "acc06-T20": "0c5902897023f56e07fa70c08917cbb65930551d8f9262cbfed72131120b30dd",
        "acc06-T20-one-run": "c0a37e1a1e70dde7b812daebd6a973577591948924e1a0a7b366361bf12ab48b",
        "path-T4000": "e0121f86acb1b9c49b60c05b3e7aeff50d2a7881b4d6b9eeb97ee750d4c686da",
    },
}


def path_deviations(params, driver, T, n_steps, n, seed):
    seeds = np.random.SeedSequence(seed).generate_state(n)
    return np.array([sample_path(params, driver, T, n_steps, seed=int(s)).deviation
                     for s in seeds])


class TestDriverSpec:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            DriverSpec.gaussian(b=0.0, C=0.0)
        with pytest.raises(ValueError):
            DriverSpec.cpexp(b=0.0, c=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            DriverSpec.cpexp(b=0.0, c=1.0, alpha=-1.0)
        with pytest.raises(ValueError):
            DriverSpec.mixed(b=0.0, C=0.0, c=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            DriverSpec(variant="stable")
        with pytest.raises(ValueError):
            DriverSpec(variant="cpexp", C=1.0, c=1.0, alpha=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["b", "C", "c", "alpha"])
    def test_non_finite_fields_are_refused(self, field, value):
        fields = {"b": 1.0, "C": 1.0, "c": 1.0, "alpha": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^driver {field} must be finite, got"):
            DriverSpec(variant="mixed", **fields)
        # a config built in code, whose driver the schema check does not see
        with pytest.raises(ValueError, match=f"^driver {field} must be finite, got"):
            ExperimentConfig(params=ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5),
                             driver=DriverSpec.mixed(**fields), T_grid=(5.0,))

    def test_raw_drift(self):
        assert DriverSpec.gaussian(b=0.7, C=1.0).b0 == 0.7
        assert DriverSpec.cpexp(b=1.0, c=2.0, alpha=4.0).b0 == 0.5


class TestDriverCumulants:
    def test_gaussian(self):
        kz = driver_cumulants(DriverSpec.gaussian(b=0.0, C=2.0), 4)
        assert kz.values == (0.0, 2.0, 0.0, 0.0)

    def test_exponential_jumps(self):
        kz = driver_cumulants(DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0), 3)
        assert kz.values == (1.0, 2.0, 6.0)

    def test_mixture_additivity(self):
        g = driver_cumulants(DriverSpec.gaussian(b=1.5, C=2.0), 5)
        j = driver_cumulants(DriverSpec.cpexp(b=0.0, c=1.0, alpha=1.0), 5)
        m = driver_cumulants(DriverSpec.mixed(b=1.5, C=2.0, c=1.0, alpha=1.0), 5)
        assert m.values == tuple(a + b for a, b in zip(g.values, j.values))

    def test_unit_increment_mc(self):
        # simulate Z_1 directly (drift + compound Poisson) and match the
        # first three cumulants by k-statistics
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
        rng = np.random.default_rng(1234)
        n = 200_000
        counts = rng.poisson(driver.c, n)
        jumps = rng.exponential(1.0 / driver.alpha, counts.sum())
        csum = np.concatenate(([0.0], np.cumsum(jumps)))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        z1 = driver.b0 + csum[offsets[1:]] - csum[offsets[:-1]]
        ks = k_statistics(z1, r_max=3)
        for i, expected in enumerate((1.0, 2.0, 6.0)):
            assert abs(ks.values[i] - expected) <= 5.0 * ks.se[i]


class TestStationarySampling:
    def test_gaussian_variance(self):
        rng = np.random.default_rng(7)
        x = sample_stationary_state(DriverSpec.gaussian(b=0.0, C=2.0), 1.0, rng, size=100_000)
        # kappa_F^(2) = C/(2 lam) = 1; SE of sample variance ~ sqrt(2/n)
        se = math.sqrt(2.0 / (x.size - 1))
        assert abs(x.var(ddof=1) - 1.0) <= 4.0 * se

    def test_exponential_jump_mean(self):
        rng = np.random.default_rng(8)
        x = sample_stationary_state(DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0), 1.0, rng,
                                    size=100_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) <= 4.0 * se

    def test_kstats_match_stationary_cumulants(self):
        # cross-module oracle over the mixed driver
        driver = DriverSpec.mixed(b=1.5, C=2.0, c=1.0, alpha=1.0)
        lam = 1.0
        kf = stationary_cumulants(driver_cumulants(driver, 4), lam)
        rng = np.random.default_rng(21)
        x = sample_stationary_state(driver, lam, rng, size=1_000_000)
        ks = k_statistics(x, r_max=4)
        for r in range(1, 5):
            assert abs(ks.values[r - 1] - kf.get(r)) <= 5.0 * ks.se[r - 1]


class TestSampleDeviation:
    def test_gaussian_case_is_exactly_normal(self, gaussian_model):
        params, driver = gaussian_model
        T = 5.0
        kf = stationary_cumulants(driver_cumulants(driver, 4), params.lam)
        sigma = normalized_cumulant(2, params, kf, T)
        rng = np.random.default_rng(3)
        s = sample_deviation(params, driver, T, rng, size=10_000) / math.sqrt(T)
        res = stats.kstest(s, stats.norm(scale=math.sqrt(sigma)).cdf)
        assert res.pvalue > KS_LEVEL

    def test_mean_zero_by_construction(self):
        params = ModelParams(lam=1.0, gamma=0.4, beta=1.0, rho=0.5)
        driver = DriverSpec.mixed(b=1.5, C=2.0, c=1.0, alpha=1.0)
        rng = np.random.default_rng(4)
        s = sample_deviation(params, driver, 10.0, rng, size=1_000_000) / math.sqrt(10.0)
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.mean()) <= 4.0 * se

    def test_kstats_match_closed_form(self, gamma_ou, gamma_ou_kappa_f):
        params, driver = gamma_ou
        T = 10.0
        rng = np.random.default_rng(5)
        s = sample_deviation(params, driver, T, rng, size=50_000) / math.sqrt(T)
        ks = k_statistics(s, r_max=3)
        for r in (2, 3):
            pred = normalized_cumulant(r, params, gamma_ou_kappa_f, T)
            assert abs(ks.values[r - 1] - pred) <= 5.0 * ks.se[r - 1]

    def test_kstats_match_closed_form_with_negative_rho_and_beta(self):
        # every jump weight rho + beta*k(s) is negative, and the folded
        # kernel subtracts (rho + beta/lam)/alpha < 0 from a negative term
        params = ModelParams(lam=0.7, gamma=0.1, beta=-1.2, rho=-0.4)
        driver = DriverSpec.cpexp(b=0.6, c=2.0, alpha=1.3)
        T = 6.0
        kf = stationary_cumulants(driver_cumulants(driver, 3), params.lam)
        table = cumulant_table(3, params, kf, T)
        rng = np.random.default_rng(36)
        s = sample_deviation(params, driver, T, rng, size=400_000) / math.sqrt(T)
        ks = k_statistics(s, r_max=3)
        for r, pred in enumerate((0.0, table.get(2), table.get(3)), start=1):
            assert abs(ks.values[r - 1] - pred) <= 5.0 * ks.se[r - 1], (r, ks.values, pred)

    def test_variance_identity_all_drivers(self):
        params = ModelParams(lam=0.9, gamma=0.1, beta=1.1, rho=0.3)
        drivers = [DriverSpec.gaussian(b=0.2, C=1.5),
                   DriverSpec.cpexp(b=1.0, c=1.2, alpha=1.5),
                   DriverSpec.mixed(b=0.5, C=1.0, c=0.8, alpha=2.0)]
        for i, driver in enumerate(drivers):
            kf = stationary_cumulants(driver_cumulants(driver, 4), params.lam)
            pred = normalized_cumulant(2, params, kf, 7.0)
            rng = np.random.default_rng(100 + i)
            s = sample_deviation(params, driver, 7.0, rng, size=100_000) / math.sqrt(7.0)
            ks = k_statistics(s, r_max=2)
            assert abs(ks.values[1] - pred) <= 5.0 * ks.se[1]

    def test_degenerate_variance_decays_like_one_over_t(self):
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=-1.0)
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
        T_grid = (1.0, 10.0, 100.0)
        variances = []
        for i, T in enumerate(T_grid):
            rng = np.random.default_rng(300 + i)
            s = sample_deviation(params, driver, T, rng, size=100_000) / math.sqrt(T)
            variances.append(s.var(ddof=1))
        slope = np.polyfit(np.log(T_grid), np.log(variances), 1)[0]
        assert -1.15 <= slope <= -0.85

    def test_reproducible(self, gamma_ou):
        params, driver = gamma_ou
        a = sample_deviation(params, driver, 5.0, np.random.default_rng(77), size=500)
        b = sample_deviation(params, driver, 5.0, np.random.default_rng(77), size=500)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sampler, block", [
        pytest.param(sampler, block, id=str(block) if sampler == "deviation" else f"path-{block}")
        for sampler in SAMPLERS for block in (1, 7, 1 << 16, 1 << 40)])
    def test_jump_block_does_not_change_draws(self, monkeypatch, sampler, block):
        params = ModelParams(lam=0.5, gamma=0.1, beta=1.0, rho=0.5)
        driver = DriverSpec.mixed(b=0.8, C=1.0, c=0.6, alpha=1.5)
        counts = jump_counts(sampler, params, driver, 5.0, 31, 2000)
        assert (counts == 0).any() and counts.max() > 7
        assert counts.sum() <= simulate.JUMP_BLOCK  # one block by default
        whole = SAMPLERS[sampler](params, driver, 5.0, 31, 2000)
        monkeypatch.setattr(simulate, "JUMP_BLOCK", block)
        blocked = SAMPLERS[sampler](params, driver, 5.0, 31, 2000)
        assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize("sampler, stream",
                             [pytest.param("deviation", s, id=s) for s in STREAMS]
                             + [pytest.param("path", "PCG64", id="path-PCG64")])
    def test_draws_replay_the_documented_stream(self, monkeypatch, sampler, stream, block):
        # c*T*size = 80,000 jumps: more than one block even at the default size
        params = ModelParams(lam=0.5, gamma=0.1, beta=1.0, rho=0.5)
        driver = DriverSpec.mixed(b=0.8, C=1.0, c=20.0, alpha=1.5)
        T, n = 4.0, 1000
        monkeypatch.setattr(simulate, "JUMP_BLOCK", block)
        rng, replay = STREAMS[stream](), STREAMS[stream]()
        if sampler == "path":
            # a path draws from default_rng(seed): 1000 steps of length T
            path = sample_path(params, driver, T * n, n, seed=35)
            X, Y = replay_path(params, driver, T * n, n, replay)
            assert np.array_equal(path.X, X) and np.array_equal(path.Y, Y)
            return
        got = sample_deviation(params, driver, T, rng, size=n)
        base, jumps = replay_deviation(params, driver, T, replay, n)
        assert np.all(np.abs(got - (base + jumps)) <= 1e-13 * (np.abs(base) + np.abs(jumps)))
        assert rng.random() == replay.random()  # same stream position
        # MT19937 draws 32-bit outputs, so its state keeps no buffered half
        assert (rng.bit_generator.state.get("has_uint32")
                == replay.bit_generator.state.get("has_uint32"))

    @pytest.mark.parametrize("stream", STREAMS)
    def test_restoring_the_state_repeats_the_draws(self, stream):
        # a call keeps nothing outside bit_generator.state (Generator.spawn,
        # for one, counts its children outside it), so restoring the state
        # repeats its draws and the stream's position after them
        params, driver = JUMPS_MODEL
        rng = STREAMS[stream]()
        state = rng.bit_generator.state
        first = sample_deviation(params, driver, 4.0, rng, size=500), rng.random()
        rng.bit_generator.state = state
        again = sample_deviation(params, driver, 4.0, rng, size=500), rng.random()
        assert np.array_equal(first[0], again[0]) and first[1] == again[1]

    @pytest.mark.parametrize("case", DIGEST_CASES)
    def test_draws_are_the_recorded_bytes(self, case):
        canary = float_canary()
        if canary not in RECORDED_DIGESTS:
            pytest.skip(f"no digests recorded under float canary {canary}")
        assert DIGEST_CASES[case]() == RECORDED_DIGESTS[canary][case]

    @pytest.mark.parametrize("stream", STREAMS)
    def test_jump_runs_hold_two_block_buffers(self, stream):
        # 4096 draws and a harness chunk at c*T = 800, ~60 and ~250 runs: the
        # runs share one arrival-time and one size buffer of JUMP_BLOCK
        # doubles, and the weights are built in the arrival times' buffer, so
        # no third jump-sized array is held, whichever bit generator draws
        # them.  The call holds about two arrays of one double per draw
        # besides; the bound allows four, which at both sizes leaves less room
        # than one more JUMP_BLOCK buffer would take.
        params, driver = JUMPS_MODEL
        for n in (4096, CHUNK):
            assert 4 * 8 * n - 2 * 8 * n < 8 * simulate.JUMP_BLOCK
            # a process's first call also counts ~0.8 MB of numpy's lazy imports
            sample_deviation(params, driver, 40.0, STREAMS[stream](), size=n)
            bound = 2 * 8 * simulate.JUMP_BLOCK + 4 * 8 * n
            tracemalloc.start()
            try:
                sample_deviation(params, driver, 40.0, STREAMS[stream](), size=n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, peak)

    def test_jump_memory_is_bounded_by_the_block(self):
        # a harness chunk at c*T = 800 and 3200: 13M and 52M jumps, whose
        # arrival times alone would take 105 and 419 MB as one block; and a
        # path at c*T = 2e6 on 64 and 1e5 steps, 16 MB of arrival times
        params = ModelParams(lam=0.5, gamma=0.1, beta=1.0, rho=0.5)
        for sampler, c, n in [("deviation", 20.0, CHUNK), ("deviation", 80.0, CHUNK),
                              ("path", 5e4, 64), ("path", 5e4, 100_000)]:
            driver = DriverSpec.mixed(b=0.8, C=1.0, c=c, alpha=1.5)
            bound = 4 * 8 * simulate.JUMP_BLOCK + 16 * 8 * n
            tracemalloc.start()
            try:
                SAMPLERS[sampler](params, driver, 40.0 / n if sampler == "path" else 40.0, 32, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (sampler, c, n, peak)

    def test_path_jump_sums_hold_three_blocks(self):
        # a path at c*T = 2e6 on 64 steps, runs of ~2 steps of ~31k jumps:
        # the run's two buffers, in which jump_step_sums builds its terms;
        # the bound leaves room for a third
        params = ModelParams(lam=0.5, gamma=0.1, beta=1.0, rho=0.5)
        driver = DriverSpec.mixed(b=0.8, C=1.0, c=5e4, alpha=1.5)
        n = 64
        bound = 3.5 * 8 * simulate.JUMP_BLOCK + 16 * 8 * n
        tracemalloc.start()
        try:
            sample_path(params, driver, 40.0, n, seed=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    def test_too_many_expected_jumps_is_refused_before_drawing(self, gamma_ou):
        params, _ = gamma_ou
        driver = DriverSpec.cpexp(b=1.0, c=1000.0, alpha=1.0)
        rng = np.random.default_rng(33)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="jumps"):
            sample_deviation(params, driver, 1e6, rng, size=CHUNK)
        assert rng.bit_generator.state == state

    def test_a_chunk_may_expect_65536_jumps_per_draw(self):
        # MAX_EXPECTED_JUMPS / CHUNK: the largest c*T a harness chunk may have
        per_draw = simulate.MAX_EXPECTED_JUMPS // CHUNK
        assert per_draw == 65536
        simulate._check_jump_budget(DriverSpec.cpexp(b=1.0, c=per_draw, alpha=1.0), 1.0, CHUNK)
        above = DriverSpec.cpexp(b=1.0, c=math.nextafter(per_draw, math.inf), alpha=1.0)
        with pytest.raises(ValueError, match="jumps"):
            simulate._check_jump_budget(above, 1.0, CHUNK)

    def test_one_draw_or_path_may_expect_2_to_the_28_jumps(self):
        # fewer draws than a chunk do not lift the per-draw limit: two draws
        # just above it expect about 2^29 jumps, within the call's limit
        driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
        for draws in (1, 2):
            simulate._check_jump_budget(driver, float(1 << 28), draws)
            with pytest.raises(ValueError, match="jumps"):
                simulate._check_jump_budget(driver, math.nextafter(1 << 28, math.inf), draws)

    def test_expected_jump_limit_is_inclusive(self, gamma_ou, monkeypatch):
        params, driver = gamma_ou  # c = 1
        monkeypatch.setattr(simulate, "MAX_EXPECTED_JUMPS", 1000)
        assert sample_deviation(params, driver, 10.0, np.random.default_rng(34),
                                size=100).shape == (100,)
        with pytest.raises(ValueError, match="jumps"):
            sample_deviation(params, driver, 10.0, np.random.default_rng(34), size=101)
        with pytest.raises(ValueError, match="jumps"):
            sample_path(params, driver, 1001.0, 4, seed=34)
        assert sample_path(params, driver, 1000.0, 4, seed=34).Y.shape == (5,)


class TestSamplePath:
    def test_zero_noise_flow_is_exact(self):
        # C -> 0+, no jumps, b = 0: X_t = exp(-lam t) x0 and Y is the
        # deterministic integral gamma*t + beta*k(t)*x0
        params = ModelParams(lam=0.8, gamma=0.3, beta=1.4, rho=0.6)
        driver = DriverSpec.gaussian(b=0.0, C=1e-30)
        path = sample_path(params, driver, 2.0, 16, seed=11, x0=1.0)
        t = path.times
        assert np.max(np.abs(path.X - np.exp(-params.lam * t))) < 1e-12
        y_exact = params.gamma * t + params.beta * (-np.expm1(-params.lam * t)) / params.lam
        assert np.max(np.abs(path.Y - y_exact)) < 1e-12

    @pytest.mark.parametrize("driver", [
        DriverSpec.gaussian(b=0.5, C=2.0),
        DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0),
        DriverSpec.mixed(b=0.8, C=1.0, c=1.0, alpha=1.5),
    ], ids=["gaussian", "cpexp", "mixed"])
    def test_terminal_identity_vs_direct_sampler(self, driver):
        params = ModelParams(lam=1.0, gamma=0.2, beta=1.0, rho=0.5)
        T, n = 5.0, 4000
        direct = sample_deviation(params, driver, T, np.random.default_rng(41), size=n)
        via_path = path_deviations(params, driver, T, 8, n, seed=42)
        assert stats.ks_2samp(direct, via_path).pvalue > KS_LEVEL

    def test_refinement_invariance(self, gamma_ou):
        params, driver = gamma_ou
        T, n = 5.0, 3000
        by_steps = {k: path_deviations(params, driver, T, k, n, seed=50 + k)
                    for k in (1, 10, 1000)}
        assert stats.ks_2samp(by_steps[1], by_steps[1000]).pvalue > KS_LEVEL
        assert stats.ks_2samp(by_steps[10], by_steps[1000]).pvalue > KS_LEVEL

    def test_terminal_state_is_stationary(self, gamma_ou):
        params, driver = gamma_ou
        n = 10_000
        seeds = np.random.SeedSequence(60).generate_state(n)
        x_T = np.array([sample_path(params, driver, 3.0, 4, seed=int(s)).X[-1]
                        for s in seeds])
        fresh = sample_stationary_state(driver, params.lam,
                                        np.random.default_rng(61), size=n)
        assert stats.ks_2samp(x_T, fresh).pvalue > KS_LEVEL

    def test_reproducible_and_starts_at_zero(self, gamma_ou):
        params, driver = gamma_ou
        a = sample_path(params, driver, 4.0, 32, seed=123)
        b = sample_path(params, driver, 4.0, 32, seed=123)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        assert a.deviation == b.deviation
        assert a.Y[0] == 0.0
        assert a.seed == 123

    def test_deviation_consistent_with_expected_terminal(self, gamma_ou):
        params, driver = gamma_ou
        path = sample_path(params, driver, 6.0, 12, seed=5)
        assert path.deviation == pytest.approx(
            path.Y[-1] - expected_terminal(params, driver, 6.0), abs=1e-12)

    def test_memory_holds_the_outputs_and_the_step_arrays(self):
        # the shipped example at 100k steps: X, Y and times, and the step
        # arrays g1 and g2, in which the step temporaries are built
        ecfg = ExperimentConfig.from_dict(load_config(EXAMPLE))
        n = 100_000
        sample_path(ecfg.params, ecfg.driver, ecfg.T_grid[0], 1000, seed=70)
        tracemalloc.start()
        try:
            sample_path(ecfg.params, ecfg.driver, ecfg.T_grid[0], n, seed=71)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * 8 * n, peak / (8 * n)

    @pytest.mark.parametrize("variant, bound", [("cpexp", 36), ("gaussian", 36), ("mixed", 45)],
                             ids=["cpexp", "gaussian", "mixed"])
    def test_path_memory_per_step(self, variant, bound):
        # tracemalloc peak in bytes per step of a 100k-step path of the
        # example model.  The kernel holds X, Y and the innovations g1 and g2
        # (32 B/step), built from only the parts the driver has; a mixed
        # driver's peak is earlier, while its Gaussian innovations wait for
        # the jump sums (41 B/step: g1, g2, the steps' jump offsets and the
        # two sums).  Each bound is the measured peak with less slack than
        # one more array of 8 B/step.
        ecfg = ExperimentConfig.from_dict(load_config(EXAMPLE))
        driver = {"cpexp": ecfg.driver, "gaussian": DriverSpec.gaussian(b=1.0, C=1.0),
                  "mixed": DriverSpec.mixed(b=1.0, C=1.0, c=1.0, alpha=1.0)}[variant]
        n = 100_000
        sample_path(ecfg.params, driver, ecfg.T_grid[0], 1000, seed=70)
        tracemalloc.start()
        try:
            sample_path(ecfg.params, driver, ecfg.T_grid[0], n, seed=71)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * n, peak / n

    def test_csv_dump(self, gamma_ou):
        params, driver = gamma_ou
        path = sample_path(params, driver, 1.0, 4, seed=2)
        buf = io.StringIO()
        write_path_csv(path, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,X,Y"
        assert len(lines) == 6  # header + 5 grid points
        t0, x0, y0 = (float(v) for v in lines[1].split(","))
        assert (t0, y0) == (0.0, 0.0)
        assert x0 == path.X[0]
