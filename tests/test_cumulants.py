"""Closed-form engine against quadrature oracles and frozen constants."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levyou import (
    CumulantKind,
    CumulantVector,
    ModelParams,
    cumulant_table,
    driver_cumulants,
    integrated_decay,
    kernel_weight_integral,
    normalized_cumulant,
    normalized_cumulant_limit,
    stationary_cumulants,
    wiener_nondegeneracy_det,
)
from levyou.cumulants import R_MAX, gauss_legendre

from conftest import random_stationary_cumulants


def kernel_weight(lam, beta, rho, v):
    """Quadrature-side integrand (rho + beta * (1-exp(-lam*v))/lam)."""
    return rho + beta * (-math.expm1(-lam * v)) / lam


def decimal_oracle(r, lam, beta, rho, T):
    """(W, S, k_T) at 150 digits from the binomial closed form, where W is
    int_0^T (rho + beta k(v))**r dv, S the same with |rho| and |beta| (a
    scale that cannot cancel) and k_T = k(T), with
    int_0^T k(v)**j dv = lam**-j (T - lam**-1 sum_{i<=j} (lam k(T))**i / i)."""
    with localcontext() as ctx:
        ctx.prec = 150
        lam, beta, rho, T = map(Decimal, (lam, beta, rho, T))
        y = 1 - (-lam * T).exp()
        powers = [T] + [(T - sum(y ** i / i for i in range(1, j + 1)) / lam) / lam ** j
                        for j in range(1, r + 1)]
        terms = [(math.comb(r, j) * beta ** j * powers[j], rho ** (r - j) if j < r else 1)
                 for j in range(r + 1)]  # Decimal 0 ** 0 is an invalid operation
        return (sum(c * f for c, f in terms), sum(abs(c * f) for c, f in terms), y / lam)


class TestModelParams:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ModelParams(lam=0.0, gamma=0.0, beta=1.0, rho=0.0)
        with pytest.raises(ValueError):
            ModelParams(lam=-1.0, gamma=0.0, beta=1.0, rho=0.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, gamma=0.0, beta=0.0, rho=0.0)
        with pytest.raises(ValueError):
            ModelParams(lam=1.0, gamma=math.nan, beta=1.0, rho=0.0)

    def test_degenerate_flag(self):
        assert ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=-1.0).degenerate
        assert ModelParams(lam=2.0, gamma=0.0, beta=3.0, rho=-1.5).degenerate
        assert not ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5).degenerate
        # construction succeeds in the degenerate case
        p = ModelParams(lam=0.7, gamma=1.0, beta=-0.7, rho=1.0)
        assert p.degenerate


class TestIntegratedDecay:
    def test_zero_at_origin(self):
        assert integrated_decay(1.0, 0.0) == 0.0

    def test_saturates_at_inverse_rate(self):
        assert abs(integrated_decay(2.0, 50.0) - 0.5) < 1e-12

    def test_frozen_value(self):
        # 1 - exp(-1), frozen from a 40-digit evaluation
        assert integrated_decay(1.0, 1.0) == pytest.approx(0.6321205588285577, abs=1e-15)

    def test_monotone_and_bounded(self):
        u = np.linspace(0.0, 20.0, 200)
        vals = integrated_decay(0.7, u)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals <= 1.0 / 0.7 + 1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integrated_decay(0.0, 1.0)
        with pytest.raises(ValueError):
            integrated_decay(1.0, -0.1)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 5, 24, 200])
    def test_integrates_polynomials_below_degree_2n(self, n):
        x, w = gauss_legendre(n)
        assert not x.flags.writeable and not w.flags.writeable
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.dot(w, x ** k) - exact) <= 1e-14 * 2.0 / (k + 1)


class TestDecayPowerMean:
    """Time averages (1/T) int_0^T integrated_decay(lam, v)**j dv, which are
    kernel_weight_integral(j, ...) / T at rho = 0, beta = 1."""

    @staticmethod
    def mean(j, lam, T):
        return kernel_weight_integral(j, ModelParams(lam=lam, gamma=0.0, beta=1.0, rho=0.0), T) / T

    def test_zeroth_power_is_one(self):
        # a negligible beta leaves the constant weight rho = 1, whose powers
        # all average to 1
        p = ModelParams(lam=0.7, gamma=0.0, beta=1e-300, rho=1.0)
        for r in (1, 4, R_MAX):
            assert kernel_weight_integral(r, p, 3.0) == 3.0

    def test_long_horizon_limit(self):
        # tends to lam**-j
        assert abs(self.mean(1, 1.0, 1e3) - 1.0) < 1e-2
        assert abs(self.mean(1, 1.0, 1e6) - 1.0) < 1e-5

    def test_quadrature_oracle(self):
        # must equal the time average of the kernel power
        got = self.mean(1, 1.0, 2.0)
        oracle, _ = quad(lambda v: integrated_decay(1.0, v), 0, 2,
                         epsabs=1e-13, epsrel=1e-12)
        assert abs(got - oracle / 2.0) / abs(oracle / 2.0) < 1e-10
        assert got == pytest.approx(0.5676676416183063, abs=1e-14)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_lam=st.floats(-3.0, 3.0), log_lam_t=st.floats(-8.0, 3.0),
           j=st.integers(1, 12))
    def test_quadrature_oracle_whole_domain(self, log_lam, log_lam_t, j):
        # lam*T in [1e-8, 1e3] spans both sides of the lam*T = 2 split
        lam = 10.0 ** log_lam
        T = 10.0 ** log_lam_t / lam
        oracle, _ = quad(lambda v: integrated_decay(lam, v) ** j, 0.0, T,
                         epsabs=0.0, epsrel=1e-13, limit=200)
        oracle /= T
        got = self.mean(j, lam, T)
        assert got > 0.0
        assert abs(got - oracle) <= 1e-10 * oracle

    def test_short_horizon_cumulant_keeps_its_sign(self):
        # rho = 0 leaves only positive terms in the integrand, so a negative
        # value could only come from cancellation
        params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        kf = CumulantVector(CumulantKind.STATIONARY, (1.0,) * 6)
        assert normalized_cumulant(6, params, kf, 1e-3) > 0.0


class TestStationaryCumulants:
    def test_gaussian(self):
        kz = CumulantVector(CumulantKind.DRIVER, (0.4, 2.0, 0.0, 0.0))
        kf = stationary_cumulants(kz, 2.0)
        assert kf.values == (0.2, 0.5, 0.0, 0.0)
        assert kf.kind is CumulantKind.STATIONARY

    def test_exponential_jumps_give_gamma_law(self):
        # Independent oracle: Gamma(shape c/lam, rate alpha) has cumulants
        # shape * (k-1)! / rate**k.
        c, alpha, lam = 1.5, 2.0, 0.75
        kz = CumulantVector(
            CumulantKind.DRIVER,
            tuple(c * math.factorial(k) / alpha ** k for k in range(1, 7)))
        kf = stationary_cumulants(kz, lam)
        shape = c / lam
        for k in range(1, 7):
            expected = shape * math.factorial(k - 1) / alpha ** k
            assert kf.get(k) == pytest.approx(expected, rel=1e-14)

    def test_zero_driver(self):
        kz = CumulantVector(CumulantKind.DRIVER, (0.0, 0.0, 0.0))
        assert stationary_cumulants(kz, 1.0).values == (0.0, 0.0, 0.0)

    def test_wrong_kind_rejected(self):
        kf = CumulantVector(CumulantKind.STATIONARY, (1.0, 1.0))
        with pytest.raises(ValueError):
            stationary_cumulants(kf, 1.0)


class TestKernelWeightIntegral:
    def test_frozen_drift_weight(self):
        # rho=0, beta=1, lam=1, T=1: integral is exp(-1)
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        assert kernel_weight_integral(1, p, 1.0) == pytest.approx(
            0.36787944117144233, abs=1e-14)

    def test_constant_weight_limit(self):
        # beta ~ 0 makes the weight essentially the constant rho
        p = ModelParams(lam=1.0, gamma=0.0, beta=1e-8, rho=1.0)
        assert abs(kernel_weight_integral(1, p, 5.0) - 5.0) < 1e-6
        assert abs(kernel_weight_integral(3, p, 5.0) - 5.0) < 1e-6

    def test_overflow_names_order_and_horizon(self):
        # A**2 = 1e400 in the finite sum at T = 5; quadrature at T = 1
        p = ModelParams(lam=1.0, gamma=0.0, beta=1e200, rho=0.5)
        for T in (5.0, 1.0):
            with pytest.raises(OverflowError, match=rf"^kernel weight integral of order 2 "
                                                    rf"at T={T!r} overflows$"):
                kernel_weight_integral(2, p, T)

    def test_quadrature_oracle_randomized(self, rng):
        for _ in range(10):
            lam = rng.uniform(0.3, 2.5)
            beta = rng.uniform(0.3, 2.0)
            rho = rng.uniform(0.0, 1.5)
            T = rng.uniform(2.0, 50.0)
            p = ModelParams(lam=lam, gamma=0.0, beta=beta, rho=rho)
            for r in range(1, 7):
                oracle, _ = quad(lambda v: kernel_weight(lam, beta, rho, v) ** r,
                                 0, T, epsabs=1e-13, epsrel=1e-13, limit=300)
                got = kernel_weight_integral(r, p, T)
                assert abs(got - oracle) / abs(oracle) < 1e-10

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(log_lam=st.floats(-3.0, 3.0), log_lam_t=st.floats(-8.0, 5.0),
           log_gap=st.floats(-8.0, 0.3), gap_sign=st.sampled_from([-1.0, 1.0]),
           log_beta=st.floats(-1.0, 1.0), beta_sign=st.sampled_from([-1.0, 1.0]),
           r=st.integers(1, R_MAX))
    def test_decimal_oracle_whole_domain(self, log_lam, log_lam_t, log_gap, gap_sign,
                                         log_beta, beta_sign, r):
        # lam*T in [1e-8, 1e5] on both sides of the lam*T = 2 split, and
        # beta + rho*lam down to 1e-8 of either sign, so the weight
        # rho + beta k(v) changes sign on [0, T] whenever the gap has beta's
        # sign.  An odd-order integral can vanish, so its error is measured
        # against S = int (|rho| + |beta| k)**r.
        lam = 10.0 ** log_lam
        T = 10.0 ** log_lam_t / lam
        beta = beta_sign * 10.0 ** log_beta
        rho = (gap_sign * 10.0 ** log_gap - beta) / lam
        params = ModelParams(lam=lam, gamma=0.0, beta=beta, rho=rho)
        w, s, k_T = decimal_oracle(r, lam, beta, rho, T)
        scale = abs(w) if r % 2 == 0 else s
        got = kernel_weight_integral(r, params, T)
        assert abs(Decimal(got) - w) <= Decimal(1e-12) * scale
        if r == 1:
            return
        kf = CumulantVector(CumulantKind.STATIONARY, (1.0,) * R_MAX)
        with localcontext() as ctx:
            ctx.prec = 150
            factor = Decimal(T) ** (Decimal(2 - r) / 2) / Decimal(T)
            bk = Decimal(beta) * k_T
            exact = factor * (bk ** r + Decimal(lam) * r * w)
            scale = factor * (abs(bk) ** r + Decimal(lam) * r * s)
        got = normalized_cumulant(r, params, kf, T)
        assert abs(Decimal(got) - exact) <= Decimal(1e-10) * (abs(exact) if r % 2 == 0 else scale)


class TestNormalizedCumulant:
    def test_vanishes_with_zero_cumulant(self):
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.3)
        kf = CumulantVector(CumulantKind.STATIONARY, (0.5, 1.0, 0.0, 0.0))
        assert normalized_cumulant(3, p, kf, 7.0) == 0.0

    def test_quadrature_oracle_randomized(self, rng):
        for _ in range(10):
            lam = rng.uniform(0.3, 2.5)
            sign = rng.choice([-1.0, 1.0])
            beta = sign * rng.uniform(0.3, 2.0)
            rho = sign * rng.uniform(0.0, 1.5)
            T = rng.uniform(2.0, 50.0)
            p = ModelParams(lam=lam, gamma=0.0, beta=beta, rho=rho)
            kf = random_stationary_cumulants(rng)
            k_T = integrated_decay(lam, T)
            for r in range(2, 7):
                integral, _ = quad(lambda v: kernel_weight(lam, beta, rho, v) ** r,
                                   0, T, epsabs=1e-13, epsrel=1e-13, limit=300)
                oracle = (T ** (-(r - 2) / 2.0)
                          * ((beta * k_T) ** r / T + lam * r * integral / T)
                          * kf.get(r))
                got = normalized_cumulant(r, p, kf, T)
                assert abs(got - oracle) / abs(oracle) < 1e-10

    def test_variance_approaches_limit(self):
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        kf = CumulantVector(CumulantKind.STATIONARY, (1.0, 1.0))
        assert abs(normalized_cumulant(2, p, kf, 1e3) - 2.0) < 0.01 * 2.0

    def test_order_errors(self):
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        kf = CumulantVector(CumulantKind.STATIONARY, (1.0, 1.0))
        with pytest.raises(ValueError):
            normalized_cumulant(3, p, kf, 1.0)
        with pytest.raises(ValueError):
            normalized_cumulant(R_MAX + 1, p, kf, 1.0)
        with pytest.raises(ValueError):
            normalized_cumulant(1, p, kf, 1.0)


class TestNormalizedCumulantLimit:
    def test_reference_variance_limit(self):
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        kf = CumulantVector(CumulantKind.STATIONARY, (1.0, 1.0))
        assert normalized_cumulant_limit(2, p, kf) == pytest.approx(2.0, abs=1e-14)

    def test_degenerate_limits_vanish(self):
        p = ModelParams(lam=2.0, gamma=0.0, beta=1.0, rho=-0.5)
        kf = CumulantVector(CumulantKind.STATIONARY, tuple([1.0] * 8))
        for r in range(2, 9):
            assert normalized_cumulant_limit(r, p, kf) == 0.0

    def test_convergence_at_large_horizon(self, gamma_ou, gamma_ou_kappa_f):
        params, _ = gamma_ou
        for r in (3, 4):
            scaled = 1e4 ** ((r - 2) / 2.0) * normalized_cumulant(
                r, params, gamma_ou_kappa_f, 1e4)
            limit = normalized_cumulant_limit(r, params, gamma_ou_kappa_f)
            assert abs(scaled - limit) < 0.005 * abs(limit)

    def test_scaled_gap_shrinks_on_horizon_grid(self, gamma_ou, gamma_ou_kappa_f):
        params, _ = gamma_ou
        for r in range(2, 9):
            limit = normalized_cumulant_limit(r, params, gamma_ou_kappa_f)
            gaps = [abs(T ** ((r - 2) / 2.0)
                        * normalized_cumulant(r, params, gamma_ou_kappa_f, T) - limit)
                    for T in (10.0, 1e2, 1e3, 1e4)]
            assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


class TestDegenerateRegime:
    def test_scaled_variance_bounded(self):
        # beta + rho*lam = 0: T * chi_2 stays bounded (by its monotone limit)
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=-1.0)
        kf = CumulantVector(CumulantKind.STATIONARY, (1.0, 1.0))
        bound = 2.0 * (p.beta / p.lam) ** 2 * kf.get(2)
        for T in (1.0, 10.0, 1e2, 1e3, 1e4):
            val = T * normalized_cumulant(2, p, kf, T)
            assert 0.0 < val <= bound * (1.0 + 1e-12)


class TestCumulantTable:
    def test_range_errors(self, gamma_ou, gamma_ou_kappa_f):
        params, _ = gamma_ou
        table = cumulant_table(4, params, gamma_ou_kappa_f, 5.0)
        assert table.order == 4
        with pytest.raises(ValueError):
            table.get(5)
        with pytest.raises(ValueError):
            table.get(1)


class TestWienerNondegeneracyDet:
    def test_zero_when_degenerate(self):
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=-1.0)
        assert wiener_nondegeneracy_det(1.0, p, 1.0) == 0.0

    def test_frozen_value(self):
        # (1/2)(e^2 - 1) - (e - 1)^2, frozen from a 40-digit evaluation
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        assert wiener_nondegeneracy_det(1.0, p, 1.0) == pytest.approx(
            0.24203560745276537, abs=1e-12)

    def test_positive_for_nondegenerate_draws(self, rng):
        count = 0
        while count < 1000:
            lam = rng.uniform(1e-3, 5.0)
            t0 = rng.uniform(1e-3, 5.0)
            beta = rng.uniform(-3.0, 3.0)
            rho = rng.uniform(-3.0, 3.0)
            if beta == 0 or abs(beta + rho * lam) <= 1e-3:
                continue
            C = rng.uniform(0.1, 4.0)
            p = ModelParams(lam=lam, gamma=0.0, beta=beta, rho=rho)
            assert wiener_nondegeneracy_det(C, p, t0) > 0.0
            count += 1

    def test_domain_errors(self):
        p = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.0)
        with pytest.raises(ValueError):
            wiener_nondegeneracy_det(0.0, p, 1.0)
        with pytest.raises(ValueError):
            wiener_nondegeneracy_det(1.0, p, 0.0)


def test_operations_are_pure(gamma_ou, gamma_ou_kappa_f):
    params, driver = gamma_ou
    a = normalized_cumulant(4, params, gamma_ou_kappa_f, 17.3)
    b = normalized_cumulant(4, params, gamma_ou_kappa_f, 17.3)
    assert a == b
    assert kernel_weight_integral(5, params, 17.3) == kernel_weight_integral(5, params, 17.3)
    assert driver_cumulants(driver, 6).values == driver_cumulants(driver, 6).values
