"""Expansion machinery against brute-force enumeration and quadrature oracles."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval
from scipy.integrate import quad

from levyou import (
    CumulantKind,
    CumulantTable,
    CumulantVector,
    ExpansionCoefficients,
    ModelParams,
    TestFunction,
    cdf,
    cumulant_table,
    density,
    driver_cumulants,
    expansion_coefficients,
    expect,
    hermite,
    hermite_moment,
    stationary_cumulants,
)
from levyou import edgeworth
from levyou.edgeworth import negative_density_report


def gaussian_pdf(y, sigma):
    return math.exp(-0.5 * y * y / sigma) / math.sqrt(2.0 * math.pi * sigma)


def fd_stencil(r):
    """Central-difference weights for the r-th derivative, solved from the
    Taylor conditions sum_i w_i o_i^m = r! delta_{m,r} (order >= 4 accuracy)."""
    half = r // 2 + 2
    offsets = np.arange(-half, half + 1)
    rhs = np.zeros(offsets.size)
    rhs[r] = math.factorial(r)
    vandermonde = np.vstack([offsets ** m for m in range(offsets.size)])
    return offsets, np.linalg.solve(vandermonde, rhs)


def brute_force_terms(p, table):
    """Reference coefficients by Hermite degree: every ordered composition
    (k_1,...,k_l) of each k <= p-2, enumerated recursively, adds
    prod_i kappa_{k_i+2} / (l! * prod_i (k_i+2)!) at degree k+2l.  The sums
    are exact Fractions, rounded to float once at the end."""
    weight = {k: Fraction(table.get(k + 2)) / math.factorial(k + 2) for k in range(1, p - 1)}
    by_degree = {}

    def extend(k, l, prod):
        # prod is the product of the weights of a composition of k into l parts
        if l:
            by_degree[k + 2 * l] = by_degree.get(k + 2 * l, 0) + prod / math.factorial(l)
        for part in range(1, p - 1 - k):
            extend(k + part, l + 1, prod * weight[part])

    extend(0, 0, Fraction(1))
    return {deg: float(coeff) for deg, coeff in by_degree.items()}


def charfn_series_residual(p, table, u):
    """Fourier-side check of the expansion coefficients at frequency u.

    Returns (a) the Fourier transform of g_p,
    exp(-sigma u^2/2) * (1 + sum coeff * (iu)^degree), and (b) the modulus of
    its difference from the truncated exponential of the cumulant series,
    expanded by power-series arithmetic (numpy convolutions) in the formal
    parameter eps = T^{-1/2} through order p-2: a second algorithm for the
    same object.
    """
    sigma = table.get(2)
    ec = expansion_coefficients(p, table)
    iu = 1j * u
    base = complex(np.exp(-0.5 * sigma * u * u))
    value = base * (1.0 + sum(coeff * iu ** deg for deg, coeff in ec.terms))

    # The order-r cumulant carries eps^{r-2}, so
    # R(eps) = sum_{k=1}^{p-2} c_{k+2} (iu)^{k+2}/(k+2)! eps^k with c_r the
    # T-rescaled cumulant, and exp(R) = sum_m R^m / m!.
    n = p - 1  # polynomial length: degrees 0..p-2
    sqrt_t = math.sqrt(table.T)
    r_poly = np.zeros(n, dtype=complex)
    for k in range(1, p - 1):
        c_r = table.get(k + 2) * sqrt_t ** k
        r_poly[k] = c_r * iu ** (k + 2) / math.factorial(k + 2)
    series = np.zeros(n, dtype=complex)
    series[0] = 1.0
    power = np.zeros(n, dtype=complex)
    power[0] = 1.0
    for m in range(1, n):
        power = np.convolve(power, r_poly)[:n]
        series = series + power / math.factorial(m)
    eps = 1.0 / sqrt_t
    series_val = base * complex(sum(series[k] * eps ** k for k in range(n)))
    return value, abs(value - series_val)


def acceptance_01_table(seed, T):
    """An order-12 cumulant table of a model drawn as acceptance 01 draws
    them: lam, beta and rho of one sign, random stationary cumulants."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.3, 2.5)
    sign = rng.choice([-1.0, 1.0])
    params = ModelParams(lam=lam, gamma=0.0, beta=sign * rng.uniform(0.3, 2.0),
                         rho=sign * rng.uniform(0.0, 1.5))
    kappa_f = CumulantVector(CumulantKind.STATIONARY,
                             tuple(rng.uniform(0.2, 3.0) for _ in range(12)))
    return cumulant_table(12, params, kappa_f, T)


class TestHermite:
    def test_order_zero_is_one(self):
        assert hermite(0, 3.7, 2.0) == 1.0
        assert hermite(0, -11.0, 0.3) == 1.0

    def test_first_order(self):
        assert hermite(1, 2.0, 4.0) == pytest.approx(0.5, abs=1e-15)

    def test_second_order_root(self):
        assert hermite(2, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hermite(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            hermite(2, 0.0, -1.0)

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.5])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_matches_finite_difference_derivatives(self, r, sigma):
        # h_r = (-1)^r phi^{-1} d^r phi, checked against central differences;
        # evaluation points sit away from the polynomial roots so the
        # relative error stays well defined
        h = 1e-2 * math.sqrt(sigma)
        offsets, weights = fd_stencil(r)
        for x in (0.4, 2.6):
            y = x * math.sqrt(sigma)
            fd = sum(w * gaussian_pdf(y + o * h, sigma)
                     for o, w in zip(offsets, weights)) / h ** r
            oracle = (-1.0) ** r * fd / gaussian_pdf(y, sigma)
            got = hermite(r, y, sigma)
            assert abs(got - oracle) / abs(oracle) < 1e-4

    @pytest.mark.parametrize("p", range(3, 13))
    def test_running_hermite_sum_matches_per_term_form(self, gamma_ou, p):
        # one running recurrence gives each h_r bit for bit as a fresh
        # hermite(r) call, and the terms are added in the same order
        ec = gamma_ou_expansion(gamma_ou, p, 7.0)

        def per_term(y, s, total, weight):
            for deg, coeff in ec.terms:
                total = total + coeff * hermite(deg - s, y, ec.sigma)
            return total * weight

        ys = np.array([-40.0, -3.1, -0.2, 0.0, 0.7, 2.9, 55.0, 1e80])
        weight = np.linspace(0.5, 1.5, ys.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for s, start in ((0, np.ones_like(ys)), (1, 0.0), (2, 0.0)):
                got = edgeworth._hermite_sum(ys, ec, s, start, weight)
                assert np.array_equal(got, per_term(ys, s, start, weight), equal_nan=True)
                y = np.asarray(2.9)
                assert edgeworth._hermite_sum(y, ec, s, 1.0, 0.5) == per_term(y, s, 1.0, 0.5)


class TestExpansionCoefficients:
    def test_p2_no_terms(self):
        table = CumulantTable(T=4.0, values=(1.3,))
        ec = expansion_coefficients(2, table)
        assert ec.terms == ()
        assert ec.sigma == 1.3

    def test_p3_single_term(self):
        table = CumulantTable(T=4.0, values=(1.3, 0.9))
        ec = expansion_coefficients(3, table)
        assert ec.terms == ((3, 0.9 / 6.0),)

    def test_p4_three_terms(self):
        chi3, chi4 = 0.9, 2.4
        table = CumulantTable(T=4.0, values=(1.3, chi3, chi4))
        ec = expansion_coefficients(4, table)
        terms = dict(ec.terms)
        assert set(terms) == {3, 4, 6}
        assert terms[3] == chi3 / 6.0
        assert terms[4] == chi4 / 24.0
        # composition (1,1): chi3^2 / (2! * 3! * 3!), rounded as (chi3/3!)^2 / 2
        assert terms[6] == (chi3 / 6.0) * (chi3 / 6.0) / 2.0

    def test_zero_higher_cumulants_give_plain_normal(self):
        table = CumulantTable(T=4.0, values=(2.0, 0.0, 0.0, 0.0))
        ec = expansion_coefficients(5, table)
        assert all(c == 0.0 for _, c in ec.terms)

    @pytest.mark.parametrize("p", range(3, 13))
    def test_matches_brute_force_enumerator(self, p, rng):
        values = tuple(rng.uniform(-2.0, 2.0) for _ in range(p - 1))
        values = (abs(values[0]) + 0.5,) + values[1:]
        tables = [CumulantTable(T=9.0, values=values)]
        tables += [acceptance_01_table(seed, T) for seed in (101, 102, 103) for T in (0.5, 5.0, 50.0)]
        for table in tables:
            got = dict(expansion_coefficients(p, table).terms)
            want = brute_force_terms(p, table)
            assert set(got) == set(want)
            for deg in want:
                assert got[deg] == pytest.approx(want[deg], rel=1e-13, abs=1e-15)

    def test_terms_start_at_degree_three(self):
        with pytest.raises(ValueError, match="degrees"):
            ExpansionCoefficients(p=3, sigma=1.0, terms=((1, 0.5),))

    def test_table_too_short(self):
        table = CumulantTable(T=4.0, values=(1.0, 0.5))
        with pytest.raises(ValueError):
            expansion_coefficients(4, table)


def gamma_ou_expansion(model, p, T):
    params, driver = model
    kf = stationary_cumulants(driver_cumulants(driver, 12), params.lam)
    return expansion_coefficients(p, cumulant_table(12, params, kf, T))


def scaled(ec, c):
    """The expansion of c Y from that of Y: sigma scales by c^2 and the
    degree-k coefficient by c^k."""
    return ExpansionCoefficients(ec.p, ec.sigma * c * c, tuple((d, v * c ** d) for d, v in ec.terms))


def per_piece_quad(ys, vals, ec):
    """int f g_p for the piecewise-linear f, one quadrature per piece.

    g_p is summed as a HermiteE series, h_k(y; sigma) = sigma^{-k/2} He_k(y / sqrt(sigma)),
    independently of `density` (and faster for scalar y)."""
    coef = np.zeros(ec.terms[-1][0] + 1 if ec.terms else 1)
    coef[0] = 1.0
    for deg, c in ec.terms:
        coef[deg] = c * ec.sigma ** (-deg / 2)
    root = math.sqrt(ec.sigma)
    total = abserr = 0.0
    for y0, y1, v0, v1 in zip(ys[:-1], ys[1:], vals[:-1], vals[1:]):
        slope = (v1 - v0) / (y1 - y0)
        value, err, _, *message = quad(
            lambda y: (v0 + slope * (y - y0)) * hermeval(y / root, coef) * gaussian_pdf(y, ec.sigma),
            y0, y1, epsabs=1e-13, epsrel=1e-12, limit=200, full_output=1)
        assert not message, message
        total += value
        abserr += err
    # the oracle's own error stays well below the 4e-11 to 1e-9 it is held to
    assert abserr < 1e-11, abserr
    return total


@pytest.fixture()
def skewed_ec():
    table = CumulantTable(T=10.0, values=(1.8, 1.1, 0.7))
    return expansion_coefficients(4, table)


class TestDensity:
    def test_standard_normal_at_origin(self):
        table = CumulantTable(T=1.0, values=(1.0,))
        ec = expansion_coefficients(2, table)
        assert density(0.0, ec) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_total_mass_one(self, skewed_ec):
        half = 40.0 * math.sqrt(skewed_ec.sigma)
        mass, _ = quad(lambda y: density(y, skewed_ec), -half, half,
                       epsabs=1e-12, epsrel=1e-12, limit=400)
        assert abs(mass - 1.0) < 1e-8

    def test_first_moment_zero_order3(self):
        table = CumulantTable(T=10.0, values=(1.8, 1.1))
        ec = expansion_coefficients(3, table)
        half = 40.0 * math.sqrt(ec.sigma)
        m1, _ = quad(lambda y: y * density(y, ec), -half, half,
                     epsabs=1e-12, epsrel=1e-12, limit=400)
        assert abs(m1) < 1e-8

    def test_negative_region_reported(self):
        table = CumulantTable(T=2.0, values=(1.0, 2.5))
        ec = expansion_coefficients(3, table)
        mn, at = negative_density_report(ec)
        assert mn < 0.0
        assert math.isfinite(at)


class TestCdf:
    def test_symmetric_half_mass(self):
        table = CumulantTable(T=1.0, values=(2.3,))
        ec = expansion_coefficients(2, table)
        assert cdf(0.0, ec) == pytest.approx(0.5, abs=1e-15)

    def test_total_mass_far_right(self, skewed_ec):
        a = 40.0 * math.sqrt(skewed_ec.sigma)
        assert abs(cdf(a, skewed_ec) - 1.0) < 1e-12
        assert cdf(math.inf, skewed_ec) == 1.0
        assert cdf(-math.inf, skewed_ec) == 0.0

    def test_quadrature_oracle(self, rng):
        for _ in range(5):
            sigma = rng.uniform(0.5, 3.0)
            table = CumulantTable(T=8.0, values=(sigma,
                                                 rng.uniform(-1.0, 1.0),
                                                 rng.uniform(-1.0, 1.0)))
            ec = expansion_coefficients(4, table)
            a = rng.uniform(-2.0, 2.0) * math.sqrt(sigma)
            lo = -40.0 * math.sqrt(sigma)
            oracle, _ = quad(lambda y: density(y, ec), lo, a,
                             epsabs=1e-12, epsrel=1e-12, limit=400)
            assert abs(cdf(a, ec) - oracle) < 1e-9

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_array_matches_scalar_calls(self, p, rng):
        table = CumulantTable(T=8.0, values=(1.7, 0.6, -0.4))
        ec = expansion_coefficients(p, table)
        xs = np.sort(np.concatenate((rng.standard_normal(2000) * 2.0,
                                     [0.0, -0.0, 1e-300, 60.0, -60.0])))
        got = cdf(xs, ec)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert np.array_equal(got, [cdf(float(x), ec) for x in xs])

    @pytest.mark.parametrize("scale", [1.0, 1e-5])
    def test_far_tails_where_phi_underflows(self, scale, gamma_ou):
        # phi is 0 beyond ~38.6 sqrt(sigma) while h_k(y) overflows farther out
        # (at |y| ~ 1 already for sigma ~ 1e-10, scale 1e-5): the Hermite
        # terms there are 0, not inf * 0 = NaN
        ec = scaled(gamma_ou_expansion(gamma_ou, 12, 2.0), scale)
        ys = np.array([-1e80, -1e12, -50.0, 50.0, 1e12, 1e80]) * math.sqrt(ec.sigma)
        assert cdf(ys, ec).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        assert density(ys, ec).tolist() == [0.0] * 6
        assert cdf(float(ys[-1]), ec) == 1.0 and density(float(ys[0]), ec) == 0.0

    def test_scalar_gives_float_and_infinities_are_exact(self, skewed_ec):
        assert type(cdf(0.3, skewed_ec)) is float
        assert type(cdf(np.float64(0.3), skewed_ec)) is float
        got = cdf(np.array([-math.inf, 0.3, math.inf]), skewed_ec)
        assert got[0] == 0.0 and got[2] == 1.0
        assert got[1] == cdf(0.3, skewed_ec)


class TestExpect:
    def test_normalization(self, skewed_ec):
        assert expect(TestFunction.polynomial([1.0]), skewed_ec) == pytest.approx(
            1.0, abs=1e-12)

    def test_plain_normal_second_moment(self):
        table = CumulantTable(T=1.0, values=(1.7,))
        ec = expansion_coefficients(2, table)
        f = TestFunction.polynomial([0.0, 0.0, 1.0])
        assert expect(f, ec) == pytest.approx(1.7, rel=1e-14)

    def test_third_moment_equals_third_cumulant(self):
        # the degree-3 coefficient times int y^3 h_3 phi = 3! * chi3/6 = chi3;
        # evaluated at p = 4 where degree 3 respects the growth bound (the
        # chi4 and chi3^2 terms pair with h_4 and h_6, orthogonal to y^3)
        chi3 = 1.1
        table = CumulantTable(T=10.0, values=(1.8, chi3, 0.9))
        ec = expansion_coefficients(4, table)
        f = TestFunction.polynomial([0.0, 0.0, 0.0, 1.0])
        assert expect(f, ec) == pytest.approx(chi3, rel=1e-13)

    def test_growth_bound_enforced(self, skewed_ec):
        # p = 4 allows polynomial degree <= 4
        f = TestFunction.polynomial([0.0] * 5 + [1.0])
        with pytest.raises(ValueError):
            expect(f, skewed_ec)

    def test_indicator_complement_exact(self, skewed_ec):
        for a in (-1.3, 0.0, 2.2):
            below = cdf(a, skewed_ec)
            above = expect(TestFunction.indicator_interval(a, math.inf), skewed_ec)
            assert abs(below + above - 1.0) < 1e-12

    def test_indicator_interval(self, skewed_ec):
        val = expect(TestFunction.indicator_interval(-1.0, 1.0), skewed_ec)
        assert val == pytest.approx(cdf(1.0, skewed_ec) - cdf(-1.0, skewed_ec), abs=1e-15)

    def test_tabulated_triangle_bump(self, skewed_ec):
        # piecewise-linear bump: the interpolant is exact, so independent
        # quadrature of the analytic bump is a true oracle
        ys = [-1.0, 0.0, 1.0]
        vals = [0.0, 1.0, 0.0]
        f = TestFunction.tabulated(ys, vals)
        got = expect(f, skewed_ec)
        oracle = sum(quad(lambda y: (1.0 - abs(y)) * density(y, skewed_ec),
                          a, b, epsabs=1e-12, limit=200)[0]
                     for a, b in ((-1.0, 0.0), (0.0, 1.0)))
        assert got == pytest.approx(oracle, abs=1e-13)

    @pytest.mark.parametrize("n_knots", [2, 50, 400])
    @pytest.mark.parametrize("T", [2.0, 50.0])
    @pytest.mark.parametrize("p", [2, 3, 4, 8, 12])
    def test_tabulated_matches_per_piece_quadrature(self, p, T, n_knots, gamma_ou):
        # random knots on [-8, 8] leave some pieces ~1e-5 wide with slopes
        # ~1e5, where the antiderivative differences must not cancel
        ec = gamma_ou_expansion(gamma_ou, p, T)
        rng = np.random.default_rng(1000 * p + n_knots + int(T))
        ys = np.sort(rng.uniform(-8.0, 8.0, n_knots))
        vals = rng.uniform(-1.0, 1.0, n_knots)
        got = expect(TestFunction.tabulated(ys, vals), ec)
        assert abs(got - per_piece_quad(ys, vals, ec)) < (1e-10 if p <= 8 else 1e-9)

    @pytest.mark.parametrize("a", [-2.0, -1.0, 1.0, 2.0, 5.0])
    def test_tabulated_steep_piece(self, a, gamma_ou):
        # a ramp 1e-6 wide has slope 1e6 while int (y - a) g_p over it is
        # ~1e-13, so differencing the antiderivatives at its ends would be
        # ~1e-7 off at p = 12, T = 2, and a normal mass taken as an erfc
        # difference ~6e-11 off at a = +-2
        ec = gamma_ou_expansion(gamma_ou, 12, 2.0)
        ys, vals = [a - 2.0, a, a + 1e-6, a + 2.0], [0.0, 0.0, 1.0, 1.0]
        got = expect(TestFunction.tabulated(ys, vals), ec)
        assert abs(got - per_piece_quad(ys, vals, ec)) < 4e-11

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("vals", [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.3, -2.0, 0.7]])
    @pytest.mark.parametrize("T", [2.0, 50.0])
    @pytest.mark.parametrize("p", [2, 4, 8, 12])
    def test_tabulated_knots_where_phi_underflows(self, p, T, vals, gamma_ou):
        # phi(+-50 sqrt(sigma)) is 0, so phi(b) - phi(a) must come from the
        # end nearer 0: phi(a) expm1(...) would be 0 * inf on [-50, 0]
        ec = gamma_ou_expansion(gamma_ou, p, T)
        ys = [-50.0 * math.sqrt(ec.sigma), 0.0, 50.0 * math.sqrt(ec.sigma)]
        got = expect(TestFunction.tabulated(ys, vals), ec)
        assert abs(got - per_piece_quad(ys, vals, ec)) < (1e-10 if p <= 8 else 1e-9)
        got = expect(TestFunction.tabulated(ys[::2], vals[::2]), ec)
        assert abs(got - per_piece_quad(ys[::2], vals[::2], ec)) < (1e-10 if p <= 8 else 1e-9)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("far", [1e12, math.inf])
    @pytest.mark.parametrize("scale", [1.0, 1e-5])
    @pytest.mark.parametrize("p", [2, 8, 12])
    def test_tabulated_knots_far_beyond_phi_underflow(self, p, scale, far, gamma_ou):
        # knots at +-1e12 sqrt(sigma) overflow h_k(y) at p = 12, and with
        # sigma ~ 1e-10 (scale 1e-5) at every p > 2; f is constant outside
        # +-40 sqrt(sigma), where g_p has no mass in floating point, and the
        # infinite flat end pieces weigh in through the cdf alone
        ec = gamma_ou_expansion(gamma_ou, p, 2.0)
        inner = [r * math.sqrt(ec.sigma) for r in (-40.0, -1.0, 0.0, 2.0, 40.0)]
        vals = [0.5, 1.0, -1.0, 2.0, 0.25]
        ys = [-far * math.sqrt(ec.sigma)] + inner + [far * math.sqrt(ec.sigma)]
        got = expect(TestFunction.tabulated([scale * y for y in ys], [0.5] + vals + [0.25]),
                     scaled(ec, scale))
        assert abs(got - per_piece_quad(inner, vals, ec)) < (1e-10 if p <= 8 else 1e-9)

    def test_hermite_moment_values(self):
        assert hermite_moment(2, 0, 1.7) == pytest.approx(1.7, rel=1e-15)
        assert hermite_moment(3, 3, 2.0) == 6.0
        assert hermite_moment(2, 3, 1.0) == 0.0
        assert hermite_moment(5, 2, 1.0) == 0.0  # parity mismatch


class TestCharfnConsistency:
    def test_at_origin(self):
        table = CumulantTable(T=10.0, values=(1.8, 1.1, 0.7))
        value, residual = charfn_series_residual(4, table, 0.0)
        assert value == 1.0 + 0.0j
        assert residual == 0.0

    @pytest.mark.parametrize("p", [3, 4])
    def test_residual_tiny_on_grid(self, p):
        table = CumulantTable(T=12.0, values=(1.4, -0.8, 1.9, -0.5))
        for u in np.linspace(-10.0, 10.0, 101):
            _, residual = charfn_series_residual(p, table, float(u))
            assert residual < 1e-12


def test_fourier_identity_of_hermite_terms(rng):
    # int h_k(y; sigma) phi(y; sigma) exp(iuy) dy = (iu)^k exp(-sigma u^2 / 2)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        u = float(rng.uniform(-3.0, 3.0))
        sigma = float(rng.uniform(0.5, 3.0))
        half = 40.0 * math.sqrt(sigma)

        def integrand_re(y):
            return hermite(k, y, sigma) * gaussian_pdf(y, sigma) * math.cos(u * y)

        def integrand_im(y):
            return hermite(k, y, sigma) * gaussian_pdf(y, sigma) * math.sin(u * y)

        re, _ = quad(integrand_re, -half, half, epsabs=1e-11, limit=400)
        im, _ = quad(integrand_im, -half, half, epsabs=1e-11, limit=400)
        want = (1j * u) ** k * math.exp(-0.5 * sigma * u * u)
        assert abs(complex(re, im) - want) < 1e-7


def test_import_leaves_scipy_unloaded():
    # every expectation is closed form, so the runtime never needs scipy
    code = "import sys, levyou; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
