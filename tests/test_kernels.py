"""The numpy kernels agree with term-by-term reference loops."""

import math
import sys

import numpy as np
import pytest

from levyou import _kernels
from levyou.cumulants import integrated_decay
from levyou.simulate import _step_gaussian_cholesky


# --- reference loops (oracles) ---------------------------------------------

# A jump is a uniform u, whose span*u is its time s to the end of the span,
# and l = log(1 - v) for a uniform v, whose -l/alpha is its size y.  The
# loops write the weights unfolded, as the model states them, with the
# integrated decay k(s) = -expm1(-lam*s)/lam.

def segment_weighted_sums_ref(tau, sizes, offsets, lam, beta, rho, T, alpha):
    out = np.zeros(offsets.size - 1)
    for i in range(offsets.size - 1):
        s = 0.0
        for j in range(offsets[i], offsets[i + 1]):
            w = rho + beta * (-math.expm1(-lam * (T * float(tau[j])))) / lam
            s += w * (-sizes[j] / alpha)
        out[i] = s
    return out


def jump_step_sums_ref(jt, js, offsets, lam, dt, alpha):
    n = offsets.size - 1
    dxj = np.zeros(n)
    ij = np.zeros(n)
    for k in range(n):
        for j in range(offsets[k], offsets[k + 1]):
            s = dt * jt[j]
            y = -js[j] / alpha
            dxj[k] += math.exp(-lam * s) * y
            ij[k] += -math.expm1(-lam * s) / lam * y
    return dxj, ij


def path_recursion_ref(x0, q, eta_d, drift_x, drift_i, a11, a21, a22,
                       g1, g2, dxj, ij, lam, beta, gamma, rho, dt):
    # X by its own recursion; Y as a running sum of per-step increments.
    n = g1.size
    X = [x0]
    dy = []
    for k in range(n):
        x = X[-1]
        i_step = eta_d * x + drift_i + a21 * g1[k] + a22 * g2[k] + ij[k]
        x_new = q * x + drift_x + a11 * g1[k] + dxj[k]
        dy.append(gamma * dt + beta * i_step + rho * ((x_new - x) + lam * i_step))
        X.append(x_new)
    return np.array(X), np.concatenate(([0.0], np.cumsum(dy)))


# The kernels' formulas with a fresh temporary per operation: the in-place
# kernels must give their bits exactly.

def segment_weights_formula(tau, sizes, lam, beta, rho, T, alpha):
    z = tau * max(-lam * T, -sys.float_info.max)
    return (np.expm1(z) * (beta / (lam * alpha)) - rho / alpha) * sizes


def jump_step_sums_terms(jt, js, lam, dt, alpha):
    """The terms m*y of ij (before the division by -lam) and m*y + y of dxj,
    with m = expm1(-lam*s), and the sizes y."""
    m = np.expm1(jt * max(-lam * dt, -sys.float_info.max))
    y = js * (-1.0 / alpha)
    return m * y, m * y + y, y


def jump_step_sums_formula(jt, js, offsets, lam, dt, alpha):
    my, ey, _ = jump_step_sums_terms(jt, js, lam, dt, alpha)
    return _kernels._segment_sums(ey, offsets), _kernels._segment_sums(my, offsets) / -lam


def path_inputs(x0, q, eta_d, drift_x, drift_i, a11, a21, a22,
                z1, z2, dxj, ij, lam, beta, gamma, rho, dt):
    """path_recursion's arguments from the parts path_recursion_ref takes:
    the innovations g1 = a11*z1 + drift_x + dxj and g2 = a21*z1 + a22*z2 +
    ij, summed in sample_path's order."""
    return (x0, q, eta_d, drift_i, a11 * z1 + drift_x + dxj, a21 * z1 + a22 * z2 + ij,
            lam, beta, gamma, rho, dt)


def path_recursion_formula(x0, q, eta_d, drift_i, g1, g2, lam, beta, gamma, rho, dt):
    n = g1.size
    X = np.empty(n + 1)
    X[0] = x0
    c = X[1:]
    c[:] = g1
    c[0] += q * x0
    s = 1
    while s < n:
        c[s:] += q ** s * c[:-s]
        s *= 2
    x = X[:-1]
    i_step = eta_d * x + drift_i + g2
    dz = (X[1:] - x) + lam * i_step
    return X, np.concatenate(([0.0], np.cumsum(gamma * dt + beta * i_step + rho * dz)))


def _copies(args):
    return tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)


def gathered_central_moments_ref(x, idx):
    n = idx.size
    mean = sum(x[i] for i in idx) / n
    s2 = s3 = s4 = 0.0
    for i in idx:
        d = x[i] - mean
        s2 += d * d
        s3 += d * d * d
        s4 += d * d * d * d
    return mean, s2 / n, s3 / n, s4 / n


# --- workloads --------------------------------------------------------------

def _offsets(counts):
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


@pytest.fixture()
def jump_workload(rng):
    counts = rng.poisson(4.0, 3000)
    counts[::7] = 0  # force empty segments
    offsets = _offsets(counts)
    u = rng.random(offsets[-1])
    l = np.log(1.0 - rng.random(offsets[-1]))
    return u, l, offsets


# (lam, beta, rho, T, alpha): positive weights, negative ones (beta < 0 and
# rho < 0), the degenerate rho = -beta/lam, where the weight rho + beta*k(s)
# falls to beta*exp(-lam*s)/lam; lam*T = 1e-12 and 4e-19, where exp(-lam*s)
# is 1 to within an ulp or two and only expm1 keeps k(s) = s; and
# lam*T = 1e310, which overflows
WEIGHT_MODELS = [(1.0, 1.0, 0.5, 10.0, 1.0), (0.7, -1.2, -0.4, 6.0, 1.3),
                 (1.0, 1.0, -1.0, 10.0, 1.5), (1e-13, 1.0, 0.5, 10.0, 1.0),
                 (1e-20, -1.2, -0.4, 40.0, 1.3), (1e300, 1.0, 0.5, 1e10, 1.5)]


def test_segment_weighted_sums_match_reference(jump_workload):
    for model in WEIGHT_MODELS:
        tau, sizes, offsets = (a.copy() for a in jump_workload)
        ref = segment_weighted_sums_ref(tau, sizes, offsets, *model)
        got = _kernels.segment_weighted_sums(tau, sizes, offsets, *model)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-12)
        assert np.all(got[::7] == 0.0)  # empty segments stay exactly zero


def test_segment_weighted_sums_exact_per_segment_at_high_intensity(rng):
    # 4096 draws at c*T = 800: each segment's sum has only its own
    # rounding, not that of a running sum over all the draws.
    model = lam, beta, rho, T, alpha = 0.5, 1.0, 0.5, 40.0, 1.5
    offsets = _offsets(rng.poisson(800.0, 4096))
    tau = rng.random(offsets[-1])
    sizes = np.log(1.0 - rng.random(offsets[-1]))
    terms = segment_weights_formula(tau, sizes, *model).tolist()
    exact = np.array([math.fsum(terms[lo:hi]) for lo, hi in zip(offsets[:-1], offsets[1:])])
    got = _kernels.segment_weighted_sums(tau, sizes, offsets, *model)
    assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-13


def test_segment_weighted_sums_builds_the_weights_in_tau(jump_workload):
    # Each term is the model's weight times the size to within 1e-15 of
    # (|rho| + |beta|*k(s))/alpha*|l|, the scale of the kernel's comment
    # (the term's own size where rho and beta*k(s) do not cancel), in every
    # model, however small lam*T; and the terms are the folded formula's
    # bits, and so are their segment sums.
    for model in WEIGHT_MODELS:
        lam, beta, rho, T, alpha = model
        tau, sizes, offsets = (a.copy() for a in jump_workload)
        with np.errstate(over="ignore"):  # lam*s overflows in the last model
            k = -np.expm1(-lam * (T * tau)) / lam
        model_terms = (rho + beta * k) * (-sizes / alpha)
        scale = (abs(rho) + abs(beta) * k) / alpha * np.abs(sizes)
        terms = segment_weights_formula(tau, sizes, *model)
        got = _kernels.segment_weighted_sums(tau, sizes, offsets, *model)
        assert np.all(np.abs(tau - model_terms) <= 1e-15 * scale), model
        assert np.array_equal(tau, terms)
        assert np.array_equal(got, _kernels._segment_sums(terms, offsets))


def test_segment_weighted_sums_no_jumps():
    offsets = np.zeros(5, dtype=np.int64)
    empty = np.empty(0)
    got = _kernels.segment_weighted_sums(empty, empty, offsets, 1.0, 1.0, 0.5, 10.0, 1.5)
    assert np.array_equal(got, np.zeros(4)) and got.dtype == np.float64
    assert np.array_equal(got, segment_weighted_sums_ref(empty, empty, offsets,
                                                         1.0, 1.0, 0.5, 10.0, 1.5))


def _edge_jumps():
    """Jumps at the ends of the uniforms, in four segments: v = 0 (l =
    log(1) = 0, a zero size) alone in the first, and in the second beside a
    jump of nonzero size, both with u = 0 (at the end of their span); and
    v = 1 - 2^-53, the largest double below 1 (l = log(2^-53)), in the
    fourth, once with u = 1 - 2^-53."""
    u = np.array([0.3, 0.0, 0.0, 0.6, 0.25, 1.0 - 2.0 ** -53])
    v = np.array([0.0, 0.5, 0.0, 0.7, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53])
    l = np.log(1.0 - v)
    assert l[0] == 0.0 and l[4] == l[5] == np.log(2.0 ** -53)
    return u, l, np.array([0, 1, 3, 4, 6])


def test_segment_weighted_sums_at_the_ends_of_the_uniforms():
    for model in WEIGHT_MODELS:
        tau, sizes, offsets = _edge_jumps()
        ref = segment_weighted_sums_ref(tau, sizes, offsets, *model)
        got = _kernels.segment_weighted_sums(tau, sizes, offsets, *model)
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(tau))
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-12)
        # a zero size adds exactly 0
        assert tau[0] == tau[2] == 0.0 and got[0] == 0.0
        assert got[1] == tau[1]


def test_jump_step_sums_at_the_ends_of_the_uniforms():
    jt, js, offsets = _edge_jumps()
    ref = jump_step_sums_ref(jt, js, offsets, 0.8, 0.05, 1.5)
    got = _kernels.jump_step_sums(jt, js, offsets, 0.8, 0.05, 1.5)
    for g, r in zip(got, ref):
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g, r, rtol=1e-13, atol=1e-14)
    # a zero size adds exactly 0; jt and js now hold exp(-lam*s)*y and the
    # sizes y, and a jump at u = 0 (s = 0) adds its size to dxj and 0 to ij
    dxj, ij = got
    assert dxj[0] == ij[0] == 0.0
    assert jt[2] == js[2] == 0.0 and dxj[1] == jt[1] == js[1] and ij[1] == 0.0


# (lam, dt): a usual step, lam*dt = 1e-14 and 4e-22, where 1 - exp(-lam*s)
# is rounding noise, and lam*dt = 40, where exp(-lam*s) is below an ulp of 1
# for most jumps
STEP_MODELS = [(0.8, 0.05), (1e-13, 0.1), (1e-20, 0.04), (0.8, 50.0)]


def test_jump_step_sums_match_reference(rng):
    counts = rng.poisson(0.2, 2000)  # mostly empty steps
    offsets = _offsets(counts)
    u = rng.random(offsets[-1])
    l = np.log(1.0 - rng.random(offsets[-1]))
    for lam, dt in STEP_MODELS:
        jt, js = u.copy(), l.copy()
        ref = jump_step_sums_ref(jt, js, offsets, lam, dt, 1.5)
        got = _kernels.jump_step_sums(jt, js, offsets, lam, dt, 1.5)
        for g, r in zip(got, ref):
            np.testing.assert_allclose(g, r, rtol=1e-13, atol=1e-14)
            assert np.all(g[counts == 0] == 0.0)


def test_jump_step_sums_are_the_formulas_bits_and_overwrite_jt(jump_workload):
    # jt is overwritten by the terms exp(-lam*s)*y, as m*y + y, and js by
    # the sizes y; each term is within 4 ulp of |y| of the model's
    for lam, dt in STEP_MODELS:
        jt, js, offsets = (a.copy() for a in jump_workload)
        want = jump_step_sums_formula(jt, js, offsets, lam, dt, 1.5)
        _, ey, y = jump_step_sums_terms(jt, js, lam, dt, 1.5)
        model_ey = np.exp(-lam * (dt * jt)) * (-js / 1.5)
        got = _kernels.jump_step_sums(jt, js, offsets, lam, dt, 1.5)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(jt, ey) and np.array_equal(js, y)
        assert np.all(np.abs(jt - model_ey) <= 4 * np.finfo(float).eps * np.abs(y)), (lam, dt)


def test_jump_step_sums_no_jumps():
    offsets = np.zeros(4, dtype=np.int64)
    empty = np.empty(0)
    dxj, ij = _kernels.jump_step_sums(empty, empty, offsets, 0.8, 0.05, 1.5)
    assert np.array_equal(dxj, np.zeros(3)) and np.array_equal(ij, np.zeros(3))
    assert dxj.dtype == ij.dtype == np.float64


def _scaled_errors(got, ref):
    """Max |error| of X and of Y relative to the path's scale, the largest
    |value| of X and Y together: Y's increments carry X's rounding through
    dz = x' - x, so Y's error scales with |X| even where |Y| is small."""
    scale = max(np.max(np.abs(v)) for v in ref)
    return [float(np.max(np.abs(g - r)) / scale) for g, r in zip(got, ref)]


def _path_args(rng, n, lam, dt):
    """path_recursion_ref's parts as sample_path draws them, for a mixed
    driver (b = 0.5, C = 1, c = 1, alpha = 1) and beta = 1, gamma = 0.2,
    rho = 0.5, starting from a stationary draw."""
    q = math.exp(-lam * dt)
    eta_d = integrated_decay(lam, dt)
    b0 = 0.5 - 1.0
    a11, a21, a22 = _step_gaussian_cholesky(1.0, lam, dt)
    counts = rng.poisson(dt, n)
    offsets = _offsets(counts)
    jt = rng.random(offsets[-1])
    js = np.log(1.0 - rng.random(offsets[-1]))
    dxj, ij = _kernels.jump_step_sums(jt, js, offsets, lam, dt, 1.0)
    x0 = b0 / lam + rng.gamma(1.0 / lam, 1.0)
    return (x0, q, eta_d, b0 * eta_d, b0 * (dt - eta_d) / lam, a11, a21, a22,
            rng.standard_normal(n), rng.standard_normal(n), dxj, ij,
            lam, 1.0, 0.2, 0.5, dt)


@pytest.mark.parametrize("with_jumps", [True, False])
def test_path_recursion_matches_reference(rng, with_jumps):
    # The scan sums q^k*x0 + sum_j q^(k-j)*c_j in another grouping than the
    # loop, so the two agree to rounding, not bit for bit.
    n = 500
    g1 = rng.standard_normal(n)
    g2 = rng.standard_normal(n)
    dxj = rng.exponential(0.1, n) if with_jumps else np.zeros(n)
    ij = rng.exponential(0.05, n) if with_jumps else np.zeros(n)
    args = (0.4, 0.97, 0.03, 0.001, 0.0005, 0.02, 0.01, 0.007,
            g1, g2, dxj, ij, 1.2, 1.0, 0.3, 0.5, 0.03)
    X_ref, Y_ref = path_recursion_ref(*args)
    X, Y = _kernels.path_recursion(*path_inputs(*args))
    assert X.shape == Y.shape == (n + 1,)
    assert X[0] == X_ref[0] and Y[0] == 0.0
    assert max(_scaled_errors((X, Y), (X_ref, Y_ref))) <= 1e-12


@pytest.mark.parametrize("n, lam_dt", [
    (1, 0.1),       # no scan pass
    (2, 0.1),       # one pass
    (1000, 0.1),    # n not a power of two
    (777, 1e-5),
    (300, 800.0),   # q = exp(-800) underflows to 0: X is c_k alone
])
def test_path_recursion_edge_cases_match_reference(rng, n, lam_dt):
    lam = 1.0
    args = _path_args(rng, n, lam, lam_dt / lam)
    ref = path_recursion_ref(*args)
    got = _kernels.path_recursion(*path_inputs(*args))
    assert got[0].shape == got[1].shape == (n + 1,)
    assert max(_scaled_errors(got, ref)) <= 1e-12


@pytest.mark.parametrize("n, lam_dt", [(1, 0.1), (2, 0.1), (1000, 0.1), (300, 800.0)])
@pytest.mark.parametrize("with_gaussian", [True, False])
def test_path_recursion_is_the_formulas_bits(rng, n, lam_dt, with_gaussian):
    args = _path_args(rng, n, 1.0, lam_dt)
    if with_gaussian:
        args = path_inputs(*args)
    else:  # as sample_path passes them: jump_step_sums' arrays, drift_x added to dxj
        dxj, ij = args[10:12]
        dxj += args[3]
        args = args[:3] + (args[4], dxj, ij) + args[12:]
    want = path_recursion_formula(*_copies(args))
    got = _kernels.path_recursion(*args)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision np.longdouble (x86-64)")
@pytest.mark.parametrize("lam, dt", [(0.01, 1e-3), (0.05, 1e-3), (1.0, 0.1), (1.0, 3.0)])
def test_path_recursion_extended_precision_oracle(rng, lam, dt):
    """The scan is at least as accurate as the float64 loop.

    The oracle is the reference loop run on the same float64 inputs in
    np.longdouble; the test is skipped where np.longdouble is float64 (its
    eps above 1e-18), as on some non-x86 platforms.  At lam*dt >= 0.1 both
    errors are the rounding of the last few operations, a few ulps of the
    path's scale (its largest |value| of X and Y), and their ratio is noise: the comparison with the loop
    allows four ulps (4*eps relative to scale) below which it is not made.
    """
    n = 20_000
    args = _path_args(rng, n, lam, dt)
    wide = tuple(np.asarray(a, dtype=np.longdouble) if isinstance(a, np.ndarray)
                 else np.longdouble(a) for a in args)
    oracle = path_recursion_ref(*wide)
    loop_err = _scaled_errors(path_recursion_ref(*args), oracle)
    scan_err = _scaled_errors(_kernels.path_recursion(*path_inputs(*args)), oracle)
    eps = np.finfo(np.float64).eps
    for scan, loop in zip(scan_err, loop_err):
        assert scan <= 1e-12
        assert scan <= max(1.5 * loop, 4 * eps)


def test_gathered_central_moments_match_reference(rng):
    x = rng.standard_normal(10_000)
    idx = rng.integers(0, x.size, x.size)
    got = _kernels.gathered_central_moments(x, idx)
    assert all(isinstance(v, float) for v in got)
    np.testing.assert_allclose(got, gathered_central_moments_ref(x, idx),
                               rtol=1e-10, atol=1e-14)
