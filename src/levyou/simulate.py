"""Exact sampling for the integrated Levy-driven OU model.

Drivers are restricted to families with closed-form cumulants and exact
samplers: Brownian motion with drift, compound Poisson with exponential
jumps, and their independent mixture.  For these, both the terminal
deviation Y_T - E[Y_T] and grid paths of (X, Y) are drawn from their exact
laws; there is no discretization bias at any step size.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cumulants import (
    CumulantKind,
    CumulantVector,
    ModelParams,
    integrated_decay,
    kernel_weight_integral,
)
from .edgeworth import NonPositiveVarianceError

__all__ = [
    "DriverSpec",
    "PathSample",
    "driver_cumulants",
    "sample_stationary_state",
    "sample_deviation",
    "sample_path",
    "expected_terminal",
    "write_path_csv",
]

# Both samplers draw jumps and sum them in runs of whole draws (or path
# steps) holding at most this many jumps (one with more is a run of its own),
# so the per-run arrays stay cache-sized whatever the jump intensity.  Its
# two 8-byte buffers per jump and about 16 bytes per draw of a harness chunk
# of 16384 draws make a validate worker's working set 16 * (53248 + 16384)
# bytes, about 1.06 MiB.
JUMP_BLOCK = 13 << 12

# Largest expected jump count of one sampler call, c*T per draw times the
# draws of the call (a harness chunk of 16384 draws may thus have c*T up to
# 65536), and of one draw or path.  A call that expects more is refused
# before anything is drawn.  The per-draw limit bounds the jump arrays of a
# single draw or path step, which the per-call limit alone would not: a
# `simulate` path at c*T = 1e9 (below 2^30) on the default 64 steps would
# hold two buffers of ~1.6e7 jumps, 250 MB, and on one step 16 GB.
MAX_EXPECTED_JUMPS = 1 << 30
MAX_DRAW_JUMPS = 1 << 28


@dataclass(frozen=True)
class DriverSpec:
    """A concrete Levy driver, identified by its generating triplet.

    Cumulant convention (compensated-jump form): kappa^(1) = b is the total
    mean of the unit-time increment, kappa^(2) = C + c*2!/alpha**2, and
    kappa^(k) = c*k!/alpha**k for k >= 3.  The raw drift of the sampled path
    is then b0 = b - c/alpha.
    """

    variant: str  # "gaussian" | "cpexp" | "mixed"
    b: float = 0.0
    C: float = 0.0
    c: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.variant not in ("gaussian", "cpexp", "mixed"):
            raise ValueError(f"unknown driver variant {self.variant!r}")
        if self.variant in ("gaussian", "mixed") and not self.C > 0:
            raise ValueError("gaussian component requires C > 0")
        if self.variant == "cpexp" and self.C != 0:
            raise ValueError("cpexp driver must have C = 0")
        if self.variant == "gaussian" and (self.c != 0 or self.alpha != 1.0):
            raise ValueError("gaussian driver has no jumps: it must have c = 0 and alpha = 1")
        if self.variant in ("cpexp", "mixed"):
            if not (self.c > 0 and self.alpha > 0):
                raise ValueError("jump component requires c > 0 and alpha > 0")

    @classmethod
    def gaussian(cls, b: float, C: float) -> "DriverSpec":
        return cls(variant="gaussian", b=float(b), C=float(C))

    @classmethod
    def cpexp(cls, b: float, c: float, alpha: float) -> "DriverSpec":
        return cls(variant="cpexp", b=float(b), c=float(c), alpha=float(alpha))

    @classmethod
    def mixed(cls, b: float, C: float, c: float, alpha: float) -> "DriverSpec":
        return cls(variant="mixed", b=float(b), C=float(C), c=float(c), alpha=float(alpha))

    @property
    def has_jumps(self) -> bool:
        return self.variant in ("cpexp", "mixed")

    @property
    def b0(self) -> float:
        """Raw path drift: total mean minus the jump-part mean c/alpha."""
        return self.b - self.c / self.alpha if self.has_jumps else self.b


@dataclass(frozen=True)
class PathSample:
    """One grid path of (X, Y) with the exact terminal deviation."""

    times: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    deviation: float  # Y_T - E[Y_T]
    seed: int


def driver_cumulants(driver: DriverSpec, r_max: int) -> CumulantVector:
    """Cumulants kappa^(1..r_max) of the unit-time driver increment."""
    if r_max < 2:
        raise ValueError("r_max must be >= 2")
    vals = [driver.b]
    for k in range(2, r_max + 1):
        v = driver.C if k == 2 else 0.0
        if driver.has_jumps:
            v += _jump_cumulant(driver.c, driver.alpha, k)
        vals.append(v)
    return CumulantVector(CumulantKind.DRIVER, tuple(vals))


def _jump_cumulant(c: float, alpha: float, k: int) -> float:
    """c * k! / alpha**k, the order-k cumulant of Exp(alpha) jumps at rate c.

    Where alpha**k overflows, the value is c * k! * (1/alpha)**k, which may
    underflow to 0; a value beyond float range raises an OverflowError that
    names it.
    """
    try:
        v = c * math.factorial(k) / alpha ** k
    except OverflowError:
        v = c * math.factorial(k) * (1.0 / alpha) ** k
    except ZeroDivisionError:  # alpha**k underflowed
        v = math.inf
    if not math.isfinite(v):
        raise OverflowError(f"driver cumulant of order {k}, c*{k}!/alpha**{k} at "
                            f"alpha = {alpha!r}, is beyond float range")
    return v


def sample_stationary_state(driver: DriverSpec, lam: float, rng: np.random.Generator,
                            size: int | None = None):
    """Draw from the stationary law of X.

    Gaussian driver: Normal(b/lam, C/(2*lam)).  Exponential-jump driver:
    b0/lam plus Gamma(shape c/lam, rate alpha).  Mixed: independent sum.
    Draw order per call: one normal block (when C > 0), then one gamma block
    (when jumps are present).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    n = 1 if size is None else int(size)
    out = np.full(n, driver.b0 / lam)
    if driver.C > 0:
        out += rng.normal(0.0, math.sqrt(driver.C / (2.0 * lam)), n)
    if driver.has_jumps:
        out += rng.gamma(driver.c / lam, 1.0 / driver.alpha, n)
    return float(out[0]) if size is None else out


def _check_jump_budget(driver: DriverSpec, horizon: float, draws: int) -> None:
    per_draw = driver.c * horizon if driver.has_jumps else 0.0
    if per_draw * draws > MAX_EXPECTED_JUMPS or per_draw > MAX_DRAW_JUMPS:
        raise ValueError(
            f"one sampler call would draw about {per_draw * draws:.3g} jumps "
            f"(c*T = {per_draw:.3g} per draw, {draws} draw(s)), more than the limit "
            f"of {MAX_EXPECTED_JUMPS} per call and {MAX_DRAW_JUMPS} per draw")


def _jump_runs(rng: np.random.Generator, driver: DriverSpec, span: float, n: int):
    """Compound-Poisson jumps of n spans of length `span`, run by run.

    Yields (i0, i1, u, l, offsets) for the most whole spans i0..i1-1 within
    JUMP_BLOCK jumps, at least one: span i0 + k has the jumps
    offsets[k]:offsets[k+1] of the run.  For each jump, u is a Uniform[0, 1)
    double, so span*u has the law of the time from the jump to the span's
    end, and l = log(1 - v) for a second uniform v, so -l is a unit
    exponential (inversion; Devroye 1986, II.2) and -l/alpha the jump's
    Exp(alpha) size.  1 - v is exact for the generator's 53-bit doubles, so
    l is finite, and 0 exactly when v = 0.  The callers fold span and alpha
    into their kernels' constants.
    The yielded u and l are valid only until the next run: every run of a
    call draws into the same two buffers, of min(m, JUMP_BLOCK) doubles for
    m jumps in all (larger only for a single span with more jumps), and the
    caller may overwrite them.  The offsets of a run starting at the first
    jump are a view of the call's own offsets, which the caller must not
    write.

    Draw order: one Poisson(c*span) block of n counts, then one
    rng.integers(1 << 63) that seeds a child generator of rng's
    bit-generator type, then the m jumps in order, each run's u from the
    child and its v from rng.  Each stream is read in jump order, so at any
    JUMP_BLOCK the draws and rng's final position are the same, and a run
    holds O(max(JUMP_BLOCK, largest span)) memory whatever c*span*n is.
    """
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(rng.poisson(driver.c * span, n), out=offsets[1:])
    u_rng = np.random.Generator(type(rng.bit_generator)(int(rng.integers(1 << 63))))
    buf = np.empty((2, min(int(offsets[-1]), JUMP_BLOCK)))
    i0 = 0
    while i0 < n:
        lo = int(offsets[i0])
        i1 = max(i0 + 1, int(np.searchsorted(offsets, lo + JUMP_BLOCK, side="right")) - 1)
        k = int(offsets[i1]) - lo
        if k > buf.shape[1]:
            buf = np.empty((2, k))
        u, l = buf[0, :k], buf[1, :k]
        u_rng.random(out=u)
        rng.random(out=l)
        np.subtract(1.0, l, out=l)
        np.log(l, out=l)
        run_offsets = offsets[i0:i1 + 1]
        yield i0, i1, u, l, run_offsets - lo if lo else run_offsets
        i0 = i1


def expected_terminal(params: ModelParams, driver: DriverSpec, T: float) -> float:
    """E[Y_T] = gamma*T + T*(beta + rho*lam)*kappa_F^(1)."""
    kf1 = driver.b / params.lam
    return params.gamma * T + T * (params.beta + params.rho * params.lam) * kf1


def sample_deviation(params: ModelParams, driver: DriverSpec, T: float,
                     rng: np.random.Generator, size: int | None = None):
    """Exact draw of Y_T - E[Y_T] via the kernel representation.

    Composition: beta*k(T)*X_0 from the stationary start, the deterministic
    centering -T*(beta+rho*lam)*kappa_F^(1) plus the raw drift b0 times the
    order-1 kernel-weight integral (which folds the jump compensator, so the
    draw has exact mean zero), a Gaussian part with variance C times the
    order-2 kernel-weight integral, and the jump sum over Poisson(c*T) jumps
    with Uniform(0,T) arrival times and Exp(alpha) sizes.  Each jump is two
    uniforms u and v: T*u has the law of the time from the jump to T, and
    -log(1 - v)/alpha is its size (`_jump_runs`), so the jump adds
    (rho + beta*(1 - exp(-lam*T*u))/lam) * (-log(1 - v)/alpha), summed by
    `_kernels.segment_weighted_sums` with the constants folded and the decay
    taken from expm1.

    Draw order per call: stationary block(s) for X_0, one standard-normal
    block (when C > 0), then, when jumps are present, the draws' jumps in
    `_jump_runs`'s order.  Each draw's jump sum depends only on its own
    jumps, so the result does not depend on JUMP_BLOCK.  Raises ValueError,
    before drawing, when c*T*size exceeds MAX_EXPECTED_JUMPS or c*T exceeds
    MAX_DRAW_JUMPS.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    n = 1 if size is None else int(size)
    _check_jump_budget(driver, T, n)
    lam, beta, rho = params.lam, params.beta, params.rho
    kf1 = driver.b / lam
    w1 = kernel_weight_integral(1, params, T)
    # the centering and Gaussian terms are added in place to the X_0 draws
    out = sample_stationary_state(driver, lam, rng, size=n)
    out *= beta * integrated_decay(lam, T)
    out -= T * (beta + rho * lam) * kf1
    out += driver.b0 * w1
    if driver.C > 0:
        w2 = kernel_weight_integral(2, params, T)
        z = rng.standard_normal(n)
        z *= math.sqrt(driver.C * w2)
        out += z
        del z  # freed before the jump runs allocate their buffers
    if driver.has_jumps:
        for i0, i1, u, l, offsets in _jump_runs(rng, driver, T, n):
            out[i0:i1] += _kernels.segment_weighted_sums(u, l, offsets, lam, beta, rho, T,
                                                         driver.alpha)
    return float(out[0]) if size is None else out


def _step_gaussian_cholesky(C: float, lam: float, dt: float) -> tuple[float, float, float]:
    """Cholesky factors of the exact 2x2 covariance of the per-step Gaussian
    pair (increment of X, step integral of X).

    v11 = C*(1-exp(-2*lam*dt))/(2*lam)
    cov = C*(1-exp(-lam*dt))**2/(2*lam**2)
    v22 = C*(dt - 2*k(dt) + (1-exp(-2*lam*dt))/(2*lam))/lam**2

    Raises NonPositiveVarianceError when v11 underflows to 0, as it does for
    C = 5e-324.
    """
    if C <= 0:
        return 0.0, 0.0, 0.0
    e1 = -math.expm1(-lam * dt)       # 1 - exp(-lam*dt)
    e2 = -math.expm1(-2.0 * lam * dt)  # 1 - exp(-2*lam*dt)
    v11 = C * e2 / (2.0 * lam)
    cov = C * e1 * e1 / (2.0 * lam ** 2)
    v22 = C * (dt - 2.0 * e1 / lam + e2 / (2.0 * lam)) / lam ** 2
    if not v11 > 0:
        raise NonPositiveVarianceError(
            f"step variance v11 of the Gaussian increment of X must be positive, got {v11!r}")
    a11 = math.sqrt(v11)
    a21 = cov / a11
    a22 = math.sqrt(max(v22 - a21 * a21, 0.0))
    return a11, a21, a22


def sample_path(params: ModelParams, driver: DriverSpec, T: float, n_steps: int,
                seed: int, x0: float | None = None) -> PathSample:
    """Grid-exact joint path of (X, Y) on n_steps uniform steps.

    Each step draws the exact joint law of (X increment, step integral of X)
    - Gaussian part via the closed 2x2 covariance, jump part via exact jump
    times within the step - and recovers the driver increment exactly from
    the state equation, so the law of the path is independent of n_steps.
    Y starts at zero; X starts from the stationary law unless x0 overrides
    it (diagnostics hook).  A jump in a step is two uniforms u and v: dt*u
    has the law of the time from the jump to the step's end, and
    -log(1 - v)/alpha is its size (`_kernels.jump_step_sums`).  Draw order:
    X_0 (unless x0 is given), one block of 2*n_steps standard normals (when
    C > 0), then, when jumps are present, the steps' jumps in `_jump_runs`'s
    order.  Raises ValueError, before drawing, when c*T exceeds
    MAX_DRAW_JUMPS.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if T <= 0:
        raise ValueError("T must be positive")
    _check_jump_budget(driver, T, 1)
    rng = np.random.default_rng(seed)
    lam, beta, gamma, rho = params.lam, params.beta, params.gamma, params.rho
    dt = T / n_steps
    x_start = sample_stationary_state(driver, lam, rng) if x0 is None else float(x0)
    n = n_steps
    g1, g2 = rng.standard_normal((2, n)) if driver.C > 0 else np.zeros((2, n))
    if driver.has_jumps:
        sums = [_kernels.jump_step_sums(u, l, offsets, lam, dt, driver.alpha)
                for _, _, u, l, offsets in _jump_runs(rng, driver, dt, n)]
        # the usual single run is kept as it is: copying it costs ~15% of a path
        dxj, ij = sums[0] if len(sums) == 1 else map(np.concatenate, zip(*sums))
        del sums
    else:
        dxj = ij = np.zeros(n)
    q = math.exp(-lam * dt)
    eta_d = integrated_decay(lam, dt)
    b0 = driver.b0
    drift_x = b0 * eta_d
    drift_i = b0 * (dt - eta_d) / lam
    a11, a21, a22 = _step_gaussian_cholesky(driver.C, lam, dt)
    X, Y = _kernels.path_recursion(x_start, q, eta_d, drift_x, drift_i,
                                   a11, a21, a22, g1, g2, dxj, ij,
                                   lam, beta, gamma, rho, dt)
    del g1, g2, dxj, ij  # the step arrays need not outlive the path's
    times = np.linspace(0.0, T, n + 1)
    deviation = float(Y[-1]) - expected_terminal(params, driver, T)
    return PathSample(times=times, X=X, Y=Y, deviation=deviation, seed=int(seed))


def write_path_csv(path: PathSample, fileobj, writer=None) -> None:
    """Dump a path as CSV with header t,X,Y, one row per grid point.

    Every value is written as repr(float(v)), its shortest round-trip
    decimal, so float() of the text gives back the sampled double.  The rows
    are formatted 8192 at a time (`_shortest.BLOCK_ROWS`) by a vectorised
    Ryu digit search; values outside its fast path, such as 0.0, dyadic
    rationals and values that repr writes in scientific form, go through
    repr itself, so the bytes are exactly those of a per-row repr loop.

    `fileobj` is a text file, or a binary one, which gets the ASCII bytes
    without a decode.  `writer` is a `_shortest.RowWriter` shared by the
    paths of one command: it keeps the field bytes of the last path's time
    column, and a path whose time grid has the same bits reuses them
    instead of formatting it again.  Without one, the call uses a writer of
    its own that keeps nothing.  The work arrays take about 100 bytes per
    value of a block (3 × 8192 values) and live for the call.
    """
    from . import _shortest  # imported here so that `import levyou` does not pay for it

    header = "t,X,Y\n"
    fileobj.write(header if isinstance(fileobj, io.TextIOBase) else header.encode())
    if writer is None:
        writer = _shortest.RowWriter(keep_first=False)
    writer.write(fileobj, (path.times, path.X, path.Y))
