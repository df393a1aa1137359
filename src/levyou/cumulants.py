"""Closed-form cumulants of the normalized integrated OU functional.

The model is the bivariate system

    X_t = X_0 - lam * int_0^t X_s ds + Z_t
    Y_t = int_0^t (gamma + beta * X_s) ds + rho * Z_t

driven by a Levy process Z.  Everything in this module is a deterministic
function of the model parameters, the cumulants of the stationary law of X,
and the horizon T.  The central quantity is the r-th cumulant of
T^{-1/2} * (Y_T - E[Y_T]), available in closed form because the integrated
OU process admits the kernel representation

    int_0^t X_s ds = k(t) X_0 + int_0^t k(t - s) dZ_s,

with k(u) = (1 - exp(-lam*u)) / lam the integrated exponential decay.
Every cumulant is then a closed form in the kernel-weight integrals
W_r = int_0^T (rho + beta*k(v))**r dv: an exact finite sum for lam*T >= 2
and 24-node Gauss-Legendre below, within ~1e-14 relative of 150-digit values
for lam*T from 1e-8 to 1e5 and every r <= R_MAX.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "R_MAX",
    "DEGENERACY_RTOL",
    "ModelParams",
    "CumulantKind",
    "CumulantVector",
    "CumulantTable",
    "integrated_decay",
    "stationary_cumulants",
    "kernel_weight_integral",
    "normalized_cumulant",
    "normalized_cumulant_limit",
    "cumulant_table",
    "wiener_nondegeneracy_det",
]

# Highest cumulant order supported: the orders that the `decimal` oracle test
# of kernel_weight_integral covers.  CONFIG_SCHEMA's p_orders maximum is
# derived from it.
R_MAX = 12

# Relative tolerance deciding when beta + rho*lam counts as zero.
DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Parameter vector (lam, gamma, beta, rho) of the bivariate model.

    lam is the mean-reversion rate (must be positive), gamma the drift of the
    integrated component, beta the coupling to X (must be nonzero), rho the
    direct loading on the driver.
    """

    lam: float
    gamma: float
    beta: float
    rho: float

    def __post_init__(self):
        for name in ("lam", "gamma", "beta", "rho"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam!r}")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")

    @property
    def degenerate(self) -> bool:
        """True when beta + rho*lam vanishes (relative tolerance 1e-12).

        In the degenerate regime the limiting variance of the normalized
        functional is zero; construction still succeeds and the flag is
        propagated into reports.
        """
        s = abs(self.beta) + abs(self.rho * self.lam)
        return abs(self.beta + self.rho * self.lam) <= DEGENERACY_RTOL * s


class CumulantKind(Enum):
    """Which law a cumulant vector describes."""

    STATIONARY = "stationary"  # stationary law of X
    DRIVER = "driver"          # unit-time increment of the driver Z


@dataclass(frozen=True)
class CumulantVector:
    """Cumulants kappa^(1)..kappa^(r_max) of a distribution."""

    kind: CumulantKind
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("need at least two cumulant orders")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("cumulants must be finite")
        if self.values[1] < 0:
            raise ValueError("second cumulant must be nonnegative")

    @property
    def order(self) -> int:
        return len(self.values)

    def get(self, k: int) -> float:
        """kappa^(k), 1-based order."""
        if not 1 <= k <= len(self.values):
            raise ValueError(f"cumulant order {k} not available (have 1..{len(self.values)})")
        return self.values[k - 1]


@dataclass(frozen=True)
class CumulantTable:
    """Cumulants of the normalized functional for orders 2..p at horizon T."""

    T: float
    values: tuple[float, ...]  # order r = 2 .. p

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if len(self.values) < 1:
            raise ValueError("table must contain at least the variance")
        for r, v in enumerate(self.values, start=2):
            if not math.isfinite(v):
                raise OverflowError(f"normalized cumulant of order {r} at T={self.T!r} is "
                                    f"{v!r}: its closed form leaves float range")

    @property
    def order(self) -> int:
        """Largest order p covered by the table."""
        return len(self.values) + 1

    def get(self, r: int) -> float:
        if not 2 <= r <= self.order:
            raise ValueError(f"order {r} outside table range 2..{self.order}")
        return self.values[r - 2]


def integrated_decay(lam: float, u):
    """int_0^u exp(-lam*s) ds = (1 - exp(-lam*u)) / lam.

    Monotone nondecreasing in u and bounded by 1/lam.  Accepts scalar or
    array u.  expm1 keeps the small-lam*u regime accurate and saturates
    exactly at 1/lam once lam*u underflows the exponential, also where
    lam*u overflows, as expm1(-inf) = -1.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0):
        raise ValueError("u must be nonnegative")
    with np.errstate(over="ignore"):
        out = -np.expm1(-lam * u_arr) / lam
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Five Newton steps on the Legendre recurrence from Tricomi's approximations
    to the roots (four reach them to rounding), then the weights
    2 / ((1 - x**2) P_n'(x)**2) at those nodes: within ~1e-14 relative of
    40-digit values at n = 24 and n = 200.  The arrays are read-only, as the
    cache hands them to every caller.
    """
    k = np.arange(1, n + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(6):
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        dp = n * (p_prev - x * p) / (1.0 - x * x)
        x, nodes = x - p / dp, x  # the sixth step only gives P_n' at the nodes
    weights = 2.0 / ((1.0 - nodes * nodes) * dp * dp)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def stationary_cumulants(driver_cum: CumulantVector, lam: float) -> CumulantVector:
    """Cumulants of the stationary law from driver cumulants: kappa_F^(k) = kappa_Z^(k) / (k*lam)."""
    if driver_cum.kind is not CumulantKind.DRIVER:
        raise ValueError("expected driver cumulants")
    if lam <= 0:
        raise ValueError("lam must be positive")
    vals = tuple(v / (k * lam) for k, v in enumerate(driver_cum.values, start=1))
    return CumulantVector(CumulantKind.STATIONARY, vals)


def kernel_weight_integral(r: int, params: ModelParams, T: float) -> float:
    """int_0^T (rho + beta * integrated_decay(lam, v))**r dv.

    The r = 1 and r = 2 cases are the drift and Gaussian-variance weights used
    by the exact sampler.  With y = 1 - exp(-lam*v), B = beta/lam and
    A = rho + B (the weight's limit) the integral is

        (1/lam) int_0^{y_T} (rho + B*y)**r / (1 - y) dy,

    and splitting A**r / (1 - y) off the integrand leaves the finite sum

        A**r T - (1/lam) sum_{j=1}^{r} A**(r-j) (w_T**j - rho**j) / j,

    w_T = rho + B*y_T the weight at T.  For lam*T >= 2 the sum is used; below
    that its two terms cancel, and 24-node Gauss-Legendre on the integrand,
    which is analytic well beyond [0, y_T], is used instead.  Either way the
    value is within ~1e-14 of a 150-digit evaluation, relative to itself for
    even r and, as an odd-order integral can vanish, to the same integral of
    (|rho| + |beta| * integrated_decay(lam, v))**r for odd r.  OverflowError
    when the value is beyond float range.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    if r > R_MAX:
        raise ValueError(f"r={r} exceeds supported maximum {R_MAX}")
    if T <= 0:
        raise ValueError("T must be positive")
    lam, rho, B = params.lam, params.rho, params.beta / params.lam
    y_T = -math.expm1(-lam * T)
    if lam * T >= 2.0:
        A, w_T = rho + B, rho + B * y_T
        try:
            total = A ** r * T - sum(A ** (r - j) * (w_T ** j - rho ** j) / j
                                     for j in range(1, r + 1)) / lam
        except OverflowError:  # Python's float power raises where numpy gives inf
            total = math.inf
    else:
        x, w = gauss_legendre(24)
        y = 0.5 * y_T * (1.0 + x)
        with np.errstate(over="ignore", invalid="ignore"):
            total = 0.5 * y_T * float(np.dot(w, (rho + B * y) ** r / (1.0 - y))) / lam
    if not math.isfinite(total):
        raise OverflowError(f"kernel weight integral of order {r} at T={T!r} overflows")
    return total


def _check_order(r: int, kappa_f: CumulantVector) -> None:
    """Refuse an order r that the normalized cumulant of kappa_f cannot take."""
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"r must be an integer >= 2, got {r!r}")
    if r > R_MAX:
        raise ValueError(f"r={r} exceeds supported maximum {R_MAX}")
    if kappa_f.kind is not CumulantKind.STATIONARY:
        raise ValueError("expected stationary cumulants")
    if r > kappa_f.order:
        raise ValueError(f"cumulant order {r} not available (have 1..{kappa_f.order})")


def normalized_cumulant(r: int, params: ModelParams, kappa_f: CumulantVector, T: float) -> float:
    """r-th cumulant of T^{-1/2} (Y_T - E[Y_T]), exact closed form.

    For r = 2 this is the exact finite-horizon variance of the normalized
    functional.  OverflowError, naming r and T, when (beta * k_T)**r or the
    scale factor T^{-(r-2)/2} (tiny T at high orders) is beyond float range.
    """
    _check_order(r, kappa_f)
    if T <= 0:
        raise ValueError("T must be positive")
    lam, beta = params.lam, params.beta
    k_T = integrated_decay(lam, T)
    try:
        head, scale = (beta * k_T) ** r, T ** (-(r - 2) / 2.0)
    except OverflowError:
        raise OverflowError(f"normalized cumulant of order {r} at T={T!r}: (beta * k_T)**{r} "
                            f"or T**{-(r - 2) / 2.0} is beyond float range") from None
    bracket = head / T + lam * r * kernel_weight_integral(r, params, T) / T
    return scale * bracket * kappa_f.get(r)


def normalized_cumulant_limit(r: int, params: ModelParams, kappa_f: CumulantVector) -> float:
    """Large-T limit of T^{(r-2)/2} times the r-th normalized cumulant.

    The binomial sum collapses to lam * r * (rho + beta/lam)**r * kappa_F^(r);
    for r = 2 this equals 2 * (beta + rho*lam)**2 * kappa_F^(2) / lam.
    Identically zero in the degenerate regime beta + rho*lam = 0.
    OverflowError, naming r, when the limit is beyond float range.
    """
    _check_order(r, kappa_f)
    lam = params.lam
    try:
        limit = lam * r * (params.rho + params.beta / lam) ** r * kappa_f.get(r)
    except OverflowError:
        limit = math.inf
    if not math.isfinite(limit):
        raise OverflowError(f"large-T limit of the normalized cumulant of order {r} "
                            "(T -> inf) is beyond float range")
    return limit


def cumulant_table(p: int, params: ModelParams, kappa_f: CumulantVector,
                   T: float) -> CumulantTable:
    """Table of normalized cumulants for orders 2..p at horizon T."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    vals = [normalized_cumulant(r, params, kappa_f, T) for r in range(2, p + 1)]
    return CumulantTable(T=float(T), values=tuple(vals))


def wiener_nondegeneracy_det(C: float, params: ModelParams, t0: float) -> float:
    """Determinant lower bound for the joint-law covariance of (X, deviation).

    Evaluates

        C^2 * lam^-4 * (beta + rho*lam)^2
            * { (lam*t0/2) * (exp(2*lam*t0) - 1) - (exp(lam*t0) - 1)^2 }

    which is strictly positive whenever beta + rho*lam != 0 and lam*t0 != 0.
    Useful as a diagnostic for joint-distribution non-degeneracy when the
    driver has a Gaussian component.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    lam = params.lam
    x = lam * t0
    brace = 0.5 * x * math.expm1(2.0 * x) - math.expm1(x) ** 2
    return C ** 2 * lam ** -4 * (params.beta + params.rho * lam) ** 2 * brace
