"""Edgeworth expansion of arbitrary order from a table of cumulants.

The (p-2)-th expansion refines the centered normal density with variance
sigma (the order-2 cumulant) by Hermite-polynomial terms whose coefficients
are composition sums over the higher normalized cumulants:

    g_p(y) = { 1 + sum_{k=1}^{p-2} sum over ordered compositions
               (k_1,...,k_l) of k of
               prod_i kappa_{k_i+2} / ( l! * prod_i (k_i+2)! )
               * h_{k+2l}(y; sigma) } * phi(y; sigma)

The inner sum over the compositions of k is e_k, the order-k part of the
exponential of the cumulant series sum_j r_j x^{j+2} with
r_j = kappa_{j+2} / (j+2)!, where x^d stands for h_d.  expansion_coefficients
builds the e_k by Miller's power-series recurrence (Knuth, TAOCP vol. 2,
section 4.7) rather than by enumerating the compositions.

g_p integrates to one but may dip negative in the tails: it is the density
of a signed measure, and expectations against it are exact in closed form
for indicators, polynomials and piecewise-linear tabulated functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cumulants import R_MAX, CumulantTable, gauss_legendre

__all__ = [
    "ExpansionCoefficients",
    "NonPositiveVarianceError",
    "TestFunction",
    "hermite",
    "expansion_coefficients",
    "density",
    "cdf",
    "expect",
    "hermite_moment",
    "negative_density_report",
]

_erfc = np.frompyfunc(math.erfc, 1, 1)  # object array out


class NonPositiveVarianceError(ValueError):
    """The variance of an expansion is not positive (zero, negative or NaN).

    A model property, not a malformed input: it arises in the degenerate
    regime or from a variance that underflows to 0.
    """


class GrowthBoundError(ValueError):
    """A polynomial test function grows faster than the order-p expansion
    allows: its degree exceeds the growth bound 2*(p//2)."""


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Assembled coefficients of the order-p expansion.

    `terms` maps Hermite degree d to the coefficient of x^d summed over
    e_1, ..., e_{p-2}; p = 2 means the plain normal (no terms).
    """

    p: int
    sigma: float
    terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if not self.sigma > 0:
            raise NonPositiveVarianceError(f"variance sigma must be positive, got {self.sigma!r}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma!r}")
        bad = [f"{deg} is {c!r}" for deg, c in self.terms if not math.isfinite(c)]
        if bad:
            raise ValueError(f"order-{self.p} expansion coefficient of Hermite degree {bad[0]}")
        if not all(deg >= 3 for deg, _ in self.terms):
            raise ValueError("Hermite degrees k+2l of the terms must be >= 3")


def hermite(r: int, y, sigma: float):
    """Hermite polynomial h_r(y; sigma) for the N(0, sigma) weight.

    Defined by h_r = (-1)^r * phi^{-1} * d^r/dy^r phi with phi the centered
    normal density of variance sigma; computed via the recurrence
    h_{r+1} = (y*h_r - r*h_{r-1}) / sigma with h_0 = 1, h_1 = y/sigma.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    y_arr = np.asarray(y, dtype=float)
    h = _hermite_values(r, y_arr, sigma)[r]
    return float(h) if y_arr.ndim == 0 else h


def _hermite_values(r: int, y: np.ndarray, sigma: float) -> list[np.ndarray]:
    """[h_0(y), ..., h_r(y)] from one running pass of the recurrence."""
    hs = [np.ones_like(y), y / sigma]
    for k in range(1, r):
        hs.append((y * hs[k] - k * hs[k - 1]) / sigma)
    return hs[:r + 1]


def _gaussian_pdf(y, sigma: float):
    y_arr = np.asarray(y, dtype=float)
    out = np.exp(-0.5 * y_arr * y_arr / sigma) / math.sqrt(2.0 * math.pi * sigma)
    return float(out) if y_arr.ndim == 0 else out


def _hermite_sum(y, ec: ExpansionCoefficients, s: int, total, weight):
    """(total + S_s(y)) * weight, where S_s = sum_k coeff_k h_{deg_k - s}(.; sigma).

    The weight is phi or a difference of phi values, and the product is taken
    as 0 where the weight is 0: there phi has underflowed, a Hermite factor
    may have overflowed, and inf * 0 would give NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if ec.terms:
            hs = _hermite_values(max(deg for deg, _ in ec.terms) - s, y, ec.sigma)
        for deg, coeff in ec.terms:
            total = total + coeff * hs[deg - s]
        return np.where(weight == 0.0, 0.0, total * weight)


def _hermite_step(r: int, y: np.ndarray, dy: np.ndarray, sigma: float) -> np.ndarray:
    """h_r(y + dy) - h_r(y) for r >= 1, from the recurrence
    d_{k+1} = ((y + dy) d_k + dy h_k(y) - k d_{k-1}) / sigma of the differences,
    which keeps its relative accuracy as dy -> 0."""
    h_prev, h, d_prev, d = 1.0, y / sigma, 0.0, dy / sigma
    for k in range(1, r):
        h, h_prev, d, d_prev = ((y * h - k * h_prev) / sigma, h,
                                ((y + dy) * d + dy * h - k * d_prev) / sigma, d)
    return d


def expansion_coefficients(p: int, table: CumulantTable) -> ExpansionCoefficients:
    """Aggregate the composition sums of the order-p expansion by Hermite degree.

    Miller's recurrence gives the order-k parts of exp(sum_j r_j x^{j+2}),
    r_j = kappa_{j+2} / (j+2)!, as polynomials in x: e_0 = 1 and
    e_k = (1/k) sum_{j=1}^{k} j r_j x^{j+2} e_{k-j}.  The coefficient of x^d
    in e_k, k = 1..p-2, is added to the term of Hermite degree d.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if p > R_MAX:
        raise ValueError(f"p={p} exceeds supported maximum {R_MAX}")
    if table.order < p:
        raise ValueError(f"cumulant table covers orders 2..{table.order}, need {p}")
    sigma = table.get(2)
    r = {j: table.get(j + 2) / math.factorial(j + 2) for j in range(1, p - 1)}
    e: list[dict[int, float]] = [{0: 1.0}]  # e[k] maps the degree of x to its coefficient
    by_degree: dict[int, float] = {}
    for k in range(1, p - 1):
        e_k: dict[int, float] = {}
        for j in range(1, k + 1):
            for deg, coeff in e[k - j].items():
                e_k[deg + j + 2] = e_k.get(deg + j + 2, 0.0) + j * r[j] * coeff
        e.append({deg: total / k for deg, total in e_k.items()})
        for deg, coeff in e[k].items():
            by_degree[deg] = by_degree.get(deg, 0.0) + coeff
    terms = tuple(sorted(by_degree.items()))
    return ExpansionCoefficients(p=p, sigma=sigma, terms=terms)


def density(y, ec: ExpansionCoefficients):
    """Expansion density g_p(y); may be negative for large |y| (signed measure)."""
    y_arr = np.asarray(y, dtype=float)
    out = _hermite_sum(y_arr, ec, 0, np.ones_like(y_arr), _gaussian_pdf(y_arr, ec.sigma))
    return float(out) if y_arr.ndim == 0 else out


def cdf(a, ec: ExpansionCoefficients):
    """Signed-measure mass of (-inf, a]:  Phi(a) - sum_k coeff_k h_{deg-1}(a) phi(a).

    Uses int_{-inf}^{a} h_k phi dy = -h_{k-1}(a) phi(a) for k >= 1.  Accepts
    scalar or array a (a float for a scalar); a = +-inf gives exactly 1 or 0
    (total mass one).
    """
    a_arr = np.asarray(a, dtype=float)
    out = (0.5 * np.asarray(_erfc(-a_arr / math.sqrt(2.0 * ec.sigma)), dtype=float)
           - _hermite_sum(a_arr, ec, 1, 0.0, _gaussian_pdf(a_arr, ec.sigma)))
    return float(out) if a_arr.ndim == 0 else out


@dataclass(frozen=True)
class TestFunction:
    """Test function of at most polynomial growth for expansion expectations."""

    __test__ = False  # not a pytest collection target

    kind: str  # "indicator_le" | "indicator_interval" | "polynomial" | "tabulated"
    a: float = math.nan
    b: float = math.nan
    coeffs: tuple[float, ...] = ()
    grid: tuple[tuple[float, ...], tuple[float, ...]] = ((), ())

    @classmethod
    def indicator_le(cls, a: float) -> "TestFunction":
        """1 on (-inf, a], 0 elsewhere."""
        return cls(kind="indicator_le", a=float(a))

    @classmethod
    def indicator_interval(cls, a: float, b: float) -> "TestFunction":
        """1 on (a, b], 0 elsewhere; endpoints may be +-inf."""
        if not a <= b:
            raise ValueError("need a <= b")
        return cls(kind="indicator_interval", a=float(a), b=float(b))

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "TestFunction":
        """sum_m coeffs[m] * y**m."""
        return cls(kind="polynomial", coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def tabulated(cls, ys: Sequence[float], values: Sequence[float]) -> "TestFunction":
        """Piecewise-linear interpolant of (ys, values), zero outside the grid."""
        ys_t = tuple(float(v) for v in ys)
        if len(ys_t) != len(values) or len(ys_t) < 1:
            raise ValueError("grid and values must have equal nonzero length")
        if any(ys_t[i] >= ys_t[i + 1] for i in range(len(ys_t) - 1)):
            raise ValueError("grid must be strictly increasing")
        return cls(kind="tabulated", grid=(ys_t, tuple(float(v) for v in values)))

    @property
    def degree(self) -> int:
        """Polynomial degree (meaningful for kind == 'polynomial')."""
        deg = 0
        for m, c in enumerate(self.coeffs):
            if c != 0.0:
                deg = m
        return deg


def hermite_moment(m: int, k: int, sigma: float) -> float:
    """int y**m h_k(y; sigma) phi(y; sigma) dy, exact.

    Zero unless m >= k with m - k even; otherwise sigma**s * m! / (2**s * s!)
    with s = (m - k) / 2.  k = 0 gives the raw normal moment.
    """
    if m < 0 or k < 0:
        raise ValueError("m and k must be nonnegative")
    if m < k or (m - k) % 2 != 0:
        return 0.0
    s = (m - k) // 2
    return sigma ** s * math.factorial(m) / (2 ** s * math.factorial(s))


def expect(f: TestFunction, ec: ExpansionCoefficients) -> float:
    """Expectation of f under the signed expansion measure, in closed form for every kind.

    A tabulated f is linear on each piece, so it needs only F = cdf and
    M(a) = int_{-inf}^a y g_p = -phi(a) (sigma + a S_1(a) + S_2(a)), from y h_k =
    sigma h_{k+1} + k h_{k-1} and int_{-inf}^a h_k phi = -h_{k-1}(a) phi(a)."""
    if f.kind == "indicator_le":
        return cdf(f.a, ec)
    if f.kind == "indicator_interval":
        return cdf(f.b, ec) - cdf(f.a, ec)
    if f.kind == "polynomial":
        p0 = 2 * (ec.p // 2)
        if f.degree > p0:
            raise GrowthBoundError(f"polynomial degree {f.degree} exceeds growth bound {p0}")
        total = 0.0
        for m, c in enumerate(f.coeffs):
            if c == 0.0:
                continue
            val = hermite_moment(m, 0, ec.sigma)
            for deg, coeff in ec.terms:
                val += coeff * hermite_moment(m, deg, ec.sigma)
            total += c * val
        return total
    if f.kind == "tabulated":
        # Piece [a, b = a + h] with slope m adds f(a) dF + m J, where J = [M - a F]_a^b
        # = -sigma dphi - a dPhi - h S_1(b) phi(b) - phi(far) dS_2 - S_2(near) dphi, with
        # near/far the end nearer to/farther from 0.  Each difference d is formed so
        # that its error shrinks with h, as m may be O(1/h), and a Hermite factor is
        # only ever multiplied by phi at its own end or one farther out, so where that
        # phi underflows to 0 the term is 0, not inf * 0.
        ys, vals = (np.asarray(v) for v in f.grid)
        sigma = ec.sigma
        a, b, h = ys[:-1], ys[1:], np.diff(ys)
        m = np.diff(vals) / h  # 0 on a flat piece, an infinite one included
        pdf = _gaussian_pdf(ys, sigma)
        with np.errstate(over="ignore", invalid="ignore"):  # j is not finite on an infinite piece
            far_a = a + b < 0.0
            pdf_near = np.where(far_a, pdf[1:], pdf[:-1])
            pdf_far = np.where(far_a, pdf[:-1], pdf[1:])
            d_pdf = (np.where(far_a, -pdf_near, pdf_near)
                     * np.expm1(-h * np.abs(a + b) / (2.0 * sigma)))
            side = np.where(a >= 0.0, 1.0, -1.0)  # erfc's small tail, not 2 - tail
            erfc_a, erfc_b = _erfc(side * np.stack((a, b)) / math.sqrt(2.0 * sigma)).astype(float)
            # an erfc difference keeps an ulp of erfc whatever h is, so a piece
            # narrower than sqrt(sigma) takes h times the mean of phi over it
            x, w = gauss_legendre(24)
            narrow = h <= math.sqrt(sigma)
            half = np.where(narrow, 0.5 * h, 0.0)
            mid = np.where(narrow, 0.5 * (a + b), 0.0)
            d_quad = half * (_gaussian_pdf(mid[:, None] + half[:, None] * x, sigma) @ w)
            d_norm = np.where(narrow, d_quad, 0.5 * side * (erfc_a - erfc_b))
            live = pdf_far > 0.0  # elsewhere dS_2 may overflow; it is taken at a = h = 0
            d_s2 = sum(c * _hermite_step(deg - 2, a * live, h * live, sigma) for deg, c in ec.terms)
            j = (-sigma * d_pdf - a * d_norm - h * _hermite_sum(b, ec, 1, 0.0, pdf[1:])
                 - pdf_far * d_s2 - _hermite_sum(np.where(far_a, b, a), ec, 2, 0.0, d_pdf))
            slope_terms = np.where(m == 0.0, 0.0, m * j)
        return float(np.sum(vals[:-1] * np.diff(cdf(ys, ec)) + slope_terms))
    raise ValueError(f"unknown test-function kind {f.kind!r}")


def negative_density_report(ec: ExpansionCoefficients) -> tuple[float, float]:
    """Minimum of g_p and its location on 4001 points in +-12 sqrt(sigma), never clipped."""
    half = 12.0 * math.sqrt(ec.sigma)
    ys = np.linspace(-half, half, 4001)
    gs = density(ys, ec)
    i = int(np.argmin(gs))
    return float(gs[i]), float(ys[i])
