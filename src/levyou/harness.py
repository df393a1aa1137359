"""Monte Carlo validation harness.

Draws exact samples of the normalized terminal deviation across a horizon
grid, compares empirical indicator expectations against the normal and
higher-order expansion predictions, matches sample k-statistics against the
closed-form cumulants, and packages everything into a reproducible report.

Reproducibility contract: replicate draws are organized in fixed-size chunks
whose RNG streams derive from (seed, horizon index, chunk index) only, and
results are written into preallocated slots, so reports are byte-identical
for any worker count.  Validation reduces each chunk's draws to fixed-size
sums in the thread that draws it, so it never holds a horizon's draws.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .cumulants import ModelParams, normalized_cumulant_limit
from .edgeworth import ExpansionCoefficients, cdf, expansion_coefficients
from .simulate import DriverSpec, _check_jump_budget, sample_deviation

__all__ = [
    "CHUNK",
    "KStatistics",
    "MCReport",
    "MeanEstimatorResult",
    "ConvergenceStudy",
    "estimate_indicator",
    "k_statistics",
    "draw_normalized_samples",
    "run_validation",
    "mean_estimator_demo",
    "convergence_study",
]

# Replicates per RNG stream and per slice of k_statistics' sums.  Fixed so that
# the draws depend only on (seed, horizon index), never on scheduling or workers.
CHUNK = 4096
# Sorted draws per block of the KS pass, whose expansion CDF holds a Python
# float per draw and a few arrays besides: ~650 KB of temporaries a block.
_KS_BLOCK = 1 << 13

_FOOTNOTES = (
    "Remainder constants of the expansion error bound are not computable; "
    "comparisons use Monte Carlo standard-error bands and ordering tests, "
    "not rate checks.",
    "Indicator test functions evaluated away from mass concentration are "
    "insensitive to the smoothing modulus; that term is treated as "
    "negligible and is not quantified.",
    "Cells with |empirical - normal prediction| <= 4 SE are marked "
    "non-informative and excluded from ordering comparisons.",
)


@dataclass(frozen=True)
class KStatistics:
    """Unbiased cumulant estimates k_1..k_r with closed-form standard errors."""

    values: np.ndarray
    se: np.ndarray


def _indicator(below: float, n: int) -> tuple[float, float]:
    """The proportion below/n with its binomial standard error."""
    p_hat = below / n
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n)


def estimate_indicator(samples: np.ndarray, a: float) -> tuple[float, float]:
    """Proportion of samples <= a with its binomial standard error."""
    n = samples.size
    if n < 2:
        raise ValueError("need at least two samples")
    return _indicator(float(np.count_nonzero(samples <= a)), n)


def _moment_sums(x: np.ndarray, order: int) -> np.ndarray:
    """[count, sum, S_1..S_order] of x in two passes: S_k = sum (x - sum/count)^k."""
    row = np.empty(order + 2)
    row[0], row[1] = x.size, np.add.reduce(x)
    d = x - row[1] / x.size
    power = d.copy()
    for k in range(2, order + 2):
        row[k] = np.add.reduce(power)
        power *= d
    return row


def _k_from_sums(rows: np.ndarray, r_max: int) -> KStatistics:
    """k_statistics from the `_moment_sums` rows of a sample's slices: each
    row moves to the sample's mean by sum_j C(k, j) S_j delta^(k-j), delta the
    slice's mean less the sample's (Pebay, SAND2008-6212, section 2), and the
    rows are summed pairwise.  delta first drops the mean's rounding."""
    order = 2 * r_max
    counts, sums = rows[:, 0], rows[:, 1]
    n = int(np.add.reduce(counts))
    mean = float(np.add.reduce(sums)) / n
    delta = sums / counts - mean
    delta -= np.add.reduce(rows[:, 2] + counts * delta) / n
    # delta^0..delta^order as products: np.power's AVX-512 loop rounds otherwise
    powers = np.cumprod([np.ones_like(delta)] + [delta] * order, axis=0)
    shifted = np.zeros((9, rows.shape[0]))  # row k: each slice's sum (x - mean)^k
    for k in range(2, order + 1):
        for j in range(k + 1):
            shifted[k] += math.comb(k, j) * rows[:, j + 1 if j else 0] * powers[k - j]
    _, _, m2, m3, m4, m5, m6, m7, m8 = (np.add.reduce(shifted, axis=1) / n).tolist()
    values = [mean, n * m2 / (n - 1), r_max > 2 and n * n * m3 / ((n - 1) * (n - 2)),
              r_max > 3 and n * n * ((n + 1) * m4 - 3 * (n - 1) * m2 * m2)
              / ((n - 1) * (n - 2) * (n - 3))]
    # mean(IF_r^2) as polynomials in the central moments (mean(d) = 0)
    influence = (m2, m4 - m2 * m2, m6 - 6.0 * m2 * m4 - m3 * m3 + 9.0 * m2 * m2 * m2,
                 m8 - 12.0 * m2 * m6 - 8.0 * m3 * m5 - m4 * m4 + 48.0 * m2 * m2 * m4
                 + 64.0 * m2 * m3 * m3 - 36.0 * m2 * m2 * m2 * m2)
    return KStatistics(values=np.array(values[:r_max]),
                       se=np.sqrt(np.maximum(influence[:r_max], 0.0) / n))


def k_statistics(samples: np.ndarray, r_max: int = 4) -> KStatistics:
    """k-statistics (unbiased cumulant estimators) with closed-form SEs.

    k2 = n*m2/(n-1), k3 = n^2*m3/((n-1)(n-2)),
    k4 = n^2*((n+1)*m4 - 3*(n-1)*m2^2)/((n-1)(n-2)(n-3)) with central moments
    m_r.  The SE of k_r is the plug-in delta-method value sqrt(mean(IF_r^2)/n)
    that a nonparametric bootstrap estimates, with IF_r the influence function
    of the r-th cumulant at the empirical law (d = x - mean): IF_1 = d,
    IF_2 = d^2 - m2, IF_3 = d^3 - m3 - 3*m2*d,
    IF_4 = d^4 - m4 - 4*m3*d - 6*m2*(d^2 - m2).  n*SE^2 tends to the k-statistic
    variances of Kendall & Stuart vol. 1 ch. 12, e.g. 1, 2, 6, 24 for N(0, 1).
    Each mean(IF_r^2) is expanded as a polynomial in m_2..m_2r and clipped at
    0 before the square root.

    The sums over CHUNK-sized slices are combined as `run_validation` does
    with its chunks, so the two agree bit for bit.  Each value and SE is as
    accurate as the whole-array formulas, except that where the influence
    variance nearly cancels (a near two-point law) the SE is accurate only to
    about sqrt(eps * m_2r / n) in absolute terms.
    """
    if not 1 <= r_max <= 4:
        raise ValueError("r_max must be between 1 and 4")
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < max(2, r_max):
        raise ValueError(f"need at least {max(2, r_max)} samples, got {n}")
    return _k_from_sums(np.array([_moment_sums(samples[lo:lo + CHUNK], 2 * r_max)
                                  for lo in range(0, n, CHUNK)]), r_max)


def draw_normalized_samples(params: ModelParams, driver: DriverSpec, T: float,
                            n: int, seed: int, workers: int = 1,
                            stream_tag: int = 0, reduce=None) -> np.ndarray:
    """n exact draws of the normalized deviation T^{-1/2}(Y_T - E[Y_T]).

    Chunked into fixed CHUNK-sized blocks with per-block streams keyed by
    (seed, stream_tag, block index), each drawn into its own slot of the
    output by a pool of max(workers, 1) threads, so the output is
    independent of `workers`.  With `reduce`, each chunk's draws go to
    `reduce(draws)` in its thread instead, and the fixed-length vectors it
    returns come back as one array, a row per chunk.  An exception raised
    while drawing a chunk, KeyboardInterrupt included, cancels the chunks not
    yet started and is raised here.
    """
    # imported here so that `import levyou` does not pay for it (and logging's)
    from concurrent.futures import ThreadPoolExecutor

    out = np.empty(n) if reduce is None else None
    jobs = [(ci, lo, min(lo + CHUNK, n))
            for ci, lo in enumerate(range(0, n, CHUNK))]

    def work(job):
        ci, lo, hi = job
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_tag, ci)))
        draws = sample_deviation(params, driver, T, rng, size=hi - lo)
        draws /= math.sqrt(T)
        if reduce is not None:
            return reduce(draws)
        out[lo:hi] = draws

    with ThreadPoolExecutor(max_workers=max(workers, 1)) as ex:
        for ci, row in enumerate(ex.map(work, jobs)):
            if reduce is not None:
                if out is None:
                    out = np.empty((len(jobs), row.size))
                out[ci] = row
    return out


@dataclass
class MCReport:
    """Validation results: indicator cells, cumulant matches, internal checks."""

    config_hash: str
    degenerate: bool
    partial: bool
    cells: list[dict]
    cumulants: list[dict]
    checks: list[dict]
    footnotes: tuple[str, ...]
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "degenerate": self.degenerate,
            "partial": self.partial,
            "cells": self.cells,
            "cumulants": self.cumulants,
            "checks": self.checks,
            "footnotes": list(self.footnotes),
            "meta": {"wall_time_s": self.wall_time_s},
        }

    def write_cells_csv(self, fileobj) -> None:
        fileobj.write("T,a,p,empirical,se,psi_p,gap,informative\n")
        for c in self.cells:
            fileobj.write(
                f"{c['T']!r},{c['a']!r},{c['p']},{c['empirical']!r},"
                f"{c['se']!r},{c['psi_p']!r},{c['gap']!r},{int(c['informative'])}\n"
            )

    def all_checks_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def run_validation(cfg: ExperimentConfig) -> MCReport:
    """Run the full experiment described by cfg; deterministic given the seed.

    Each chunk of draws becomes a row of `_moment_sums` and test-point
    counts (~100 bytes), whose sums give the bits of `estimate_indicator`
    and `k_statistics` on the whole draw array.  On KeyboardInterrupt the
    horizons completed so far are kept, with no cell or cumulant row of the
    interrupted one, and the report is marked partial.  Raises ValueError
    before drawing anything when a chunk of any horizon expects more jumps
    than MAX_EXPECTED_JUMPS.
    """
    for T in cfg.T_grid:
        _check_jump_budget(cfg.driver, T, min(CHUNK, cfg.n_samples))
    t0 = time.perf_counter()
    workers = cfg.resolved_workers()
    cells: list[dict] = []
    cumulant_rows: list[dict] = []
    partial = False

    def chunk_sums(draws):  # k_statistics' sums for r_max = 4, then the cell counts
        return np.concatenate((_moment_sums(draws, 8),
                               [np.count_nonzero(draws <= a) for a in cfg.test_points]))

    try:
        for t_idx, T in enumerate(cfg.T_grid):
            rows = draw_normalized_samples(cfg.params, cfg.driver, T,
                                           cfg.n_samples, cfg.seed, workers=workers,
                                           stream_tag=t_idx, reduce=chunk_sums)
            table = cfg.table(T)
            ecs = {p: expansion_coefficients(p, table)
                   for p in set(cfg.p_orders) | {2}}
            horizon_cells = []
            counts = np.add.reduce(rows[:, 10:], axis=0)  # after the 10 moment sums; exact
            for a, count in zip(cfg.test_points, counts):
                emp, se = _indicator(float(count), cfg.n_samples)
                psi2 = cdf(a, ecs[2])
                informative = abs(emp - psi2) > 4.0 * se
                for p in cfg.p_orders:
                    below = cdf(a, ecs[p])
                    horizon_cells.append({
                        "T": T, "a": a, "p": p,
                        "empirical": emp, "se": se,
                        "psi_p": below, "gap": abs(emp - below),
                        "informative": bool(informative),
                    })
            ks = _k_from_sums(rows, r_max=4)
            # an interrupted horizon leaves neither cells nor cumulant rows
            cells += horizon_cells
            cumulant_rows += [{"T": T, "r": r, "k_stat": float(ks.values[r - 1]),
                               "se": float(ks.se[r - 1]),
                               "predicted": 0.0 if r == 1 else table.get(r)}
                              for r in range(1, 5)]
    except KeyboardInterrupt:
        partial = True
    cum_fail = [f"T={row['T']} r={row['r']}" for row in cumulant_rows
                if row["r"] <= 3 and abs(row["k_stat"] - row["predicted"]) > 5.0 * row["se"]]
    checks = [
        {"name": "cumulant_match", "passed": not cum_fail,
         "detail": "k_r within 5 SE of prediction for r <= 3"
                   + ("" if not cum_fail else f"; failed: {', '.join(cum_fail)}")},
    ]
    return MCReport(
        config_hash=cfg.config_hash(),
        degenerate=cfg.params.degenerate,
        partial=partial,
        cells=cells,
        cumulants=cumulant_rows,
        checks=checks,
        footnotes=_FOOTNOTES,
        wall_time_s=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class MeanEstimatorResult:
    """Distributional summary of the time-average estimator of the stationary mean."""

    theta_hat: float
    theta0: float
    summary: dict


def _ks_distance(sorted_samples: np.ndarray, ec: ExpansionCoefficients) -> float:
    """sup |F_n - F| of the sorted samples' empirical law to `cdf` under ec.

    The one-sided gaps i/n - F(x_i) and F(x_i) - (i-1)/n are taken over
    blocks of _KS_BLOCK samples, so the temporaries stay block-sized; a maximum
    is exact, so the result equals the whole-array formula bit for bit.
    """
    n = sorted_samples.size
    gaps = []
    for lo in range(0, n, _KS_BLOCK):
        fx = cdf(sorted_samples[lo:lo + _KS_BLOCK], ec)
        i = np.arange(lo, lo + fx.size)
        gaps.append(np.max(np.abs((i + 1) / n - fx)))
        gaps.append(np.max(np.abs(fx - i / n)))
    return float(np.max(gaps))


def mean_estimator_demo(cfg: ExperimentConfig) -> MeanEstimatorResult:
    """Monte Carlo study of the time-average estimator theta_hat = Y_T / T
    at the first horizon of cfg.T_grid, from cfg.n_samples draws.

    Requires beta = 1, gamma = 0, rho = 0, in which case sqrt(T) times the
    estimation error equals the normalized deviation exactly.  Each
    theta-hat is then theta0 + d / sqrt(T) for a draw d, so the draws'
    k-statistics give the bias k_1/sqrt(T) and its SE sqrt(k_2/(T*n)), the
    mean and the standard error of the mean of the theta-hats.  Reports
    these, the variance k_2 of the scaled error against the closed-form
    variance, and Kolmogorov-Smirnov distances of the scaled error to the
    normal and the order-3 expansion.  The predictions come from
    `cfg.table`.
    """
    params, T, n_samples = cfg.params, cfg.T_grid[0], cfg.n_samples
    if not (params.beta == 1.0 and params.gamma == 0.0 and params.rho == 0.0):
        raise ValueError("mean-estimator demo requires beta=1, gamma=0, rho=0")
    theta0 = cfg.kappa_f.get(1)
    scaled = draw_normalized_samples(params, cfg.driver, T, n_samples, cfg.seed,
                                     workers=cfg.resolved_workers(), stream_tag=0)
    ks = k_statistics(scaled, r_max=2)
    k1, var_scaled = (float(v) for v in ks.values)
    bias = k1 / math.sqrt(T)
    bias_se = math.sqrt(var_scaled / (T * n_samples))
    var_se = float(ks.se[1])
    table = cfg.table(T)
    sigma_t = table.get(2)
    ec3 = expansion_coefficients(3, table)
    ec2 = expansion_coefficients(2, table)
    # sorted only now: k_statistics' sums of sorted draws would round differently
    scaled.sort()
    ks_normal = _ks_distance(scaled, ec2)
    ks_order3 = _ks_distance(scaled, ec3)
    return MeanEstimatorResult(
        theta_hat=theta0 + bias,
        theta0=theta0,
        summary={
            "T": T, "n_samples": n_samples,
            "bias": bias, "bias_se": bias_se,
            "var_scaled_error": var_scaled, "var_se_boot": var_se,
            "var_predicted": sigma_t,
            "ks_normal": ks_normal, "ks_order3": ks_order3,
        },
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Closed-form decay of the rescaled cumulants toward their limits."""

    rows: list[dict]
    slopes: dict[int, float | None]


def convergence_study(cfg: ExperimentConfig) -> ConvergenceStudy:
    """Tabulate T^{(r-2)/2} * cumulant against its limit over the horizon grid.

    For each r in {2,3,4} reports the rescaled value, the limit, the absolute
    gap, and the fitted log-log decay slope of the gap (None when the gap is
    identically zero, e.g. odd orders under a Gaussian driver).  The values
    come from `cfg.table`.
    """
    if len(set(cfg.T_grid)) < 3:
        raise ValueError("convergence study needs at least 3 distinct horizons")
    tables = [cfg.table(T) for T in cfg.T_grid]
    rows: list[dict] = []
    slopes: dict[int, float | None] = {}
    for r in (2, 3, 4):
        limit = normalized_cumulant_limit(r, cfg.params, cfg.kappa_f)
        gaps = []
        for T, table in zip(cfg.T_grid, tables):
            scaled = T ** ((r - 2) / 2.0) * table.get(r)
            gap = abs(scaled - limit)
            rows.append({"r": r, "T": T, "scaled": scaled, "limit": limit, "gap": gap})
            gaps.append(gap)
        if all(g > 0 for g in gaps):
            slope = float(np.polyfit(np.log(cfg.T_grid), np.log(gaps), 1)[0])
        else:
            slope = None
        slopes[r] = slope
    return ConvergenceStudy(rows=rows, slopes=slopes)
