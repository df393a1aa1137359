"""Hot numeric kernels of the exact sampler, in numpy.

Each kernel has exactly one implementation.  Segment sums over jumps are
differences of one running cumulative sum, evaluated at the segment
offsets; the per-step (X, Y) recursion is a scalar loop, since every step
depends on the one before.  Reference loops that spell out each kernel
term by term live in tests/test_kernels.py.
"""

from __future__ import annotations

import numpy as np


# --- jump-part weighted segment sums -------------------------------------
# out[i] = sum_j (rho + beta*(1-exp(-lam*(T-tau[j])))/lam) * sizes[j]
# over the slice offsets[i]:offsets[i+1].

def segment_weighted_sums(tau, sizes, offsets, lam, beta, rho, T):
    if tau.size == 0:
        return np.zeros(offsets.size - 1)
    w = rho + beta * (-np.expm1(-lam * (T - tau))) / lam
    csum = np.concatenate(([0.0], np.cumsum(w * sizes)))
    return csum[offsets[1:]] - csum[offsets[:-1]]


# --- per-step jump aggregates for the path sampler ------------------------
# Step k collects jumps offsets[k]:offsets[k+1] with intra-step times jt in
# (0, dt):  dxj[k] = sum exp(-lam*(dt-jt))*js,  ij[k] = sum k(dt-jt)*js
# with k(u) the integrated decay.

def jump_step_sums(jt, js, offsets, lam, dt):
    n = offsets.size - 1
    if jt.size == 0:
        return np.zeros(n), np.zeros(n)
    e = np.exp(-lam * (dt - jt))
    cs1 = np.concatenate(([0.0], np.cumsum(e * js)))
    cs2 = np.concatenate(([0.0], np.cumsum((1.0 - e) / lam * js)))
    return cs1[offsets[1:]] - cs1[offsets[:-1]], cs2[offsets[1:]] - cs2[offsets[:-1]]


# --- exact per-step recursion for (X, Y) ----------------------------------
# x' = q*x + drift_x + a11*g1 + dxj ;  step integral i = eta_d*x + drift_i
# + a21*g1 + a22*g2 + ij ;  dz recovered exactly from dz = (x'-x) + lam*i.

def path_recursion(x0, q, eta_d, drift_x, drift_i, a11, a21, a22,
                   g1, g2, dxj, ij, lam, beta, gamma, rho, dt):
    n = g1.size
    X = np.empty(n + 1)
    Y = np.empty(n + 1)
    X[0] = x0
    Y[0] = 0.0
    x = x0
    for k in range(n):
        i_step = eta_d * x + drift_i + a21 * g1[k] + a22 * g2[k] + ij[k]
        x_new = q * x + drift_x + a11 * g1[k] + dxj[k]
        dz = (x_new - x) + lam * i_step
        Y[k + 1] = Y[k] + gamma * dt + beta * i_step + rho * dz
        X[k + 1] = x_new
        x = x_new
    return X, Y


# --- gathered central moments of a resample x[idx] -------------------------
# Not called by the library (its k-statistic SEs are closed-form); the
# benchmark tracer's smoke test probes it by name.

def gathered_central_moments(x, idx):
    y = x[idx]
    mean = y.mean()
    d = y - mean
    d2 = d * d
    return float(mean), float(d2.mean()), float((d2 * d).mean()), float((d2 * d2).mean())
