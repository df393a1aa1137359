"""Hot numeric kernels of the exact sampler, in numpy.

Each kernel has exactly one implementation.  A segment sum over jumps is
one `np.add.reduceat` over the segment's own jumps (empty segments are
zero), so each segment's sum depends only on its own jumps: it carries no
rounding from the segments before it, and it is the same bits whichever
block of segments it is computed in.

The jump kernels take each jump as the two doubles `_jump_runs` draws: a
uniform u, whose span*u has the law of the time from the jump to the end of
its span (the horizon, or the end of a path step), and l = log(1 - v) for a
second uniform v, so -l/alpha is an Exp(alpha) size.  They fold span, alpha
and the model's constants into one multiplier per pass, and take the decay
of each jump from expm1, so the weights keep their accuracy however small
lam*span is.  `segment_weighted_sums` builds the weighted terms in its
`tau` argument's own memory, overwriting the uniforms, and
`jump_step_sums` builds its terms in `jt`'s and the sizes in `js`'s, so
neither allocates a jump-sized array; `jump_step_sums` adds its sums into
the caller's step arrays.

The per-step X update of the path sampler is affine with one constant
factor, x' = q*x + c_k, so X is a doubling scan: ceil(log2 n) whole-array
passes in place of a loop over steps, and Y is one cumsum of per-step
increments computed from X elementwise.  The scan evaluates the same exact
per-step law as the loop; it only groups the sum q^k*x0 + sum_j q^(k-j)*c_j
differently, so X and Y differ from a loop's in the last digits (and are
no less accurate), while the random stream and the path law are unchanged.
`path_recursion` takes each step's innovations as two arrays, `g1` holding
c_k and `g2` the random part of the step integral, which the sampler builds
from only the driver parts it has.  It builds its step temporaries in its
outputs' memory and in that of `g1` and `g2`, which it overwrites, so
besides X and Y a call allocates no step-sized array.

Every in-place kernel performs the operations of its formula in the
formula's order, with only the operands of a product or sum commuted, so
its results are the bits of the formula written with fresh temporaries.
Reference loops that spell out each kernel term by term live in
tests/test_kernels.py.
"""

from __future__ import annotations

import sys

import numpy as np

_FLOAT_MAX = sys.float_info.max


# --- exact per-segment sums ------------------------------------------------
# out[i] = sum of values[offsets[i]:offsets[i+1]], offsets starting at 0.
# reduceat reads a repeated start as a one-element segment, so it gets only
# the starts of non-empty segments.

def _segment_sums(values, offsets):
    starts = offsets[:-1]
    full = offsets[1:] > starts
    out = np.zeros(starts.size)
    if values.size:
        out[full] = np.add.reduceat(values, starts[full])
    return out


# --- jump-part weighted segment sums -------------------------------------
# out[i] = sum_j (rho + beta*(1-exp(-lam*s_j))/lam) * y_j over the slice
# offsets[i]:offsets[i+1], for jumps at time s_j = T*tau[j] before the
# horizon with sizes y_j = -sizes[j]/alpha (sizes[j] = log(1 - v) for a
# uniform v).  With the constants folded, each term is
#   (expm1(tau*(-lam*T)) * beta/(lam*alpha) - rho/alpha) * sizes:
# four passes besides expm1 and no division.  expm1 is accurate to a few ulp
# of beta*k(s)/alpha however small lam*s is, so a term's absolute error is a
# few ulp of (|rho| + |beta|*k(s))/alpha times |sizes|, with k(s) =
# (1-exp(-lam*s))/lam <= min(s, 1/lam) the integrated decay.  -lam*T is held
# to the largest finite double, so a jump at u = 0 weighs rho even where
# lam*T overflows.

def segment_weighted_sums(tau, sizes, offsets, lam, beta, rho, T, alpha):
    """The sums above.  tau is overwritten by the terms."""
    # the folded formula above, operation by operation, in tau's memory
    w = np.multiply(tau, max(-lam * T, -_FLOAT_MAX), out=tau)
    np.expm1(w, out=w)
    w *= beta / (lam * alpha)
    w -= rho / alpha
    w *= sizes
    return _segment_sums(w, offsets)


# --- per-step jump aggregates for the path sampler ------------------------
# Step k collects jumps offsets[k]:offsets[k+1] at time s = dt*jt before the
# step's end, with sizes y = -js/alpha (js = log(1 - v) for a uniform v):
# dxj[k] = sum exp(-lam*s)*y,  ij[k] = sum k(s)*y  with k(s) =
# (1-exp(-lam*s))/lam the integrated decay.  Both come from m =
# expm1(-lam*s):  ij[k] = -(sum m*y)/lam, accurate however small lam*dt is,
# and each term of dxj is m*y + y, within a few ulp of |y|.  The sums of the
# steps with jumps are added into the caller's dx and di, so no step-sized
# array is allocated: dx[k] + dxj[k] and di[k] + ij[k] are the bits of the
# sums added to fresh arrays, and a step without jumps leaves dx[k] and
# di[k] as they are, which is what adding 0.0 and -0.0 (-(0.0)/lam) does,
# but for dx[k] = -0.0.

def jump_step_sums(jt, js, offsets, lam, dt, alpha, dx, di):
    """dx += dxj and di += ij, the sums above.  jt is overwritten by
    exp(-lam*s)*y and js by y."""
    full = np.flatnonzero(offsets[1:] > offsets[:-1])
    if not full.size:
        return
    starts = offsets[full]
    # the formulas above, operation by operation: m, then m*y, then m*y + y
    # in jt's memory, and the sizes y in js's
    m = np.multiply(jt, max(-lam * dt, -_FLOAT_MAX), out=jt)
    np.expm1(m, out=m)
    js *= -1.0 / alpha
    m *= js
    ij = np.add.reduceat(m, starts)
    ij /= -lam
    di[full] += ij
    m += js
    dx[full] += np.add.reduceat(m, starts)


# --- exact per-step recursion for (X, Y) ----------------------------------
# x' = q*x + c_k with c_k = g1[k] ;  step integral i = eta_d*x + drift_i +
# g2[k] ;  dz recovered exactly from dz = (x'-x) + lam*i ;
# y' = y + gamma*dt + beta*i + rho*dz.  The sampler passes
# g1 = a11*z1 + drift_x + dxj and g2 = a21*z1 + a22*z2 + ij, each with only
# the terms its driver has: the Gaussian pair (z1, z2 standard normals, a the
# Cholesky factors of the step covariance) and the jump sums (dxj, ij).
# X is a doubling scan (Hillis-Steele): with X[1:] holding c_k (and q*x0
# folded into the first), the pass at stride s adds q^s times the value s
# steps back, so after the passes s = 1, 2, 4, ... < n every X[k] is
# q^k*x0 + sum_j q^(k-j)*c_j.  Each pass's right-hand side is built in a
# buffer of its own before it is added, so it reads the values from before
# the pass.  q^s is one pow call: squaring
# q^s pass by pass compounds a relative error that grows like s*eps.

def path_recursion(x0, q, eta_d, drift_i, g1, g2, lam, beta, gamma, rho, dt):
    """X and Y by the recursion above.  g1 and g2 are overwritten."""
    n = g1.size
    X = np.concatenate(([x0], g1))
    c = X[1:]
    c[0] += q * x0
    # Y[1:] holds each pass's right-hand side, then i_step until Y's
    # increments, built in g2, are summed into it; dz is built in g1
    Y = np.empty(n + 1)
    Y[0] = 0.0
    scratch = Y[1:]
    s = 1
    while s < n:
        c[s:] += np.multiply(q ** s, c[:-s], out=scratch[:-s])
        s *= 2
    x = X[:-1]
    i_step = np.multiply(eta_d, x, out=scratch)
    i_step += drift_i
    i_step += g2
    dz = np.subtract(X[1:], x, out=g1)
    dz += np.multiply(lam, i_step, out=g2)
    dy = np.multiply(beta, i_step, out=g2)
    dy += gamma * dt
    dz *= rho
    dy += dz
    np.cumsum(dy, out=Y[1:])
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
