"""Effective single-qubit model.

A qubit's binary outcome statistics are fully described by one number, the
effective field h_eff, through a Gibbs-like law.  h_eff itself depends on the
programmed input field h and four device parameters: inverse temperature
``beta``, additive bias ``b``, binary noise magnitude ``eta``, and a
transverse-field gain ``gamma`` whose x-component scales with h.

Two independent evaluation routes are provided: the closed-form expression
(`effective_field` / `spin_expectation`) and a density-matrix route built from
explicit 2x2 matrix exponentials (`density_matrix_expectation`).  The second
exists purely as a cross-check oracle for the first.

The closed form lives in one kernel, `_mixture`, which evaluates every
qubit of a parameter array at every field at once, with the derivatives
the fitter needs; the parameters sit on the array's leading axis and
broadcast against the fields, so the caller picks a qubit-major or a
field-major layout.  `spin_expectation`, `effective_field`, the
simulator and the estimator's likelihood, score and information are all
views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this root magnitude the tanh(beta*r)/(2r) factor is replaced by its
# analytic limit beta/2 (the numerator vanishes with the denominator).
_R_EPS = 1e-12


class ParameterError(ValueError):
    """Raised for qubit parameters outside the model's domain."""


@dataclass(frozen=True)
class QubitParams:
    """The four effective-model parameters of one qubit.

    beta > 0, eta >= 0, gamma >= 0, all finite.  The sign of gamma is not
    identifiable (only (gamma*h)^2 enters the model), so it is fixed
    nonnegative by convention.
    """

    beta: float
    b: float
    eta: float
    gamma: float

    def __post_init__(self):
        for name in ("beta", "b", "eta", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_params(self.beta, self.b, self.eta, self.gamma)

    def astuple(self):
        return (self.beta, self.b, self.eta, self.gamma)


def _check_params(beta, b, eta, gamma):
    """Raise ParameterError unless the floats (beta, b, eta, gamma) lie in
    the model's domain, a box, as `_check_param_table` relies on."""
    vals = (beta, b, eta, gamma)
    if not all(math.isfinite(v) for v in vals):
        raise ParameterError(f"non-finite parameter in {vals}")
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    if eta < 0:
        raise ParameterError(f"eta must be nonnegative, got {eta}")
    if gamma < 0:
        raise ParameterError(f"gamma must be nonnegative, got {gamma}")


def _check_param_table(theta):
    """Raise ParameterError unless every row (beta, b, eta, gamma) of the
    (Q, 4) array theta lies in the model's domain.  The domain is a box, so
    that holds iff the column-wise least and greatest values lie in it; a
    NaN in a column makes both NaN.  A rule that is not a box needs a
    row-wise check here."""
    if len(theta):
        for corner in (theta.min(axis=0), theta.max(axis=0)):
            _check_params(*corner.tolist())


def _theta(p: QubitParams):
    """One qubit's parameters as a (4, 1, 1) array for `_mixture`, which
    fits either of its layouts."""
    return np.array(p.astuple()).reshape(4, 1, 1)


def _mixture(h, theta, grad=False):
    """The mixture kernel: every qubit's spin mean at every field.

    theta holds (beta, b, eta, gamma) on its leading axis, each of which
    broadcasts against h; the caller picks the layout.  Qubit-major:
    theta (4, Q, 1) against h (F,) gives (Q, F) results, as the simulator,
    `spin_expectation` and `effective_field` use.  Field-major: theta
    (4, 1, Q) against h (F, 1) gives (F, Q), as the fitter uses.  Every
    element is computed by the same arithmetic in either layout.  Without
    `grad`, returns the mean spin T, of the broadcast shape S, which is
    all the simulator and `spin_expectation` need.  With `grad`, returns
    (om, op, dT): the halves om = 1 - T and op = 1 + T, each of shape S,
    and dT/dtheta stacked on a leading axis, (4,) + S, as the fitter uses;
    `effective_field` takes the halves and drops dT.

    Each noise sign s contributes c*tanh(beta*r)/(2r) to T, with
    c = h + b + s*eta and r = |(gamma*h, c)|.  A direct 1 -+ T cancels
    once tanh saturates (beta*r beyond ~19), so om and op are assembled
    from exact conjugate pairs: per sign, 1/2 -+ c*tanh(beta*r)/(2r) =
    (rm + c*eps)/(2r) resp. (rp - c*eps)/(2r), with rm = r - c,
    rp = r + c and eps = 1 - tanh(beta*r) =
    2*exp(-2*beta*r)/(1 + exp(-2*beta*r)).  Of rm and rp, the one that
    cancels is taken as (gamma*h)^2/(r + |c|) and the other is r + |c|.
    Where r < _R_EPS the factors are replaced by their analytic limits.

    The two branches take r differently.  Without `grad`, r is
    hypot(gamma*h, c), which is finite for every finite field, so the
    simulator's probabilities are too.  With `grad`, r is
    sqrt(x*x + c*c), from the x*x = (gamma*h)^2 that the near term needs
    anyway and the c*c that d/dc reuses, at a third of hypot's cost per
    element; it lies within a few ulp of hypot, and is finite while r
    stays below ~1.3e154, where the square overflows, far past the
    fitter's MAX_ABS_FIELD.  That branch then forms one reciprocal per
    sign, g = 1/r, and takes ir = 1/(2r) as g*0.5 and 1/(2r^2) as g*ir:
    the halves and the derivatives are products with these, not quotients
    by 2r, 2r^2 and 2r^3, and beta*r is made once for both tanh and exp.

    The kernel is bound by memory traffic, not arithmetic: a block of the
    fitter is 81 x 512 doubles, and a fresh temporary per operation would
    keep dozens of them live, far more than a core's cache holds.  So the
    terms shared by both signs (gamma*h, its square and h + b) are made
    once, and each sign's intermediates are written with `out=` into one
    fixed set of scratch arrays that the second sign reuses; a call
    without `grad` makes five scratch arrays.  Apart from the outputs,
    the one new array per half and sign is the np.where that picks near
    or far: it and one add or subtract give the same bits as a full op
    followed by a masked `where=` op, at two thirds of their cost.  Each
    element is still computed by the expression, and in the order,
    written beside its line.
    """
    h = np.asarray(h, dtype=float)
    beta, b, eta, gamma = theta
    x = gamma * h  # of the broadcast shape, as all four share theta's shape
    shape = x.shape
    hb = h + b
    if grad:
        om, op, dT = np.zeros(shape), np.zeros(shape), np.zeros((4,) + shape)
    else:
        T = np.zeros(shape)
    # per-sign scratch, reused by the second sign
    c, r = np.empty(shape), np.empty(shape)
    tiny = np.empty(shape, dtype=bool)
    f = np.empty(shape)
    if grad:
        g, ir, cc, eps, u, v, w = (np.empty(shape) for _ in range(7))
        xx = x * x
        side = np.empty(shape, dtype=bool)
    else:
        two_r, t = np.empty(shape), np.empty(shape)
    for s in (+1.0, -1.0):
        np.add(hb, s * eta, out=c)                  # c = h + b + s*eta
        if grad:
            np.multiply(c, c, out=cc)
            np.add(xx, cc, out=r)
            np.sqrt(r, out=r)                       # r = sqrt(x*x + c*c)
        else:
            np.hypot(x, c, out=r)                   # r = hypot(x, c)
        np.less(r, _R_EPS, out=tiny)
        some = tiny.any()
        if some:
            r[tiny] = 1.0                           # r is safe_r from here on
        if not grad:
            # tanh saturates, no overflow risk at large beta*r
            np.tanh(np.multiply(beta, r, out=f), out=f)
            np.multiply(r, 2.0, out=two_r)          # 2r
            np.multiply(c, f, out=t)
            t /= two_r                              # c*f/(2r)
            if some:
                t[tiny] = (c * beta / 2.0)[tiny]
            T += t
            continue
        np.multiply(beta, r, out=eps)               # beta*r
        np.tanh(eps, out=f)                         # saturates, no overflow risk
        eps *= -2.0
        np.exp(eps, out=eps)                        # e = exp(-2*beta*r)
        np.divide(1.0, r, out=g)                    # g = 1/r
        np.multiply(g, 0.5, out=ir)                 # ir = 1/(2r)
        np.add(eps, 1.0, out=u)
        eps *= 2.0
        eps /= u                                    # eps = 2*e/(1 + e)
        np.abs(c, out=u)
        u += r                                      # far = r + |c|
        np.divide(xx, u, out=w)                     # near = x*x/(r + |c|)
        np.multiply(c, eps, out=v)                  # c*eps
        # rm is near where c > 0 and far elsewhere
        t = np.where(np.greater(c, 0.0, out=side), w, u)
        t += v
        t *= ir                                     # (rm + c*eps)*ir
        if some:
            t[tiny] = (0.5 - c * beta / 2.0)[tiny]
        om += t
        # rp is near where c < 0 and far elsewhere
        t = np.where(np.less(c, 0.0, out=side), w, u)
        t -= v
        t *= ir                                     # (rp - c*eps)*ir
        if some:
            t[tiny] = (0.5 + c * beta / 2.0)[tiny]
        op += t
        # sech^2 = (1 - f)(1 + f), kept accurate where f rounds to 1
        np.subtract(2.0, eps, out=v)
        v *= eps                                    # sech2 = eps*(2 - eps)
        np.multiply(c, v, out=t)
        t *= 0.5                                    # c*sech2*0.5
        if some:
            t[tiny] = (c / 2.0)[tiny]
        dT[0] += t                                  # d/dbeta
        v *= beta                                   # beta*sech2
        np.multiply(g, ir, out=w)                   # q = g*ir = 1/(2*r**2)
        # d(c*A(r))/dc with A = tanh(beta*r)/(2r), as two nonnegative
        # terms: A + (c^2/r) dA/dr cancels once gamma*h << c
        np.multiply(f, xx, out=t)
        t *= g                                      # f*x*x*g = f*x*x/r
        np.multiply(v, cc, out=u)
        t += u
        t *= w                                      # d_dc = (f*x*x/r + beta*sech2*c*c)*q
        if some:
            t[tiny] = np.broadcast_to(beta / 2.0, shape)[tiny]
        # dA/dr; vanishes as r -> 0 (leading order -beta^3 r / 3)
        v *= ir
        np.multiply(f, w, out=u)
        v -= u                                      # B = beta*sech2*ir - f*q
        if some:
            v[tiny] = 0.0
        dT[1] += t                                  # d/db
        if s > 0:
            dT[2] += t                              # d/deta: s*d_dc
        else:
            dT[2] -= t
        np.multiply(c, g, out=u)
        u *= x
        u *= h
        u *= v
        dT[3] += u                                  # d/dgamma: c*g*x*h*B = (c*x*h/r)*B
    return (om, op, dT) if grad else T


def spin_expectation(h, p: QubitParams):
    """Expected spin value E[sigma] in (-1, 1) at input field h.

    Accepts a scalar or array of fields; pure and deterministic.
    """
    h = np.asarray(h, dtype=float)
    return _mixture(h.ravel(), _theta(p)).reshape(h.shape)


def effective_field(h, p: QubitParams):
    """Effective output field h_eff = arctanh(E[sigma]) at input field h.

    Evaluated as (log(1+T) - log(1-T))/2 on cancellation-free halves, which
    stays accurate far past the point where tanh saturates in floating
    point (classical check: beta=100, h=1 returns 100 to ~1e-14).  The
    halves come with the fitter's gradient, which is dropped.  The limit:
    at gamma = 0 a half underflows to 0, and the result to +-inf, once
    beta*|h + b -+ eta| passes about 372 for both signs.  At beta = 100
    and gamma = b = eta = 0, h = 3.6 gives 360.0000000000014 and h = 4
    gives inf, with "divide by zero encountered in log".  The second
    limit is that of the gradient branch, whose r = sqrt(x*x + c*c)
    overflows once r passes about 1.34e154: past it the result is nan,
    with overflow warnings.  At (beta, b, eta, gamma) = (11.18, 0.0046,
    0.0514, 0.0196), h = 1.3e154 gives 4.6254689194730405 and h = 1.35e154
    gives nan.
    """
    h = np.asarray(h, dtype=float)
    om, op, _ = _mixture(h.ravel(), _theta(p), grad=True)
    return (0.5 * (np.log(op) - np.log(om))).reshape(h.shape)


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def density_matrix_expectation(h, p: QubitParams) -> float:
    """E[sigma] via explicit thermal density matrices; oracle route.

    For each noise sign s builds H_s = gamma*h*sigma_x + (h+b+s*eta)*sigma_z,
    forms rho_s = exp(beta*H_s)/Tr exp(beta*H_s) by eigendecomposition, and
    averages Tr(rho_s sigma_z) over the two signs.  Scalar h only; this path
    deliberately avoids the closed form used by `spin_expectation`.
    """
    h = float(h)
    total = 0.0
    for s in (+1.0, -1.0):
        ham = p.gamma * h * _SIGMA_X + (h + p.b + s * p.eta) * _SIGMA_Z
        evals, evecs = np.linalg.eigh(ham)
        # shift by the top eigenvalue so exp never overflows
        w = np.exp(p.beta * (evals - evals.max()))
        rho = (evecs * w) @ evecs.T / w.sum()
        total += np.trace(rho @ _SIGMA_Z)
    return total / 2.0
