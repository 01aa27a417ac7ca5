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
        vals = (self.beta, self.b, self.eta, self.gamma)
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError(f"non-finite parameter in {vals}")
        if self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.eta < 0:
            raise ParameterError(f"eta must be nonnegative, got {self.eta}")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative, got {self.gamma}")

    def astuple(self):
        return (self.beta, self.b, self.eta, self.gamma)


def _theta(p: QubitParams):
    """One qubit's parameters as a (4, 1, 1) array for `_mixture`, which
    fits either of its layouts."""
    return np.array(p.astuple()).reshape(4, 1, 1)


def _mixture(h, theta, halves=True, grad=False):
    """The mixture kernel: every qubit's spin mean at every field.

    theta holds (beta, b, eta, gamma) on its leading axis, each of which
    broadcasts against h; the caller picks the layout.  Qubit-major:
    theta (4, Q, 1) against h (F,) gives (Q, F) results, as the simulator,
    `spin_expectation` and `effective_field` use.  Field-major: theta
    (4, 1, Q) against h (F, 1) gives (F, Q), as the fitter uses.  Returns
    (om, op, T, dT): the mean spin T and its halves om = 1 - T and
    op = 1 + T, each of the broadcast shape S, and dT/dtheta stacked on a
    leading axis, (4,) + S.  The halves are skipped unless `halves` is set
    and dT unless `grad` is; a skipped part is None.  Every element is
    computed by the same arithmetic in either layout.

    Each noise sign s contributes c*tanh(beta*r)/(2r) to T, with
    c = h + b + s*eta and r = hypot(gamma*h, c).  A direct 1 -+ T cancels
    once tanh saturates (beta*r beyond ~19), so om and op are assembled
    from exact conjugate pairs: per sign, 1/2 -+ c*tanh(beta*r)/(2r) =
    (rm + c*eps)/(2r) resp. (rp - c*eps)/(2r), with rm = r - c and
    rp = r + c taken through (gamma*h)^2/(r +- c) on the cancelling side
    and eps = 1 - tanh(beta*r) = 2*exp(-2*beta*r)/(1 + exp(-2*beta*r)).
    Small-r factors use their analytic limits.
    """
    h = np.asarray(h, dtype=float)
    beta, b, eta, gamma = theta
    x = gamma * h  # of the broadcast shape, as all four share theta's shape
    T = np.zeros(x.shape)
    om = np.zeros(x.shape) if halves else None
    op = np.zeros(x.shape) if halves else None
    dT = np.zeros((4,) + x.shape) if grad else None
    for s in (+1.0, -1.0):
        c = h + b + s * eta
        r = np.hypot(x, c)
        tiny = r < _R_EPS
        safe_r = np.where(tiny, 1.0, r)
        # tanh saturates, no overflow risk at large beta*r
        f = np.tanh(beta * safe_r)
        T += np.where(tiny, c * beta / 2.0, c * f / (2.0 * safe_r))
        if not (halves or grad):
            continue
        e = np.exp(-2.0 * beta * safe_r)
        eps = 2.0 * e / (1.0 + e)
        if halves:
            with np.errstate(invalid="ignore", divide="ignore"):
                rm = np.where(c > 0, x * x / (safe_r + c), r - c)
                rp = np.where(c < 0, x * x / (safe_r - c), r + c)
            om += np.where(tiny, 0.5 - c * beta / 2.0, (rm + c * eps) / (2.0 * safe_r))
            op += np.where(tiny, 0.5 + c * beta / 2.0, (rp - c * eps) / (2.0 * safe_r))
        if grad:
            # sech^2 = (1 - f)(1 + f), kept accurate where f rounds to 1
            sech2 = eps * (2.0 - eps)
            # d(c*A(r))/dc with A = tanh(beta*r)/(2r), as two nonnegative
            # terms: A + (c^2/r) dA/dr cancels once gamma*h << c
            d_dc = np.where(
                tiny,
                beta / 2.0,
                f * x * x / (2.0 * safe_r**3) + beta * sech2 * c * c / (2.0 * safe_r**2),
            )
            # dA/dr; vanishes as r -> 0 (leading order -beta^3 r / 3)
            B = np.where(tiny, 0.0, beta * sech2 / (2.0 * safe_r) - f / (2.0 * safe_r**2))
            dT[0] += np.where(tiny, c / 2.0, c * sech2 / 2.0)  # d/dbeta
            dT[1] += d_dc                                       # d/db
            dT[2] += s * d_dc                                   # d/deta
            dT[3] += (c * x * h / safe_r) * B                   # d/dgamma
    return om, op, T, dT


def spin_expectation(h, p: QubitParams):
    """Expected spin value E[sigma] in (-1, 1) at input field h.

    Accepts a scalar or array of fields; pure and deterministic.
    """
    h = np.asarray(h, dtype=float)
    return _mixture(h.ravel(), _theta(p), halves=False)[2].reshape(h.shape)


def effective_field(h, p: QubitParams):
    """Effective output field h_eff = arctanh(E[sigma]) at input field h.

    Evaluated as (log(1+T) - log(1-T))/2 on cancellation-free halves, which
    stays accurate far past the point where tanh saturates in floating
    point (classical check: beta=100, h=1 returns 100 to ~1e-14).
    """
    h = np.asarray(h, dtype=float)
    om, op, _, _ = _mixture(h.ravel(), _theta(p))
    return (0.5 * (np.log(op) - np.log(om))).reshape(h.shape)


def outcome_probability(h_eff):
    """(P[sigma=+1], P[sigma=-1]) for a given effective field.

    Overflow-safe: p_plus = logistic(2*h_eff); the pair sums to 1 exactly
    in floating point.
    """
    h_eff = np.asarray(h_eff, dtype=float)
    if not np.all(np.isfinite(h_eff)):
        raise ValueError("h_eff must be finite")
    with np.errstate(over="ignore"):
        p_plus = 1.0 / (1.0 + np.exp(-2.0 * h_eff))
    return p_plus, 1.0 - p_plus


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
