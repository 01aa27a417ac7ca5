"""Per-qubit parameter recovery from observed counts.

Workflow: turn counts into empirical effective fields with confidence
intervals, evaluate the model likelihood
L = sum_h w_h * (h_eff(h) * m_h - log cosh h_eff(h)), and maximize it over
(beta, b, eta, gamma) inside a fixed box.  Weights w_h = M_h / sum(M)
handle unequal per-field sample counts and reduce to uniform weighting
when M is constant.

With T = tanh(h_eff) the model's spin mean, each term equals
(1 + m)/2 * log(1 + T) + (1 - m)/2 * log(1 - T), which is how it is
evaluated: on the cancellation-free halves 1 -+ T from the mixture kernel.

The maximizer is Fisher scoring, the standard method for generalized
linear models (McCullagh & Nelder, *Generalized Linear Models*), run on
blocks of qubits at once from a data-driven start.  Each step solves the
expected information I = sum_h w_h dT dT^T / (1 - T^2), one 4x4 matrix
per qubit, against the score g, with Levenberg-Marquardt damping: a step
that does not raise L is refused and the damping raised (eta and gamma
step in their squares, see `_ZERO_FLOOR`).  Box edges are handled by an
active set: a parameter on an edge that the score pushes against stays
fixed.  A qubit has converged once its Newton decrement g^T I^-1 g (twice
the gain a full step predicts) is below `_DECREMENT_TOL`, or has stalled
at the rounding floor of its score (`_DECREMENT_FINE`), and is then left
as it is.

Evaluation is field-major.  A block's spin means are an (F, Q) array,
fields by qubits, and `_mixture` returns every term in that layout, dT as
(4, F, Q).  `_objective` writes the likelihood, 4 score and 10 distinct
information terms into one (15, F, Q) buffer and sums it over fields with
a single in-place pairwise halving, `_fieldsum`, which makes every other
sum of the fitter too, so each runs in one fixed order.  A qubit needs
only about five evaluations, so their cost is the fit's cost, which
memory traffic and the kernel's few costly ufuncs set; `_mixture` takes
well over half of each evaluation.  The kernel writes each noise sign's
intermediates into one reused set of arrays, takes r from squares it
needs anyway rather than from hypot, and multiplies by one reciprocal
1/(2r) per sign rather than dividing by 2r, 2r^2 and 2r^3.  `_objective`
builds the likelihood and the score weight in slots of its terms buffer
that are written only later, each element by the same expression as a
fresh array per operation would.  Every operation acts on each qubit
alone, so a fit does not depend on which qubits share its block, and a
qubit that has converged is not evaluated again.

`fit_chip` cuts a chip into one contiguous part per CPU the process may
run on, fits part 0 in the calling thread and each other part on a thread
of its own, and writes every block's results straight into disjoint rows
of the columns of one `ChipFit`, the only form a fit takes: on its way to
the params table and the chip report, and for one qubit, as the one-row
fit of a one-column `RawCounts`.  numpy lets go of the GIL inside each
array operation, so the parts run side by side, and as a qubit's fit
reads only its own column, the output is the same bits for any number of
parts.  The threads call no public function of the package, so a tracer
that wraps those sees every call on the caller's thread.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .model import _mixture
from .simulator import RawCounts

# Search box; brackets every parameter value seen in practice by a wide margin.
BOX = {
    "beta": (0.1, 100.0),
    "b": (-0.2, 0.2),
    "eta": (0.0, 0.5),
    "gamma": (0.0, 0.5),
}
# eta and gamma enter the model only through their squares, so zero is a
# stationary point of the likelihood in each: a fit placed exactly there
# would see a zero score and could never leave, even with its maximum
# elsewhere.  The fitter's floor for them is therefore a hair above zero,
# where the sign of the score still says which way the maximum lies; the
# model there differs from zero noise by ~1e-16.  For the same reason their
# steps are taken in eta^2 and gamma^2, in which the likelihood is smooth
# through zero and a Newton step from the floor lands where it should.
_ZERO_FLOOR = 1e-8
_BOX_LO = np.array([BOX["beta"][0], BOX["b"][0], _ZERO_FLOOR, _ZERO_FLOOR])
_BOX_HI = np.array([BOX[k][1] for k in ("beta", "b", "eta", "gamma")])

# Two-sided coverage of the effective-field intervals: z = 3.
CONFIDENCE = 0.9973

# Qubits fitted together; bounds each fitting thread's working memory.
# Larger blocks make fewer, longer numpy calls, so threads hand the GIL
# back to each other less often per qubit.
_BLOCK = 512
_MAX_ITER = 500
# Converged: a full step would gain less than half of this in L.
_DECREMENT_TOL = 1e-20
# Below this decrement a step's gain in L is too small for L's rounding
# to judge, so a step must shrink the decrement instead, and may lower L
# by no more than _LL_SLACK.  A qubit whose steps there are refused up to
# the largest damping has hit the rounding floor of its score, and has
# converged too.
_DECREMENT_FINE = 1e-12
_LL_SLACK = 1e-14
# Ridge on the unit-diagonal information; keeps every 4x4 solve regular.
_RIDGE = 1e-14
_DAMPING = (1e-3, 1e8)  # initial and largest Levenberg-Marquardt damping
# Floor on 1 -+ T against underflow at fields far outside [-1, 1].
_TINY = 1e-300
# Largest |h| fitted or scored.  The kernel's gradient squares
# r = |(gamma*h, h + b -+ eta)|, which overflows near |h| = 1.3e154; the
# bound stays far inside that, and a wider field is refused.
MAX_ABS_FIELD = 1e100


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class EffectiveFieldEstimate:
    """Empirical h_eff at one input field, with a two-sided CI."""

    h: float
    mean: float
    h_eff: float
    ci_low: float
    ci_high: float
    samples: int


# bit i of ChipFit.flags is FLAGS[i]
FLAGS = ("at_bound",)


@dataclass(frozen=True, eq=False)
class ChipFit:
    """A fitted chip as read-only columns, one row per qubit in ascending
    id order: ids (Q,), theta (Q, 4) holding (beta, b, eta, gamma),
    log_likelihood, converged (int8: 1 true, 0 false, -1 unknown),
    n_points, total_samples, and flags (uint8, bit i set for FLAGS[i]).
    The arrays given are copied, and the rows sorted by id.
    """

    ids: np.ndarray
    theta: np.ndarray
    log_likelihood: np.ndarray
    converged: np.ndarray
    n_points: np.ndarray
    total_samples: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        ids = np.array(self.ids, dtype=np.int64).reshape(-1)
        order = np.argsort(ids, kind="stable")
        if np.any(np.diff(ids[order]) == 0):
            raise ValueError("duplicate qubit id in fit")
        columns = {
            "ids": ids,
            "theta": np.array(self.theta, dtype=float).reshape(-1, 4),
            "log_likelihood": np.array(self.log_likelihood, dtype=float),
            "converged": np.array(self.converged, dtype=np.int8),
            "n_points": np.array(self.n_points, dtype=np.int64),
            "total_samples": np.array(self.total_samples, dtype=np.int64),
            "flags": np.array(self.flags, dtype=np.uint8),
        }
        for name, a in columns.items():
            if a.shape[:1] != ids.shape:
                raise ValueError(f"fit column {name} has {a.shape[:1]} rows, expected {ids.size}")
            a = a[order]
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self):
        return self.ids.size


def _check_qubit(counts: RawCounts, qubit: int):
    if qubit not in counts.counts:
        raise FitError(f"qubit {qubit} not present in counts")


def clamp_limit(samples):
    """Mean magnitude cap before arctanh: +-(1 - 1/M)."""
    return 1.0 - 1.0 / np.asarray(samples, dtype=float)


def empirical_estimates(counts: RawCounts, qubit: int, confidence: float = CONFIDENCE):
    """Per-field effective-field estimates for one qubit.

    The CI is normal-approximate on the spin mean, m +- z*sqrt((1-m^2)/M),
    clamped like the mean itself and mapped through arctanh.  The low, mid
    and high columns are clipped and mapped as whole arrays, and the
    estimates built from Python lists: a scalar numpy call per field and
    column cost more than the arithmetic.  Each element goes through the
    same operations as it would alone, so every value is bit for bit the
    per-field one.
    """
    _check_qubit(counts, qubit)
    if not (0.0 < confidence < 1.0):
        raise FitError(f"confidence must be in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    m = counts.samples.astype(float)
    mean = (m - 2.0 * counts.counts[qubit]) / m
    lim = clamp_limit(m)
    half = z * np.sqrt((1.0 - mean**2) / m)
    # clipped as np.clip clips a scalar: a value that ties its bound (-0.0
    # against 0.0, where M = 1) is kept, which np.clip's array loop does
    # not promise
    lo, mid, hi = (np.arctanh(np.where(v < -lim, -lim, np.where(v > lim, lim, v)))
                   for v in (mean - half, mean, mean + half))
    columns = (counts.h, mean, mid, lo, hi, counts.samples)
    return [EffectiveFieldEstimate(*row) for row in zip(*(a.tolist() for a in columns))]


def _fieldsum(x):
    """Sum x over its leading axis by pairwise halving, in place.

    Returns x[0], the sum; the rest of x is consumed, so x must be a
    buffer built for this call.  numpy's own reductions choose their
    summation order from the array's shape (one qubit sums differently
    from a stack of qubits), which would tie a qubit's fit to the block it
    is in; halving fixes the order for any trailing shape.  Each step adds
    the upper half onto the lower one and moves an odd last element down
    beside the sums, without a copy of the rest.
    """
    n = x.shape[0]
    while n > 1:
        half = n // 2
        x[:half] += x[half:2 * half]
        if n % 2:
            x[half] = x[2 * half]
            half += 1
        n = half
    return x[0]


# the 10 distinct entries of a symmetric 4x4 matrix, row by row
_UPPER = np.triu_indices(4)


def _objective(h, theta, means, weights):
    """Likelihood (Q,), score (Q, 4) and expected information (Q, 4, 4) of
    every row of theta (Q, 4) against its field-major spin means (F, Q).

    The per-field terms are written field-major into one (15, F, Q)
    buffer, likelihood, 4 score and 10 information terms, which one
    `_fieldsum` reduces over fields.  The information's upper triangle is
    mirrored into its lower one, which is exact: dT_i*dT_j == dT_j*dT_i.
    """
    om, op, dT = _mixture(h[:, None], theta.T[:, None, :], grad=True)
    np.maximum(om, _TINY, out=om)
    np.maximum(op, _TINY, out=op)
    w = weights[:, None]
    terms = np.empty((15,) + om.shape)
    # until the information terms are written, their slots serve as
    # scratch: (1 -+ m)/2 in the last two and u, v before them; each other
    # term is built by the expression beside its last line
    lo = np.subtract(1.0, means, out=terms[14])
    lo /= 2.0                                       # (1 - m)/2
    hi = np.add(1.0, means, out=terms[13])
    hi /= 2.0                                       # (1 + m)/2
    u, v = terms[12], terms[11]
    # log((om + op)/2) is zero but for rounding; it makes L exactly zero
    # wherever T is exactly zero
    np.log(op, out=u)
    u *= hi
    np.log(om, out=v)
    v *= lo
    u += v
    np.add(om, op, out=v)
    v /= 2.0
    u -= np.log(v, out=v)
    np.multiply(w, u, out=terms[0])                 # w*(hi*log(op) + lo*log(om) - log((om + op)/2))
    # dL/dT = (m - T)/(1 - T^2), written so as not to cancel near |T| = 1
    np.divide(hi, op, out=u)
    u -= np.divide(lo, om, out=v)
    u *= w                                          # w*(hi/op - lo/om)
    np.multiply(dT, u, out=terms[1:5])
    v = np.multiply(om, op)
    np.divide(w, v, out=v)                          # w/(om*op)
    k = 5
    for i in range(4):
        row = terms[k:k + 4 - i]
        np.multiply(dT[i], dT[i:], out=row)
        row *= v
        k += 4 - i
    sums = _fieldsum(terms.swapaxes(0, 1))
    info = np.empty((om.shape[1], 4, 4))
    info[:, _UPPER[0], _UPPER[1]] = info[:, _UPPER[1], _UPPER[0]] = sums[5:].T
    # copies, so that the buffer is freed before the next evaluation
    return sums[0].copy(), sums[1:5].T.copy(), info


def _initial_guess(h, means, lim):
    """Data-driven start per qubit of means (F, Q): slope/intercept of
    arctanh(mean) vs h near the origin, the means clipped to +-lim (F, 1),
    the `clamp_limit` of each field's samples."""
    y = np.arctanh(np.clip(means, -lim, lim))
    sel = np.abs(h) <= 0.3
    if np.unique(h[sel]).size < 2:
        sel = np.ones_like(h, dtype=bool)
    x, y = h[sel], y[sel]
    dx = x - x.mean()
    slope = _fieldsum(y * dx[:, None]) / np.sum(dx * dx)
    intercept = _fieldsum(y) / x.size - slope * x.mean()
    beta0 = np.clip(slope, *BOX["beta"])
    b0 = np.clip(-intercept / beta0, *BOX["b"])
    return np.column_stack([beta0, b0, np.full_like(b0, 0.03), np.full_like(b0, 0.02)])


def _newton(theta, score, info, fixed=None):
    """The Newton system at each row of theta, Jacobi-scaled to a unit
    diagonal, with the fixed parameters dropped out: by default the active
    set, the box edges that the score pushes against.

    Returns (fixed, scale, g, a, decrement): the step for a (Q, 4, 4)
    system a s = g (Q, 4, 1) is scale * s, and decrement = g^T a^-1 g.
    """
    if fixed is None:
        fixed = ((theta <= _BOX_LO) & (score <= 0)) | ((theta >= _BOX_HI) & (score >= 0))
    diag = np.diagonal(info, axis1=1, axis2=2)
    scale = np.where(fixed, 0.0, 1.0 / np.sqrt(np.maximum(diag, _TINY)))
    g = (scale * score)[..., None]
    a = scale[:, :, None] * info * scale[:, None, :] + np.eye(4) * (fixed[:, :, None] + _RIDGE)
    return fixed, scale, g, a, _fieldsum((g * np.linalg.solve(a, g))[..., 0].T)


def _fit_block(h, weights, means, lim):
    """Damped Fisher scoring on every qubit of means (F, Q) at once, from
    the start that `_initial_guess` takes with the clamp limits lim (F, 1).

    A qubit that has converged is left out of every later evaluation,
    which changes nothing else, as each qubit's steps depend on its own
    rows alone.  Returns (theta (Q, 4), log-likelihood (Q,), converged (Q,)).
    """
    theta = _initial_guess(h, means, lim)
    ll, score, info = _objective(h, theta, means, weights)
    damping = np.full(len(theta), _DAMPING[0])
    done = np.zeros(len(theta), dtype=bool)
    live = np.arange(len(theta))  # the qubits not yet done
    for _ in range(_MAX_ITER):
        th = theta[live]
        fixed, scale, g, a, decrement = _newton(th, score[live], info[live])
        fine = decrement <= _DECREMENT_FINE
        stop = (decrement <= _DECREMENT_TOL) | (fine & (damping[live] >= _DAMPING[1]))
        if stop.any():
            done[live[stop]] = True
            go = ~stop
            live, th, fixed, scale, g, a, decrement, fine = (
                v[go] for v in (live, th, fixed, scale, g, a, decrement, fine))
            if not live.size:
                break
        step = scale * np.linalg.solve(a + damping[live, None, None] * np.eye(4), g)[..., 0]
        trial = th + step
        # eta, gamma: d(x^2) = 2x dx, so x^2 moves by 2x*step
        trial[:, 2:] = np.sqrt(np.maximum(th[:, 2:] * (th[:, 2:] + 2.0 * step[:, 2:]), 0.0))
        trial = np.clip(trial, _BOX_LO, _BOX_HI)
        t_ll, t_score, t_info = _objective(h, trial, means[:, live], weights)
        gain = t_ll - ll[live]
        accept = gain > 0
        if fine.any():
            # a fine step must shrink the decrement, judged on the same
            # active set, as the decrement jumps where it changes
            shrinks = _newton(trial[fine], t_score[fine], t_info[fine], fixed[fine])[4] < decrement[fine]
            accept[fine] = shrinks & (gain[fine] >= -_LL_SLACK)
        moved = live[accept]
        theta[moved] = trial[accept]
        ll[moved] = t_ll[accept]
        score[moved] = t_score[accept]
        info[moved] = t_info[accept]
        damping[live] = np.where(accept, damping[live] / 3.0,
                                 np.minimum(damping[live] * 10.0, _DAMPING[1]))
    return theta, ll, done


def _check_fields(counts: RawCounts) -> int:
    """The number of distinct fields, once they are enough to fit and
    within the kernel's range; the error for a field past MAX_ABS_FIELD
    names the first one."""
    h = np.unique(counts.h)
    if h.size < 8 or h[0] >= 0 or h[-1] <= 0:
        span = f" in [{h[0]}, {h[-1]}]" if h.size else ""
        raise FitError(
            f"need >= 8 distinct fields spanning h < 0 and h > 0, got {h.size}{span}"
        )
    wide = h[np.abs(h) > MAX_ABS_FIELD]
    if wide.size:
        raise FitError(f"field {float(wide[0])!r} is outside [-{MAX_ABS_FIELD:g}, {MAX_ABS_FIELD:g}], "
                       f"where the model cannot be evaluated")
    return h.size


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the system reports one, which taskset and cpusets narrow, else every
    CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_rows(rows, h, weights, m, lim, table, out):
    """Fit the qubits of table's rows `rows`, `_BLOCK` at a time, into the
    same rows of the columns out = (theta, ll, converged)."""
    for start in range(rows.start, rows.stop, _BLOCK):
        block = slice(start, min(start + _BLOCK, rows.stop))
        # field-major: each qubit is a column
        means = np.ascontiguousarray(((m - 2.0 * table[block]) / m).T)
        for column, value in zip(out, _fit_block(h, weights, means, lim)):
            column[block] = value


def fit_chip(counts: RawCounts, workers: int = 1):
    """Maximum-likelihood parameters of every qubit, fitted independently.

    Returns (fit, failures): fit is the ChipFit of every qubit, and
    failures is always empty; it stays only because the benchmark harness
    unpacks the pair.  A qubit's row is its fit alone, so one qubit is
    fitted as a `RawCounts` of its one column.  The one flag, "at_bound",
    marks a qubit with a parameter within 1e-3 of a box edge other than
    the zero floor of eta and gamma.  Needs at least 8 distinct fields
    covering both signs of h, and raises FitError for the whole sweep
    otherwise: with fewer points the noise and transverse terms are not
    identifiable.  A sweep with enough fields but no qubits raises FitError
    too, as does a qubit id of 2**63 or more, which the fit's int64 id
    column cannot hold.

    The qubits are cut into k contiguous parts of near-equal size, k the
    number of CPUs the process may run on but no more than the number of
    `_BLOCK`-qubit blocks.  Part 0 is fitted in the calling thread and
    each other part on a thread of its own, `_BLOCK` qubits at a time.
    An error in any part is raised once every thread has been joined, and
    no thread outlives the call.  A result depends only on its own
    qubit's counts, so the output is identical for any k.  `workers` is
    accepted for compatibility and changes nothing.
    """
    n_points = _check_fields(counts)
    ids = counts.qubit_ids
    if not ids:
        raise FitError("no qubits to fit")
    if ids[-1] > np.iinfo(np.int64).max:
        raise FitError(f"qubit id {ids[-1]} past the int64 range of a fit")
    n = len(ids)
    out = theta, ll, converged = np.empty((n, 4)), np.empty(n), np.empty(n, dtype=np.int8)
    m = counts.samples.astype(float)
    # made here, in the calling thread: the parts call no public function
    args = (counts.h, m / m.sum(), m, clamp_limit(m)[:, None], counts.table, out)
    k = min(_cpus(), -(-n // _BLOCK))
    parts = [slice(n * p // k, n * (p + 1) // k) for p in range(k)]
    errors = [None] * k

    def fit_part(p):
        try:
            _fit_rows(parts[p], *args)
        except BaseException as exc:  # raised in the calling thread
            errors[p] = exc

    started = []
    try:
        for p in range(1, k):
            thread = threading.Thread(target=fit_part, args=(p,), name=f"fit_chip part {p}")
            thread.start()
            started.append(thread)
        _fit_rows(parts[0], *args)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    # eta/gamma sitting on their natural zero floor is ordinary, not a
    # search-box artifact, so only the remaining edges are flagged
    at_bound = (np.any(np.abs(theta - _BOX_HI) <= 1e-3, axis=1)
                | np.any(np.abs(theta[:, :2] - _BOX_LO[:2]) <= 1e-3, axis=1))
    fit = ChipFit(ids, theta, ll, converged, np.full(n, n_points),
                  np.full(n, int(counts.samples.sum())), at_bound)
    return fit, {}
