"""Reference evaluator for the benchmark's checks, written apart from `qasa`.

The paper's closed form gives the mean spin of a qubit at input field h as

    T(h) = 1/2 * sum_{s=+-1} c_s / r_s * tanh(beta * r_s),
    c_s = h + b + s*eta,  r_s = sqrt((gamma*h)^2 + c_s^2).

Everything here is vectorised over a leading qubit axis: parameters are
arrays of shape (Q,), fields shape (F,), results shape (Q, F).  The two
halves 1 - T and 1 + T are assembled without cancellation, so saturated
fields (T within 1e-13 of 1) keep their relative precision.

The weighted likelihood is written through the outcome probabilities
p+- = (1 +- T) / 2 instead of through h_eff and log cosh:

    L = sum_h w_h * ((1 + m_h)/2 * log(1 + T_h) + (1 - m_h)/2 * log(1 - T_h)),

which equals `qasa.estimator.log_likelihood` term by term (the log 2
parts cancel) but shares no code with it.
"""

from __future__ import annotations

import numpy as np


def halves(h, beta, b, eta, gamma):
    """(1 - T, 1 + T) for every qubit and field, each shape (Q, F)."""
    h = np.asarray(h, dtype=float)[None, :]
    beta, b, eta, gamma = (np.asarray(v, dtype=float)[:, None] for v in (beta, b, eta, gamma))
    g2 = (gamma * h) ** 2
    minus = np.zeros(np.broadcast(h, beta).shape)
    plus = np.zeros_like(minus)
    for s in (1.0, -1.0):
        c = h + b + s * eta
        r = np.sqrt(g2 + c * c)
        # 1 - tanh(x) = 2 e^{-2x} / (1 + e^{-2x}), exact where tanh rounds to 1
        e = np.exp(-2.0 * beta * r)
        tail = 2.0 * e / (1.0 + e)
        # 1 -+ c/r, taking the side that cancels through g^2 / (r +- c)
        with np.errstate(divide="ignore", invalid="ignore"):
            one_minus_a = np.where(c > 0, g2 / (r * (r + c)), (r - c) / r)
            one_plus_a = np.where(c < 0, g2 / (r * (r - c)), (r + c) / r)
        a = c / r
        # 1 -+ a*t = (1 -+ a) +- a*(1 - t)
        minus += 0.5 * (one_minus_a + a * tail)
        plus += 0.5 * (one_plus_a - a * tail)
    return minus, plus


def spin_mean(h, beta, b, eta, gamma):
    """T(h) for every qubit and field, shape (Q, F)."""
    minus, plus = halves(h, beta, b, eta, gamma)
    return 0.5 * (plus - minus)


def prob_minus(h, beta, b, eta, gamma):
    """P(sigma = -1) = (1 - T) / 2, shape (Q, F)."""
    return 0.5 * halves(h, beta, b, eta, gamma)[0]


def log_likelihood(h, samples, counts, beta, b, eta, gamma):
    """Weighted likelihood of each qubit's counts, shape (Q,).

    counts has shape (Q, F) and tallies -1 outcomes; samples has shape (F,).
    """
    samples = np.asarray(samples, dtype=float)
    w = samples / samples.sum()
    m = (samples - 2.0 * np.asarray(counts, dtype=float)) / samples
    minus, plus = halves(h, beta, b, eta, gamma)
    return np.sum(w * (0.5 * (1.0 + m) * np.log(plus) + 0.5 * (1.0 - m) * np.log(minus)), axis=1)


def params_arrays(table, ids):
    """(beta, b, eta, gamma) arrays over `ids` from a mapping id -> object with
    those attributes (QubitParams) or id -> FitResult (via `.params`)."""
    rows = [getattr(table[q], "params", table[q]) for q in ids]
    return tuple(np.array([getattr(p, k) for p in rows]) for k in ("beta", "b", "eta", "gamma"))


def check_against_oracle(oracle, make_params, h, beta, b, eta, gamma, rng, n=200):
    """Largest |T_reference - T_oracle| over n seeded (qubit, field) pairs.

    `oracle(h, params)` is the density-matrix route of the program and
    `make_params(beta, b, eta, gamma)` builds its parameter object.
    """
    qs = rng.integers(0, len(beta), n)
    fs = rng.integers(0, len(h), n)
    ref = spin_mean(h, beta[qs], b[qs], eta[qs], gamma[qs])
    worst = 0.0
    for i, (q, f) in enumerate(zip(qs, fs)):
        got = oracle(h[f], make_params(beta[q], b[q], eta[q], gamma[q]))
        worst = max(worst, abs(float(got) - float(ref[i, f])))
    return worst
