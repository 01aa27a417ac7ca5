import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qasa import (
    ParameterError,
    QubitParams,
    density_matrix_expectation,
    effective_field,
    field_grid,
    spin_expectation,
)
from qasa.model import _theta
from qasa.simulator import SweepDesign, _p_minus

FIG1_PARAMS = QubitParams(beta=11.18, b=0.0046, eta=0.0514, gamma=0.0196)


def random_params(rng):
    return QubitParams(
        beta=rng.uniform(1, 20),
        b=rng.uniform(-0.05, 0.05),
        eta=rng.uniform(0, 0.1),
        gamma=rng.uniform(0, 0.05),
    )


class TestQubitParams:
    def test_valid_construction(self):
        p = QubitParams(10.0, 0.001, 0.03, 0.02)
        assert p.astuple() == (10.0, 0.001, 0.03, 0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=0.0, b=0, eta=0, gamma=0),
            dict(beta=-1.0, b=0, eta=0, gamma=0),
            dict(beta=10, b=0, eta=-0.01, gamma=0),
            dict(beta=10, b=0, eta=0, gamma=-0.01),
            dict(beta=float("nan"), b=0, eta=0, gamma=0),
            dict(beta=10, b=float("inf"), eta=0, gamma=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            QubitParams(**kwargs)


class TestEffectiveField:
    def test_classical_limit(self):
        p = QubitParams(2.0, 0, 0, 0)
        assert effective_field(0.3, p) == pytest.approx(0.6, abs=1e-12)

    def test_symmetric_zero(self):
        p = QubitParams(10.54, 0, 0.0367, 0.0176)
        assert effective_field(0.0, p) == 0.0

    def test_matches_oracle_through_arctanh(self):
        he = effective_field(0.5, FIG1_PARAMS)
        oracle = density_matrix_expectation(0.5, FIG1_PARAMS)
        assert abs(np.tanh(he) - oracle) <= 1e-12

    def test_classical_reduction_on_grid(self):
        h = np.array(field_grid())
        for beta in (1.0, 10.0, 100.0):
            p = QubitParams(beta, 0, 0, 0)
            assert np.max(np.abs(effective_field(h, p) - beta * h)) <= 1e-12
        # far into saturation, where 1 - T is below 1e-300 and only the
        # halves keep h_eff exact; past beta*|h| ~ 372 it overflows
        h = np.array(field_grid(-3.6, 3.6))
        h = h[h != 0]
        rel = effective_field(h, QubitParams(100.0, 0, 0, 0)) / (100.0 * h) - 1.0
        assert np.max(np.abs(rel)) <= 1e-14

    def test_odd_symmetry_without_bias(self):
        h = np.linspace(-1, 1, 41)
        p = QubitParams(11.18, 0, 0.0514, 0.0196)
        assert np.max(np.abs(effective_field(-h, p) + effective_field(h, p))) <= 1e-12


class TestOutcomeProbability:
    def test_misalignment_rate_at_five(self):
        # the simulator's -1 rate of a classical qubit of beta 5 at h = 1,
        # h_eff = 5: (1 - tanh 5)/2
        theta = _theta(QubitParams(beta=5.0, b=0.0, eta=0.0, gamma=0.0))
        p_minus = float(_p_minus(theta, SweepDesign((1.0,), 1))[0, 0])
        assert p_minus == pytest.approx(1.0 / 22026, rel=0.01)


class TestSpinExpectation:
    def test_classical_limit(self):
        p = QubitParams(2.0, 0, 0, 0)
        assert spin_expectation(0.3, p) == pytest.approx(np.tanh(0.6), abs=1e-15)

    def test_equals_probability_difference(self):
        # P[+1] - P[-1] = tanh(h_eff): the kernel's spin mean and its
        # effective field, from the cancellation-free halves, agree
        h = np.linspace(-1, 1, 41)
        gap = spin_expectation(h, FIG1_PARAMS) - np.tanh(effective_field(h, FIG1_PARAMS))
        assert np.max(np.abs(gap)) <= 1e-12

    def test_matches_oracle_at_fig1_point(self):
        assert abs(
            spin_expectation(0.5, FIG1_PARAMS) - density_matrix_expectation(0.5, FIG1_PARAMS)
        ) <= 1e-12

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.01, max_value=0.9),
        st.floats(min_value=1, max_value=15),
        st.floats(min_value=0, max_value=0.1),
        st.floats(min_value=0, max_value=0.05),
    )
    def test_odd_and_bounded(self, h, beta, eta, gamma):
        p = QubitParams(beta, 0, eta, gamma)
        m = spin_expectation(h, p)
        assert abs(m) < 1.0
        assert spin_expectation(-h, p) == pytest.approx(-m, abs=1e-12)

    def test_monotone_flattening_in_gamma(self):
        prev = np.inf
        for gamma in np.linspace(0.0, 0.1, 11):
            m = spin_expectation(1.0, QubitParams(10.0, 0, 0, gamma))
            assert m < prev
            prev = m


class TestDensityMatrixOracle:
    def test_diagonal_hamiltonian(self):
        p = QubitParams(3.0, 0, 0, 0)
        assert density_matrix_expectation(0.7, p) == pytest.approx(np.tanh(2.1), abs=1e-12)

    def test_mirror_components_cancel(self):
        p = QubitParams(10.54, 0, 0.0367, 0.0176)
        assert density_matrix_expectation(0.0, p) == pytest.approx(0.0, abs=1e-15)

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(20210114)
        for _ in range(1000):
            p = random_params(rng)
            h = rng.uniform(-1, 1)
            assert abs(spin_expectation(h, p) - density_matrix_expectation(h, p)) <= 1e-12
