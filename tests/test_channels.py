"""Channel model tests: chain transition arithmetic, stationary behavior,
the Gaussian-process reduction, and observation noise."""

import math

import numpy as np
import pytest

from bdrohc.channels import (
    GilbertElliotConfig,
    HmmChannelConfig,
    HmmState,
    ObsNoiseConfig,
    ge_init,
    ge_stationary,
    ge_step,
    ge_transmission,
    hmm_init,
    hmm_step,
    hmm_trajectory,
    hmm_transmission,
    observe_channel_ge,
    observe_channel_hmm,
    observe_transmission,
    success_probability,
)
from bdrohc.core import HeaderType


def ge(l_b=5.0, eps_b=0.2, b1=0.9, b0=0.1, scale=(1.0, 1.0, 1.0)):
    return GilbertElliotConfig(l_b, eps_b, b1, b0, scale)


def ge_states(cfg: GilbertElliotConfig, n: int, rng, state: int) -> np.ndarray:
    """The n chain states after state, stepped by ge_step on rng."""
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        state = ge_step(state, cfg, rng)
        out[i] = state
    return out


class TestGilbertElliot:
    def test_derived_transition_probabilities(self):
        cfg = ge(5.0, 0.2)
        assert cfg.bad_to_good == pytest.approx(0.05, abs=1e-15)
        assert cfg.good_to_bad == pytest.approx(0.2, abs=1e-15)

    def test_boundary_escape_probability_one(self):
        # eps_b = l_b / (l_b + 1) makes the bad state leave surely
        cfg = ge(5.0, 5.0 / 6.0)
        assert cfg.bad_to_good == pytest.approx(1.0, abs=1e-12)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            ge(5.0, 0.9)  # bad_to_good would exceed 1
        with pytest.raises(ValueError):
            ge(5.0, 0.2, b1=0.5, b0=0.6)  # bad beats good
        with pytest.raises(ValueError):
            GilbertElliotConfig(5.0, 0.2, 0.9, 0.1, (1.0, -1.0, 1.0))

    def test_stationary_closed_form(self):
        assert ge_stationary(ge(5.0, 0.2)) == pytest.approx(0.8, abs=1e-12)
        # symmetric chain
        cfg = ge(5.0, 0.5, 0.9, 0.1)
        assert cfg.bad_to_good == pytest.approx(0.2)
        assert ge_stationary(cfg) == pytest.approx(0.5, abs=1e-12)

    def test_step_empirical_stationary(self):
        cfg = ge(5.0, 0.2)
        rng = np.random.default_rng(7)
        state = ge_init(cfg, rng)
        n = 1_000_000
        traj = ge_states(cfg, n, rng, state)
        bad = int(np.sum(traj == 0))
        assert abs(bad / n - ge_stationary(cfg)) < 0.01

    @pytest.mark.parametrize("l_b, eps_b", [(5.0, 0.2), (2.0, 0.4)])
    def test_sojourns_and_occupancy_closed_form(self, l_b, eps_b):
        # l_b is the mean good run; the bad run is l_b (1 - eps_b) / eps_b
        traj = ge_states(ge(l_b, eps_b), 400_000, np.random.default_rng(13), 1)
        starts = np.flatnonzero(np.diff(traj)) + 1
        lengths = np.diff(starts)  # complete runs only: the first and last are cut
        states = traj[starts[:-1]]
        assert lengths[states == 1].mean() == pytest.approx(l_b, rel=0.03)
        assert lengths[states == 0].mean() == pytest.approx(l_b * (1 - eps_b) / eps_b, rel=0.03)
        assert np.mean(traj == 0) == pytest.approx(1 - eps_b, abs=0.01)

    def test_transmission_rates(self):
        cfg = ge(5.0, 0.2, 0.9, 0.1)
        rng = np.random.default_rng(3)
        n = 200_000
        good = sum(ge_transmission(1, HeaderType.CO3, cfg, rng) for _ in range(n))
        bad = sum(ge_transmission(0, HeaderType.CO3, cfg, rng) for _ in range(n))
        assert abs(good / n - 0.9) < 0.005
        assert abs(bad / n - 0.1) < 0.005

    def test_transmission_perfect_channel(self):
        cfg = ge(5.0, 0.2, 1.0, 1.0)
        rng = np.random.default_rng(4)
        assert all(ge_transmission(0, HeaderType.IR, cfg, rng) for _ in range(1000))

    def test_header_scale_applies_per_header(self):
        cfg = ge(5.0, 0.2, 0.8, 0.1, scale=(1.0, 1.0, 0.5))
        rng = np.random.default_rng(5)
        n = 200_000
        co3 = sum(ge_transmission(1, HeaderType.CO3, cfg, rng) for _ in range(n))
        ir = sum(ge_transmission(1, HeaderType.IR, cfg, rng) for _ in range(n))
        assert abs(co3 / n - 0.4) < 0.005
        assert abs(ir / n - 0.8) < 0.005

    def test_same_seed_same_path(self):
        cfg = ge()
        r1 = np.random.default_rng(9)
        r2 = np.random.default_rng(9)
        a = ge_states(cfg, 500, r1, ge_init(cfg, r1))
        b = ge_states(cfg, 500, r2, ge_init(cfg, r2))
        assert np.array_equal(a, b)


class TestHmmChannel:
    def test_config_validation(self):
        HmmChannelConfig(0.5, 4, 2.0, 1.0)
        with pytest.raises(ValueError):
            HmmChannelConfig(1.0, 4, 2.0, 1.0)
        with pytest.raises(ValueError):
            HmmChannelConfig(0.5, 0, 2.0, 1.0)
        with pytest.raises(ValueError):
            HmmChannelConfig(0.5, 4, 0.0, 1.0)
        with pytest.raises(ValueError):
            HmmChannelConfig(0.5, 4, 2.0, -0.1)

    def test_init_draws_order_values_per_gain_then_burns_in(self):
        # order normals for the in-phase history, order for the quadrature,
        # newest first, then 10 * order steps of two normals each
        cfg = HmmChannelConfig(0.5, 3, 2.0, 1.0)
        state = hmm_init(cfg, np.random.default_rng(5))
        z = np.random.default_rng(5).standard_normal(2 * 3 + 2 * 30)
        ai, aq = z[0], z[3]
        innov = math.sqrt(1.0 - 0.25)
        for k in range(30):
            ai = 0.5 * ai + innov * z[6 + 2 * k]
            aq = 0.5 * aq + innov * z[7 + 2 * k]
        assert (state.inphase, state.quadrature) == (ai, aq)

    def test_conditional_law_matches_joint_kernel(self):
        # The stationary process with covariance rho**|i-j| conditioned on
        # its past reduces to mean rho*a[t-1] and variance 1-rho**2: the
        # Schur complement of the full Toeplitz matrix must say exactly that.
        for rho in (0.3, 0.5, 0.9):
            d = 5
            cov = np.array([[rho ** abs(i - j) for j in range(d + 1)] for i in range(d + 1)])
            coef = np.linalg.solve(cov[1:, 1:], cov[1:, 0])
            expected = np.zeros(d)
            expected[0] = rho
            assert np.allclose(coef, expected, atol=1e-12)
            cond_var = cov[0, 0] - cov[0, 1:] @ coef
            assert cond_var == pytest.approx(1.0 - rho * rho, abs=1e-12)

    def test_step_matches_brute_force_conditional_sampler(self):
        # Draw from the conditional Gaussian computed via the full joint
        # covariance of a 3-value history and via the recursion, which sees
        # only the newest value; the two moment sets must agree, so the
        # older values carry nothing the state needs.
        rho = 0.5
        cfg = HmmChannelConfig(rho, 3, 2.0, 1.0)
        history = (0.7, -0.4, 1.1)
        d = len(history)
        cov = np.array([[rho ** abs(i - j) for j in range(d + 1)] for i in range(d + 1)])
        coef = np.linalg.solve(cov[1:, 1:], cov[1:, 0])
        mean_bf = float(coef @ np.array(history))
        var_bf = float(cov[0, 0] - cov[0, 1:] @ coef)
        rng = np.random.default_rng(12)
        n = 200_000
        draws = np.empty(n)
        state = HmmState(history[0], history[0])
        for i in range(n):
            nxt, _ = hmm_step(state, cfg, rng)
            draws[i] = nxt.inphase
        assert abs(draws.mean() - mean_bf) < 0.01
        assert abs(draws.var() - var_bf) < 0.01
        assert mean_bf == pytest.approx(rho * history[0], abs=1e-12)

    def test_marginal_statistics(self):
        cfg = HmmChannelConfig(0.5, 4, 2.0, 1.0)
        rng = np.random.default_rng(21)
        _, env, inph = hmm_trajectory(cfg, 400_000, rng)
        assert abs(inph.mean()) < 0.01
        assert abs(inph.var() - 1.0) < 0.02
        # Rayleigh envelope mean sqrt(pi/2)
        assert abs(env.mean() - math.sqrt(math.pi / 2.0)) < 0.01

    def test_lag_one_autocorrelation(self):
        cfg = HmmChannelConfig(0.5, 2, 2.0, 1.0)
        rng = np.random.default_rng(22)
        _, _, inph = hmm_trajectory(cfg, 400_000, rng)
        x = inph - inph.mean()
        ac = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
        assert abs(ac - 0.5) < 0.02

    def test_independent_when_uncorrelated(self):
        cfg = HmmChannelConfig(0.0, 1, 2.0, 1.0)
        rng = np.random.default_rng(23)
        _, _, inph = hmm_trajectory(cfg, 200_000, rng)
        x = inph - inph.mean()
        ac = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
        assert abs(ac) < 0.02

    def test_transmission_threshold_probabilities(self):
        cfg = HmmChannelConfig(0.5, 2, 2.0, 1.0)
        rng = np.random.default_rng(24)
        n = 400_000
        # envelope 0 -> coin flip
        zero = sum(hmm_transmission(0.0, cfg, rng) for _ in range(n // 4))
        assert abs(zero / (n // 4) - 0.5) < 0.01
        # envelope 1 with power 2 -> Phi(2) ~ 0.97725
        one = sum(hmm_transmission(1.0, cfg, rng) for _ in range(n))
        assert abs(one / n - 0.9772498) < 0.005
        assert success_probability(1.0, cfg) == pytest.approx(0.9772498680518208, abs=1e-9)

    def test_transmission_saturates_with_power(self):
        cfg = HmmChannelConfig(0.5, 2, 50.0, 1.0)
        rng = np.random.default_rng(25)
        assert all(hmm_transmission(1.0, cfg, rng) for _ in range(2000))


class TestObservationNoise:
    def test_noise_config_bounds(self):
        ObsNoiseConfig(0.0, 0.49)
        with pytest.raises(ValueError):
            ObsNoiseConfig(0.5, 0.1)
        with pytest.raises(ValueError):
            ObsNoiseConfig(0.1, -0.1)

    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(31)
        for v in (0, 1):
            assert all(observe_transmission(v, 0.0, rng) == v for _ in range(100))
            assert all(observe_channel_ge(v, 0.0, rng) == v for _ in range(100))

    def test_flip_rate(self):
        rng = np.random.default_rng(32)
        n = 200_000
        flips = sum(observe_transmission(1, 0.1, rng) == 0 for _ in range(n))
        assert abs(flips / n - 0.1) < 0.005

    def test_envelope_noise_moments(self):
        rng = np.random.default_rng(33)
        n = 200_000
        draws = np.array([observe_channel_hmm(1.5, 0.25, rng) for _ in range(n)])
        assert abs(draws.mean() - 1.5) < 0.01
        assert abs(draws.var() - 0.25) < 0.01

    def test_zero_variance_envelope_observation(self):
        rng = np.random.default_rng(34)
        assert observe_channel_hmm(1.25, 0.0, rng) == 1.25
