"""Channel models and observation noise.

Two channel families drive packet loss:

* a two-state Gilbert-Elliot chain (good/bad) with per-state success
  probabilities, and
* a hidden-Markov Rayleigh fading channel whose in-phase and quadrature
  gains are unit-variance Gaussian processes with autocovariance
  rho**|lag|; the envelope sqrt(I**2 + Q**2) sets the per-packet success
  probability through a std-normal threshold test.

The Gaussian processes reduce exactly to first-order recursions
a[t] = rho * a[t-1] + sqrt(1 - rho**2) * w[t], which is what hmm_step runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HeaderType


@dataclass(frozen=True)
class GilbertElliotConfig:
    """Good/bad channel chain.

    Despite its name, mean_bad_duration (l_b) sets good_to_bad = 1/l_b, so
    it is the expected sojourn in the *good* state.  The bad state is left
    with probability bad_to_good = eps_b / (l_b (1 - eps_b)), so the
    expected bad sojourn is l_b (1 - eps_b) / eps_b and the stationary
    bad-state probability is 1 - eps_b (5, 20 and 0.8 at l_b = 5,
    eps_b = 0.2).  header_scale optionally rescales the success probability
    per header type.
    """

    mean_bad_duration: float
    eps_b: float
    good_success: float
    bad_success: float
    header_scale: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.bad_success <= self.good_success <= 1.0:
            raise ValueError("need 0 <= bad_success <= good_success <= 1")
        if len(self.header_scale) != 3 or any(s < 0 for s in self.header_scale):
            raise ValueError("header_scale must be three nonnegative factors")
        p01 = self.bad_to_good
        p10 = self.good_to_bad
        if not (0.0 < p01 <= 1.0 and 0.0 < p10 <= 1.0):
            raise ValueError(
                f"derived transition probabilities out of range: "
                f"bad->good {p01}, good->bad {p10}"
            )

    @property
    def bad_to_good(self) -> float:
        raw = (1.0 / self.mean_bad_duration) / (1.0 / self.eps_b - 1.0)
        # at eps_b = l_b/(l_b+1) the exact value is 1; absorb rounding overshoot
        if 1.0 < raw < 1.0 + 1e-9:
            return 1.0
        return raw

    @property
    def good_to_bad(self) -> float:
        return 1.0 / self.mean_bad_duration


def ge_stationary(cfg: GilbertElliotConfig) -> float:
    """Stationary probability of the bad state."""
    p01 = cfg.bad_to_good
    p10 = cfg.good_to_bad
    return p10 / (p01 + p10)


def ge_init(cfg: GilbertElliotConfig, rng) -> int:
    """Draw an initial state from the stationary distribution (1 = good)."""
    return 0 if rng.random() < ge_stationary(cfg) else 1


def ge_step(state: int, cfg: GilbertElliotConfig, rng) -> int:
    """One chain transition.  state is 1 (good) or 0 (bad)."""
    if state == 0:
        return 1 if rng.random() < cfg.bad_to_good else 0
    return 0 if rng.random() < cfg.good_to_bad else 1


def ge_transmission(state: int, header: HeaderType, cfg: GilbertElliotConfig, rng) -> int:
    """Sample the packet arrival flag given the channel state and header."""
    base = cfg.good_success if state == 1 else cfg.bad_success
    p = min(1.0, max(0.0, base * cfg.header_scale[HeaderType(header)]))
    return 1 if rng.random() < p else 0


@dataclass(frozen=True)
class HmmChannelConfig:
    """Rayleigh fading channel with correlated Gaussian gains.

    correlation is the one-step autocorrelation rho of each gain process.
    order (config key hmm.d_h) sets only how hmm_init starts the channel:
    order independent normal draws per gain, then 10 * order burn-in steps.
    The channel state itself is the newest gain pair, because the AR(1)
    recursion is exact and no older value enters the next step.  tx_power
    scales the envelope before the success threshold test, obs_noise_var is
    the variance of the additive noise on envelope observations.
    """

    correlation: float
    order: int
    tx_power: float
    obs_noise_var: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must lie in [0, 1)")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not (math.isfinite(self.tx_power) and self.tx_power > 0.0):
            raise ValueError(f"tx_power must be positive and finite, got {self.tx_power}")
        if not (math.isfinite(self.obs_noise_var) and self.obs_noise_var >= 0.0):
            raise ValueError(
                f"obs_noise_var must be nonnegative and finite, got {self.obs_noise_var}"
            )


@dataclass(frozen=True)
class HmmState:
    """Current in-phase and quadrature gains."""

    inphase: float
    quadrature: float

    @property
    def envelope(self) -> float:
        return math.hypot(self.inphase, self.quadrature)


def hmm_step(state: HmmState, cfg: HmmChannelConfig, rng) -> tuple[HmmState, float]:
    """Advance both gain processes one step and return the new envelope."""
    rho = cfg.correlation
    innov = math.sqrt(1.0 - rho * rho)
    ai = rho * state.inphase + innov * rng.standard_normal()
    aq = rho * state.quadrature + innov * rng.standard_normal()
    return HmmState(ai, aq), math.hypot(ai, aq)


def hmm_init(cfg: HmmChannelConfig, rng) -> HmmState:
    """Independent standard normal histories of `order` values per gain,
    newest first, then a burn-in of 10 * order steps.  Only the newest value
    of each history enters the state, since the recursion forgets the rest,
    but all 2 * order values are drawn: they fix where every later draw of
    the stream falls."""
    draws = [rng.standard_normal() for _ in range(2 * cfg.order)]
    state = HmmState(draws[0], draws[cfg.order])
    for _ in range(10 * cfg.order):
        state, _ = hmm_step(state, cfg, rng)
    return state


def hmm_trajectory(
    cfg: HmmChannelConfig, n: int, rng, state: HmmState | None = None
) -> tuple[HmmState, np.ndarray, np.ndarray]:
    """Run n steps; returns (final state, envelopes, in-phase gains)."""
    if state is None:
        state = hmm_init(cfg, rng)
    env = np.empty(n)
    inph = np.empty(n)
    for i in range(n):
        state, e = hmm_step(state, cfg, rng)
        env[i] = e
        inph[i] = state.inphase
    return state, env, inph


def hmm_transmission(envelope: float, cfg: HmmChannelConfig, rng) -> int:
    """Packet arrives when tx_power * envelope clears a std normal draw, so
    P(arrival | envelope) = Phi(tx_power * envelope)."""
    return 1 if cfg.tx_power * envelope > rng.standard_normal() else 0


def success_probability(envelope: float, cfg: HmmChannelConfig) -> float:
    """Closed form Phi(tx_power * envelope) for the threshold test."""
    return 0.5 * (1.0 + math.erf(cfg.tx_power * envelope / math.sqrt(2.0)))


@dataclass(frozen=True)
class ObsNoiseConfig:
    """Flip probabilities for the binary observations of the arrival flag
    and (Gilbert-Elliot only) the channel state."""

    eps_t: float
    eps_h: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps_t < 0.5:
            raise ValueError("eps_t must lie in [0, 0.5)")
        if not 0.0 <= self.eps_h < 0.5:
            raise ValueError("eps_h must lie in [0, 0.5)")


def observe_transmission(tx_ok: int, eps_t: float, rng) -> int:
    """Arrival flag seen through a binary symmetric channel."""
    flip = rng.random() < eps_t
    return (1 - tx_ok) if flip else tx_ok


def observe_channel_ge(state: int, eps_h: float, rng) -> int:
    """Good/bad state seen through a binary symmetric channel."""
    flip = rng.random() < eps_h
    return (1 - state) if flip else state


def observe_channel_hmm(envelope: float, obs_noise_var: float, rng) -> float:
    """Envelope plus additive Gaussian noise."""
    return envelope + math.sqrt(obs_noise_var) * rng.standard_normal()
