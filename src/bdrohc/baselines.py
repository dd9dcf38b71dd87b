"""Reference policies and an exact finite-horizon optimum.

The KT baseline requests feedback at a fixed Bernoulli rate and chooses the
header from the context class of the last feedback it saw, upgrading CO3 to
CO7 whenever the current header flow is incompressible.  The exact oracle
solves an undelayed, noiselessly observed Gilbert-Elliot instance by
backward induction over BatchGeEnv's slot tables and returns the best
achievable discounted value over a given number of slots.

Monte-Carlo values come from rollouts run in lockstep on BatchGeEnv, so
they exist for the Gilbert-Elliot channel only.  One environment and one
policy generator are spawned from the seed; each draws its uniforms one
row per rollout, in chunks of rollouts, so rollout i gets the same noise
whatever the number of rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ACTIONS, ACTION_COUNT, CompressorAction, HeaderType
from .env import (
    NO_FEEDBACK,
    BatchGeEnv,
    BatchObservation,
    EnvConfig,
    Observation,
    Policy,
    as_seed_sequence,
)


@dataclass(frozen=True)
class KtConfig:
    """The decompressor's full-context level count w and the per-slot
    feedback request probability; KtPolicy's header map is fixed."""

    w: int
    feedback_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if not 0.0 <= self.feedback_prob <= 1.0:
            raise ValueError("feedback_prob must lie in [0, 1]")


class KtPolicy(Policy):
    """Keeps the latest feedback level and sends IR before any feedback and
    after no context (w+1), CO7 after repair context (w), and CO3 after full
    context (0..w-1), or CO7 when the current header flow is incompressible."""

    def __init__(self, cfg: KtConfig):
        self.cfg = cfg
        self._rng = None
        self._latest = None

    def reset(self, rng) -> None:
        self._rng = rng
        self._latest = None

    def act(self, obs: Observation) -> CompressorAction:
        """One KT decision; the request uniform is drawn first on every slot."""
        cfg = self.cfg
        request = self._rng.random() < cfg.feedback_prob
        if obs.z_d != NO_FEEDBACK:
            self._latest = obs.z_d
        latest = self._latest
        if latest is None or latest > cfg.w:
            header = HeaderType.IR
        elif latest == cfg.w or obs.source_window[0] == 0:
            header = HeaderType.CO7
        else:
            header = HeaderType.CO3
        return ACTIONS[2 * header + request]

    def reset_batch(self, rollouts: int) -> None:
        self._latest_batch = np.full(rollouts, NO_FEEDBACK)

    def act_batch(self, obs: BatchObservation, u: np.ndarray) -> np.ndarray:
        """act over every rollout; NO_FEEDBACK marks none seen yet."""
        cfg = self.cfg
        latest = np.where(obs.z_d != NO_FEEDBACK, obs.z_d, self._latest_batch)
        self._latest_batch = latest
        header = np.select(
            [(latest == NO_FEEDBACK) | (latest > cfg.w), latest == cfg.w],
            [HeaderType.IR, HeaderType.CO7],
            np.where(obs.source_window[:, 0] == 0, HeaderType.CO7, HeaderType.CO3),
        )
        return 2 * header + (u < cfg.feedback_prob)


class FixedPolicy(Policy):
    """Same header every slot, never requests feedback."""

    def __init__(self, header: HeaderType):
        self.action = CompressorAction(header, False)

    def act(self, obs: Observation) -> CompressorAction:
        return self.action

    def act_batch(self, obs: BatchObservation, u: np.ndarray) -> np.ndarray:
        return np.full(len(u), self.action.index)


class RandomPolicy(Policy):
    def reset(self, rng) -> None:
        self._rng = rng

    def act(self, obs: Observation) -> CompressorAction:
        return ACTIONS[int(self._rng.integers(ACTION_COUNT))]

    def act_batch(self, obs: BatchObservation, u: np.ndarray) -> np.ndarray:
        return (u * ACTION_COUNT).astype(np.int64)


@dataclass(frozen=True)
class OracleResult:
    value: float
    first_action: CompressorAction


def _oracle_guard(cfg: EnvConfig, horizon: int) -> None:
    if cfg.is_hmm:
        raise ValueError("exact oracle requires the Gilbert-Elliot channel")
    if cfg.delay != 0:
        raise ValueError("exact oracle requires zero delay")
    if cfg.noise.eps_t != 0.0 or cfg.noise.eps_h != 0.0:
        raise ValueError("exact oracle requires noiseless observations")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")


def exact_oracle(cfg: EnvConfig, horizon: int, start=None) -> OracleResult:
    """Best expected discounted value over `horizon` slots.

    start is (decompressor level, source window tuple, channel good flag,
    previous feedback flag); None means the reset distribution: no context,
    all-compressible window, stationary channel, no pending feedback.

    Finite-horizon backward induction over every (decompressor level,
    source history, channel state), with BatchGeEnv's slot tables at zero
    delay.  The feedback charge of the action taken at slot t lands at slot
    t+1, so a pending request subtracts lambda, a request made with more
    than one slot left costs gamma * lambda, and requests on the final slot
    are free, as in a finite trace.  Ties go to the lowest action index.
    """
    _oracle_guard(cfg, horizon)
    ge = cfg.channel
    env = BatchGeEnv(cfg)
    levels, headers = env.next_level.shape[:2]
    history = np.arange(env.p_one.size)
    shifted = (history << 1) & (history.size - 1)
    p_one = env.p_one[:, None]
    # level after the packet by [level, history, header, tx_ok]: the packet
    # is compressed under the newest source bit
    landing = env.next_level[:, :, :, history & 1].transpose(0, 3, 1, 2)
    # arrival law by [next channel state, header, tx_ok]
    arrival = np.stack((1.0 - env.p_tx, env.p_tx), axis=-1)
    # channel law by [channel state, next channel state], 0 bad, 1 good
    channel = np.array(
        [[1.0 - ge.bad_to_good, ge.bad_to_good], [ge.good_to_bad, 1.0 - ge.good_to_bad]]
    )
    paid = np.zeros((levels, 1, 1, headers))
    paid[0] = env.share
    # gathers landed at [level, history, next channel, header, tx_ok]
    pick = (
        landing[:, :, None],
        history[:, None, None, None],
        np.arange(2)[:, None, None],
        np.arange(headers)[:, None],
    )

    # value[level, history, channel] with no feedback pending; the state is
    # observed, so a request only costs and the best action never makes one
    value = np.zeros((levels, history.size, 2))
    for _ in range(horizon):
        after = (1.0 - p_one) * value[:, shifted] + p_one * value[:, shifted | 1]
        # landed[level, history, next channel, header]: the slot's reward
        # for landing on a level plus the discounted value after it
        landed = paid + cfg.discount * after[..., None]
        outcome = (landed[pick] * arrival).sum(axis=-1)
        q = np.einsum("cn,lsnh->lsch", channel, outcome)
        value = q.max(axis=-1)

    q = np.repeat(q, 2, axis=-1)
    if horizon > 1:
        q[..., 1::2] -= cfg.discount * cfg.feedback_penalty
    if start is not None:
        level, window, good, pending = start
        hist = sum(int(bit) << k for k, bit in enumerate(window))
        q = q[int(level), hist, int(good)] - cfg.feedback_penalty * int(pending)
    else:
        q = env.p_bad * q[cfg.w + 1, -1, 0] + (1.0 - env.p_bad) * q[cfg.w + 1, -1, 1]
    best = int(np.argmax(q))
    return OracleResult(float(q[best]), ACTIONS[best])


def lockstep_returns(policy: Policy, cfg: EnvConfig, env_noise, policy_noise) -> np.ndarray:
    """Discounted return of each of N rollouts run in lockstep on pre-drawn
    uniforms: env_noise is (N, 3 + 5 * steps) in BatchGeEnv's draw order,
    policy_noise is (N, steps), one uniform per rollout and slot."""
    rollouts, steps = policy_noise.shape
    width = BatchGeEnv.RESET_DRAWS + BatchGeEnv.STEP_DRAWS * steps
    if env_noise.shape != (rollouts, width):
        raise ValueError(f"env_noise must have shape {(rollouts, width)}, got {env_noise.shape}")
    env = BatchGeEnv(cfg)
    obs = env.reset(env_noise[:, : BatchGeEnv.RESET_DRAWS])
    policy.reset_batch(rollouts)
    total = np.zeros(rollouts)
    weight = 1.0
    for t in range(steps):
        start = BatchGeEnv.RESET_DRAWS + BatchGeEnv.STEP_DRAWS * t
        actions = policy.act_batch(obs, policy_noise[:, t])
        obs, reward = env.step(actions, env_noise[:, start : start + BatchGeEnv.STEP_DRAWS])
        total += weight * reward
        weight *= cfg.discount
    return total


# Uniforms drawn per chunk of rollouts, which bounds the noise held at once.
_CHUNK_UNIFORMS = 1 << 16


def rollout_returns(policy: Policy, cfg: EnvConfig, steps: int, rollouts: int, seed) -> np.ndarray:
    """Discounted returns of `rollouts` independent rollouts of `steps`
    slots, drawn as the module docstring describes."""
    if rollouts < 1:
        raise ValueError("rollouts must be >= 1")
    env_ss, policy_ss = as_seed_sequence(seed).spawn(2)
    env_rng = np.random.default_rng(env_ss)
    policy_rng = np.random.default_rng(policy_ss)
    width = BatchGeEnv.RESET_DRAWS + BatchGeEnv.STEP_DRAWS * steps
    per_chunk = max(1, _CHUNK_UNIFORMS // (width + steps))
    chunks = []
    for first in range(0, rollouts, per_chunk):
        n = min(per_chunk, rollouts - first)
        chunks.append(
            lockstep_returns(
                policy, cfg, env_rng.random((n, width)), policy_rng.random((n, steps))
            )
        )
    return np.concatenate(chunks)


def mc_discounted_value(policy: Policy, cfg: EnvConfig, steps: int, rollouts: int, seed) -> float:
    """Monte Carlo mean of rollout_returns."""
    return float(np.mean(rollout_returns(policy, cfg, steps, rollouts, seed)))
