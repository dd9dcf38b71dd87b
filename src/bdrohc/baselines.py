"""Reference policies and an exact small-instance optimum.

The KT baseline requests feedback at a fixed Bernoulli rate and chooses the
header from the context class of the last feedback it saw, upgrading CO3 to
CO7 whenever the current header flow is incompressible.  The exact oracle
enumerates every action sequence and stochastic branch of a tiny
undelayed, noiselessly observed Gilbert-Elliot instance and returns the
best achievable discounted value.

Monte-Carlo values come from rollouts run in lockstep on BatchGeEnv, so
they exist for the Gilbert-Elliot channel only.  One environment and one
policy generator are spawned from the seed; each draws its uniforms one
row per rollout, in chunks of rollouts, so rollout i gets the same noise
whatever the number of rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import GilbertElliotConfig, ge_stationary
from .core import (
    ACTIONS,
    ACTION_COUNT,
    CompressorAction,
    DecompressorState,
    HeaderType,
    decompressor_step,
)
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
    """Feedback rate and the context-class-to-header map."""

    w: int
    feedback_prob: float = 0.0
    fc_header: HeaderType = HeaderType.CO3
    rc_header: HeaderType = HeaderType.CO7
    nc_header: HeaderType = HeaderType.IR

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if not 0.0 <= self.feedback_prob <= 1.0:
            raise ValueError("feedback_prob must lie in [0, 1]")


def kt_policy(latest_feedback, source_bit: int, cfg: KtConfig, rng) -> CompressorAction:
    """One KT decision given the last feedback value seen (or None)."""
    request = rng.random() < cfg.feedback_prob
    if latest_feedback is None:
        header = HeaderType.IR
    elif latest_feedback <= cfg.w - 1:
        header = cfg.fc_header
    elif latest_feedback == cfg.w:
        header = cfg.rc_header
    else:
        header = cfg.nc_header
    if source_bit == 0 and header == HeaderType.CO3:
        header = HeaderType.CO7
    return CompressorAction(header, request)


class KtPolicy(Policy):
    def __init__(self, cfg: KtConfig):
        self.cfg = cfg
        self._rng = None
        self._latest = None

    def reset(self, rng) -> None:
        self._rng = rng
        self._latest = None

    def act(self, obs: Observation) -> CompressorAction:
        if obs.z_d != -1:
            self._latest = obs.z_d
        return kt_policy(self._latest, obs.source_window[0], self.cfg, self._rng)

    def reset_batch(self, rollouts: int) -> None:
        self._latest_batch = np.full(rollouts, NO_FEEDBACK)

    def act_batch(self, obs: BatchObservation, u: np.ndarray) -> np.ndarray:
        """kt_policy over every rollout; NO_FEEDBACK marks none seen yet."""
        cfg = self.cfg
        latest = np.where(obs.z_d != NO_FEEDBACK, obs.z_d, self._latest_batch)
        self._latest_batch = latest
        header = np.select(
            [latest == NO_FEEDBACK, latest <= cfg.w - 1, latest == cfg.w],
            [HeaderType.IR, cfg.fc_header, cfg.rc_header],
            cfg.nc_header,
        )
        upgrade = (obs.source_window[:, 0] == 0) & (header == HeaderType.CO3)
        header = np.where(upgrade, HeaderType.CO7, header)
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


_MAX_HORIZON = 6
_MAX_STATES = 1024


def _oracle_guard(cfg: EnvConfig, horizon: int) -> None:
    if not isinstance(cfg.channel, GilbertElliotConfig):
        raise ValueError("exact oracle requires the Gilbert-Elliot channel")
    if cfg.delay != 0:
        raise ValueError("exact oracle requires zero delay")
    if cfg.noise.eps_t != 0.0 or cfg.noise.eps_h != 0.0:
        raise ValueError("exact oracle requires noiseless observations")
    if horizon < 1 or horizon > _MAX_HORIZON:
        raise ValueError(f"horizon must lie in 1..{_MAX_HORIZON}")
    states = (cfg.w + 3) * (2 ** cfg.source.order) * 2 * 2
    if states > _MAX_STATES:
        raise ValueError(f"state space too large for exhaustive search ({states})")


def exact_oracle(cfg: EnvConfig, horizon: int, start=None) -> OracleResult:
    """Best expected discounted value over `horizon` slots.

    start is (decompressor level, source window tuple, channel good flag,
    previous feedback flag); None means the reset distribution: no context,
    all-compressible window, stationary channel, no pending feedback.

    Enumerates all six actions against every channel, arrival and source
    branch, exactly mirroring one environment step at zero delay.  The
    feedback charge of the action taken at slot t lands at slot t+1, so
    requests on the final slot are free, as in a finite trace.
    """
    _oracle_guard(cfg, horizon)
    ge = cfg.channel
    lengths = cfg.lengths
    lam = cfg.feedback_penalty
    gamma = cfg.discount
    p_good_stay = 1.0 - ge.good_to_bad
    p_bad_go = ge.bad_to_good
    dyn = cfg.source.p_one
    order = cfg.source.order
    memo: dict = {}

    def q_values(decomp: int, window: tuple, good: int, prev_fb: int, steps: int):
        values = []
        charge = lam * prev_fb
        idx = 0
        for k, bit in enumerate(window):
            idx |= bit << k
        p_one = dyn[idx]
        state = DecompressorState(decomp, cfg.w)
        for action in ACTIONS:
            ev = 0.0
            for good2 in (1, 0):
                if good == 1:
                    p_h = p_good_stay if good2 == 1 else ge.good_to_bad
                else:
                    p_h = p_bad_go if good2 == 1 else 1.0 - p_bad_go
                if p_h == 0.0:
                    continue
                base = ge.good_success if good2 == 1 else ge.bad_success
                p_succ = min(1.0, max(0.0, base * ge.header_scale[action.header]))
                for tx, p_t in ((1, p_succ), (0, 1.0 - p_succ)):
                    if p_t == 0.0:
                        continue
                    nxt = decompressor_step(state, action.header, tx, window[0])
                    reward = -charge
                    if nxt.value == 0:
                        reward += lengths.payload_bits / (
                            lengths.payload_bits + lengths.header_bits(action.header)
                        )
                    for bit, p_s in ((1, p_one), (0, 1.0 - p_one)):
                        if p_s == 0.0:
                            continue
                        cont = 0.0
                        if steps > 1:
                            window2 = ((bit,) + window)[:order]
                            cont = value(
                                nxt.value, window2, good2,
                                int(action.request_feedback), steps - 1,
                            )
                        ev += p_h * p_t * p_s * (reward + gamma * cont)
            values.append(ev)
        return values

    def value(decomp, window, good, prev_fb, steps) -> float:
        key = (decomp, window, good, prev_fb, steps)
        hit = memo.get(key)
        if hit is not None:
            return hit
        v = max(q_values(decomp, window, good, prev_fb, steps))
        memo[key] = v
        return v

    if start is not None:
        decomp, window, good, prev_fb = start
        q = q_values(int(decomp), tuple(window), int(good), int(prev_fb), horizon)
    else:
        p_bad = ge_stationary(ge)
        window = (1,) * order
        q_bad = q_values(cfg.w + 1, window, 0, 0, horizon)
        q_good = q_values(cfg.w + 1, window, 1, 0, horizon)
        q = [p_bad * a + (1.0 - p_bad) * b for a, b in zip(q_bad, q_good)]
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
