"""Discrete-time compression loop with a shared delay d on the downlink
observations and the feedback path.

Timing convention, with t the compressor's slot clock: the packet handed to
the channel during slot t is the action chosen d slots ago, so each step
advances the channel and the decompressor one slot behind the compressor by
d.  The observation returned by step(t) is the slot t+1 observation: the
arrival flag and channel state it reports belong to the packet just decoded
(slots t-d+1 on the receiver clock), the compressibility window spans slots
t+1 down to t+1-d, and the feedback field carries the decompressor level
just computed whenever the action taken at slot t+1-d asked for it (at
d = 0 the request made this very slot, the earliest that can deliver).

The reward for slot t pays the bandwidth share of the packet decoded this
step and charges the feedback request made d+1 slots ago.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .channels import (
    GilbertElliotConfig,
    HmmChannelConfig,
    ObsNoiseConfig,
    ge_init,
    ge_stationary,
    ge_step,
    ge_transmission,
    hmm_init,
    hmm_step,
    hmm_transmission,
    observe_channel_ge,
    observe_channel_hmm,
    observe_transmission,
)
from .core import (
    CompressorAction,
    HeaderLengths,
    HeaderType,
    SourceDynamics,
    decompressor_step,
    source_step,
)

PAD_ACTION = CompressorAction(HeaderType.IR, False)
NO_FEEDBACK = -1


@dataclass(frozen=True)
class EnvConfig:
    lengths: HeaderLengths
    channel: GilbertElliotConfig | HmmChannelConfig
    noise: ObsNoiseConfig
    source: SourceDynamics
    w: int = 5
    delay: int = 4
    feedback_penalty: float = 0.01
    discount: float = 0.95
    horizon: int = 2000

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if not (math.isfinite(self.feedback_penalty) and self.feedback_penalty >= 0.0):
            raise ValueError(
                f"feedback_penalty must be finite and >= 0, got {self.feedback_penalty}"
            )
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")

    @property
    def is_hmm(self) -> bool:
        return isinstance(self.channel, HmmChannelConfig)


@dataclass(frozen=True)
class Observation:
    """What the compressor sees at the top of a slot.

    z_t: noisy arrival flag of the packet decoded d slots back.
    z_h: noisy channel state (0/1 flip for Gilbert-Elliot, real-valued
         noisy envelope for the fading channel), same delay.
    z_d: decompressor level delivered by the feedback path, or -1 when no
         feedback is due this slot.
    source_window: the last delay+1 compressibility bits, most recent first
         (these are compressor-side and arrive undelayed).
    """

    z_t: int
    z_h: float
    z_d: int
    source_window: tuple[int, ...]


@dataclass(frozen=True)
class StepDiagnostics:
    decode_success: bool
    applied_header: HeaderType
    decomp_state: int
    tx_ok: int
    source_bit: int
    penalized_feedback: int


@dataclass(frozen=True)
class StepOutcome:
    observation: Observation
    reward: float
    diagnostics: StepDiagnostics


class RohcEnv:
    """Single compressor/decompressor pair over one channel.

    Instances are single-threaded; all randomness flows through the
    generator created at reset, so (config, seed) pins every trajectory.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self._rng = None
        self._clock = 0

    @property
    def clock(self) -> int:
        return self._clock

    def reset(self, seed=None) -> Observation:
        cfg = self.cfg
        self._rng = np.random.default_rng(seed)
        self._clock = 0
        self._level = cfg.w + 1  # no context
        # the source history as an integer: bit k is the bit k slots back
        self._src_history = 2**cfg.source.order - 1
        self._src_window = deque([1] * (cfg.delay + 1), maxlen=cfg.delay + 1)
        self._actions = deque([PAD_ACTION] * (cfg.delay + 1), maxlen=cfg.delay + 2)
        if cfg.is_hmm:
            self._channel = hmm_init(cfg.channel, self._rng)
            z_h = observe_channel_hmm(
                self._channel.envelope, cfg.channel.obs_noise_var, self._rng
            )
        else:
            self._channel = ge_init(cfg.channel, self._rng)
            z_h = observe_channel_ge(self._channel, cfg.noise.eps_h, self._rng)
        z_t = observe_transmission(0, cfg.noise.eps_t, self._rng)
        return Observation(z_t, z_h, NO_FEEDBACK, tuple(self._src_window))

    def step(self, action: CompressorAction) -> StepOutcome:
        cfg = self.cfg
        if self._rng is None:
            raise RuntimeError("reset the environment before stepping")
        if self._clock >= cfg.horizon:
            raise RuntimeError(f"episode horizon {cfg.horizon} exhausted")
        rng = self._rng

        self._actions.appendleft(action)
        evicted = self._actions.pop()      # the action taken d+1 slots back
        applied = self._actions[-1]        # the action taken d slots back

        if cfg.is_hmm:
            self._channel, envelope = hmm_step(self._channel, cfg.channel, rng)
            tx_ok = hmm_transmission(envelope, cfg.channel, rng)
            z_h = observe_channel_hmm(envelope, cfg.channel.obs_noise_var, rng)
        else:
            self._channel = ge_step(self._channel, cfg.channel, rng)
            tx_ok = ge_transmission(self._channel, applied.header, cfg.channel, rng)
            z_h = observe_channel_ge(self._channel, cfg.noise.eps_h, rng)

        src_bit = self._src_window[cfg.delay]
        self._level = decompressor_step(self._level, applied.header, tx_ok, src_bit, cfg.w)
        success = self._level == 0

        length = cfg.lengths
        reward = 0.0
        if success:
            reward = length.payload_bits / (
                length.payload_bits + length.header_bits(applied.header)
            )
        reward -= cfg.feedback_penalty * int(evicted.request_feedback)

        self._src_history, new_bit = source_step(self._src_history, cfg.source, rng)
        self._src_window.appendleft(new_bit)

        fb_request = self._actions[cfg.delay - 1 if cfg.delay >= 1 else 0]
        z_d = self._level if fb_request.request_feedback else NO_FEEDBACK
        z_t = observe_transmission(tx_ok, cfg.noise.eps_t, rng)

        obs = Observation(z_t, z_h, z_d, tuple(self._src_window))
        self._clock += 1
        return StepOutcome(
            obs,
            reward,
            StepDiagnostics(
                success,
                applied.header,
                self._level,
                tx_ok,
                src_bit,
                int(evicted.request_feedback),
            ),
        )


@dataclass(frozen=True)
class BatchObservation:
    """Observations of N lockstep rollouts, one row per rollout; the fields
    are those of Observation, source_window an (N, delay+1) array."""

    z_t: np.ndarray
    z_h: np.ndarray
    z_d: np.ndarray
    source_window: np.ndarray


def _decompressor_table(w: int) -> np.ndarray:
    """next_level[level, header, tx_ok, compressible], filled from
    decompressor_step itself."""
    table = np.empty((w + 2, len(HeaderType), 2, 2), dtype=np.int64)
    for v in range(w + 2):
        for header in HeaderType:
            for tx in (0, 1):
                for comp in (0, 1):
                    table[v, header, tx, comp] = decompressor_step(v, header, tx, comp, w)
    return table


class BatchGeEnv:
    """N Gilbert-Elliot episodes of RohcEnv run in lockstep on pre-drawn
    uniforms, held as one array per state component.

    reset takes an (N, RESET_DRAWS) block: initial channel state, channel
    observation flip, arrival observation flip.  step takes one action
    index per rollout and an (N, STEP_DRAWS) block: channel step,
    transmission, channel observation flip, source bit, arrival observation
    flip.  That is the order in which RohcEnv draws them, so a row holding
    the stream of np.random.default_rng(s) reproduces RohcEnv.reset(s)
    and the steps after it exactly.

    The slot model lives in public tables, which baselines.exact_oracle
    reads as well: p_bad (stationary bad-state probability at reset),
    p_tx[channel, header], share[header] (the reward of a decode),
    next_level[level, header, tx_ok, compressible] and p_one[history].
    """

    RESET_DRAWS = 3
    STEP_DRAWS = 5

    def __init__(self, cfg: EnvConfig):
        if cfg.is_hmm:
            raise ValueError(
                "lockstep rollouts require the Gilbert-Elliot channel "
                "(env.channel = ge), not the hmm fading channel"
            )
        ge = cfg.channel
        lengths = cfg.lengths
        self.cfg = cfg
        self.p_bad = ge_stationary(ge)
        # success probability by [channel state (0 bad, 1 good), header]
        base = np.array([[ge.bad_success], [ge.good_success]])
        self.p_tx = np.clip(base * np.array(ge.header_scale), 0.0, 1.0)
        self.share = np.array(
            [
                lengths.payload_bits / (lengths.payload_bits + lengths.header_bits(h))
                for h in HeaderType
            ]
        )
        self.next_level = _decompressor_table(cfg.w)
        self.p_one = np.array(cfg.source.p_one)
        self._src_mask = 2**cfg.source.order - 1
        self._clock = 0

    def reset(self, u: np.ndarray) -> BatchObservation:
        cfg = self.cfg
        n = u.shape[0]
        self._clock = 0
        self._level = np.full(n, cfg.w + 1)
        # the source history as an integer: bit k is the bit k slots back
        self._src_history = np.full(n, self._src_mask)
        self._src_window = np.ones((n, cfg.delay + 1), dtype=np.int64)
        self._actions = np.full((n, cfg.delay + 1), PAD_ACTION.index)
        self._channel = (u[:, 0] >= self.p_bad).astype(np.int64)
        z_h = self._channel ^ (u[:, 1] < cfg.noise.eps_h)
        z_t = (u[:, 2] < cfg.noise.eps_t).astype(np.int64)
        return BatchObservation(z_t, z_h, np.full(n, NO_FEEDBACK), self._src_window)

    def step(self, actions: np.ndarray, u: np.ndarray) -> tuple[BatchObservation, np.ndarray]:
        """Advance every rollout one slot; returns the observations and the
        rewards."""
        cfg = self.cfg
        d = cfg.delay
        if self._clock >= cfg.horizon:
            raise RuntimeError(f"episode horizon {cfg.horizon} exhausted")

        # line[:, k] is the action taken k slots back, this slot's first;
        # an action index is header * 2 + feedback flag
        line = np.concatenate((actions[:, None], self._actions), axis=1)
        self._actions = line[:, : d + 1]
        header = line[:, d] >> 1
        charged = line[:, d + 1] & 1
        asked = line[:, d - 1 if d >= 1 else 0] & 1

        stay_good = u[:, 0] >= cfg.channel.good_to_bad
        go_good = u[:, 0] < cfg.channel.bad_to_good
        self._channel = np.where(self._channel == 1, stay_good, go_good).astype(np.int64)
        tx_ok = (u[:, 1] < self.p_tx[self._channel, header]).astype(np.int64)
        z_h = self._channel ^ (u[:, 2] < cfg.noise.eps_h)

        src_bit = self._src_window[:, d]
        self._level = self.next_level[self._level, header, tx_ok, src_bit]
        reward = np.where(self._level == 0, self.share[header], 0.0)
        reward -= cfg.feedback_penalty * charged

        new_bit = (u[:, 3] < self.p_one[self._src_history]).astype(np.int64)
        self._src_history = ((self._src_history << 1) | new_bit) & self._src_mask
        self._src_window = np.concatenate(
            (new_bit[:, None], self._src_window[:, :-1]), axis=1
        )

        z_d = np.where(asked == 1, self._level, NO_FEEDBACK)
        z_t = tx_ok ^ (u[:, 4] < cfg.noise.eps_t)
        self._clock += 1
        return BatchObservation(z_t, z_h, z_d, self._src_window), reward


class Policy:
    """Minimal rollout interface: reset once per episode, then act on each
    observation in turn.  Stateful policies keep their history themselves.

    The batched pair drives N lockstep rollouts of BatchGeEnv: act_batch
    gets their observations and one uniform per rollout for the policy's
    own randomness, and returns one action index per rollout.
    """

    def reset(self, rng) -> None:  # pragma: no cover - trivial default
        pass

    def act(self, obs: Observation) -> CompressorAction:
        raise NotImplementedError

    def reset_batch(self, rollouts: int) -> None:
        pass

    def act_batch(self, obs: BatchObservation, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no batched act")


_TRACE_COLUMNS = (
    "t",
    "alpha_C",
    "alpha_F",
    "z_T",
    "z_H",
    "z_D",
    "sigma_S",
    "sigma_D",
    "sigma_T",
    "reward",
    "decode_success",
)


class Trace:
    """Per-slot record of one episode.

    Columns follow the slot-t reward bookkeeping: alpha_C is the header of
    the packet decoded during slot t, alpha_F the feedback flag charged at
    slot t (the request from d+1 slots back), z_* the observation the
    policy acted on at slot t, sigma_* the receiver-side quantities of the
    decode that landed this slot.
    """

    def __init__(self):
        self.t: list[int] = []
        self.alpha_c: list[int] = []
        self.alpha_f: list[int] = []
        self.z_t: list[int] = []
        self.z_h: list[float] = []
        self.z_d: list[int] = []
        self.sigma_s: list[int] = []
        self.sigma_d: list[int] = []
        self.sigma_t: list[int] = []
        self.reward: list[float] = []
        self.decode_success: list[int] = []

    def __len__(self) -> int:
        return len(self.t)

    def append(self, t: int, obs: Observation, outcome: StepOutcome) -> None:
        d = outcome.diagnostics
        self.t.append(t)
        self.alpha_c.append(int(d.applied_header))
        self.alpha_f.append(d.penalized_feedback)
        self.z_t.append(obs.z_t)
        self.z_h.append(obs.z_h)
        self.z_d.append(obs.z_d)
        self.sigma_s.append(d.source_bit)
        self.sigma_d.append(d.decomp_state)
        self.sigma_t.append(d.tx_ok)
        self.reward.append(outcome.reward)
        self.decode_success.append(int(d.decode_success))

    def to_csv(self, path) -> None:
        columns = [getattr(self, name.lower()) for name in _TRACE_COLUMNS]
        write_csv(path, _TRACE_COLUMNS, zip(*columns))

    @classmethod
    def from_csv(cls, path) -> "Trace":
        """Read a to_csv file back; z_H holds ints on the Gilbert-Elliot
        channel and floats on the fading channel."""
        trace = cls()
        columns = [getattr(trace, name.lower()) for name in _TRACE_COLUMNS]
        parsers = [{"z_H": _int_or_float, "reward": float}.get(name, int) for name in _TRACE_COLUMNS]
        for cells in read_csv(path, _TRACE_COLUMNS):
            for column, parse, cell in zip(columns, parsers, cells):
                column.append(parse(cell))
        return trace


def _int_or_float(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def write_csv(path, columns, rows) -> None:
    """Write a header line of column names, then one comma-separated line
    per row.  Every CSV file the package writes goes through here: a cell
    is str() of its value, which for a float is its repr, so numbers read
    back exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def read_csv(path, columns):
    """Yield the rows of a write_csv file as lists of cell strings, one row
    at a time, skipping blank lines.  Raises ValueError when the header is
    not exactly columns or a row's width differs from the header's."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",") != list(columns):
            raise ValueError(f"{path}: expected header {','.join(columns)!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(columns):
                raise ValueError(
                    f"{path}: line {lineno} has {len(cells)} fields, "
                    f"the header has {len(columns)}: {line.rstrip()!r}"
                )
            yield cells


@dataclass(frozen=True)
class MetricsReport:
    transmission_efficiency: float
    feedback_rate: float
    mean_reward: float
    decode_success_count: int


def compute_metrics(trace: Trace, lengths: HeaderLengths) -> MetricsReport:
    """Exact ratios over one trace; rejects empty traces and header codes
    outside HeaderType."""
    n = len(trace)
    if n == 0:
        raise ValueError("cannot compute metrics on an empty trace")
    payload = lengths.payload_bits
    counts = {header: trace.alpha_c.count(header) for header in HeaderType}
    if sum(counts.values()) != n:
        raise ValueError(f"trace holds header codes outside {[int(h) for h in HeaderType]}")
    sent_bits = sum(count * (payload + lengths.header_bits(h)) for h, count in counts.items())
    decoded = sum(trace.decode_success)
    return MetricsReport(
        transmission_efficiency=payload * decoded / sent_bits,
        feedback_rate=sum(trace.alpha_f) / n,
        mean_reward=sum(trace.reward) / n,
        decode_success_count=decoded,
    )


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Accept raw entropy or an already-built SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def rollout(policy: Policy, cfg: EnvConfig, env_seed, policy_rng, record) -> Observation:
    """Play one full-horizon episode, calling record(t, obs, outcome) after
    every slot with the observation the policy acted on; returns the
    observation after the last slot."""
    env = RohcEnv(cfg)
    obs = env.reset(env_seed)
    policy.reset(policy_rng)
    for t in range(cfg.horizon):
        outcome = env.step(policy.act(obs))
        record(t, obs, outcome)
        obs = outcome.observation
    return obs


def run_episode(policy: Policy, cfg: EnvConfig, seed) -> Trace:
    """Roll one full-horizon episode; deterministic given (cfg, seed) and a
    deterministic policy."""
    env_ss, policy_ss = as_seed_sequence(seed).spawn(2)
    trace = Trace()
    rollout(policy, cfg, env_ss, np.random.default_rng(policy_ss), trace.append)
    return trace
