"""Double-deep-Q compressor agent.

The policy input is a sliding window over the last delay + extra + 1
observations and the delay + extra actions between them, one-hot encoded
(the fading channel's envelope observation stays real-valued).  One
HistoryWindow holds it for one rollout or for N in lockstep: each slot
moves every row one slot older and writes only the newest observation and
action, and the no-context mark is applied when the input is read.

Training follows the usual pattern: each episode is an epsilon-greedy
rollout of AgentPolicy through env.rollout, whose recorder stores every
slot's encoded input once as a row of the replay memory.  An exploring act
runs no forward pass, and the network stays fixed during the rollout, so
once the episode ends the explored slots' rows are scored in batch-sized
forward_batch calls to tell which drawn actions were the greedy ones
anyway.  The episode is then cut into multi-step blocks that refer to
those rows, pushed to the FIFO, and a run of minibatch SGD steps follows,
each gathering its batch with one fancy index per column and updating the
online network and the trailing target network in place.  Then epsilon
decays.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import ACTION_COUNT, ACTIONS, CompressorAction, HeaderType
from .env import (
    PAD_ACTION,
    BatchObservation,
    EnvConfig,
    Observation,
    Policy,
    Trace,
    as_seed_sequence,
    compute_metrics,
    rollout,
)
from .mlp import (
    MlpConfig,
    MlpParams,
    batch_td_loss_grad,
    forward,
    forward_batch,
    init_params,
    load_params,
    params_lerp,
    save_params,
    sgd_step,
)


@dataclass(frozen=True)
class AgentConfig:
    learning_rate: float = 1e-4
    epsilon_init: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_floor: float = 0.05
    batch_size: int = 64
    replay_capacity: int = 100_000
    grad_steps: int = 200
    # Three-step returns and a soft target update after every SGD step
    # carry values back faster than one-step targets refreshed once per
    # episode, which left start-up values underfitted.
    multi_step: int = 3
    # None: explore uniformly on every slot whose window still holds
    # padding (EncoderSpec.padded_slots); an explicit count overrides it.
    explore_start_slots: int | None = None
    target_tau: float = 0.01
    history_extra: int = 4
    hidden_width: int = 2048
    depth: int = 4
    # The decoupled argmax keeps the max over noisy values of rare windows
    # from inflating their bootstrap, at one more forward pass per SGD step.
    double_argmax: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        if not 0.0 <= self.epsilon_floor <= 1.0:
            raise ValueError("epsilon_floor must lie in [0, 1]")
        if self.batch_size < 1 or self.replay_capacity < 1:
            raise ValueError("batch_size and replay_capacity must be positive")
        if self.batch_size > self.replay_capacity:
            raise ValueError("batch_size must not exceed replay_capacity")
        if self.grad_steps < 0 or self.history_extra < 0:
            raise ValueError("grad_steps and history_extra must be >= 0")
        if self.multi_step < 1:
            raise ValueError("multi_step must be >= 1")
        if self.explore_start_slots is not None and self.explore_start_slots < 0:
            raise ValueError("explore_start_slots must be >= 0")
        if not 0.0 < self.target_tau <= 1.0:
            raise ValueError("target_tau must lie in (0, 1]")
        if self.hidden_width < 1 or self.depth < 2:
            raise ValueError("hidden_width must be >= 1 and depth >= 2")


@dataclass(frozen=True)
class EncoderSpec:
    """Fixed layout of the encoded history window."""

    hmm: bool
    w: int
    delay: int
    extra: int

    @classmethod
    def for_env(cls, env_cfg: EnvConfig, agent_cfg: AgentConfig) -> "EncoderSpec":
        return cls(env_cfg.is_hmm, env_cfg.w, env_cfg.delay, agent_cfg.history_extra)

    @property
    def obs_slots(self) -> int:
        return self.delay + self.extra + 1

    @property
    def action_slots(self) -> int:
        return self.delay + self.extra

    @property
    def padded_slots(self) -> int:
        """Slots after reset whose window still holds padding."""
        return self.obs_slots - 1

    @property
    def per_obs(self) -> int:
        channel_bits = 1 if self.hmm else 2
        return 2 + channel_bits + (self.w + 3) + (self.delay + 1)

    @property
    def input_len(self) -> int:
        return self.obs_slots * self.per_obs + self.action_slots * ACTION_COUNT

    @property
    def pad_observation(self) -> Observation:
        z_h = 0.0 if self.hmm else 0
        return Observation(0, z_h, -1, (1,) * (self.delay + 1))


# 1.0 at the one-hot entry of each action that sends an IR
_SENDS_IR = np.array([float(a.header == HeaderType.IR) for a in ACTIONS])


class HistoryWindow:
    """Encoded history windows of one rollout or of N in lockstep, one row
    each, oldest slot first.

    Per observation: one-hot arrival flag, channel state (one-hot for
    Gilbert-Elliot, raw envelope for the fading channel), one-hot feedback
    field over {-1, 0..w+1}, then the compressibility bits.  Per action:
    one-hot over the six actions.

    A window starts at its rollout's first observation, the older slots
    padded with spec.pad_observation and PAD_ACTION, in no context: the
    decompressor has none at reset, and only an arriving IR builds one.
    While a rollout is in no context, every slot of its input without
    feedback reads as the feedback level "no context" (w+1) instead of "no
    feedback": that is the decompressor's level at reset, and it never
    recurs once an IR has landed.  Unmarked, the padding reads exactly like
    IR sends lost on a bad channel, a history whose decompressor sits in
    repair context, and once the padding has scrolled out a no-context
    start looks like a repaired steady state.

    The rows hold the unmarked encoding and x applies the mark, so clearing
    it is a flag flip.  push moves every row one slot older and writes only
    the newest observation and action.  One Observation gives one row,
    indexed by 0 with scalar fields; a BatchObservation gives N rows,
    indexed by arange(N) with array fields; the same statements serve both.
    """

    def __init__(self, spec: EncoderSpec, first):
        self.spec = spec
        batched = np.ndim(first.z_t) > 0
        n = len(first.z_t) if batched else 1
        self._rows = np.arange(n) if batched else 0
        self._enc = enc = np.zeros((n, spec.input_len))
        obs_end = spec.obs_slots * spec.per_obs
        newest = obs_end - spec.per_obs
        # views of the slots push moves and writes, taken once: at one row,
        # slicing costs about as much as the copy
        self._obs = (enc[:, :newest], enc[:, spec.per_obs : obs_end])
        self._actions = (enc[:, obs_end:-ACTION_COUNT], enc[:, obs_end + ACTION_COUNT :])
        self._newest_obs = enc[:, newest:obs_end]
        self._newest_action = enc[:, -ACTION_COUNT:]
        sent = obs_end + spec.extra * ACTION_COUNT
        self._sent = enc[:, sent : sent + ACTION_COUNT]
        # the "no feedback" and "no context" entries of every slot
        self._blank = np.arange(spec.obs_slots) * spec.per_obs + (3 if spec.hmm else 4)
        self._level = self._blank + spec.w + 2

        self._write_observation(spec.pad_observation)
        enc[:, :newest] = np.tile(self._newest_obs, spec.padded_slots)
        enc[:, obs_end + PAD_ACTION.index :: ACTION_COUNT] = 1.0
        self._write_observation(first)
        self.no_context = np.ones(n, dtype=bool)
        self._marked = True  # no_context.any()

    def push(self, obs, action) -> None:
        """Move every row on to obs, which follows action (one action
        index per row)."""
        spec = self.spec
        if self._marked:
            # obs reports the arrival of the packet sent `delay` slots
            # before action, which before the shift sits at action slot
            # `extra`
            if spec.delay:
                sent_ir = self._sent[self._rows] @ _SENDS_IR
            else:
                sent_ir = _SENDS_IR[action]
            self.no_context &= (sent_ir == 0.0) | (obs.z_t != 1)
            self._marked = self.no_context.any()

        older, newer = self._obs
        older[...] = newer
        if spec.action_slots:
            older, newer = self._actions
            older[...] = newer
            self._newest_action.fill(0.0)
            self._newest_action[self._rows, action] = 1.0
        self._write_observation(obs)

    def _write_observation(self, obs) -> None:
        """Encode obs, unmarked, into the newest observation slot."""
        slot = self._newest_obs
        rows = self._rows
        slot.fill(0.0)
        slot[rows, obs.z_t] = 1.0
        if self.spec.hmm:
            slot[rows, 2] = obs.z_h
            off = 3
        else:
            slot[rows, 2 + obs.z_h] = 1.0
            off = 4
        slot[rows, off + 1 + obs.z_d] = 1.0
        slot[rows, off + self.spec.w + 3 :] = obs.source_window

    @property
    def x(self) -> np.ndarray:
        """The network inputs, one row per rollout, marked where the
        rollout is in no context."""
        x = self._enc.copy()
        if self._marked:
            marked = np.flatnonzero(self.no_context)[:, None]
            x[marked, self._level] += x[marked, self._blank]
            x[marked, self._blank] = 0.0
        return x


def _row_store(rows: int, width: int) -> np.ndarray:
    """An uninitialised (rows, width) float32 array, the training network's
    dtype, on an anonymous mapping whose pages are backed only once
    written.  numpy asks for transparent huge pages on arrays of 4 MB and
    more, which backs a store holding a few rows in 2 MB pages."""
    return np.frombuffer(mmap.mmap(-1, rows * width * 4), dtype=np.float32).reshape(rows, width)


class ReplayMemory:
    """Bounded FIFO of multi-step blocks over a store of encoded rows.

    Each slot's encoded input is stored once, by add_row, which returns the
    row's number; rows are held in float32, the dtype training computes in,
    while returns and discounts stay float64.  A block (input row, action
    index, discounted return, bootstrap row, bootstrap discount) refers to
    its rows by number.
    Blocks sit in a ring of capacity entries, the oldest overwritten first;
    sample draws ring positions uniformly and gathers each column with one
    fancy index, its rows through gather.

    Blocks are pushed in increasing input row, so every row before the
    oldest live block's input row is free.  The rows sit in a ring of their
    own, as long as the block ring at first (its pages are backed only as
    rows are written), which grows by half only when every row in it is
    live.  end_episode frees the rows after the last one a pushed block
    uses: an episode's unused tail, or all of it when it gave no block.
    """

    def __init__(self, capacity: int, width: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._input = np.empty(capacity, dtype=np.int64)
        self._action = np.empty(capacity, dtype=np.int64)
        self._return = np.empty(capacity)
        self._bootstrap = np.empty(capacity, dtype=np.int64)
        self._discount = np.empty(capacity)
        self._len = 0
        self._next = 0  # ring position of the oldest block
        self._rows = _row_store(capacity, width)
        self._base = 0  # number of the row at ring position 0
        self._start = 0  # first row of the episode in progress
        self._end = 0  # number of the next row added

    def __len__(self) -> int:
        return self._len

    def add_row(self, x) -> int:
        """Store one encoded input; returns its row number."""
        size = len(self._rows)
        first = self._input[self._next] if self._len else self._start
        if self._end - first == size:
            grown = _row_store(size + size // 2 + 1, self._rows.shape[1])
            live = np.arange(first, self._end) - self._base
            self._rows.take(live, axis=0, mode="wrap", out=grown[:size])
            self._rows, self._base = grown, int(first)
        self._rows[(self._end - self._base) % len(self._rows)] = x
        self._end += 1
        return self._end - 1

    def gather(self, numbers) -> np.ndarray:
        """The stored rows with the given row numbers, one per number."""
        return self._rows.take(np.asarray(numbers) - self._base, axis=0, mode="wrap")

    def push(self, block) -> None:
        """Add one (input row, action index, return, bootstrap row,
        bootstrap discount) block, evicting the oldest when full."""
        i = (self._next + self._len) % self.capacity
        (
            self._input[i],
            self._action[i],
            self._return[i],
            self._bootstrap[i],
            self._discount[i],
        ) = block
        if self._len < self.capacity:
            self._len += 1
        else:
            self._next = (self._next + 1) % self.capacity

    def end_episode(self) -> None:
        """Free the rows added after the last one a pushed block uses."""
        if self._len:
            newest = (self._next + self._len - 1) % self.capacity
            self._end = int(self._bootstrap[newest]) + 1
        else:
            self._end = self._start
        self._start = self._end

    def sample(self, batch_size: int, rng):
        """(inputs, action indices, returns, bootstrap inputs, bootstrap
        discounts) of batch_size blocks drawn uniformly with replacement."""
        if not self._len:
            raise ValueError("cannot sample from an empty memory")
        idx = rng.integers(self._len, size=batch_size)
        return (
            self.gather(self._input[idx]),
            self._action[idx],
            self._return[idx],
            self.gather(self._bootstrap[idx]),
            self._discount[idx],
        )


def mlp_config_for(spec: EncoderSpec, agent_cfg: AgentConfig) -> MlpConfig:
    hidden = (agent_cfg.hidden_width,) * (agent_cfg.depth - 1)
    return MlpConfig((spec.input_len,) + hidden + (ACTION_COUNT,))


def train_step(
    params: MlpParams,
    target_params: MlpParams,
    batch,
    eta: float,
    double_argmax: bool = False,
    grads: MlpParams | None = None,
) -> float:
    """One minibatch SGD step on the mean squared TD error; updates params
    in place and returns the loss.

    batch is what ReplayMemory.sample returns: the inputs, action indices,
    returns, bootstrap inputs and bootstrap discounts, one array each.  The
    frozen network scores the bootstrap inputs; with double_argmax the
    online network picks the next action and the frozen one evaluates it.
    grads, shaped like params, receives the gradient when given.
    """
    x, actions, returns, next_x, discounts = batch
    q_next = forward_batch(target_params, next_x)
    if double_argmax:
        pick = np.argmax(forward_batch(params, next_x), axis=1)
        bootstrap = q_next[np.arange(len(pick)), pick]
    else:
        bootstrap = q_next.max(axis=1)
    targets = returns + discounts * bootstrap

    loss, step = batch_td_loss_grad(params, x, actions, targets, out=grads)
    sgd_step(params, step, eta, out=params)
    return loss


@dataclass
class TrainingResult:
    params: MlpParams
    episode_rewards: list[float] = field(default_factory=list)
    episode_efficiency: list[float] = field(default_factory=list)
    episode_feedback_rate: list[float] = field(default_factory=list)
    episode_epsilon: list[float] = field(default_factory=list)


def _blocks(inputs, actions, greedy, rewards, multi_step: int, discount: float) -> list:
    """Multi-step blocks of one finished episode, each (input, action index,
    discounted reward sum, bootstrap input, bootstrap discount), in the
    order they close and oldest first among those closing together, which
    is increasing start slot.  inputs holds one entry per slot plus the
    input after the last slot (in training, their replay row numbers).

    A block ends after multi_step slots, or early at the first non-greedy
    action -- bootstrapping there keeps exploration's windfalls out of the
    reward sum for the action being scored.  Blocks still open after the
    last slot are dropped, at most multi_step - 1 of them.
    """
    blocks = []

    def emit(s: int, end: int) -> None:
        ret = 0.0
        for k in range(end - 1, s - 1, -1):
            ret = rewards[k] + discount * ret
        blocks.append((inputs[s], actions[s], ret, inputs[end], discount ** (end - s)))

    start = 0
    for t in range(len(rewards)):
        if not greedy[t]:
            for s in range(start, t):
                emit(s, t)
            start = t
        if t + 1 - start == multi_step:
            emit(start, t + 1)
            start += 1
    return blocks


def _greedy_flags(params: MlpParams, memory: ReplayMemory, rows, actions, explored, chunk: int):
    """Whether each slot's action was the greedy one: true where the policy
    did not explore, and where it did, whether the action drawn is the
    argmax of the slot's stored row, scored by forward_batch chunk rows at a
    time."""
    explored = np.asarray(explored, dtype=bool)
    greedy = ~explored
    slots = np.flatnonzero(explored)
    rows = np.asarray(rows)
    actions = np.asarray(actions)
    for start in range(0, len(slots), chunk):
        part = slots[start : start + chunk]
        q = forward_batch(params, memory.gather(rows[part]))
        greedy[part] = np.argmax(q, axis=1) == actions[part]
    return greedy


def run_training(
    env_cfg: EnvConfig,
    agent_cfg: AgentConfig,
    episodes: int,
    seed,
    env_schedule=None,
) -> TrainingResult:
    """Full training loop, in float32: the network is drawn by init_params
    and rounded once, and the replay rows, gradients and target network
    share its dtype.

    Each episode is one rollout of an AgentPolicy over the online network,
    recorded in a Trace whose compute_metrics give the curves, while each
    slot's encoded input goes to the replay memory's row store.  Once the
    episode ends, the rows of its explored slots are scored in chunks of
    batch_size rows to find the greedy actions among the drawn ones, and
    its slots are cut into multi-step blocks for the replay memory,
    discounted by that episode's env config; blocks still open at the
    horizon are dropped, at most multi_step - 1 per episode.  Then come
    grad_steps minibatch SGD steps, each followed by a soft target update,
    both in place, and epsilon decays.

    env_schedule optionally remaps the environment config between episodes:
    a sequence of (episode index, EnvConfig) pairs, applied when that
    episode begins, with the network and replay memory carried across.
    """
    switches = dict()
    if env_schedule:
        for ep, cfg in env_schedule:
            if not 0 <= int(ep) < episodes:
                raise ValueError(f"env_schedule episode {ep} lies outside 0..{episodes - 1}")
            switches[int(ep)] = cfg
    spec = EncoderSpec.for_env(env_cfg, agent_cfg)
    for where, cfg in [("env_cfg", env_cfg)] + [
        (f"env_schedule episode {ep}", c) for ep, c in switches.items()
    ]:
        if cfg.horizon < 1:
            raise ValueError(
                f"{where} has horizon {cfg.horizon}; a training episode needs at least 1 slot"
            )
        if EncoderSpec.for_env(cfg, agent_cfg) != spec:
            raise ValueError("schedule must not change the encoded input layout")

    root = as_seed_sequence(seed)
    init_ss, explore_ss, replay_ss, episode_root = root.spawn(4)
    explore_rng = np.random.default_rng(explore_ss)
    replay_rng = np.random.default_rng(replay_ss)
    episode_seeds = episode_root.spawn(episodes) if episodes else []

    explore_slots = agent_cfg.explore_start_slots
    if explore_slots is None:
        explore_slots = spec.padded_slots
    params = init_params(mlp_config_for(spec, agent_cfg), np.random.default_rng(init_ss))
    params = params.astype(np.float32)
    target = params.copy()
    grads = params.copy()  # gradient buffer, and the target update's scratch
    memory = ReplayMemory(agent_cfg.replay_capacity, spec.input_len)
    policy = AgentPolicy(params, spec, agent_cfg.epsilon_init, explore_slots)
    result = TrainingResult(params)

    cfg = env_cfg
    for episode in range(episodes):
        cfg = switches.get(episode, cfg)
        trace = Trace()
        rows: list[int] = []
        actions: list[int] = []
        explored: list[bool] = []

        def record(t, obs, outcome) -> None:
            trace.append(t, obs, outcome)
            rows.append(memory.add_row(policy.x[0]))
            actions.append(policy.taken)
            explored.append(policy.explored)

        policy.observe(rollout(policy, cfg, episode_seeds[episode], explore_rng, record))
        rows.append(memory.add_row(policy.x[0]))
        greedy = _greedy_flags(params, memory, rows[:-1], actions, explored, agent_cfg.batch_size)
        for block in _blocks(
            rows, actions, greedy, trace.reward, agent_cfg.multi_step, cfg.discount
        ):
            memory.push(block)
        memory.end_episode()

        for _ in range(agent_cfg.grad_steps):
            if len(memory) == 0:
                break
            batch = memory.sample(agent_cfg.batch_size, replay_rng)
            train_step(
                params, target, batch, agent_cfg.learning_rate, agent_cfg.double_argmax, grads
            )
            params_lerp(target, params, agent_cfg.target_tau, out=target, scratch=grads)

        metrics = compute_metrics(trace, cfg.lengths)
        result.episode_rewards.append(metrics.mean_reward)
        result.episode_efficiency.append(metrics.transmission_efficiency)
        result.episode_feedback_rate.append(metrics.feedback_rate)
        result.episode_epsilon.append(policy.epsilon)
        policy.epsilon = max(policy.epsilon * agent_cfg.epsilon_decay, agent_cfg.epsilon_floor)

    result.params = params
    return result


class AgentPolicy(Policy):
    """Rollout wrapper around a network; epsilon 0 means greedy.

    Each act acts epsilon-greedily, with epsilon 1 on the first
    explore_slots slots of an episode: reset-adjacent windows recur only
    once per episode, so exploring starts keep every action head covered
    there.  It draws the explore decision first; an exploring act draws its
    action uniformly and runs no forward pass, and otherwise one forward
    pass scores the window and its argmax is taken, ties breaking low.  At
    epsilon 0 an act draws no randomness.  act_batch scores all N lockstep
    rollouts by one forward_batch over one window of N rows.  The window,
    its encoded inputs x (one row per rollout), the action index taken (one
    per rollout) and, after act, whether it explored stay on the instance.
    """

    def __init__(
        self, params: MlpParams, spec: EncoderSpec, epsilon: float = 0.0, explore_slots: int = 0
    ):
        self.params = params
        self.spec = spec
        self.epsilon = epsilon
        self.explore_slots = explore_slots
        self._rng = None
        self._slot = 0
        self.window = None
        self.x = None
        self.taken = None
        self.explored = False

    def reset(self, rng) -> None:
        self._rng = rng
        self.reset_batch(1)

    def reset_batch(self, rollouts: int) -> None:
        self._slot = 0
        self.window = None

    def observe(self, obs) -> None:
        """Move the window on to obs, one Observation or the
        BatchObservation of N rollouts, which follows the actions last
        taken, and read its inputs x; the first observation after a reset
        starts a fresh window."""
        if self.window is None:
            self.window = HistoryWindow(self.spec, obs)
        else:
            self.window.push(obs, self.taken)
        self.x = self.window.x

    def _epsilon(self) -> float:
        epsilon = 1.0 if self._slot < self.explore_slots else self.epsilon
        self._slot += 1
        return epsilon

    def act(self, obs: Observation) -> CompressorAction:
        self.observe(obs)
        epsilon = self._epsilon()
        self.explored = epsilon > 0.0 and self._rng.random() < epsilon
        if self.explored:
            idx = int(self._rng.integers(ACTION_COUNT))
        else:
            idx = int(np.argmax(forward(self.params, self.x[0])))
        self.taken = idx
        return ACTIONS[idx]

    def act_batch(self, obs: BatchObservation, u: np.ndarray) -> np.ndarray:
        """All rollouts are scored by one forward_batch; a rollout explores
        when u < epsilon, and then u / epsilon picks its action uniformly."""
        self.observe(obs)
        idx = np.argmax(forward_batch(self.params, self.x), axis=1)
        epsilon = self._epsilon()
        if epsilon > 0.0:
            pick = np.minimum((u / epsilon * ACTION_COUNT).astype(np.int64), ACTION_COUNT - 1)
            idx = np.where(u < epsilon, pick, idx)
        self.taken = idx
        return idx


def save_checkpoint(
    path,
    params: MlpParams,
    agent_cfg: AgentConfig,
    episode: int,
    epsilon: float,
    spec: EncoderSpec | None = None,
) -> None:
    """Parameter dump plus a JSON sidecar describing how it was trained;
    with spec, the sidecar also records the encoded input layout."""
    save_params(params, path)
    meta = {
        "agent": asdict(agent_cfg),
        "episode": episode,
        "epsilon": epsilon,
        "widths": list(params.widths),
    }
    if spec is not None:
        meta["encoder"] = asdict(spec)
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Former AgentConfig fields (a learning-rate anneal, and the discount that
# training now reads from the env config); sidecars that record them load.
_RETIRED_FIELDS = ("learning_rate_final", "discount")


def load_checkpoint(path):
    """Returns (params, AgentConfig, metadata dict); metadata["encoder"]
    holds the EncoderSpec fields when the checkpoint recorded them."""
    params = load_params(path)
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    recorded = meta["agent"]
    for name in _RETIRED_FIELDS:
        recorded.pop(name, None)
    unknown = sorted(set(recorded) - {f.name for f in fields(AgentConfig)})
    if unknown:
        raise ValueError(f"checkpoint {path} records unknown agent fields: {', '.join(unknown)}")
    agent_cfg = AgentConfig(**recorded)
    if list(params.widths) != meta["widths"]:
        raise ValueError("checkpoint metadata does not match parameter shapes")
    return params, agent_cfg, meta


__all__ = [
    "AgentConfig",
    "AgentPolicy",
    "EncoderSpec",
    "HistoryWindow",
    "ReplayMemory",
    "TrainingResult",
    "load_checkpoint",
    "mlp_config_for",
    "run_training",
    "save_checkpoint",
    "train_step",
]
