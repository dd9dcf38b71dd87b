"""Agent tests: history encoding layout, action selection, replay memory,
multi-step blocks, training-loop bookkeeping, checkpoints."""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdrohc import agent as agent_module
from bdrohc.agent import (
    AgentConfig,
    AgentPolicy,
    EncoderSpec,
    HistoryWindow,
    ReplayMemory,
    _blocks,
    load_checkpoint,
    mlp_config_for,
    run_training,
    save_checkpoint,
    train_step,
)
from bdrohc.channels import GilbertElliotConfig, HmmChannelConfig, ObsNoiseConfig
from bdrohc.core import ACTION_COUNT, ACTIONS, CompressorAction, HeaderLengths, HeaderType, SourceDynamics
from bdrohc.env import (
    NO_FEEDBACK,
    PAD_ACTION,
    BatchObservation,
    EnvConfig,
    Observation,
    Trace,
    compute_metrics,
    rollout,
    run_episode,
)
from bdrohc.mlp import MlpParams, batch_td_loss_grad, forward, init_params, params_equal, sgd_step

LENGTHS = HeaderLengths(20, 60, 15, 1)


def ge_env(delay=4, horizon=10, w=5):
    return EnvConfig(
        lengths=LENGTHS,
        channel=GilbertElliotConfig(5.0, 0.2, 0.9, 0.1),
        noise=ObsNoiseConfig(0.1, 0.1),
        source=SourceDynamics.first_order(1.0, 0.1),
        w=w,
        delay=delay,
        horizon=horizon,
    )


def hmm_env(delay=4, horizon=10):
    return EnvConfig(
        lengths=LENGTHS,
        channel=HmmChannelConfig(0.5, 4, 2.0, 1.0),
        noise=ObsNoiseConfig(0.1, 0.0),
        source=SourceDynamics.first_order(1.0, 0.1),
        w=5,
        delay=delay,
        horizon=horizon,
    )


def small_agent(**kw):
    base = dict(
        hidden_width=8,
        depth=2,
        batch_size=4,
        grad_steps=2,
        replay_capacity=64,
        history_extra=2,
    )
    base.update(kw)
    return AgentConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_step_counts(self):
        with pytest.raises(ValueError):
            small_agent(multi_step=0)
        with pytest.raises(ValueError):
            small_agent(explore_start_slots=-1)

    def test_rejects_bad_target_blend(self):
        with pytest.raises(ValueError):
            small_agent(target_tau=0.0)
        with pytest.raises(ValueError):
            small_agent(target_tau=1.5)

    def test_rejects_batch_beyond_capacity(self):
        with pytest.raises(ValueError):
            small_agent(batch_size=128, replay_capacity=64)


class TestEncoderSpec:
    def test_input_length_ge(self):
        spec = EncoderSpec.for_env(ge_env(delay=4), small_agent(history_extra=2))
        # 7 observation slots of 2+2+8+5 entries plus 6 action one-hots
        assert spec.per_obs == 17
        assert spec.input_len == 7 * 17 + 6 * 6 == 155

    def test_input_length_hmm(self):
        spec = EncoderSpec.for_env(hmm_env(delay=4), small_agent(history_extra=2))
        assert spec.per_obs == 16
        assert spec.input_len == 7 * 16 + 6 * 6 == 148

    def test_zero_extra_zero_delay(self):
        spec = EncoderSpec.for_env(ge_env(delay=0), small_agent(history_extra=0))
        assert spec.obs_slots == 1
        assert spec.action_slots == 0
        assert spec.input_len == spec.per_obs

    def test_pad_observation_shape(self):
        spec = EncoderSpec.for_env(ge_env(delay=3), small_agent())
        pad = spec.pad_observation
        assert pad.z_d == -1
        assert pad.source_window == (1, 1, 1, 1)


def reference_encode(observations, actions, no_context: bool, spec: EncoderSpec) -> np.ndarray:
    """The encoded input by a full walk over a window's observations and
    actions, each most recent first; HistoryWindow must build the same one
    slot at a time."""
    x = np.zeros(spec.input_len)
    for slot, obs in enumerate(reversed(observations)):
        off = slot * spec.per_obs
        x[off + (1 if obs.z_t else 0)] = 1.0
        off += 2
        if spec.hmm:
            x[off] = obs.z_h
            off += 1
        else:
            x[off + (1 if obs.z_h else 0)] = 1.0
            off += 2
        z_d = spec.w + 1 if no_context and obs.z_d == NO_FEEDBACK else obs.z_d
        x[off + z_d + 1] = 1.0
        off += spec.w + 3
        x[off : off + spec.delay + 1] = obs.source_window
    off = spec.obs_slots * spec.per_obs
    for slot, action in enumerate(reversed(actions)):
        x[off + slot * ACTION_COUNT + action.index] = 1.0
    return x


@dataclass(frozen=True)
class ReferenceWindow:
    """Most-recent-first tuples of the observations and actions in scope,
    and the no-context flag, moved on one push at a time."""

    observations: tuple
    actions: tuple
    no_context: bool

    @classmethod
    def initial(cls, first: Observation, spec: EncoderSpec) -> "ReferenceWindow":
        pads = (spec.pad_observation,) * spec.padded_slots
        return cls((first,) + pads, (PAD_ACTION,) * spec.action_slots, True)

    def push(self, obs: Observation, action: CompressorAction) -> "ReferenceWindow":
        shifted = (action,) + self.actions
        # obs reports the arrival of the packet sent `delay` slots before
        # action; its compressibility window spans delay + 1 slots
        sent = shifted[len(obs.source_window) - 1]
        landed = sent.header == HeaderType.IR and obs.z_t == 1
        return ReferenceWindow(
            (obs,) + self.observations[:-1],
            shifted[: len(self.actions)],
            self.no_context and not landed,
        )

    def encode(self, spec: EncoderSpec) -> np.ndarray:
        return reference_encode(self.observations, self.actions, self.no_context, spec)


def landed_window(spec: EncoderSpec) -> HistoryWindow:
    """A one-row window whose mark has cleared: the first packet reported
    is an IR that arrives (padding at delay > 0, the one sent at delay 0)."""
    arrived = Observation(1, 0.0 if spec.hmm else 0, -1, (1,) * (spec.delay + 1))
    window = HistoryWindow(spec, arrived)
    window.push(arrived, PAD_ACTION.index)
    assert not window.no_context.any()
    return window


class TestEncoding:
    def test_single_slot_layout(self):
        spec = EncoderSpec(hmm=False, w=1, delay=0, extra=0)
        obs = Observation(1, 0, 2, (1,))
        window = HistoryWindow(spec, obs)
        assert window.x[0].tolist() == [0, 1, 1, 0, 0, 0, 0, 1, 1]

    def test_no_feedback_slot_layout(self):
        spec = EncoderSpec(hmm=False, w=1, delay=0, extra=0)
        window = landed_window(spec)
        window.push(Observation(0, 1, -1, (0,)), ACTIONS[0].index)
        assert window.x[0].tolist() == [1, 0, 0, 1, 1, 0, 0, 0, 0]

    def test_oldest_slot_comes_first(self):
        spec = EncoderSpec(hmm=False, w=1, delay=0, extra=1)
        newest = Observation(1, 0, -1, (1,))
        oldest = Observation(0, 1, -1, (0,))
        action = CompressorAction(HeaderType.CO3, True)
        window = landed_window(spec)
        window.push(oldest, ACTIONS[0].index)
        window.push(newest, action.index)
        x = window.x[0]
        assert x[0:9].tolist() == [1, 0, 0, 1, 1, 0, 0, 0, 0]
        assert x[9:18].tolist() == [0, 1, 1, 0, 1, 0, 0, 0, 1]
        expected_action = [0.0] * 6
        expected_action[action.index] = 1.0
        assert x[18:24].tolist() == expected_action

    def test_hmm_envelope_stays_real(self):
        spec = EncoderSpec(hmm=True, w=1, delay=0, extra=0)
        window = HistoryWindow(spec, Observation(0, 1.75, -1, (1,)))
        assert window.x[0, 2] == 1.75

    def test_initial_window_pads(self):
        spec = EncoderSpec(hmm=False, w=5, delay=2, extra=1)
        first = Observation(1, 0, -1, (1, 1, 1))
        window = HistoryWindow(spec, first)
        pads = (spec.pad_observation,) * spec.padded_slots
        expected = reference_encode((first,) + pads, (PAD_ACTION,) * spec.action_slots, True, spec)
        assert np.array_equal(window.x[0], expected)

    def test_initial_window_is_marked_no_context(self):
        # Unmarked, the padding encodes exactly like a real history of IR
        # sends lost on a bad channel, whose decompressor sits in repair
        # context; the start window must encode differently.
        spec = EncoderSpec(hmm=False, w=5, delay=2, extra=1)
        first = Observation(0, 0, -1, (1, 1, 1))
        start = HistoryWindow(spec, first)
        assert start.no_context.tolist() == [True]
        aliased = ReferenceWindow.initial(first, spec)
        aliased = dataclasses.replace(aliased, no_context=False)
        x = start.x[0]
        assert not np.array_equal(x, aliased.encode(spec))
        # every slot without feedback carries the no-context level w+1
        for slot in range(spec.obs_slots):
            z_d = x[slot * spec.per_obs + 4 : slot * spec.per_obs + 4 + spec.w + 3]
            assert z_d.tolist() == [0.0] * (spec.w + 2) + [1.0]

    def test_feedback_survives_the_mark(self):
        spec = EncoderSpec(hmm=False, w=1, delay=0, extra=0)
        window = HistoryWindow(spec, Observation(0, 0, 1, (1,)))
        assert window.no_context.tolist() == [True]
        assert window.x[0, 4:8].tolist() == [0, 0, 1, 0]

    def test_no_context_ends_when_an_ir_lands(self):
        spec = EncoderSpec(hmm=False, w=1, delay=0, extra=1)
        ir = CompressorAction(HeaderType.IR, False).index
        co7 = CompressorAction(HeaderType.CO7, False).index

        def pushed(obs, action) -> HistoryWindow:
            window = HistoryWindow(spec, Observation(0, 0, -1, (1,)))
            window.push(obs, action)
            return window

        # an arriving CO7 cannot build a context, a lost IR neither
        assert pushed(Observation(1, 1, -1, (1,)), co7).no_context.all()
        assert pushed(Observation(0, 1, -1, (1,)), ir).no_context.all()
        landed = pushed(Observation(1, 1, -1, (1,)), ir)
        assert not landed.no_context.any()
        landed.push(Observation(0, 0, -1, (1,)), co7)
        assert not landed.no_context.any()

    def test_no_context_follows_the_delayed_packet(self):
        # at delay 1 the arrival flag reports the action sent one slot
        # earlier: the padding's IR at first, then the compressor's own
        spec = EncoderSpec(hmm=False, w=5, delay=1, extra=1)
        co7 = CompressorAction(HeaderType.CO7, False).index

        def start() -> HistoryWindow:
            return HistoryWindow(spec, Observation(0, 0, -1, (1, 1)))

        arrived = start()
        arrived.push(Observation(1, 1, -1, (1, 1)), co7)
        assert not arrived.no_context.any()
        lost = start()
        lost.push(Observation(0, 1, -1, (1, 1)), co7)
        assert lost.no_context.all()
        lost.push(Observation(1, 1, -1, (1, 1)), co7)
        assert lost.no_context.all()

    def test_push_shifts_out_oldest(self):
        spec = EncoderSpec(hmm=False, w=5, delay=1, extra=0)
        o1 = Observation(1, 0, -1, (1, 1))
        o2 = Observation(0, 1, -1, (0, 1))
        window = HistoryWindow(spec, o1)
        a = ACTIONS[3]
        window.push(o2, a.index)
        assert np.array_equal(window.x[0], reference_encode((o2, o1), (a,), True, spec))


def observations(spec: EncoderSpec):
    """Observations of spec's layout, feedback levels from -1 to w+1."""
    z_h = st.floats(-3.0, 3.0) if spec.hmm else st.integers(0, 1)
    return st.builds(
        Observation,
        st.integers(0, 1),
        z_h,
        st.integers(-1, spec.w + 1),
        st.tuples(*[st.integers(0, 1)] * (spec.delay + 1)),
    )


def batch_of(rows) -> BatchObservation:
    return BatchObservation(
        np.array([o.z_t for o in rows]),
        np.array([o.z_h for o in rows]),
        np.array([o.z_d for o in rows]),
        np.array([o.source_window for o in rows]),
    )


def check_windows(spec: EncoderSpec, firsts, steps) -> list[list[bool]]:
    """Drive one window per rollout and one window over all of them with
    the same first observations, then (observations, actions) steps, one
    entry per rollout each.  After every push, every rollout's row in both
    must equal the reference encoding.  Returns the no-context flags of
    each step, one per rollout."""
    singles = [HistoryWindow(spec, first) for first in firsts]
    batch = HistoryWindow(spec, batch_of(firsts))
    references = [ReferenceWindow.initial(first, spec) for first in firsts]
    flags = []
    for step in [None] + list(steps):
        if step is not None:
            observed, actions = step
            for single, obs, action in zip(singles, observed, actions):
                single.push(obs, action.index)
            batch.push(batch_of(observed), np.array([a.index for a in actions]))
            references = [r.push(o, a) for r, o, a in zip(references, observed, actions)]
        x = batch.x
        for row, (single, reference) in enumerate(zip(singles, references)):
            expected = reference.encode(spec)
            assert np.array_equal(single.x[0], expected)
            assert np.array_equal(x[row], expected)
            assert single.no_context.tolist() == [reference.no_context]
        flags.append([r.no_context for r in references])
        assert batch.no_context.tolist() == flags[-1]
    return flags


# (hmm, delay, extra): both channels, and at delay 0 with no extra history
# a window without action slots
LAYOUTS = [(False, 0, 0), (True, 0, 0), (False, 2, 1), (True, 3, 2), (False, 1, 0), (True, 0, 2)]


class TestShiftedEncoding:
    @pytest.mark.parametrize("hmm,delay,extra", LAYOUTS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shifted_input_equals_full_encode(self, hmm, delay, extra, data):
        spec = EncoderSpec(hmm=hmm, w=3, delay=delay, extra=extra)
        rollouts = data.draw(st.integers(1, 5))
        slot = st.lists(observations(spec), min_size=rollouts, max_size=rollouts)
        firsts = data.draw(slot)
        actions = st.lists(st.sampled_from(ACTIONS), min_size=rollouts, max_size=rollouts)
        steps = data.draw(st.lists(st.tuples(slot, actions), max_size=30))
        check_windows(spec, firsts, steps)

    @pytest.mark.parametrize("hmm,delay,extra", LAYOUTS)
    def test_shift_follows_the_slot_where_the_mark_clears(self, hmm, delay, extra):
        # IR sends that arrive only from step 2 * row on: each row reads
        # marked at the start and after its first 2 * row steps, no longer
        spec = EncoderSpec(hmm=hmm, w=3, delay=delay, extra=extra)
        rollouts = 4
        ir = CompressorAction(HeaderType.IR, True)
        pad = (1,) * (delay + 1)
        firsts = [Observation(0, 1, -1, pad)] * rollouts
        steps = [
            (
                [
                    Observation(int(t >= 2 * row), 1, t % 6 - 1, (t % 2,) * (delay + 1))
                    for row in range(rollouts)
                ],
                [ir] * rollouts,
            )
            for t in range(7)
        ]
        flags = check_windows(spec, firsts, steps)
        assert [sum(f[row] for f in flags) for row in range(rollouts)] == [1, 3, 5, 7]


def linear_policy(bias, rng, epsilon=0.0, explore_slots=0):
    """AgentPolicy over one zero-weight linear layer, whose bias is the
    value vector of every window, reset with rng."""
    spec = EncoderSpec(hmm=False, w=1, delay=0, extra=0)
    params = MlpParams([np.zeros((6, spec.input_len))], [np.array(bias, dtype=float)])
    policy = AgentPolicy(params, spec, epsilon, explore_slots)
    policy.reset(rng)
    return policy


OBS = Observation(1, 0, -1, (1,))


class TestSelection:
    def test_greedy_picks_max(self):
        policy = linear_policy([0.0, 0.0, 5.0, 0.0, 0.0, 0.0], np.random.default_rng(0))
        assert policy.act(OBS) == ACTIONS[2]
        assert not policy.explored
        assert np.array_equal(policy.x[0], reference_encode((OBS,), (), True, policy.spec))

    def test_greedy_tie_breaks_low(self):
        policy = linear_policy([0.0] * 6, np.random.default_rng(0))
        assert policy.act(OBS) == ACTIONS[0]

    def test_greedy_consumes_no_randomness(self):
        rng = np.random.default_rng(0)
        policy = linear_policy([0.0] * 6, rng)
        before = rng.bit_generator.state
        for _ in range(5):
            policy.act(OBS)
        assert rng.bit_generator.state == before

    def test_full_exploration_is_uniform(self):
        policy = linear_policy([0.0] * 6, np.random.default_rng(1), epsilon=1.0)
        counts = np.zeros(6)
        n = 60_000
        for _ in range(n):
            counts[policy.act(OBS).index] += 1
        assert np.all(np.abs(counts / n - 1.0 / 6.0) < 0.01)

    def test_exploring_starts_apply(self):
        # epsilon 0, but the first three slots of each episode explore
        rng = np.random.default_rng(4)
        policy = linear_policy([0.0, 0.0, 5.0, 0.0, 0.0, 0.0], rng, explore_slots=3)
        twin = np.random.default_rng(4)
        for _ in range(2):
            for _ in range(3):
                assert twin.random() < 1.0
                expected = ACTIONS[int(twin.integers(6))]
                assert policy.act(OBS) == expected
                assert policy.explored
            before = rng.bit_generator.state
            assert policy.act(OBS) == ACTIONS[2]
            assert not policy.explored
            assert rng.bit_generator.state == before
            policy.reset(rng)

    def test_only_greedy_acts_run_a_forward_pass(self, monkeypatch):
        calls = []

        def counted(params, x):
            calls.append(x)
            return forward(params, x)

        monkeypatch.setattr(agent_module, "forward", counted)
        # the first slot is an exploring start, the second greedy
        policy = linear_policy([0.0, 0.0, 5.0, 0.0, 0.0, 0.0], np.random.default_rng(0), 0.0, 1)
        policy.act(OBS)
        assert policy.explored and len(calls) == 0
        assert policy.act(OBS) == ACTIONS[2]
        assert not policy.explored and len(calls) == 1

    def test_mixed_acts_draw_like_a_twin_stream(self):
        # an exploring act draws random() then integers(6), a greedy one
        # random() alone
        rng = np.random.default_rng(5)
        policy = linear_policy([0.0, 0.0, 5.0, 0.0, 0.0, 0.0], rng, epsilon=0.5)
        twin = np.random.default_rng(5)
        explored = []
        for _ in range(200):
            explores = twin.random() < 0.5
            expected = ACTIONS[int(twin.integers(6))] if explores else ACTIONS[2]
            assert policy.act(OBS) == expected
            assert policy.explored == explores
            explored.append(explores)
        assert 0 < sum(explored) < 200
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_exploring_starts_apply_to_batches(self):
        policy = linear_policy([0.0, 0.0, 5.0, 0.0, 0.0, 0.0], None, explore_slots=1)
        obs = BatchObservation(
            np.ones(3, dtype=int),
            np.zeros(3, dtype=int),
            np.full(3, -1),
            np.ones((3, 1), dtype=int),
        )
        u = np.array([0.05, 0.5, 0.95])
        policy.reset_batch(3)
        assert policy.act_batch(obs, u).tolist() == [0, 3, 5]
        assert policy.act_batch(obs, u).tolist() == [2, 2, 2]


def columns(*blocks):
    """ReplayMemory.sample's form of (x, action, return, next x, discount)
    blocks: one array per field."""
    x, actions, returns, next_x, discounts = zip(*blocks)
    return np.stack(x), np.array(actions), np.array(returns), np.stack(next_x), np.array(discounts)


class TestTrainStep:
    def test_fixed_point_leaves_params(self):
        # zero net, zero reward, any discount: target = 0 = prediction
        params = MlpParams([np.zeros((3, 4)), np.zeros((6, 3))], [np.zeros(3), np.zeros(6)])
        target = params.copy()
        before = params.copy()
        batch = columns((np.ones(4), 2, 0.0, np.ones(4), 0.9))
        loss = train_step(params, target, batch, 0.5)
        assert loss == 0.0
        assert params_equal(params, before)

    def test_single_transition_matches_manual_update(self):
        rng = np.random.default_rng(5)
        cfg = mlp_config_for(EncoderSpec(hmm=False, w=1, delay=0, extra=0), small_agent())
        params = init_params(cfg, rng)
        target = init_params(cfg, rng)
        before = params.copy()
        x = rng.normal(size=cfg.widths[0])
        nx = rng.normal(size=cfg.widths[0])
        batch = columns((x, 3, 0.7, nx, 0.9))
        train_step(params, target, batch, 0.01)
        y = 0.7 + 0.9 * float(np.max(forward(target, nx)))
        _, grads = batch_td_loss_grad(before, x[None, :], [3], [y])
        manual = sgd_step(before, grads, 0.01)
        assert params_equal(params, manual)

    def test_gradient_buffer_gives_the_same_step(self):
        rng = np.random.default_rng(6)
        cfg = mlp_config_for(EncoderSpec(hmm=False, w=1, delay=0, extra=0), small_agent())
        params = init_params(cfg, rng)
        target = init_params(cfg, rng)
        twin = params.copy()
        width = cfg.widths[0]
        batch = columns(
            *[(rng.normal(size=width), a, 0.5, rng.normal(size=width), 0.9) for a in range(6)]
        )
        grads = params.copy()
        for _ in range(3):
            loss = train_step(params, target, batch, 0.01)
            assert train_step(twin, target, batch, 0.01, grads=grads) == loss
        assert params_equal(params, twin)

    def test_decoupled_argmax_uses_online_pick(self):
        # online net scores zero everywhere (argmax 0); frozen net ranks
        # action 1 highest.  The two bootstrap rules must disagree.
        online = MlpParams([np.zeros((6, 4))], [np.zeros(6)])
        frozen = MlpParams(
            [np.zeros((6, 4))], [np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0])]
        )
        batch = columns((np.zeros(4), 0, 0.0, np.zeros(4), 0.5))
        loss_plain = train_step(online, frozen, batch, 0.0, double_argmax=False)
        loss_double = train_step(online, frozen, batch, 0.0, double_argmax=True)
        assert loss_plain == pytest.approx(1.0)    # (0 - 0.5 * 2)**2
        assert loss_double == pytest.approx(0.25)  # (0 - 0.5 * 1)**2

    def test_five_field_transition_overrides_discount(self):
        frozen = MlpParams(
            [np.zeros((6, 4))], [np.array([0.0, 0.0, 0.0, 0.0, 0.0, 8.0])]
        )
        online = MlpParams([np.zeros((6, 4))], [np.zeros(6)])
        batch = columns(
            (np.zeros(4), 0, 0.0, np.zeros(4), 0.25),
            (np.zeros(4), 0, 0.0, np.zeros(4), 0.5),
        )
        # each transition bootstraps with its own trailing discount
        loss = train_step(online, frozen, batch, 0.0)
        assert loss == pytest.approx(((0.25 * 8.0) ** 2 + (0.5 * 8.0) ** 2) / 2)


def push_value(mem: ReplayMemory, v) -> None:
    """One block whose input and bootstrap rows hold v, as does its return."""
    row = mem.add_row([float(v)])
    mem.push((row, 0, float(v), row, 0.5))


def sampled(mem: ReplayMemory, n: int, rng) -> set:
    """The values of n sampled blocks, checking each block's rows hold its
    own value."""
    x, _, returns, next_x, _ = mem.sample(n, rng)
    assert np.array_equal(x[:, 0], returns) and np.array_equal(next_x[:, 0], returns)
    return set(returns.tolist())


class TestReplayMemory:
    def test_fifo_eviction(self):
        mem = ReplayMemory(5, 1)
        for i in range(10):
            push_value(mem, i)
        assert len(mem) == 5
        assert sampled(mem, 500, np.random.default_rng(0)) == {5, 6, 7, 8, 9}

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            ReplayMemory(3, 1).sample(1, np.random.default_rng(0))

    def test_sample_only_contents(self):
        mem = ReplayMemory(4, 1)
        for i in range(4):
            push_value(mem, i)
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert all(0 <= v < 4 for v in sampled(mem, 8, rng))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayMemory(0, 1)

    def test_rows_are_float32_and_returns_float64(self):
        mem = ReplayMemory(4, 3)
        row = mem.add_row(np.array([0.1, 1.0, -2.0]))
        mem.push((row, 2, 0.1, row, 0.9))
        x, _, returns, next_x, discounts = mem.sample(2, np.random.default_rng(0))
        assert x.dtype == next_x.dtype == np.float32
        assert np.array_equal(x[0], np.float32([0.1, 1.0, -2.0]))
        assert returns.dtype == discounts.dtype == np.float64
        assert returns[0] == 0.1

    # the rows are float32, exact for integers within 2**24
    @given(st.integers(1, 10), st.lists(st.integers(-(2**24), 2**24), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_keeps_last_capacity_items_in_order(self, capacity, values):
        # evictions follow arrival order: after every push the memory holds
        # exactly the last `capacity` values pushed so far
        mem = ReplayMemory(capacity, 1)
        rng = np.random.default_rng(0)
        for n, v in enumerate(values, start=1):
            push_value(mem, v)
            assert sampled(mem, 500, rng) == set(values[:n][-capacity:])

    @pytest.mark.parametrize("capacity,episodes", [(7, 300), (300, 400)])
    def test_samples_the_rows_encoded_at_each_blocks_slots(self, capacity, episodes):
        # Horizons of 1 to 5 slots under 3-step blocks: the short episodes
        # often give no block, so their rows go unused.  The block ring
        # wraps many times, and every 100th episode runs 300 slots, so the
        # row ring outgrows its first size with live rows on both sides of
        # its wrap.
        rng = np.random.default_rng(capacity)
        mem = ReplayMemory(capacity, 3)
        live: dict[float, tuple] = {}  # return -> the block over the encoded rows
        for episode in range(episodes):
            horizon = 300 if episode % 100 == 99 else int(rng.integers(1, 6))
            # rounded to the store's float32, so a stored row equals its input
            encoded = list(rng.normal(size=(horizon + 1, 3)).astype(np.float32))
            rows = [mem.add_row(x) for x in encoded]
            actions = rng.integers(6, size=horizon).tolist()
            greedy = (rng.random(horizon) < 0.8).tolist()
            rewards = rng.normal(size=horizon).tolist()
            pushed = _blocks(rows, actions, greedy, rewards, 3, 0.9)
            expected = _blocks(encoded, actions, greedy, rewards, 3, 0.9)
            for block, want in zip(pushed, expected):
                mem.push(block)
                live[want[2]] = want
            mem.end_episode()
            live = dict(list(live.items())[-capacity:])
            assert len(mem) == len(live)
            if not live:
                continue
            x, actions_s, returns, next_x, discounts = mem.sample(32, rng)
            for i, ret in enumerate(returns.tolist()):
                want = live[ret]
                assert np.array_equal(x[i], want[0]) and np.array_equal(next_x[i], want[3])
                assert (actions_s[i], discounts[i]) == (want[1], want[4])


class TestBlocks:
    def test_six_slot_episode(self):
        # multi-step 3 with a non-greedy action at slot 3: the block opened
        # at slot 0 runs its full three slots, the ones opened at slots 1
        # and 2 end early at slot 3, and the two opened at slots 4 and 5
        # are still open at the horizon and dropped
        inputs = [f"x{t}" for t in range(7)]
        actions = [10, 11, 12, 13, 14, 15]
        greedy = [True, True, True, False, True, True]
        rewards = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        assert _blocks(inputs, actions, greedy, rewards, 3, 0.5) == [
            ("x0", 10, 1.0 + 0.5 * 2.0 + 0.25 * 4.0, "x3", 0.125),
            ("x1", 11, 2.0 + 0.5 * 4.0, "x3", 0.25),
            ("x2", 12, 4.0, "x3", 0.5),
            ("x3", 13, 8.0 + 0.5 * 16.0 + 0.25 * 32.0, "x6", 0.125),
        ]

    def test_single_step_blocks_cover_every_slot(self):
        inputs = ["x0", "x1", "x2"]
        got = _blocks(inputs, [0, 1], [False, True], [1.0, 2.0], 1, 0.9)
        assert got == [("x0", 0, 1.0, "x1", 0.9), ("x1", 1, 2.0, "x2", 0.9)]


class TestTraining:
    def test_epsilon_schedule(self):
        cfg = ge_env(horizon=3)
        agent = small_agent(
            epsilon_init=1.0, epsilon_decay=0.5, epsilon_floor=0.3, grad_steps=0
        )
        result = run_training(cfg, agent, 4, seed=0)
        assert result.episode_epsilon == [1.0, 0.5, 0.3, 0.3]

    def test_zero_episodes_returns_init(self):
        cfg = ge_env(horizon=3)
        agent = small_agent()
        result = run_training(cfg, agent, 0, seed=9)
        assert result.episode_rewards == []
        spec = EncoderSpec.for_env(cfg, agent)
        init_ss = np.random.SeedSequence(9).spawn(4)[0]
        drawn = init_params(mlp_config_for(spec, agent), np.random.default_rng(init_ss))
        assert params_equal(result.params, drawn.astype(np.float32))

    def test_trains_in_float32(self):
        result = run_training(ge_env(horizon=6), small_agent(), 2, seed=3)
        arrays = result.params.weights + result.params.biases
        assert all(a.dtype == np.float32 for a in arrays)

    def test_curves_have_episode_length(self):
        cfg = ge_env(horizon=8)
        result = run_training(cfg, small_agent(), 3, seed=1)
        assert len(result.episode_rewards) == 3
        assert len(result.episode_efficiency) == 3
        assert len(result.episode_feedback_rate) == 3
        assert all(0.0 <= e <= 1.0 for e in result.episode_efficiency)
        assert all(0.0 <= f <= 1.0 for f in result.episode_feedback_rate)

    def test_training_is_deterministic(self):
        cfg = ge_env(horizon=8)
        a = run_training(cfg, small_agent(), 3, seed=7)
        b = run_training(cfg, small_agent(), 3, seed=7)
        assert params_equal(a.params, b.params)
        assert a.episode_rewards == b.episode_rewards

    def test_training_works_on_fading_channel(self):
        result = run_training(hmm_env(horizon=6), small_agent(), 2, seed=3)
        assert len(result.episode_rewards) == 2

    def test_schedule_swaps_environment(self):
        cfg_a = ge_env(horizon=6)
        cfg_b = EnvConfig(
            lengths=LENGTHS,
            channel=GilbertElliotConfig(5.0, 0.4, 0.9, 0.1),
            noise=cfg_a.noise,
            source=cfg_a.source,
            w=cfg_a.w,
            delay=cfg_a.delay,
            horizon=6,
        )
        result = run_training(cfg_a, small_agent(), 3, seed=2, env_schedule=[(1, cfg_b)])
        assert len(result.episode_rewards) == 3

    def test_schedule_at_zero_matches_plain_run(self):
        cfg = ge_env(horizon=6)
        plain = run_training(cfg, small_agent(), 2, seed=4)
        scheduled = run_training(cfg, small_agent(), 2, seed=4, env_schedule=[(0, cfg)])
        assert params_equal(plain.params, scheduled.params)
        assert plain.episode_rewards == scheduled.episode_rewards

    @pytest.mark.parametrize("episode", [-1, 3])
    def test_schedule_rejects_episodes_outside_the_run(self, episode):
        cfg = ge_env(horizon=6)
        with pytest.raises(ValueError, match=r"outside 0\.\.2"):
            run_training(cfg, small_agent(), 3, seed=0, env_schedule=[(episode, cfg)])

    def test_schedule_rejects_layout_change(self):
        cfg = ge_env(delay=4, horizon=6)
        other = ge_env(delay=2, horizon=6)
        with pytest.raises(ValueError):
            run_training(cfg, small_agent(), 3, seed=0, env_schedule=[(1, other)])

    def test_rejects_horizon_below_one(self):
        with pytest.raises(ValueError, match="env_cfg has horizon 0"):
            run_training(ge_env(horizon=0), small_agent(), 2, seed=0)
        with pytest.raises(ValueError, match="env_schedule episode 1 has horizon 0"):
            run_training(
                ge_env(horizon=6), small_agent(), 2, seed=0, env_schedule=[(1, ge_env(horizon=0))]
            )

    def test_curves_match_compute_metrics_of_the_episode(self):
        # greedy on a zero-grad-step run: the network never changes, so
        # replaying its episodes through run_episode's loop must give the
        # same curves
        cfg = ge_env(horizon=12)
        agent = small_agent(
            epsilon_init=0.0, epsilon_floor=0.0, explore_start_slots=0, grad_steps=0
        )
        result = run_training(cfg, agent, 2, seed=5)
        spec = EncoderSpec.for_env(cfg, agent)
        episode_seeds = np.random.SeedSequence(5).spawn(4)[3].spawn(2)
        for episode, ss in enumerate(episode_seeds):
            trace = Trace()
            rollout(AgentPolicy(result.params, spec), cfg, ss, None, trace.append)
            m = compute_metrics(trace, cfg.lengths)
            assert result.episode_rewards[episode] == m.mean_reward
            assert result.episode_efficiency[episode] == m.transmission_efficiency
            assert result.episode_feedback_rate[episode] == m.feedback_rate

    def test_variant_knobs_stay_deterministic(self):
        # every sampling/bootstrapping variant must keep the seed contract
        cfg = ge_env(horizon=8)
        for kw in (
            dict(multi_step=3),
            dict(explore_start_slots=2),
            dict(target_tau=0.05),
            dict(double_argmax=True),
            dict(
                multi_step=3,
                explore_start_slots=1,
                target_tau=0.05,
                double_argmax=True,
            ),
        ):
            a = run_training(cfg, small_agent(**kw), 3, seed=11)
            b = run_training(cfg, small_agent(**kw), 3, seed=11)
            assert params_equal(a.params, b.params), kw
            assert a.episode_rewards == b.episode_rewards, kw

    def test_exploring_starts_default_to_the_padded_slots(self):
        cfg = ge_env(horizon=8)
        greedy = dict(epsilon_init=0.0, epsilon_floor=0.0)
        spec = EncoderSpec.for_env(cfg, small_agent())
        assert spec.padded_slots == 6
        derived = run_training(cfg, small_agent(**greedy), 2, seed=3)
        explicit = run_training(
            cfg, small_agent(explore_start_slots=spec.padded_slots, **greedy), 2, seed=3
        )
        off = run_training(cfg, small_agent(explore_start_slots=0, **greedy), 2, seed=3)
        assert params_equal(derived.params, explicit.params)
        assert not params_equal(derived.params, off.params)

    def test_blocks_get_the_greedy_flag_of_every_explored_slot(self, monkeypatch):
        # the flags _blocks receives, scored after the rollout in chunks of
        # batch_size rows, against a one-row forward at each act
        acted = []
        act = AgentPolicy.act

        def recording_act(policy, obs):
            action = act(policy, obs)
            best = int(np.argmax(forward(policy.params, policy.x[0])))
            acted.append((policy.explored, action.index, best))
            return action

        received = []
        blocks = agent_module._blocks

        def recording_blocks(inputs, actions, greedy, *rest):
            received.extend(greedy)
            return blocks(inputs, actions, greedy, *rest)

        monkeypatch.setattr(AgentPolicy, "act", recording_act)
        monkeypatch.setattr(agent_module, "_blocks", recording_blocks)
        agent = small_agent(hidden_width=16, epsilon_init=0.5, epsilon_decay=1.0, epsilon_floor=0.5)
        run_training(ge_env(horizon=40), agent, 3, seed=6)
        assert len(received) == len(acted) == 120
        assert received == [not explored or taken == best for explored, taken, best in acted]
        drawn = [taken == best for explored, taken, best in acted if explored]
        assert any(drawn) and not all(drawn)

    def test_multi_step_differs_from_single(self):
        cfg = ge_env(horizon=8)
        one = run_training(cfg, small_agent(multi_step=1), 3, seed=12)
        four = run_training(cfg, small_agent(multi_step=4), 3, seed=12)
        assert not params_equal(one.params, four.params)


class TestAgentPolicy:
    def test_greedy_rollout_is_deterministic(self):
        cfg = ge_env(horizon=20)
        agent = small_agent()
        trained = run_training(cfg, agent, 1, seed=5)
        spec = EncoderSpec.for_env(cfg, agent)
        a = run_episode(AgentPolicy(trained.params, spec), cfg, 13)
        b = run_episode(AgentPolicy(trained.params, spec), cfg, 13)
        assert a.alpha_c == b.alpha_c
        assert a.reward == b.reward

    def test_exploring_policy_uses_rng(self):
        cfg = ge_env(horizon=30)
        agent = small_agent()
        trained = run_training(cfg, agent, 1, seed=5)
        spec = EncoderSpec.for_env(cfg, agent)
        a = run_episode(AgentPolicy(trained.params, spec, epsilon=1.0), cfg, 13)
        b = run_episode(AgentPolicy(trained.params, spec, epsilon=1.0), cfg, 14)
        assert a.alpha_c != b.alpha_c


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = ge_env(horizon=4)
        agent = small_agent()
        trained = run_training(cfg, agent, 1, seed=8)
        path = tmp_path / "agent.params"
        save_checkpoint(path, trained.params, agent, episode=1, epsilon=0.7)
        params, agent_back, meta = load_checkpoint(path)
        assert params_equal(params, trained.params)
        assert all(a.dtype == np.float32 for a in params.weights + params.biases)
        assert agent_back == agent
        assert meta["episode"] == 1
        assert meta["epsilon"] == 0.7

    def test_records_encoder_layout(self, tmp_path):
        cfg = ge_env(delay=3, horizon=4)
        agent = small_agent()
        trained = run_training(cfg, agent, 1, seed=8)
        spec = EncoderSpec.for_env(cfg, agent)
        path = tmp_path / "agent.params"
        save_checkpoint(path, trained.params, agent, episode=1, epsilon=0.7, spec=spec)
        _, _, meta = load_checkpoint(path)
        assert EncoderSpec(**meta["encoder"]) == spec
        save_checkpoint(path, trained.params, agent, episode=1, epsilon=0.7)
        assert "encoder" not in load_checkpoint(path)[2]

    @staticmethod
    def saved_with_sidecar_edit(tmp_path, edit):
        """Save a checkpoint, apply edit to its sidecar dict; returns the
        path and the agent config saved."""
        import json

        cfg = ge_env(horizon=4)
        agent = small_agent()
        trained = run_training(cfg, agent, 1, seed=8)
        path = tmp_path / "agent.params"
        save_checkpoint(path, trained.params, agent, episode=1, epsilon=0.7)
        sidecar = tmp_path / "agent.params.json"
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        return path, agent

    def test_loads_sidecar_with_the_deleted_anneal_field(self, tmp_path):
        path, agent = self.saved_with_sidecar_edit(
            tmp_path, lambda meta: meta["agent"].update(learning_rate_final=None)
        )
        assert load_checkpoint(path)[1] == agent

    def test_loads_sidecar_with_the_retired_discount(self, tmp_path):
        path, agent = self.saved_with_sidecar_edit(
            tmp_path, lambda meta: meta["agent"].update(discount=0.95)
        )
        assert load_checkpoint(path)[1] == agent

    def test_rejects_unknown_agent_field(self, tmp_path):
        path, _ = self.saved_with_sidecar_edit(
            tmp_path, lambda meta: meta["agent"].update(bogus=1)
        )
        with pytest.raises(ValueError, match=r"unknown agent fields: bogus$"):
            load_checkpoint(path)

    def test_rejects_mismatched_metadata(self, tmp_path):
        def widen(meta):
            meta["widths"][0] += 1

        path, _ = self.saved_with_sidecar_edit(tmp_path, widen)
        with pytest.raises(ValueError):
            load_checkpoint(path)
