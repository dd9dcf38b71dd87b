"""Baseline policy tests and a dual-route check of the exact optimum:
hand-derived one- and two-step values, plus an independent in-test recursion
built on a separately transcribed one-window transition table."""

import dataclasses
import itertools

import numpy as np
import pytest

from bdrohc import baselines, cli
from bdrohc.agent import AgentConfig, AgentPolicy, EncoderSpec, mlp_config_for
from bdrohc.baselines import (
    FixedPolicy,
    KtConfig,
    KtPolicy,
    RandomPolicy,
    exact_oracle,
    lockstep_returns,
    mc_discounted_value,
    rollout_returns,
)
from bdrohc.channels import GilbertElliotConfig, HmmChannelConfig, ObsNoiseConfig
from bdrohc.core import (
    ACTIONS,
    CompressorAction,
    HeaderLengths,
    HeaderType,
    SourceDynamics,
)
from bdrohc.env import BatchGeEnv, EnvConfig, Observation, RohcEnv, run_episode
from bdrohc.mlp import init_params

LENGTHS = HeaderLengths(20, 60, 15, 1)


def tiny_cfg(good=0.9, bad=0.3, eps_b=0.5, w=1, source=None, horizon=2000):
    return EnvConfig(
        lengths=LENGTHS,
        channel=GilbertElliotConfig(5.0, eps_b, good, bad),
        noise=ObsNoiseConfig(0.0, 0.0),
        source=source or SourceDynamics.first_order(1.0, 0.1),
        w=w,
        delay=0,
        feedback_penalty=0.01,
        discount=0.95,
        horizon=horizon,
    )


def perfect_cfg(w=1, source=None, horizon=2000):
    return tiny_cfg(good=1.0, bad=1.0, w=w, source=source or SourceDynamics.constant(1), horizon=horizon)


def kt_header(cfg, z_d, bit):
    """Header a freshly reset KT policy sends on one observation; z_d = -1
    means no feedback has arrived."""
    policy = KtPolicy(cfg)
    policy.reset(np.random.default_rng(0))
    return policy.act(Observation(1, 1, z_d, (bit,))).header


class TestKtRule:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            KtConfig(0)
        with pytest.raises(ValueError):
            KtConfig(5, feedback_prob=1.5)

    def test_header_from_context_class(self):
        cfg = KtConfig(5)
        assert kt_header(cfg, -1, 1) == HeaderType.IR
        for level in range(5):  # full context levels
            assert kt_header(cfg, level, 1) == HeaderType.CO3
        assert kt_header(cfg, 5, 1) == HeaderType.CO7
        assert kt_header(cfg, 6, 1) == HeaderType.IR

    def test_incompressible_upgrade(self):
        cfg = KtConfig(5)
        assert kt_header(cfg, 2, 0) == HeaderType.CO7
        # only the shortest header is upgraded
        assert kt_header(cfg, 5, 0) == HeaderType.CO7
        assert kt_header(cfg, -1, 0) == HeaderType.IR

    def test_feedback_rate_extremes(self):
        obs = Observation(1, 1, 0, (1,))
        for prob, want in ((0.0, False), (1.0, True)):
            policy = KtPolicy(KtConfig(5, feedback_prob=prob))
            policy.reset(np.random.default_rng(1))
            assert all(policy.act(obs).request_feedback == want for _ in range(200))

    def test_draws_one_uniform_per_slot(self):
        policy = KtPolicy(KtConfig(5, feedback_prob=0.5))
        rng = np.random.default_rng(3)
        policy.reset(rng)
        obs = [Observation(1, 1, z_d, (bit,)) for z_d, bit in ((-1, 1), (0, 0), (-1, 1), (5, 1))]
        requests = [policy.act(o).request_feedback for o in obs]
        assert requests == list(np.random.default_rng(3).random(4) < 0.5)
        assert rng.random() == np.random.default_rng(3).random(5)[4]

    def test_policy_remembers_last_feedback(self):
        cfg = KtConfig(5)
        policy = KtPolicy(cfg)
        policy.reset(np.random.default_rng(0))
        obs_fb = Observation(1, 1, 5, (1,))
        obs_none = Observation(1, 1, -1, (1,))
        assert policy.act(obs_none).header == HeaderType.IR  # nothing heard yet
        assert policy.act(obs_fb).header == HeaderType.CO7
        assert policy.act(obs_none).header == HeaderType.CO7  # retained
        obs_fc = Observation(1, 1, 0, (1,))
        assert policy.act(obs_fc).header == HeaderType.CO3

    def test_never_sends_shortest_header_on_incompressible_slot(self):
        cfg = EnvConfig(
            lengths=LENGTHS,
            channel=GilbertElliotConfig(5.0, 0.2, 0.9, 0.1),
            noise=ObsNoiseConfig(0.1, 0.1),
            source=SourceDynamics.first_order(1.0, 0.3),
            w=5,
            delay=4,
            horizon=500,
        )
        trace = run_episode(KtPolicy(KtConfig(5, feedback_prob=0.3)), cfg, 2)
        for header, bit in zip(trace.alpha_c, trace.sigma_s):
            assert not (header == int(HeaderType.CO3) and bit == 0)

    def test_full_feedback_beats_best_fixed_on_clean_channel(self):
        cfg = perfect_cfg(w=5, horizon=100)
        kt = run_episode(KtPolicy(KtConfig(5, feedback_prob=1.0)), cfg, 3)
        best_fixed = 0.0
        for header in HeaderType:
            tr = run_episode(FixedPolicy(header), cfg, 3)
            bits = sum(
                LENGTHS.payload_bits + LENGTHS.header_bits(HeaderType(h))
                for h in tr.alpha_c
            )
            best_fixed = max(
                best_fixed, LENGTHS.payload_bits * sum(tr.decode_success) / bits
            )
        kt_bits = sum(
            LENGTHS.payload_bits + LENGTHS.header_bits(HeaderType(h))
            for h in kt.alpha_c
        )
        kt_eff = LENGTHS.payload_bits * sum(kt.decode_success) / kt_bits
        assert kt_eff >= best_fixed - 0.01


class TestFixedAndRandom:
    def test_fixed_never_requests(self):
        policy = FixedPolicy(HeaderType.CO7)
        obs = Observation(0, 0, -1, (1,))
        for _ in range(5):
            a = policy.act(obs)
            assert a.header == HeaderType.CO7 and not a.request_feedback

    def test_fixed_co3_never_decodes_from_cold_start(self):
        trace = run_episode(FixedPolicy(HeaderType.CO3), perfect_cfg(horizon=50), 0)
        assert sum(trace.decode_success) == 0

    def test_random_covers_all_actions(self):
        policy = RandomPolicy()
        policy.reset(np.random.default_rng(0))
        obs = Observation(0, 0, -1, (1,))
        seen = {policy.act(obs).index for _ in range(500)}
        assert seen == set(range(6))

    def test_random_is_roughly_uniform(self):
        policy = RandomPolicy()
        policy.reset(np.random.default_rng(1))
        obs = Observation(0, 0, -1, (1,))
        counts = np.zeros(6)
        n = 60_000
        for _ in range(n):
            counts[policy.act(obs).index] += 1
        assert np.all(np.abs(counts / n - 1.0 / 6.0) < 0.01)


# Independent transcription of the one-window (w = 1) receiver transitions:
# state 0 holds full context, 1 is the repair level, 2 is no context.
def _w1_next(state, header, tx, comp):
    if state == 0:
        if tx and (comp or header != HeaderType.CO3):
            return 0
        return 1
    if state == 1:
        if tx and header != HeaderType.CO3:
            return 0
        return 1
    return 0 if (tx and header == HeaderType.IR) else 2


def _brute_best_value(cfg, state, window, good, prev_fb, steps):
    """Plain exhaustive expectation, no memo, hand-coded w=1 transitions;
    window holds the last source.order bits, most recent first."""
    ge = cfg.channel
    lam = cfg.feedback_penalty
    best = None
    p_one = cfg.source.p_one[sum(bit << k for k, bit in enumerate(window))]
    for action in ACTIONS:
        ev = 0.0
        for good2 in (0, 1):
            if good == 1:
                p_h = ge.good_to_bad if good2 == 0 else 1.0 - ge.good_to_bad
            else:
                p_h = ge.bad_to_good if good2 == 1 else 1.0 - ge.bad_to_good
            p_succ = ge.good_success if good2 == 1 else ge.bad_success
            p_succ = min(1.0, p_succ * ge.header_scale[action.header])
            for tx in (0, 1):
                p_t = p_succ if tx else 1.0 - p_succ
                nxt = _w1_next(state, action.header, tx, window[0])
                r = -lam * prev_fb
                if nxt == 0:
                    r += LENGTHS.payload_bits / (
                        LENGTHS.payload_bits + LENGTHS.header_bits(action.header)
                    )
                for bit in (0, 1):
                    p_s = p_one if bit else 1.0 - p_one
                    cont = 0.0
                    if steps > 1:
                        cont = _brute_best_value(
                            cfg, nxt, ((bit,) + window)[:-1], good2,
                            int(action.request_feedback), steps - 1,
                        )
                    ev += p_h * p_t * p_s * (r + cfg.discount * cont)
        if best is None or ev > best:
            best = ev
    return best


class TestExactOracle:
    def test_guard_rejects_unsupported_setups(self):
        cfg = tiny_cfg()
        with pytest.raises(ValueError):
            exact_oracle(cfg, 0)
        delayed = EnvConfig(
            lengths=cfg.lengths, channel=cfg.channel, noise=cfg.noise,
            source=cfg.source, w=cfg.w, delay=1, horizon=10,
        )
        with pytest.raises(ValueError):
            exact_oracle(delayed, 2)
        noisy = EnvConfig(
            lengths=cfg.lengths, channel=cfg.channel,
            noise=ObsNoiseConfig(0.1, 0.0),
            source=cfg.source, w=cfg.w, delay=0, horizon=10,
        )
        with pytest.raises(ValueError):
            exact_oracle(noisy, 2)
        fading = EnvConfig(
            lengths=cfg.lengths, channel=HmmChannelConfig(0.5, 4, 2.0, 1.0),
            noise=cfg.noise, source=cfg.source, w=cfg.w, delay=0, horizon=10,
        )
        with pytest.raises(ValueError):
            exact_oracle(fading, 2)

    def test_one_step_from_no_context_clean_channel(self):
        res = exact_oracle(perfect_cfg(), 1, start=(2, (1,), 1, 0))
        assert res.value == pytest.approx(0.25, abs=1e-15)
        assert res.first_action == CompressorAction(HeaderType.IR, False)

    def test_two_step_from_no_context_clean_channel(self):
        res = exact_oracle(perfect_cfg(), 2, start=(2, (1,), 1, 0))
        assert res.value == pytest.approx(0.25 + 0.95 * 20.0 / 21.0, abs=1e-12)
        assert res.first_action.header == HeaderType.IR

    def test_one_step_full_context_compressible(self):
        res = exact_oracle(perfect_cfg(), 1, start=(0, (1,), 1, 0))
        assert res.value == pytest.approx(20.0 / 21.0, abs=1e-15)
        assert res.first_action == CompressorAction(HeaderType.CO3, False)

    def test_one_step_full_context_incompressible(self):
        cfg = tiny_cfg(good=1.0, bad=1.0, source=SourceDynamics.first_order(0.5, 0.5))
        res = exact_oracle(cfg, 1, start=(0, (0,), 1, 0))
        assert res.value == pytest.approx(20.0 / 35.0, abs=1e-15)
        assert res.first_action.header == HeaderType.CO7

    def test_pending_feedback_charge_reduces_value(self):
        with_charge = exact_oracle(perfect_cfg(), 1, start=(0, (1,), 1, 1))
        without = exact_oracle(perfect_cfg(), 1, start=(0, (1,), 1, 0))
        assert with_charge.value == pytest.approx(without.value - 0.01, abs=1e-12)

    def test_one_step_lossy_channel(self):
        # from the good state: stays good 0.8 (succeeds 0.9) or drops to bad
        # 0.2 (succeeds 0.3), so the short header lands with chance 0.78
        res = exact_oracle(tiny_cfg(), 1, start=(0, (1,), 1, 0))
        assert res.value == pytest.approx(0.78 * 20.0 / 21.0, abs=1e-12)
        assert res.first_action.header == HeaderType.CO3

    def test_reset_mix_weights_stationary(self):
        res = exact_oracle(tiny_cfg(), 1)
        # half bad, half good; only the full header can decode from cold
        good_branch = 0.78 * 0.25
        bad_branch = (0.2 * 0.9 + 0.8 * 0.3) * 0.25
        assert res.value == pytest.approx(0.5 * good_branch + 0.5 * bad_branch, abs=1e-12)
        assert res.first_action.header == HeaderType.IR

    @pytest.mark.parametrize("state,window,good", [
        (0, (1,), 1), (0, (0,), 0), (1, (1,), 1), (2, (1,), 0), (1, (0,), 1),
        (0, (1,), 0), (0, (0,), 1), (1, (1,), 0), (1, (0,), 0),
        (2, (1,), 1), (2, (0,), 0), (2, (0,), 1),
    ])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_matches_independent_recursion(self, state, window, good, steps):
        cfg = tiny_cfg(source=SourceDynamics.first_order(0.9, 0.2))
        for pending in (0, 1):
            res = exact_oracle(cfg, steps, start=(state, window, good, pending))
            brute = _brute_best_value(cfg, state, window, good, pending, steps)
            assert res.value == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_matches_independent_recursion_second_order_source(self, steps):
        cfg = dataclasses.replace(
            tiny_cfg(source=SourceDynamics(2, (0.9, 0.2, 0.7, 0.95))),
            channel=GilbertElliotConfig(5.0, 0.2, 0.9, 0.1, header_scale=(0.8, 1.0, 1.2)),
        )
        windows = itertools.product((0, 1), repeat=cfg.source.order)
        for start in itertools.product(range(cfg.w + 2), windows, (0, 1), (0, 1)):
            res = exact_oracle(cfg, steps, start=start)
            assert res.value == pytest.approx(_brute_best_value(cfg, *start, steps), abs=1e-12)

    def test_long_horizon_increments_are_bounded(self):
        # one more slot adds at least nothing (a decode never costs) and at
        # most the best reward share, discounted to that slot
        cfg = tiny_cfg()
        top = LENGTHS.payload_bits / (LENGTHS.payload_bits + LENGTHS.co3_bits)
        for h in (7, 50, 200):
            step = exact_oracle(cfg, h).value - exact_oracle(cfg, h - 1).value
            assert -1e-12 <= step <= cfg.discount ** (h - 1) * top + 1e-12

    def test_oracle_check_output_is_pinned(self, capsys):
        assert cli.main(["oracle-check", "--seed", "0"]) == 0
        assert capsys.readouterr().out == (
            "oracle value over 3 slots: 0.965497\n"
            "  fixed-ir: 0.433540 <= oracle+0.02\n"
            "  fixed-co7: 0.000000 <= oracle+0.02\n"
            "  fixed-co3: 0.000000 <= oracle+0.02\n"
            "  random: 0.300634 <= oracle+0.02\n"
            "  kt-always: 0.963867 <= oracle+0.02\n"
            "oracle-check: PASS\n"
        )


def noisy_cfg():
    """Delayed, noisy observations; a second-order source and per-header
    success scaling (clipped at 1 in the good state) exercise every table."""
    return EnvConfig(
        lengths=LENGTHS,
        channel=GilbertElliotConfig(5.0, 0.2, 0.9, 0.1, header_scale=(0.8, 1.0, 1.2)),
        noise=ObsNoiseConfig(0.1, 0.2),
        source=SourceDynamics(2, (0.9, 0.2, 0.7, 0.95)),
        w=5,
        delay=4,
        horizon=100,
    )


def scalar_returns(policy, cfg, steps, seeds):
    """Reference: RohcEnv one rollout at a time, rollout i seeded by seeds[i]."""
    out = []
    for seed in seeds:
        env = RohcEnv(cfg)
        obs = env.reset(seed)
        policy.reset(np.random.default_rng([seed, 1]))
        total = 0.0
        weight = 1.0
        for _ in range(steps):
            outcome = env.step(policy.act(obs))
            total += weight * outcome.reward
            weight *= cfg.discount
            obs = outcome.observation
        out.append(total)
    return np.array(out)


def scalar_noise(seeds, steps):
    """Rollout i's row is the stream RohcEnv.reset(seeds[i]) draws from."""
    return np.stack([np.random.default_rng(s).random(3 + 5 * steps) for s in seeds])


class TestLockstepReturns:
    @pytest.mark.parametrize("make_cfg", [tiny_cfg, noisy_cfg], ids=["tiny", "noisy-d4"])
    @pytest.mark.parametrize(
        "policy",
        [
            FixedPolicy(HeaderType.IR),
            FixedPolicy(HeaderType.CO7),
            KtPolicy(KtConfig(5, feedback_prob=0.0)),
            KtPolicy(KtConfig(5, feedback_prob=1.0)),
        ],
        ids=["fixed-ir", "fixed-co7", "kt-never", "kt-always"],
    )
    def test_equals_scalar_env_on_same_uniforms(self, make_cfg, policy):
        cfg = make_cfg()
        if isinstance(policy, KtPolicy):
            policy = KtPolicy(KtConfig(cfg.w, feedback_prob=policy.cfg.feedback_prob))
        steps = 25
        seeds = range(150)
        want = scalar_returns(policy, cfg, steps, seeds)
        policy_noise = np.random.default_rng(0).random((len(seeds), steps))
        got = lockstep_returns(policy, cfg, scalar_noise(seeds, steps), policy_noise)
        assert np.array_equal(got, want)

    def test_batched_greedy_agent_picks_scalar_actions(self):
        cfg = noisy_cfg()
        agent_cfg = AgentConfig(hidden_width=16, depth=3, history_extra=2)
        spec = EncoderSpec.for_env(cfg, agent_cfg)
        params = init_params(mlp_config_for(spec, agent_cfg), np.random.default_rng(4))
        steps = 12
        seeds = range(40)
        observations, actions = [], []
        for seed in seeds:
            env = RohcEnv(cfg)
            obs = env.reset(seed)
            policy = AgentPolicy(params, spec)
            policy.reset(None)
            seen, taken = [], []
            for _ in range(steps):
                action = policy.act(obs)
                seen.append(obs)
                taken.append(action.index)
                obs = env.step(action).observation
            observations.append(seen)
            actions.append(taken)
        batched = AgentPolicy(params, spec)
        batched.reset_batch(len(seeds))
        for t in range(steps):
            rows = [seen[t] for seen in observations]
            obs = Observation(*map(np.array, zip(*rows)))
            got = batched.act_batch(obs, np.ones(len(seeds)))
            assert got.tolist() == [taken[t] for taken in actions]
        assert len({a for taken in actions for a in taken}) > 1
        got = lockstep_returns(
            AgentPolicy(params, spec), cfg, scalar_noise(seeds, steps), np.ones((len(seeds), steps))
        )
        assert np.array_equal(got, scalar_returns(AgentPolicy(params, spec), cfg, steps, seeds))

    def test_batched_agent_explores_below_epsilon(self):
        cfg = noisy_cfg()
        agent_cfg = AgentConfig(hidden_width=8, depth=2, history_extra=1)
        spec = EncoderSpec.for_env(cfg, agent_cfg)
        params = init_params(mlp_config_for(spec, agent_cfg), np.random.default_rng(1))
        obs = BatchGeEnv(cfg).reset(np.full((7, 3), 0.5))
        u = np.array([0.0, 0.05, 0.1, 0.2, 0.249, 0.25, 0.9])
        greedy = AgentPolicy(params, spec)
        greedy.reset_batch(7)
        exploring = AgentPolicy(params, spec, epsilon=0.25)
        exploring.reset_batch(7)
        got = exploring.act_batch(obs, u)
        assert got[:5].tolist() == [0, 1, 2, 4, 5]
        assert got[5:].tolist() == greedy.act_batch(obs, u)[5:].tolist()

    def test_prefix_stable_when_rollouts_are_added(self, monkeypatch):
        cfg = noisy_cfg()
        policy = KtPolicy(KtConfig(cfg.w, feedback_prob=0.3))
        whole = rollout_returns(policy, cfg, 6, 40, seed=9)
        assert np.array_equal(rollout_returns(policy, cfg, 6, 25, seed=9), whole[:25])
        # chunks of two rollouts draw the same rows
        monkeypatch.setattr(baselines, "_CHUNK_UNIFORMS", 2 * (3 + 5 * 6 + 6))
        assert np.array_equal(rollout_returns(policy, cfg, 6, 31, seed=9), whole[:31])

    @pytest.mark.parametrize(
        "policy",
        [RandomPolicy(), KtPolicy(KtConfig(5, feedback_prob=0.4))],
        ids=["random", "kt-0.4"],
    )
    def test_value_agrees_with_scalar_rollouts_in_distribution(self, policy):
        # the batched policies draw their own randomness differently, so
        # only the law of the returns can match; a steep feedback charge
        # makes the returns sensitive to the request rate
        cfg = dataclasses.replace(noisy_cfg(), feedback_penalty=0.2)
        steps = 8
        batched = rollout_returns(policy, cfg, steps, 20_000, seed=3)
        scalar = scalar_returns(policy, cfg, steps, range(3000))
        se = np.hypot(batched.std() / np.sqrt(batched.size), scalar.std() / np.sqrt(scalar.size))
        assert abs(batched.mean() - scalar.mean()) < 4.0 * se

    def test_batched_random_and_kt_action_laws(self):
        u = np.random.default_rng(2).random(60_000)
        obs = Observation(
            np.zeros(u.size, dtype=int),
            np.zeros(u.size, dtype=int),
            np.full(u.size, 0),
            np.ones((u.size, 1), dtype=int),
        )
        counts = np.bincount(RandomPolicy().act_batch(obs, u), minlength=6)
        assert np.all(np.abs(counts / u.size - 1.0 / 6.0) < 0.01)
        kt = KtPolicy(KtConfig(5, feedback_prob=0.3))
        kt.reset_batch(u.size)
        picked = kt.act_batch(obs, u)
        assert np.all(picked >> 1 == HeaderType.CO3)
        assert abs(np.mean(picked & 1) - 0.3) < 0.01

    def test_rejects_fading_channel(self):
        cfg = EnvConfig(
            lengths=LENGTHS,
            channel=HmmChannelConfig(0.5, 4, 2.0, 1.0),
            noise=ObsNoiseConfig(0.1, 0.0),
            source=SourceDynamics.constant(1),
            w=1,
            delay=0,
        )
        with pytest.raises(ValueError, match="Gilbert-Elliot"):
            mc_discounted_value(FixedPolicy(HeaderType.IR), cfg, 3, 10, 0)


class TestReturns:
    def test_discounted_return_geometric(self):
        cfg = perfect_cfg(horizon=100)
        got = rollout_returns(FixedPolicy(HeaderType.IR), cfg, 10, 4, 0)
        expected = sum(0.25 * 0.95 ** k for k in range(10))
        assert got == pytest.approx([expected] * 4, rel=1e-12)

    def test_mc_value_of_deterministic_env_is_exact(self):
        cfg = perfect_cfg(horizon=100)
        single = rollout_returns(FixedPolicy(HeaderType.IR), cfg, 8, 1, 0)[0]
        mc = mc_discounted_value(FixedPolicy(HeaderType.IR), cfg, 8, 16, 0)
        assert mc == pytest.approx(single, rel=1e-12)
