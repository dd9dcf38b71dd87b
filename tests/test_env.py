"""Environment loop tests: timing of delayed application, feedback delivery,
reward bookkeeping, trace export."""

import dataclasses

import numpy as np
import pytest

from bdrohc.channels import GilbertElliotConfig, HmmChannelConfig, ObsNoiseConfig
from bdrohc.core import CompressorAction, HeaderLengths, HeaderType, SourceDynamics
from bdrohc.env import (
    NO_FEEDBACK,
    PAD_ACTION,
    BatchGeEnv,
    EnvConfig,
    Policy,
    RohcEnv,
    Trace,
    run_episode,
)

LENGTHS = HeaderLengths(20, 60, 15, 1)


def perfect_cfg(delay=0, w=5, horizon=50, penalty=0.01, source=None):
    return EnvConfig(
        lengths=LENGTHS,
        channel=GilbertElliotConfig(5.0, 0.5, 1.0, 1.0),
        noise=ObsNoiseConfig(0.0, 0.0),
        source=source or SourceDynamics.constant(1),
        w=w,
        delay=delay,
        feedback_penalty=penalty,
        horizon=horizon,
    )


def lossy_cfg(delay=4, horizon=200, eps_t=0.1, eps_h=0.1):
    return EnvConfig(
        lengths=LENGTHS,
        channel=GilbertElliotConfig(5.0, 0.2, 0.9, 0.1),
        noise=ObsNoiseConfig(eps_t, eps_h),
        source=SourceDynamics.first_order(1.0, 0.1),
        w=5,
        delay=delay,
        horizon=horizon,
    )


class ScriptPolicy(Policy):
    """Plays a fixed prefix, then repeats a default action."""

    def __init__(self, prefix, default):
        self.prefix = list(prefix)
        self.default = default

    def reset(self, rng):
        self._i = 0

    def act(self, obs):
        a = self.prefix[self._i] if self._i < len(self.prefix) else self.default
        self._i += 1
        return a


def act(header, fb=False):
    return CompressorAction(header, fb)


class TestReset:
    def test_initial_observation(self):
        cfg = perfect_cfg(delay=3)
        env = RohcEnv(cfg)
        obs = env.reset(0)
        assert obs.z_d == NO_FEEDBACK
        assert obs.source_window == (1, 1, 1, 1)
        assert env._level == cfg.w + 1
        assert env.clock == 0

    def test_step_before_reset_raises(self):
        env = RohcEnv(perfect_cfg())
        with pytest.raises(RuntimeError):
            env.step(PAD_ACTION)

    def test_horizon_exhaustion_raises(self):
        cfg = perfect_cfg(horizon=2)
        env = RohcEnv(cfg)
        env.reset(0)
        env.step(PAD_ACTION)
        env.step(PAD_ACTION)
        with pytest.raises(RuntimeError):
            env.step(PAD_ACTION)

    def test_zero_horizon_episode_is_empty(self):
        trace = run_episode(ScriptPolicy([], PAD_ACTION), perfect_cfg(horizon=0), 0)
        assert len(trace) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            perfect_cfg(w=0)
        with pytest.raises(ValueError):
            perfect_cfg(delay=-1)
        with pytest.raises(ValueError):
            perfect_cfg(penalty=-0.5)


class TestRewards:
    def test_ir_then_co3_on_perfect_channel(self):
        # establish context with one full header, then ride the 1-bit one
        policy = ScriptPolicy([act(HeaderType.IR)], act(HeaderType.CO3))
        trace = run_episode(policy, perfect_cfg(delay=0, horizon=20), 0)
        assert trace.reward[0] == pytest.approx(20.0 / 80.0, abs=0)
        for t in range(1, 20):
            assert trace.reward[t] == pytest.approx(20.0 / 21.0, abs=0)
        assert all(s == 1 for s in trace.decode_success)

    def test_fixed_co3_from_no_context_never_decodes(self):
        policy = ScriptPolicy([], act(HeaderType.CO3))
        trace = run_episode(policy, perfect_cfg(delay=0, horizon=30), 0)
        assert sum(trace.decode_success) == 0
        assert all(r == 0.0 for r in trace.reward)

    def test_feedback_charge_lands_after_round_trip(self):
        # request at slot 0 with zero delay: charged at slot 1
        policy = ScriptPolicy([act(HeaderType.IR, fb=True)], act(HeaderType.CO3))
        trace = run_episode(policy, perfect_cfg(delay=0, horizon=5), 0)
        assert trace.reward[0] == pytest.approx(0.25, abs=0)
        assert trace.reward[1] == pytest.approx(20.0 / 21.0 - 0.01, abs=1e-15)
        assert trace.alpha_f == [0, 1, 0, 0, 0]

    def test_feedback_charge_with_delay(self):
        d = 3
        policy = ScriptPolicy([act(HeaderType.IR, fb=True)], act(HeaderType.IR))
        trace = run_episode(policy, perfect_cfg(delay=d, horizon=10), 0)
        expected = [0] * 10
        expected[d + 1] = 1
        assert trace.alpha_f == expected

    def test_padding_actions_apply_before_delay_fills(self):
        # the pre-history is all full headers, so the pipeline decodes from
        # slot 0 even though the policy's own actions only land at slot d
        d = 4
        policy = ScriptPolicy([], act(HeaderType.CO7))
        trace = run_episode(policy, perfect_cfg(delay=d, horizon=12), 0)
        assert trace.alpha_c[:d] == [int(HeaderType.IR)] * d
        assert trace.alpha_c[d:] == [int(HeaderType.CO7)] * 8
        assert trace.reward[0] == pytest.approx(0.25, abs=0)
        assert trace.reward[d] == pytest.approx(20.0 / 35.0, abs=0)


class TestTiming:
    def test_applied_action_lags_by_delay(self):
        d = 3
        script = [act(HeaderType.IR), act(HeaderType.CO7), act(HeaderType.CO3)] * 6
        policy = ScriptPolicy(script, act(HeaderType.IR))
        trace = run_episode(policy, perfect_cfg(delay=d, horizon=len(script)), 0)
        for t in range(len(script)):
            if t < d:
                assert trace.alpha_c[t] == int(PAD_ACTION.header)
            else:
                assert trace.alpha_c[t] == int(script[t - d].header)

    def test_observed_arrival_flag_is_last_step_outcome(self):
        cfg = lossy_cfg(eps_t=0.0, eps_h=0.0)
        env = RohcEnv(cfg)
        env.reset(5)
        rng = np.random.default_rng(0)
        from bdrohc.core import ACTIONS

        for _ in range(100):
            a = ACTIONS[int(rng.integers(6))]
            out = env.step(a)
            assert out.observation.z_t == out.diagnostics.tx_ok

    def test_feedback_delivery_slot_and_value(self):
        d = 4
        q = 6
        horizon = 20
        prefix = [act(HeaderType.IR, fb=(t == q)) for t in range(horizon)]
        cfg = perfect_cfg(delay=d, horizon=horizon)
        env = RohcEnv(cfg)
        obs_seq = [env.reset(3)]
        decomp_after = []
        for t in range(horizon):
            out = env.step(prefix[t])
            obs_seq.append(out.observation)
            decomp_after.append(out.diagnostics.decomp_state)
        for i, obs in enumerate(obs_seq):
            if i == q + d:
                assert obs.z_d == decomp_after[i - 1]
            else:
                assert obs.z_d == NO_FEEDBACK

    def test_feedback_delivery_zero_delay_next_slot(self):
        q = 2
        horizon = 8
        prefix = [act(HeaderType.IR, fb=(t == q)) for t in range(horizon)]
        cfg = perfect_cfg(delay=0, horizon=horizon)
        env = RohcEnv(cfg)
        obs_seq = [env.reset(3)]
        decomp_after = []
        for t in range(horizon):
            out = env.step(prefix[t])
            obs_seq.append(out.observation)
            decomp_after.append(out.diagnostics.decomp_state)
        for i, obs in enumerate(obs_seq):
            if i == q + 1:
                assert obs.z_d == decomp_after[i - 1]
            else:
                assert obs.z_d == NO_FEEDBACK

    def test_feedback_value_tracks_state_not_request_slot(self):
        # with every packet lost the receiver can never leave no-context, so
        # each delivered level must read w+1 regardless of when it was asked
        cfg = EnvConfig(
            lengths=LENGTHS,
            channel=GilbertElliotConfig(5.0, 0.5, 0.0, 0.0),
            noise=ObsNoiseConfig(0.0, 0.0),
            source=SourceDynamics.constant(1),
            w=5,
            delay=0,
            horizon=6,
        )
        env = RohcEnv(cfg)
        env.reset(0)
        values = []
        for _ in range(6):
            out = env.step(act(HeaderType.IR, fb=True))
            values.append(out.observation.z_d)
        # every decode fails from no-context: the level never leaves w+1
        assert values == [cfg.w + 1] * 6

    def test_decode_success_matches_state(self):
        trace = run_episode(
            ScriptPolicy([], act(HeaderType.CO7)), lossy_cfg(horizon=300), 11
        )
        for s, ok in zip(trace.sigma_d, trace.decode_success):
            assert ok == (1 if s == 0 else 0)


class TestRewardDecomposition:
    def test_exact_split_into_bandwidth_and_penalty(self):
        from bdrohc.baselines import RandomPolicy

        cfg = lossy_cfg(delay=4, horizon=500)
        trace = run_episode(RandomPolicy(), cfg, 17)
        total = sum(trace.reward)
        share = sum(
            ok * LENGTHS.payload_bits / (LENGTHS.payload_bits + LENGTHS.header_bits(HeaderType(h)))
            for ok, h in zip(trace.decode_success, trace.alpha_c)
        )
        penalty = cfg.feedback_penalty * sum(trace.alpha_f)
        assert total == pytest.approx(share - penalty, abs=1e-9)


TRACE_COLUMNS = (
    "t", "alpha_c", "alpha_f", "z_t", "z_h", "z_d",
    "sigma_s", "sigma_d", "sigma_t", "reward", "decode_success",
)


class TestTrace:
    def test_csv_round_trip(self, tmp_path):
        from bdrohc.baselines import RandomPolicy

        ge = lossy_cfg(horizon=100)
        hmm = dataclasses.replace(ge, channel=HmmChannelConfig(0.5, 4, 2.0, 1.0))
        for cfg in (ge, hmm):
            trace = run_episode(RandomPolicy(), cfg, 23)
            path = tmp_path / "trace.csv"
            trace.to_csv(path)
            back = Trace.from_csv(path)
            for name in TRACE_COLUMNS:
                assert getattr(back, name) == getattr(trace, name), name
            # z_H stays an int flag on Gilbert-Elliot and a float envelope on hmm
            assert [type(z) for z in back.z_h] == [type(z) for z in trace.z_h]

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            Trace.from_csv(path)

    def test_csv_rejects_short_row(self, tmp_path):
        from bdrohc.baselines import RandomPolicy

        trace = run_episode(RandomPolicy(), lossy_cfg(horizon=3), 1)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        lines[1] = "1,2,3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2 has 3 fields, the header has 11"):
            Trace.from_csv(path)

    def test_csv_rejects_long_row(self, tmp_path):
        from bdrohc.baselines import RandomPolicy

        trace = run_episode(RandomPolicy(), lossy_cfg(horizon=3), 1)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        lines[3] += ",0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4 has 12 fields, the header has 11"):
            Trace.from_csv(path)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        from bdrohc.baselines import RandomPolicy

        cfg = lossy_cfg(horizon=200)
        a = run_episode(RandomPolicy(), cfg, 31)
        b = run_episode(RandomPolicy(), cfg, 31)
        assert a.reward == b.reward
        assert a.alpha_c == b.alpha_c
        assert a.z_t == b.z_t
        assert a.z_d == b.z_d

    def test_different_seeds_differ(self):
        from bdrohc.baselines import RandomPolicy

        cfg = lossy_cfg(horizon=200)
        a = run_episode(RandomPolicy(), cfg, 31)
        b = run_episode(RandomPolicy(), cfg, 32)
        assert a.alpha_c != b.alpha_c or a.sigma_t != b.sigma_t


class TestBatchEnv:
    def test_scalar_env_draws_three_uniforms_at_reset_then_five_per_step(self):
        # the contract BatchGeEnv's noise layout rests on
        steps = 7
        env = RohcEnv(lossy_cfg(horizon=steps))
        env.reset(12)
        for _ in range(steps):
            env.step(act(HeaderType.CO7, fb=True))
        stream = np.random.default_rng(12).random(3 + 5 * steps + 1)
        assert env._rng.random() == stream[-1]

    def test_rows_follow_scalar_env_observations(self):
        cfg = lossy_cfg(delay=2, horizon=20)
        seeds = [3, 4, 5]
        noise = np.stack([np.random.default_rng(s).random(3 + 5 * 20) for s in seeds])
        batch = BatchGeEnv(cfg)
        obs = batch.reset(noise[:, :3])
        envs = [RohcEnv(cfg) for _ in seeds]
        expected = [env.reset(s) for env, s in zip(envs, seeds)]
        action = act(HeaderType.IR, fb=True)
        for t in range(20):
            assert obs.z_t.tolist() == [o.z_t for o in expected]
            assert obs.z_h.tolist() == [o.z_h for o in expected]
            assert obs.z_d.tolist() == [o.z_d for o in expected]
            assert obs.source_window.tolist() == [list(o.source_window) for o in expected]
            u = noise[:, 3 + 5 * t : 8 + 5 * t]
            obs, reward = batch.step(np.full(len(seeds), action.index), u)
            outcomes = [env.step(action) for env in envs]
            expected = [o.observation for o in outcomes]
            assert reward.tolist() == [o.reward for o in outcomes]

    def test_rejects_fading_channel(self):
        cfg = EnvConfig(
            lengths=LENGTHS,
            channel=HmmChannelConfig(0.5, 4, 2.0, 1.0),
            noise=ObsNoiseConfig(0.1, 0.0),
            source=SourceDynamics.constant(1),
        )
        with pytest.raises(ValueError, match="hmm"):
            BatchGeEnv(cfg)

    def test_horizon_exhaustion_raises(self):
        env = BatchGeEnv(perfect_cfg(horizon=1))
        env.reset(np.zeros((2, 3)))
        env.step(np.zeros(2, dtype=int), np.zeros((2, 5)))
        with pytest.raises(RuntimeError):
            env.step(np.zeros(2, dtype=int), np.zeros((2, 5)))

    def test_policy_without_batched_act_is_named(self):
        policy = ScriptPolicy([], PAD_ACTION)
        env = BatchGeEnv(perfect_cfg())
        obs = env.reset(np.zeros((2, 3)))
        with pytest.raises(NotImplementedError, match="ScriptPolicy"):
            policy.act_batch(obs, np.zeros(2))
