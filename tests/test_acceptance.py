"""End-to-end acceptance gate.

One test per headline guarantee, each asserting its stated tolerance and
time budget and printing a single summary line with the measured numbers
(run with -v -s to see them).  Budgets are generous for a desktop core;
they exist so a quadratic regression or a silently 10x-slower loop fails
loudly, not to benchmark.
"""

import dataclasses
import math
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from bdrohc.agent import (
    AgentConfig,
    AgentPolicy,
    EncoderSpec,
    HistoryWindow,
    run_training,
)
from bdrohc.baselines import (
    FixedPolicy,
    KtConfig,
    KtPolicy,
    RandomPolicy,
    exact_oracle,
    mc_discounted_value,
)
from bdrohc.channels import (
    GilbertElliotConfig,
    HmmChannelConfig,
    ObsNoiseConfig,
    ge_stationary,
    ge_init,
    ge_step,
    hmm_trajectory,
    hmm_transmission,
    success_probability,
)
from bdrohc.core import ACTIONS, HeaderLengths, HeaderType, SourceDynamics
from bdrohc.env import EnvConfig, RohcEnv, Trace, run_episode
from bdrohc.harness import (
    _DESK,
    compute_metrics,
    default_config,
    degenerate_config,
    eval_seed_for,
    evaluate_policy,
    fsm_check,
    make_env_config,
    make_kt_config,
    tiny_oracle_config,
    train_point,
)
from bdrohc.mlp import MlpConfig, batch_td_loss_grad, forward, init_params

from test_mlp import away_from_kinks, numeric_grad


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def action_name(index: int) -> str:
    action = ACTIONS[index]
    return action.header.name + ("+fb" if action.request_feedback else "")


def header_mix(trace: Trace) -> str:
    """Shares of IR/CO7/CO3 among the packets of one trace."""
    codes = np.asarray(trace.alpha_c)
    return "/".join(f"{np.mean(codes == h):.2f}" for h in HeaderType)


class TestDecompressorTable:
    def test_transitions_match_reference_table(self):
        t0 = time.monotonic()
        bad, lines = fsm_check((5, 1))
        elapsed = time.monotonic() - t0
        assert "w=5: 84 cases checked" in lines
        assert "w=1: 36 cases checked" in lines
        report(
            "decompressor table",
            bad == 0 and elapsed < 1.0,
            f"84 + 36 cases, {bad} mismatches [{elapsed:.2f}s / 1s]",
        )


class TestTwoStateChannel:
    def test_bad_state_occupancy_is_stationary(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(np.random.SeedSequence(20_001))
        worst = 0.0
        for eps_b in (0.1, 0.2, 0.5):
            cfg = GilbertElliotConfig(5.0, eps_b, 0.9, 0.1)
            state = ge_init(cfg, rng)
            # the generator's next 10^6 uniforms drawn in one block: the
            # values one rng.random() per ge_step would give, in order
            block = SimpleNamespace(random=iter(rng.random(1_000_000).tolist()).__next__)
            bad = 0
            for _ in range(1_000_000):
                state = ge_step(state, cfg, block)
                bad += state == 0
            gap = abs(bad / 1_000_000 - ge_stationary(cfg))
            worst = max(worst, gap)
        elapsed = time.monotonic() - t0
        report(
            "two-state occupancy",
            worst <= 0.01 and elapsed < 5.0,
            f"worst gap {worst:.4f} (tol 0.01) over 3x10^6 steps [{elapsed:.1f}s / 5s]",
        )


class TestFadingChannel:
    def test_gain_correlation_envelope_mean_and_success_curve(self):
        t0 = time.monotonic()
        cfg = HmmChannelConfig(correlation=0.5, order=4, tx_power=2.0, obs_noise_var=1.0)
        rng = np.random.default_rng(np.random.SeedSequence(20_002))
        n = 400_000
        _, envelopes, gains = hmm_trajectory(cfg, n, rng)
        arrivals = np.array([hmm_transmission(e, cfg, rng) for e in envelopes])

        lag1 = float(np.corrcoef(gains[:-1], gains[1:])[0, 1])
        mean_env = float(np.mean(envelopes))
        corr_gap = abs(lag1 - 0.5)
        mean_gap = abs(mean_env - math.sqrt(math.pi / 2.0))

        # conditional delivery rate, checked inside every well-filled
        # envelope bin against the closed-form threshold probability
        edges = np.arange(0.0, 3.25, 0.25)
        which = np.digitize(envelopes, edges)
        bin_gap = 0.0
        bins_used = 0
        for b in range(1, len(edges) + 1):
            mask = which == b
            if mask.sum() < 5_000:
                continue
            bins_used += 1
            expected = float(np.mean([success_probability(e, cfg) for e in envelopes[mask]]))
            bin_gap = max(bin_gap, abs(float(arrivals[mask].mean()) - expected))
        elapsed = time.monotonic() - t0
        report(
            "fading channel",
            corr_gap <= 0.02 and mean_gap <= 0.01 and bin_gap <= 0.01
            and bins_used >= 8 and elapsed < 30.0,
            f"lag-1 gap {corr_gap:.4f} (tol 0.02), envelope-mean gap "
            f"{mean_gap:.4f} (tol 0.01), success-curve gap {bin_gap:.4f} "
            f"(tol 0.01, {bins_used} bins) [{elapsed:.1f}s / 30s]",
        )


class TestGradients:
    def test_hundred_networks_pass_central_differences(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(np.random.SeedSequence(20_004))
        worst = 0.0
        for trial in range(100):
            depth = int(rng.integers(2, 4))
            widths = tuple(int(rng.integers(2, 7)) for _ in range(depth)) + (6,)
            params = init_params(MlpConfig(widths), np.random.default_rng(1_000 + trial))
            for b in params.biases:
                b += 0.1 * rng.normal(size=b.shape)
            # resample inputs until every ReLU pre-activation clears the
            # corner; central differences are undefined on the kink itself
            for _ in range(50):
                x = rng.normal(size=widths[0])
                if away_from_kinks(params, x):
                    break
            else:
                raise AssertionError("no kink-free input found")
            action = int(rng.integers(6))
            target = float(rng.normal())
            _, grads = batch_td_loss_grad(params, x[None, :], [action], [target])
            n_w, n_b = numeric_grad(params, x, action, target)
            for a, n in list(zip(grads[0], n_w)) + list(zip(grads[1], n_b)):
                scale = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)
                worst = max(worst, float(np.max(np.abs(a - n)) / scale))
        elapsed = time.monotonic() - t0
        report(
            "gradient check",
            worst < 1e-4 and elapsed < 30.0,
            f"100 networks, max relative error {worst:.2e} (tol 1e-4) "
            f"[{elapsed:.1f}s / 30s]",
        )


class TestRewardBookkeeping:
    def test_trace_rewards_equal_closed_form(self, tmp_path):
        t0 = time.monotonic()
        ge_cfg = EnvConfig(
            lengths=HeaderLengths(20, 60, 15, 1),
            channel=GilbertElliotConfig(5.0, 0.2, 0.9, 0.1),
            noise=ObsNoiseConfig(0.1, 0.1),
            source=SourceDynamics.first_order(1.0, 0.1),
            w=5,
            delay=4,
            horizon=2000,
        )
        hmm_cfg = dataclasses.replace(
            ge_cfg,
            channel=HmmChannelConfig(0.5, 4, 2.0, 1.0),
            noise=ObsNoiseConfig(0.1, 0.0),
            delay=2,
        )
        runs = [
            (ge_cfg, KtPolicy(KtConfig(w=5, feedback_prob=0.3))),
            (ge_cfg, RandomPolicy()),
            (hmm_cfg, KtPolicy(KtConfig(w=5, feedback_prob=0.7))),
            (hmm_cfg, FixedPolicy(HeaderType.CO7)),
        ]
        worst = 0.0
        for i, (cfg, policy) in enumerate(runs):
            trace = run_episode(policy, cfg, seed=300 + i)
            path = tmp_path / f"trace_{i}.csv"
            trace.to_csv(path)
            back = Trace.from_csv(path)
            # integer columns must survive the round trip untouched
            assert back.alpha_c == trace.alpha_c
            assert back.alpha_f == trace.alpha_f
            assert back.decode_success == trace.decode_success

            payload = cfg.lengths.payload_bits
            delivered = sum(
                ok * payload / (payload + cfg.lengths.header_bits(HeaderType(a)))
                for ok, a in zip(back.decode_success, back.alpha_c)
            )
            closed_form = delivered - cfg.feedback_penalty * sum(back.alpha_f)
            worst = max(worst, abs(sum(trace.reward) - closed_form))
        elapsed = time.monotonic() - t0
        report(
            "reward bookkeeping",
            worst <= 1e-9 and elapsed < 1.0,
            f"4 exported traces, worst decomposition gap {worst:.2e} "
            f"(tol 1e-9) [{elapsed:.2f}s / 1s]",
        )


class TestDeterminism:
    def test_identical_config_and_seed_give_identical_bytes(self, tmp_path):
        t0 = time.monotonic()
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "run.m = 2\n"
            "env.t = 40\n"
            "agent.width = 8\n"
            "agent.depth = 2\n"
            "agent.k = 2\n"
            "agent.replay = 500\n"
            "agent.batch = 8\n"
            "sweep.param = ge.eps_b\n"
            "sweep.values = 0.2, 0.5\n"
        )
        outputs = []
        for run in ("a", "b"):
            sweep_out = tmp_path / f"sweep_{run}.csv"
            curve_out = tmp_path / f"curve_{run}.csv"
            for args in (
                ["sweep", "--config", str(cfg_path), "--seed", "3", "--out", str(sweep_out)],
                ["train", "--config", str(cfg_path), "--seed", "3", "--out", str(curve_out)],
            ):
                proc = subprocess.run(
                    [sys.executable, "-c", "from bdrohc.cli import main; raise SystemExit(main())"]
                    + args,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
            outputs.append((sweep_out.read_bytes(), curve_out.read_bytes()))
        elapsed = time.monotonic() - t0
        same = outputs[0] == outputs[1]
        report(
            "determinism",
            same and elapsed < 60.0,
            f"sweep and train outputs byte-identical across two runs "
            f"[{elapsed:.1f}s / 60s]",
        )


@pytest.mark.slow
class TestDegenerateConvergence:
    def test_perfect_channel_training_reaches_compressed_steady_state(self):
        t0 = time.monotonic()
        cfg = dataclasses.replace(degenerate_config(), discount=0.6)
        agent = AgentConfig(
            learning_rate=1e-3,
            epsilon_decay=0.95,
            epsilon_floor=0.05,
            batch_size=64,
            replay_capacity=250_000,
            grad_steps=1000,
            hidden_width=128,
            depth=2,
            history_extra=1,
            explore_start_slots=1,
            multi_step=8,
            target_tau=0.01,
            double_argmax=True,
        )
        seed = 2
        result = run_training(cfg, agent, 100, seed)
        spec = EncoderSpec.for_env(cfg, agent)
        trace = run_episode(AgentPolicy(result.params, spec), cfg, eval_seed_for(seed))
        m = compute_metrics(trace, cfg.lengths)
        elapsed = time.monotonic() - t0
        floor = 20.0 / 21.0 - 0.02
        report(
            "degenerate convergence",
            m.transmission_efficiency >= floor
            and m.feedback_rate <= 0.05
            and elapsed <= 300.0,
            f"greedy efficiency {m.transmission_efficiency:.4f} "
            f"(needs >= {floor:.4f}), feedback rate {m.feedback_rate:.4f} "
            f"(needs <= 0.05) [{elapsed:.0f}s / 300s]",
        )


@pytest.mark.slow
class TestExhaustiveOptimum:
    def test_optimum_bounds_policies_and_trained_agent_approaches_it(self):
        t0 = time.monotonic()
        cfg = tiny_oracle_config()
        horizon = 3
        rollouts = 10_000
        oracle = exact_oracle(cfg, horizon)

        agent = AgentConfig(
            learning_rate=1e-3,
            epsilon_decay=0.95,
            epsilon_floor=0.1,
            batch_size=64,
            replay_capacity=250_000,
            grad_steps=300,
            hidden_width=64,
            depth=2,
            history_extra=2,
            double_argmax=True,
        )
        train_cfg = dataclasses.replace(cfg, horizon=200)
        result = run_training(train_cfg, agent, 100, seed=0)
        spec = EncoderSpec.for_env(train_cfg, agent)
        trained = AgentPolicy(result.params, spec)

        policies = [
            ("fixed-ir", FixedPolicy(HeaderType.IR)),
            ("fixed-co7", FixedPolicy(HeaderType.CO7)),
            ("fixed-co3", FixedPolicy(HeaderType.CO3)),
            ("random", RandomPolicy()),
            ("kt-always", KtPolicy(KtConfig(w=cfg.w, feedback_prob=1.0))),
            ("trained", trained),
        ]
        estimates = {
            name: mc_discounted_value(policy, cfg, horizon, rollouts, seed=77)
            for name, policy in policies
        }
        bound_ok = all(est <= oracle.value + 0.02 for est in estimates.values())
        agent_gap = oracle.value - estimates["trained"]
        # the trained agent's values at the reset window, per channel reading
        reset_obs = RohcEnv(cfg).reset(0)
        at_reset = []
        for z_h in (0, 1):
            obs = dataclasses.replace(reset_obs, z_h=z_h)
            q = forward(result.params, HistoryWindow(spec, obs).x[0])
            at_reset.append(
                f"z_h={z_h}: {action_name(int(np.argmax(q)))} "
                f"[{' '.join(f'{v:.2f}' for v in q)}]"
            )
        elapsed = time.monotonic() - t0
        summary = ", ".join(f"{k} {v:.3f}" for k, v in estimates.items())
        report(
            "exhaustive optimum",
            bound_ok and agent_gap <= 0.05 and elapsed <= 300.0,
            f"optimum {oracle.value:.3f} bounds all of [{summary}] "
            f"(slack 0.02); trained-agent gap {agent_gap:+.4f} (tol 0.05); "
            f"greedy first action and Q at the reset window "
            f"({', '.join(action_name(i) for i in range(len(ACTIONS)))}): "
            + "; ".join(at_reset)
            + f" [{elapsed:.0f}s / 300s]",
        )


@pytest.mark.slow
class TestLearnedVersusThreshold:
    def test_learned_policy_keeps_pace_with_threshold_baseline(self):
        t0 = time.monotonic()
        cfg = default_config()
        cfg.update(_DESK)
        cfg["ge.eps_b"] = 0.2
        cfg["env.d"] = 2
        env_cfg = make_env_config(cfg)

        rl_effs, kt_effs, lines = [], [], []
        for seed in (0, 1, 2):
            params, spec, _ = train_point(cfg, seed)
            trace, m = evaluate_policy(AgentPolicy(params, spec), env_cfg, seed)
            kt_trace, km = evaluate_policy(
                KtPolicy(make_kt_config(cfg, feedback_prob=m.feedback_rate)),
                env_cfg,
                seed,
            )
            rl_effs.append(m.transmission_efficiency)
            kt_effs.append(km.transmission_efficiency)
            lines.append(
                f"seed {seed}: rl {m.transmission_efficiency:.4f}"
                f"@fb {m.feedback_rate:.3f} (reward {m.mean_reward:.4f}, "
                f"IR/CO7/CO3 {header_mix(trace)}) vs kt "
                f"{km.transmission_efficiency:.4f} (reward {km.mean_reward:.4f}, "
                f"IR/CO7/CO3 {header_mix(kt_trace)})"
            )
        mean_rl = float(np.mean(rl_effs))
        mean_kt = float(np.mean(kt_effs))
        elapsed = time.monotonic() - t0
        report(
            "learned vs threshold",
            mean_rl >= mean_kt - 0.02 and elapsed <= 900.0,
            f"mean efficiency {mean_rl:.4f} vs {mean_kt:.4f} at matched "
            f"feedback (margin {mean_rl - mean_kt:+.4f}, needs >= -0.02); "
            + "; ".join(lines)
            + f" [{elapsed:.0f}s / 900s]",
        )
