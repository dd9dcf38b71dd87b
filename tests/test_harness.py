"""Harness tests: metric arithmetic, flat config files, presets, result
files, the sweep/adapt drivers, and the CLI front end."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdrohc import cli
from bdrohc.agent import AgentConfig, run_training
from bdrohc.channels import GilbertElliotConfig, HmmChannelConfig
from bdrohc.core import HeaderLengths, HeaderType
from bdrohc.env import EnvConfig, Trace, read_csv
from bdrohc.harness import (
    PRESETS,
    RESULT_COLUMNS,
    apply_preset,
    compute_metrics,
    default_config,
    degenerate_config,
    eval_seed_for,
    evaluate_policy,
    fsm_check,
    load_config,
    make_agent_config,
    make_env_config,
    make_kt_config,
    oracle_check,
    parse_adapt_schedule,
    parse_config,
    parse_sweep_values,
    run_experiment,
    adapt_experiment,
    tiny_oracle_config,
    write_result_csv,
)

LENGTHS = HeaderLengths(20, 60, 15, 1)


def synthetic_trace(alpha_c, success, alpha_f=None, reward=None):
    trace = Trace()
    n = len(alpha_c)
    trace.t = list(range(n))
    trace.alpha_c = list(alpha_c)
    trace.alpha_f = list(alpha_f) if alpha_f else [0] * n
    trace.z_t = [0] * n
    trace.z_h = [0] * n
    trace.z_d = [-1] * n
    trace.sigma_s = [1] * n
    trace.sigma_d = [0 if s else 6 for s in success]
    trace.sigma_t = list(success)
    trace.reward = list(reward) if reward else [0.0] * n
    trace.decode_success = list(success)
    return trace


class TestMetrics:
    def test_bandwidth_ratio_by_hand(self):
        # one full header and two short ones, two decodes: 40 payload bits
        # delivered out of 122 put on the air
        trace = synthetic_trace([0, 2, 2], [0, 1, 1])
        m = compute_metrics(trace, LENGTHS)
        assert m.transmission_efficiency == pytest.approx(40.0 / 122.0, abs=1e-15)
        assert m.decode_success_count == 2

    def test_rejects_unknown_header_code(self):
        with pytest.raises(ValueError):
            compute_metrics(synthetic_trace([0, 3, 2], [0, 1, 1]), LENGTHS)

    def test_all_failures_give_zero(self):
        trace = synthetic_trace([1, 1, 1], [0, 0, 0])
        assert compute_metrics(trace, LENGTHS).transmission_efficiency == 0.0

    def test_feedback_rate_extremes(self):
        trace = synthetic_trace([0, 0], [1, 1], alpha_f=[1, 1])
        assert compute_metrics(trace, LENGTHS).feedback_rate == 1.0
        trace = synthetic_trace([0, 0], [1, 1], alpha_f=[0, 0])
        assert compute_metrics(trace, LENGTHS).feedback_rate == 0.0

    def test_mean_reward(self):
        trace = synthetic_trace([0, 0], [1, 1], reward=[0.5, 0.25])
        assert compute_metrics(trace, LENGTHS).mean_reward == pytest.approx(0.375)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(Trace(), LENGTHS)


class TestConfigParsing:
    def test_defaults_complete(self):
        cfg = default_config()
        assert cfg["env.w"] == 5
        assert cfg["env.channel"] == "ge"
        assert cfg["agent.gamma_eps"] == 0.995

    def test_overlay_and_comments(self):
        text = """
        # tweak two fields
        env.w = 3   # inline comment
        ge.eps_b = 0.4

        agent.double_argmax = true
        """
        cfg = parse_config(text)
        assert cfg["env.w"] == 3
        assert cfg["ge.eps_b"] == 0.4
        assert cfg["agent.double_argmax"] is True
        assert cfg["env.d"] == 4  # untouched default

    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("env.w = 3\nenv.bogus = 1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("env.w 3\n")

    def test_bool_coercion_variants(self):
        for raw, want in (("1", True), ("yes", True), ("off", False), ("0", False)):
            cfg = parse_config(f"agent.double_argmax = {raw}")
            assert cfg["agent.double_argmax"] is want
        with pytest.raises(ValueError):
            parse_config("agent.double_argmax = maybe")

    @pytest.mark.parametrize(
        "key,raw,kind",
        [
            ("env.w", "2.5", "an integer"),
            ("run.m", "many", "an integer"),
            ("agent.eta", "fast", "a float"),
            ("ge.eps_b", "0.2x", "a float"),
            ("agent.double_argmax", "maybe", "a boolean"),
        ],
    )
    def test_bad_value_names_key_and_line(self, key, raw, kind):
        want = rf"^line 2: {re.escape(key)} expects {kind}, got '{re.escape(raw)}'$"
        with pytest.raises(ValueError, match=want):
            parse_config(f"env.d = 3\n{key} = {raw}\n")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("env.t = 123\n")
        assert load_config(path)["env.t"] == 123

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_schema_typed_values_round_trip(self, data):
        text_values = st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789._:,/-", max_size=12
        )
        schema = default_config()
        cfg = default_config()
        for key in data.draw(st.lists(st.sampled_from(sorted(schema)), unique=True)):
            default = schema[key]
            if isinstance(default, bool):
                cfg[key] = data.draw(st.booleans())
            elif isinstance(default, int):
                cfg[key] = data.draw(st.integers())
            elif isinstance(default, float):
                cfg[key] = data.draw(st.floats(allow_nan=False))
            else:
                cfg[key] = data.draw(text_values)
        text = "\n".join(f"{k} = {v}" for k, v in cfg.items())
        back = parse_config(text)
        assert back == cfg
        assert all(type(back[k]) is type(schema[k]) for k in schema)

    def test_round_trip_through_text(self):
        cfg = default_config()
        cfg["ge.eps_b"] = 0.35
        cfg["env.t"] = 777
        text = "\n".join(f"{k} = {v}" for k, v in cfg.items())
        assert parse_config(text) == cfg


class TestBuilders:
    def test_env_config_fields(self):
        cfg = default_config()
        cfg["env.d"] = 2
        cfg["env.t"] = 500
        cfg["env.lambda"] = 0.05
        env = make_env_config(cfg)
        assert env.delay == 2
        assert env.horizon == 500
        assert env.feedback_penalty == 0.05
        assert isinstance(env.channel, GilbertElliotConfig)
        assert env.lengths == LENGTHS

    def test_env_config_fading_branch(self):
        cfg = default_config()
        cfg["env.channel"] = "hmm"
        cfg["hmm.rho"] = 0.7
        env = make_env_config(cfg)
        assert isinstance(env.channel, HmmChannelConfig)
        assert env.channel.correlation == 0.7
        assert env.channel.order == 4

    def test_env_config_bad_channel(self):
        cfg = default_config()
        cfg["env.channel"] = "awgn"
        with pytest.raises(ValueError):
            make_env_config(cfg)

    @pytest.mark.parametrize(
        "key,name,value",
        [
            ("env.w", "w", 3),
            ("env.d", "delay", 2),
            ("env.t", "horizon", 500),
            ("env.lambda", "feedback_penalty", 0.05),
            ("env.gamma", "discount", 0.9),
            ("agent.eta", "learning_rate", 1e-3),
            ("agent.gamma_eps", "epsilon_decay", 0.9),
            ("agent.eps_floor", "epsilon_floor", 0.1),
            ("agent.batch", "batch_size", 32),
            ("agent.replay", "replay_capacity", 5000),
            ("agent.k", "grad_steps", 50),
            ("agent.d0", "history_extra", 2),
            ("agent.width", "hidden_width", 128),
            ("agent.depth", "depth", 3),
            ("agent.double_argmax", "double_argmax", True),
        ],
    )
    def test_key_sets_its_field_and_takes_the_dataclass_default(self, key, name, value):
        cfg = default_config()
        if key.startswith("env."):
            build = make_env_config
            env = build(cfg)
            reference = EnvConfig(env.lengths, env.channel, env.noise, env.source)
        else:
            build, reference = make_agent_config, AgentConfig()
        assert cfg[key] == getattr(reference, name) != value
        cfg[key] = value
        got = getattr(build(cfg), name)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key,name",
        [
            ("agent.eta", "learning_rate"),
            ("env.lambda", "feedback_penalty"),
            ("hmm.p_t", "tx_power"),
            ("hmm.omega_sq", "obs_noise_var"),
        ],
    )
    def test_rejects_non_finite_values_naming_the_field(self, key, name, raw):
        cfg = parse_config(f"env.channel = hmm\n{key} = {raw}\n")
        build = make_agent_config if key.startswith("agent.") else make_env_config
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {raw}$"):
            build(cfg)

    def test_kt_config_override(self):
        cfg = default_config()
        assert make_kt_config(cfg).feedback_prob == 0.2
        assert make_kt_config(cfg, feedback_prob=0.7).feedback_prob == 0.7

    def test_sweep_values_typed(self):
        cfg = default_config()
        cfg["sweep.param"] = "env.d"
        cfg["sweep.values"] = "2,4,8"
        assert parse_sweep_values(cfg) == [2, 4, 8]
        cfg["sweep.param"] = "ge.eps_b"
        cfg["sweep.values"] = "0.1,0.5"
        assert parse_sweep_values(cfg) == [0.1, 0.5]
        cfg["sweep.param"] = "run.m"
        cfg["sweep.values"] = "5,10"
        assert parse_sweep_values(cfg) == [5, 10]

    def test_sweep_values_validation(self):
        cfg = default_config()
        assert parse_sweep_values(cfg) == []
        cfg["sweep.param"] = "nope"
        cfg["sweep.values"] = "1"
        with pytest.raises(ValueError):
            parse_sweep_values(cfg)
        cfg["sweep.param"] = "env.d"
        cfg["sweep.values"] = ""
        with pytest.raises(ValueError):
            parse_sweep_values(cfg)
        cfg["sweep.values"] = "2,4.5"
        with pytest.raises(ValueError, match=r"^sweep\.values: env\.d expects an integer, got '4\.5'$"):
            parse_sweep_values(cfg)

    @pytest.mark.parametrize(
        "channel,param",
        [
            ("ge", "kt.p_f"),
            ("ge", "run.policy"),
            ("ge", "hmm.rho"),
            ("hmm", "ge.eps_b"),
            ("hmm", "obs.eps_h"),
        ],
    )
    def test_sweep_refuses_an_axis_no_point_reads(self, channel, param):
        cfg = default_config()
        cfg["env.channel"] = channel
        cfg["sweep.param"] = param
        cfg["sweep.values"] = "0.1,0.9"
        want = rf"^sweep\.param '{re.escape(param)}' is not read by a sweep point on env\.channel = {channel};"
        with pytest.raises(ValueError, match=want):
            parse_sweep_values(cfg)

    def test_adapt_schedule(self):
        cfg = default_config()
        assert parse_adapt_schedule(cfg) == []
        cfg["adapt.schedule"] = "50:0.4, 0:0.2"
        assert parse_adapt_schedule(cfg) == [(0, 0.2), (50, 0.4)]
        cfg["adapt.schedule"] = "abc"
        with pytest.raises(ValueError):
            parse_adapt_schedule(cfg)
        cfg["adapt.schedule"] = "1:0.4,x:0.2"
        with pytest.raises(ValueError, match="adapt.schedule entries .* got 'x:0.2'"):
            parse_adapt_schedule(cfg)


class TestPresets:
    def test_every_preset_produces_valid_configs(self):
        for name in PRESETS:
            cfg = apply_preset(default_config(), name)
            values = parse_sweep_values(cfg)
            assert values, name
            param = cfg["sweep.param"]
            for v in values:
                point = dict(cfg)
                point[param] = v
                make_env_config(point)  # must not raise
                make_agent_config(point)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            apply_preset(default_config(), "fig99")

    def test_desk_and_full_scale(self):
        desk = apply_preset(default_config(), "fig4")
        assert desk["agent.width"] == 128
        assert desk["run.m"] == 100
        full = apply_preset(default_config(), "fig4", paper_scale=True)
        assert full["agent.width"] == 2048
        assert full["run.m"] == 3000
        assert full["env.t"] == 10000

    def test_fading_presets_switch_channel(self):
        cfg = apply_preset(default_config(), "fig13")
        assert cfg["env.channel"] == "hmm"
        assert cfg["env.d"] == 8


class TestResultFiles:
    ROWS = [
        {
            "sweep_param": "ge.eps_b",
            "sweep_value": "0.2",
            "policy": "rl",
            "efficiency": 0.8123456789,
            "feedback_rate": 0.05,
            "mean_reward": 0.7512,
            "seed": 3,
        },
        {
            "sweep_param": "ge.eps_b",
            "sweep_value": "0.2",
            "policy": "kt",
            "efficiency": 0.7,
            "feedback_rate": 0.051,
            "mean_reward": 0.66,
            "seed": 3,
        },
    ]

    def test_write_read_write_is_stable(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_result_csv(p1, self.ROWS)
        back = [dict(zip(RESULT_COLUMNS, cells)) for cells in read_csv(p1, RESULT_COLUMNS)]
        assert float(back[0]["efficiency"]) == 0.8123456789
        write_result_csv(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="expected header"):
            list(read_csv(path, RESULT_COLUMNS))

    @pytest.mark.parametrize("width", [6, 8])
    def test_read_rejects_short_and_long_rows(self, tmp_path, width):
        path = tmp_path / "r.csv"
        write_result_csv(path, self.ROWS)
        lines = path.read_text().splitlines()
        lines[2] = ",".join((lines[2].split(",") + ["4"])[:width])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 3 has {width} fields, the header has 7"):
            list(read_csv(path, RESULT_COLUMNS))

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        write_result_csv(path, self.ROWS)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", lines[1], "  ", lines[2]]) + "\n\n")
        assert len(list(read_csv(path, RESULT_COLUMNS))) == 2


def fast_cfg(**overrides):
    cfg = default_config()
    cfg.update(
        {
            "env.t": 30,
            "env.d": 1,
            "run.m": 1,
            "agent.width": 8,
            "agent.depth": 2,
            "agent.k": 1,
            "agent.batch": 4,
            "agent.d0": 1,
        }
    )
    cfg.update(overrides)
    return cfg


class TestDrivers:
    def test_single_point_experiment_rows(self):
        rows = run_experiment(fast_cfg(), seed=5)
        assert [r["policy"] for r in rows] == ["rl", "kt"]
        assert all(r["seed"] == 5 for r in rows)
        assert all(r["sweep_param"] == "" for r in rows)
        assert all(0.0 <= r["efficiency"] <= 1.0 for r in rows)

    def test_sweep_experiment_rows(self, tmp_path):
        cfg = fast_cfg()
        cfg["sweep.param"] = "ge.eps_b"
        cfg["sweep.values"] = "0.2,0.4"
        out = tmp_path / "sweep.csv"
        rows = run_experiment(cfg, seed=2, out_path=out)
        assert len(rows) == 4
        assert [r["seed"] for r in rows] == [2, 2, 3, 3]
        assert rows[0]["sweep_value"] == "0.2" and rows[2]["sweep_value"] == "0.4"
        assert list(read_csv(out, RESULT_COLUMNS)) == [[str(r[c]) for c in RESULT_COLUMNS] for r in rows]

    def test_kt_matches_trained_feedback_rate(self):
        rows = run_experiment(fast_cfg(), seed=1)
        rl, kt = rows
        # the pairing rule: the KT run was configured at the measured rate
        assert abs(rl["feedback_rate"] - kt["feedback_rate"]) <= 0.5

    def test_adapt_without_schedule_matches_plain_training(self):
        cfg = fast_cfg(**{"run.m": 2})
        plain = run_training(make_env_config(cfg), make_agent_config(cfg), 2, 7)
        adapted = adapt_experiment(cfg, seed=7)
        assert adapted.episode_rewards == plain.episode_rewards
        assert adapted.episode_efficiency == plain.episode_efficiency

    def test_adapt_switch_to_same_value_is_noop(self):
        cfg = fast_cfg(**{"run.m": 2})
        cfg["adapt.schedule"] = f"1:{cfg['ge.eps_b']}"
        adapted = adapt_experiment(cfg, seed=7)
        plain = adapt_experiment(fast_cfg(**{"run.m": 2}), seed=7)
        assert adapted.episode_rewards == plain.episode_rewards

    def test_adapt_rejects_schedule_on_fading_channel(self):
        cfg = fast_cfg(**{"run.m": 2, "env.channel": "hmm", "adapt.schedule": "1:0.4"})
        with pytest.raises(ValueError, match="hmm channel"):
            adapt_experiment(cfg, seed=7)

    @pytest.mark.parametrize("schedule", ["2:0.4", "-1:0.4", "0:0.3,5:0.4"])
    def test_adapt_rejects_episodes_outside_the_run(self, schedule):
        cfg = fast_cfg(**{"run.m": 2, "adapt.schedule": schedule})
        with pytest.raises(ValueError, match=r"outside 0\.\.1 \(run.m = 2\)"):
            adapt_experiment(cfg, seed=7)

    def test_evaluation_stream_differs_from_training(self):
        # training episode seeds and the held-out stream must not collide
        a = eval_seed_for(4).generate_state(4)
        b = np.random.SeedSequence(4).generate_state(4)
        assert not np.array_equal(a, b)

    def test_evaluate_policy_metrics_agree_with_trace(self):
        from bdrohc.baselines import FixedPolicy

        env = make_env_config(fast_cfg())
        trace, metrics = evaluate_policy(FixedPolicy(HeaderType.IR), env, 9)
        again = compute_metrics(trace, env.lengths)
        assert metrics == again


class TestBuiltInChecks:
    def test_fsm_check_clean(self):
        bad, lines = fsm_check()
        assert bad == 0
        assert any("cases checked" in line for line in lines)

    def test_oracle_check_clean(self):
        failures, lines = oracle_check(seed=0)
        assert failures == 0
        assert len(lines) == 6

    def test_reference_configs_are_valid(self):
        assert tiny_oracle_config().delay == 0
        assert degenerate_config().channel.good_success == 1.0


class TestCli:
    def test_fsm_check_exit_zero(self, capsys):
        assert cli.main(["fsm-check"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle_check_exit_zero(self, capsys):
        assert cli.main(["oracle-check"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_config_file_exits_two(self, capsys):
        assert cli.main(["train", "--config", "/nonexistent/x.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("zzz.zzz = 1\n")
        assert cli.main(["eval", "--config", str(path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_config_value_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("env.w = 2.5\n")
        assert cli.main(["eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 1: env.w expects an integer, got '2.5'\n"

    def test_unknown_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--preset", "fig99"])

    def write_fast(self, tmp_path, extra=""):
        path = tmp_path / "fast.cfg"
        lines = [f"{k} = {v}" for k, v in fast_cfg().items() if k.split(".")[0] != "sweep"]
        path.write_text("\n".join(lines) + "\n" + extra)
        return path

    def test_train_writes_curve_and_checkpoint(self, tmp_path, capsys):
        cfg = self.write_fast(tmp_path)
        out = tmp_path / "curve.csv"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "curve.csv.params").exists()
        assert (tmp_path / "curve.csv.params.json").exists()
        header = out.read_text().splitlines()[0]
        assert header == "episode,mean_reward,efficiency,feedback_rate,epsilon"

    def test_eval_fixed_policy_writes_metrics(self, tmp_path, capsys):
        cfg = self.write_fast(tmp_path, "run.policy = fixed-ir\n")
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(read_csv(out, RESULT_COLUMNS))
        assert len(rows) == 1 and rows[0][RESULT_COLUMNS.index("policy")] == "fixed-ir"

    def test_eval_trace_export(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        cfg = self.write_fast(
            tmp_path, f"run.policy = kt\nrun.trace = {trace_path}\n"
        )
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        back = Trace.from_csv(trace_path)
        assert len(back) == 30

    def test_eval_rl_from_checkpoint(self, tmp_path):
        cfg = self.write_fast(tmp_path)
        curve = tmp_path / "curve.csv"
        assert cli.main(["train", "--config", str(cfg), "--out", str(curve)]) == 0
        ckpt = str(curve) + ".params"
        cfg2 = self.write_fast(tmp_path, f"run.policy = rl\nrun.checkpoint = {ckpt}\n")
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", "--config", str(cfg2), "--out", str(out)]) == 0
        [row] = read_csv(out, RESULT_COLUMNS)
        assert row[RESULT_COLUMNS.index("policy")] == "rl"

    def test_eval_refuses_checkpoint_of_other_layout(self, tmp_path, capsys):
        cfg = self.write_fast(tmp_path, "env.d = 4\n")
        curve = tmp_path / "curve.csv"
        assert cli.main(["train", "--config", str(cfg), "--out", str(curve)]) == 0
        ckpt = str(curve) + ".params"
        assert json.loads((tmp_path / "curve.csv.params.json").read_text())["encoder"] == {
            "hmm": False, "w": 5, "delay": 4, "extra": 1,
        }
        cfg2 = self.write_fast(tmp_path, f"env.d = 2\nrun.policy = rl\nrun.checkpoint = {ckpt}\n")
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", "--config", str(cfg2), "--out", str(out)]) == 2
        assert "checkpoint has env.d = 4, config has env.d = 2" in capsys.readouterr().err

    def test_eval_checks_old_sidecar_by_input_width(self, tmp_path, capsys):
        cfg = self.write_fast(tmp_path, "env.d = 4\n")
        curve = tmp_path / "curve.csv"
        assert cli.main(["train", "--config", str(cfg), "--out", str(curve)]) == 0
        ckpt = str(curve) + ".params"
        sidecar = tmp_path / "curve.csv.params.json"
        meta = json.loads(sidecar.read_text())
        del meta["encoder"]
        sidecar.write_text(json.dumps(meta))
        same = self.write_fast(tmp_path, f"env.d = 4\nrun.policy = rl\nrun.checkpoint = {ckpt}\n")
        assert cli.main(["eval", "--config", str(same), "--out", str(tmp_path / "a.csv")]) == 0
        other = self.write_fast(tmp_path, f"env.d = 2\nrun.policy = rl\nrun.checkpoint = {ckpt}\n")
        assert cli.main(["eval", "--config", str(other), "--out", str(tmp_path / "b.csv")]) == 2
        assert "input width" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["header", "weights", "last bias", "sidecar field"])
    def test_eval_refuses_damaged_checkpoint(self, tmp_path, capsys, damage):
        cfg = self.write_fast(tmp_path)
        curve = tmp_path / "curve.csv"
        assert cli.main(["train", "--config", str(cfg), "--out", str(curve)]) == 0
        ckpt = tmp_path / "curve.csv.params"
        sidecar = tmp_path / "curve.csv.params.json"
        if damage == "sidecar field":
            meta = json.loads(sidecar.read_text())
            meta["agent"]["bogus"] = 1
            sidecar.write_text(json.dumps(meta))
            want = f"error: checkpoint {ckpt} records unknown agent fields: bogus\n"
        else:
            data = ckpt.read_bytes()
            # the header takes 36 bytes, the first weight matrix hundreds more
            ckpt.write_bytes(data[: {"header": 10, "weights": 100, "last bias": len(data) - 8}[damage]])
            want = f"error: parameter file {ckpt} is truncated\n"
        cfg2 = self.write_fast(tmp_path, f"run.policy = rl\nrun.checkpoint = {ckpt}\n")
        assert cli.main(["eval", "--config", str(cfg2), "--out", str(tmp_path / "eval.csv")]) == 2
        assert capsys.readouterr().err == want

    def test_eval_refuses_checkpoint_without_rl_policy(self, tmp_path, capsys):
        cfg = self.write_fast(tmp_path, "run.policy = kt\nrun.checkpoint = /nonexistent/q.params\n")
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert "run.checkpoint is set, but eval ignores it with run.policy = kt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    def test_schedule_refused_outside_adapt(self, tmp_path, capsys, command):
        cfg = self.write_fast(tmp_path, "adapt.schedule = 0:0.4\n")
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"adapt.schedule is set, but {command} ignores it" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [("run.trace", "t.csv"), ("run.checkpoint", "/nonexistent/q"), ("run.policy", "kt")],
    )
    @pytest.mark.parametrize("command", ["train", "sweep", "adapt"])
    def test_eval_only_keys_refused(self, tmp_path, capsys, command, key, value):
        cfg = self.write_fast(tmp_path, f"run.m = 1\nenv.t = 30\n{key} = {value}\n")
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} is set, but {command} ignores it" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "eval", "adapt"])
    def test_negative_episode_count_exits_two(self, tmp_path, capsys, command):
        # eval trains here: run.policy = rl without a checkpoint
        cfg = self.write_fast(tmp_path, "run.m = -1\nrun.policy = rl\n")
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: run.m must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("ge.l_b", "0", "mean_bad_duration must be > 0, got 0.0"),
         ("ge.eps_b", "0", "eps_b must lie in (0, 1), got 0.0"),
         ("ge.eps_b", "1", "eps_b must lie in (0, 1), got 1.0")],
    )
    def test_degenerate_channel_exits_two(self, tmp_path, capsys, key, value, message):
        cfg = self.write_fast(tmp_path, f"{key} = {value}\n")
        out = tmp_path / "out.csv"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sweep_refuses_kt_feedback_axis(self, tmp_path, capsys):
        cfg = self.write_fast(tmp_path, "sweep.param = kt.p_f\nsweep.values = 0.1,0.9\n")
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: sweep.param 'kt.p_f' is not read" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self.write_fast(
            tmp_path, "sweep.param = ge.eps_b\nsweep.values = 0.2,0.4\n"
        )
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(list(read_csv(out, RESULT_COLUMNS))) == 4

    def test_adapt_command(self, tmp_path):
        cfg = self.write_fast(tmp_path, "run.m = 2\nadapt.schedule = 1:0.4\n")
        out = tmp_path / "adapt.csv"
        assert cli.main(["adapt", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3  # header + 2 episodes

    def test_adapt_refuses_a_repeated_schedule_episode(self, tmp_path, capsys):
        cfg = self.write_fast(tmp_path, "run.m = 3\nenv.t = 30\nadapt.schedule = 1:0.3,1:0.4\n")
        out = tmp_path / "adapt.csv"
        assert cli.main(["adapt", "--config", str(cfg), "--out", str(out)]) == 2
        assert "adapt.schedule lists episode 1 more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_repeat_run_is_byte_identical(self, tmp_path):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"m{run}.csv"
            trace = tmp_path / f"t{run}.csv"
            cfg = self.write_fast(tmp_path, f"run.policy = kt\nrun.trace = {trace}\n")
            assert cli.main(["eval", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
            outputs.append((out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]


# sha256 of the trace and result CSVs of `eval` with run.policy = kt at
# env.t = 200 and seed 0.  KT runs no BLAS code, so these bytes depend only
# on the random streams (numpy's PCG64 generation) and on plain float
# arithmetic; a refactor that keeps them keeps both.  The result's mean
# reward is a built-in float sum(), which CPython 3.12 made compensated, so
# the result digests hold for CPython 3.10-3.11.
_KT_EVAL_DIGESTS = {
    "fig4": (
        "9f5a51aea47f12164e3cc9ad76d263fbe3fe7c138009966ae101243795bf48e5",
        "cf4ee02f00db0390be5e8ae94262ad4a0f8589c31fdffa5cfd15d1aa72ee1701",
    ),
    "fig13": (
        "d77a854f2da7c4ff5b91b457460917d9147e8239b9e31fc64b76909eaf5d0616",
        "704cf61a6c3f2097b64a5460d1be8d166fd8b45d95ab5fb24c782f07ccb7bc70",
    ),
}


# sha256 of the train curve CSV and the checkpoint parameter file
_TRAIN_DIGESTS = {
    "fig4": (
        "f0505b43b7c21341b6875dd10f32ab0a28a9320a2911fd138ae80609be0de351",
        "96399a8cc2731ad1005b107a17a53dd88e37b6ea3fa5c59521f0f4bf80e8dc96",
    ),
    "fig13": (
        "c283eed487990017e1dad639cefc4de2ebc9cd1c1b9d4d48cb84e5460039dd80",
        "922cde3b5e0b1ed4c2d3a6e770e315901634996562ae9c6602c497f4b6f71eff",
    ),
}


class TestStreamPins:
    @pytest.mark.parametrize("preset", sorted(_KT_EVAL_DIGESTS))
    def test_kt_eval_outputs_are_pinned(self, tmp_path, preset):
        trace, out, cfg = tmp_path / "trace.csv", tmp_path / "eval.csv", tmp_path / "kt.cfg"
        cfg.write_text(f"env.t = 200\nrun.policy = kt\nrun.trace = {trace}\n")
        argv = ["eval", "--preset", preset, "--config", str(cfg), "--seed", "0", "--out", str(out)]
        assert cli.main(argv) == 0
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (trace, out))
        assert digests == _KT_EVAL_DIGESTS[preset]

    @pytest.mark.parametrize("preset", sorted(_TRAIN_DIGESTS))
    def test_training_outputs_are_pinned(self, tmp_path, preset):
        # three episodes of about 200 blocks each wrap the 250-block replay
        out, cfg = tmp_path / "train.csv", tmp_path / "train.cfg"
        cfg.write_text(
            "run.m = 3\nenv.t = 200\nagent.width = 16\nagent.k = 20\nagent.replay = 250\n"
        )
        argv = ["train", "--preset", preset, "--config", str(cfg), "--seed", "0", "--out", str(out)]
        assert cli.main(argv) == 0
        params = tmp_path / "train.csv.params"
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, params))
        assert digests == _TRAIN_DIGESTS[preset]
