"""Self-tests of the benchmark: each workload's output check must pass on a
real (shrunk) output and report a failure on a deliberately corrupted one,
and BENCHMARK.json must list exactly the metrics the benchmark prints."""

import dataclasses
import json
from pathlib import Path

import numpy as np

import run
import tracing
import workloads
from bdrohc import agent, baselines, harness
from bdrohc.env import Trace
from bdrohc.mlp import MlpParams


def small_point(preset: str, horizon: int):
    cfg = harness.apply_preset(harness.default_config(), preset)
    env_cfg = dataclasses.replace(harness.make_env_config(cfg), horizon=horizon)
    agent_cfg = dataclasses.replace(harness.make_agent_config(cfg), hidden_width=8, grad_steps=2)
    return cfg, env_cfg, agent_cfg


def test_training_check_flags_corrupted_curve(tmp_path):
    _, env_cfg, agent_cfg = small_point("fig4", 40)
    result = agent.run_training(env_cfg, agent_cfg, 2, [5, 0])
    assert workloads.check_training(result, env_cfg, agent_cfg, 2) == []
    assert workloads.check_checkpoint(result.params, agent_cfg, tmp_path / "q") == []
    repeat = agent.run_training(env_cfg, agent_cfg, 2, [5, 0])
    assert workloads.curve_bytes(repeat) == workloads.curve_bytes(result)

    result.episode_efficiency[1] = 1.5
    assert workloads.check_training(result, env_cfg, agent_cfg, 2)
    assert workloads.curve_bytes(repeat) != workloads.curve_bytes(result)
    result.episode_efficiency[1] = float("nan")
    assert workloads.check_training(result, env_cfg, agent_cfg, 2)


def test_eval_check_flags_corrupted_trace(tmp_path):
    ge, ge_cfg, _ = small_point("fig4", 60)
    hmm, hmm_cfg, _ = small_point("fig13", 60)
    runs = []
    for label, point, cfg in (("kt_ge", ge, ge_cfg), ("kt_hmm", hmm, hmm_cfg)):
        trace, metrics = harness.evaluate_policy(
            baselines.KtPolicy(harness.make_kt_config(point)), cfg, 7
        )
        runs.append((label, cfg, trace, metrics))
    _, _, trace, metrics = runs[-1]
    trace.to_csv(tmp_path / "t.csv")
    reread = Trace.from_csv(tmp_path / "t.csv")
    lengths = hmm_cfg.lengths
    assert workloads.check_eval_set(runs, (trace, metrics), reread, lengths) == []

    reread.z_h[3] += 1e-3
    assert workloads.check_eval_set(runs, (trace, metrics), reread, lengths)
    reread.z_h[3] -= 1e-3
    first = runs[0][2]
    first.decode_success[10] = 1 - first.decode_success[10]
    assert workloads.check_eval_set(runs, (trace, metrics), reread, lengths)


def test_oracle_check_flags_value_above_optimum():
    cfg = harness.tiny_oracle_config()
    values = [baselines.exact_oracle(cfg, h).value for h in workloads.ORACLE_HORIZONS]
    oracle = values[workloads.ORACLE_HORIZONS.index(workloads.MC_STEPS)]
    mc = {"fixed_ir": oracle - 0.5, "kt_always": oracle - 0.01}
    assert workloads.check_oracle(values, 0, mc) == []

    assert workloads.check_oracle(values, 0, {**mc, "kt_always": oracle + 0.03})
    assert workloads.check_oracle(values, 1, mc)
    assert workloads.check_oracle(values[::-1], 0, mc)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(100))) == (90.0, 89)
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(19))) is None


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    fake = {"unit_ref_s": [1.0, 2.0], "slots_per_unit": 10, "peak_rss_mb": 50.0}
    printed = run.end_to_end(fake, [0.5])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, m["unit"]) for name, m in printed.items()
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_mlp_operation_counts_follow_layer_widths():
    params = MlpParams(
        [np.zeros((8, 5)), np.zeros((6, 8))], [np.zeros(8), np.zeros(6)]
    )
    flops, nbytes = tracing.forward_ops(params, 2)
    assert flops == 2 * (2 * 5 * 8 + 8) + 2 * (2 * 8 * 6 + 6)
    assert nbytes == 8 * (5 * 8 + 8 + 2 * (5 + 8)) + 8 * (8 * 6 + 6 + 2 * (8 + 6))
    grad_flops, _ = tracing.td_grad_ops(params, 2)
    assert grad_flops > 2 * flops
