"""Benchmark workloads, the checks on their outputs, and the worker process.

run.py starts this file as a worker, one process per measurement, with
OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1 already in its environment so
that numpy's BLAS is pinned to one thread from the moment it is imported.
The worker builds the workload from the seed (set-up), runs one untimed
warm-up unit, prints READY, and then either exits (--mode setup) or runs
timed units for --seconds of measured time and prints one RESULT line.

The host's speed drifts: the same pure-Python loop runs up to a third
slower for tens of seconds at a time, in CPU time as much as in wall time.
So, outside tracing, a short fixed probe of Python and numpy work that
shares no code with bdrohc runs after every step of a unit (untimed), and
each step's wall time is also expressed in reference seconds: scaled by
CAL_REF_S over the mean of the probe times around it.  Both figures are
reported; the reference-speed one is steady from run to run.

A unit is the workload's repeated piece of work: one run_training call
(train_desk), one evaluation set (eval_heldout) or one full oracle check
(oracle_mc).  Every unit's output is checked with invariants that hold for
any random stream, not against golden digests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import tracing
from bdrohc import agent, baselines, harness, mlp
from bdrohc.core import HeaderType
from bdrohc.env import Trace

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

TRAIN_EPISODES = 2
# Unit i trains with seed index i % TRAIN_SEEDS, so every unit after the
# first few repeats an earlier seed and must reproduce its curve exactly.
TRAIN_SEEDS = 3

MC_STEPS = 3
# Above harness.oracle_check's 4000: the bound check below then sits more
# than four standard errors from the KT policy's true value.
MC_ROLLOUTS = 6000
MC_SLACK = 0.02
ORACLE_HORIZONS = tuple(range(1, 7))
# Adding a slot never lowers the optimum; this only absorbs float rounding.
ORACLE_MONOTONE_TOL = 1e-12

# The trace CSV keeps 9 significant digits of its real-valued columns.
CSV_REL_TOL = 1e-8
TRACE_FIELDS = (
    "t", "alpha_c", "alpha_f", "z_t", "z_h", "z_d",
    "sigma_s", "sigma_d", "sigma_t", "reward", "decode_success",
)
FLOAT_FIELDS = ("z_h", "reward")

MAX_REPORTED_FAILURES = 20

CAL_ITERATIONS = 700
# Nominal time of one probe piece, about its median on the 2-vCPU Xeon host
# the benchmark was written on: reference seconds equal wall seconds on a
# host where a piece takes this long.
CAL_REF_S = 0.0015


# --------------------------------------------------------------------------
# host-speed probe and step timing


def _probe_piece() -> float:
    t0 = perf_counter()
    rng = np.random.default_rng(12345)
    weights = np.linspace(-1.0, 1.0, 128 * 64).reshape(128, 64)
    x = np.ones(64)
    acc = 0.0
    table = {}
    for i in range(CAL_ITERATIONS):
        item = (i, rng.random(), i & 7)
        table[i & 255] = item
        acc += item[1]
        if i % 4 == 0:
            h = weights @ x
            np.maximum(h, 0.0, out=h)
            acc += h[3]
    return perf_counter() - t0


def probe_host() -> float:
    """Median of three timed probe pieces, so one interrupt does not count."""
    return statistics.median(_probe_piece() for _ in range(3))


class Meter:
    """Times the steps of a unit.  With probing on, the host probe runs
    after every step and each step's time is also scaled to the reference
    speed by the mean of the probes before and after it."""

    def __init__(self, probing: bool):
        self.probing = probing
        self.probes: list[float] = []
        self.probe_wall = 0.0
        self.wall = self.ref = 0.0
        self._last = self._probe() if probing else CAL_REF_S

    def _probe(self) -> float:
        t0 = perf_counter()
        p = probe_host()
        self.probe_wall += perf_counter() - t0
        self.probes.append(p)
        return p

    def step(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        elapsed = perf_counter() - t0
        self.wall += elapsed
        if self.probing:
            p = self._probe()
            self.ref += elapsed * CAL_REF_S / ((self._last + p) / 2)
            self._last = p
        else:
            self.ref += elapsed
        return out

    def take(self) -> tuple[float, float]:
        """(wall, reference) seconds of the steps since the last take."""
        out = (self.wall, self.ref)
        self.wall = self.ref = 0.0
        return out


# --------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when all hold


def check_training(result, env_cfg, agent_cfg, episodes: int) -> list[str]:
    """Curve lengths, finiteness and ranges of one run_training result."""
    errs = []
    curves = {
        "episode_rewards": result.episode_rewards,
        "episode_efficiency": result.episode_efficiency,
        "episode_feedback_rate": result.episode_feedback_rate,
        "episode_epsilon": result.episode_epsilon,
    }
    lengths = env_cfg.lengths
    best_reward = lengths.payload_bits / (lengths.payload_bits + lengths.co3_bits)
    ranges = {
        "episode_rewards": (-env_cfg.feedback_penalty, best_reward),
        "episode_efficiency": (0.0, 1.0),
        "episode_feedback_rate": (0.0, 1.0),
        "episode_epsilon": (agent_cfg.epsilon_floor, agent_cfg.epsilon_init),
    }
    for name, values in curves.items():
        if len(values) != episodes:
            errs.append(f"{name} has {len(values)} entries, expected {episodes}")
        lo, hi = ranges[name]
        for ep, v in enumerate(values):
            if not (math.isfinite(v) and lo <= v <= hi):
                errs.append(f"{name}[{ep}] = {v!r} outside [{lo}, {hi}]")
    for layer, (w, b) in enumerate(zip(result.params.weights, result.params.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            errs.append(f"trained parameters of layer {layer} are not finite")
    return errs


def curve_bytes(result) -> bytes:
    """Exact serialisation of a training curve, for same-seed comparisons."""
    rows = zip(
        result.episode_rewards,
        result.episode_efficiency,
        result.episode_feedback_rate,
        result.episode_epsilon,
    )
    return "\n".join(",".join(repr(float(v)) for v in row) for row in rows).encode()


def check_checkpoint(params, agent_cfg, path) -> list[str]:
    """save_checkpoint then load_checkpoint must give back equal parameters."""
    agent.save_checkpoint(path, params, agent_cfg, episode=0, epsilon=0.0)
    loaded, loaded_cfg, _ = agent.load_checkpoint(path)
    errs = []
    if not mlp.params_equal(params, loaded):
        errs.append("checkpoint round trip changed the parameters")
    if loaded_cfg != agent_cfg:
        errs.append("checkpoint round trip changed the agent config")
    return errs


def check_trace(label: str, trace, horizon: int) -> list[str]:
    errs = []
    if len(trace) != horizon:
        errs.append(f"{label}: trace has {len(trace)} slots, expected {horizon}")
    for i, (ok, level) in enumerate(zip(trace.decode_success, trace.sigma_d)):
        if bool(ok) != (level == 0):
            errs.append(f"{label}: slot {i} decode_success={ok} but sigma_D={level}")
            break
    return errs


def check_metrics(label: str, m) -> list[str]:
    errs = []
    for name in ("transmission_efficiency", "feedback_rate"):
        v = getattr(m, name)
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            errs.append(f"{label}: {name} = {v!r} outside [0, 1]")
    return errs


def compare_traces(written, reread) -> list[str]:
    """Column-by-column equality, to CSV precision on the real columns."""
    errs = []
    if len(written) != len(reread):
        return [f"csv round trip: {len(reread)} rows read back, {len(written)} written"]
    for field in TRACE_FIELDS:
        a, b = getattr(written, field), getattr(reread, field)
        if field in FLOAT_FIELDS:
            same = all(math.isclose(x, y, rel_tol=CSV_REL_TOL) for x, y in zip(a, b))
        else:
            same = all(x == y for x, y in zip(a, b))
        if not same:
            errs.append(f"csv round trip changed column {field}")
    return errs


def compare_metrics(original, reread) -> list[str]:
    errs = []
    for name in ("transmission_efficiency", "feedback_rate", "decode_success_count"):
        if getattr(original, name) != getattr(reread, name):
            errs.append(f"metrics of the reread trace differ in {name}")
    if not math.isclose(original.mean_reward, reread.mean_reward, rel_tol=CSV_REL_TOL):
        errs.append("metrics of the reread trace differ in mean_reward")
    return errs


def check_eval_set(runs, written, reread, lengths) -> list[str]:
    """runs: (label, env config, trace, metrics) per policy; written is the
    (trace, metrics) pair that went through the CSV round trip."""
    errs = []
    for label, cfg, trace, metrics in runs:
        errs += check_trace(label, trace, cfg.horizon)
        errs += check_metrics(label, metrics)
    trace, metrics = written
    errs += compare_traces(trace, reread)
    errs += compare_metrics(metrics, harness.compute_metrics(reread, lengths))
    return errs


def check_oracle(oracle_values, mismatches: int, mc_values: dict) -> list[str]:
    """oracle_values[k] is the optimum over ORACLE_HORIZONS[k] slots;
    mc_values maps a policy to its Monte-Carlo value over MC_STEPS slots."""
    errs = []
    if mismatches != 0:
        errs.append(f"fsm_check found {mismatches} mismatches")
    for h in range(1, len(oracle_values)):
        if oracle_values[h] < oracle_values[h - 1] - ORACLE_MONOTONE_TOL:
            errs.append(
                f"oracle value fell from {oracle_values[h - 1]!r} to "
                f"{oracle_values[h]!r} at horizon {ORACLE_HORIZONS[h]}"
            )
    bound = oracle_values[ORACLE_HORIZONS.index(MC_STEPS)] + MC_SLACK
    for name, v in mc_values.items():
        if not (math.isfinite(v) and v <= bound):
            errs.append(f"Monte-Carlo value of {name} = {v!r} above oracle + {MC_SLACK}")
    return errs


# --------------------------------------------------------------------------
# workloads


class TrainDesk:
    """run_training at the fig4 preset's base point, desk scale."""

    unit_name = "train_run_s"

    def __init__(self, seed: int, workdir: str):
        cfg = harness.apply_preset(harness.default_config(), "fig4")
        self.env_cfg = harness.make_env_config(cfg)
        self.agent_cfg = harness.make_agent_config(cfg)
        self.seed = seed
        self.checkpoint = os.path.join(workdir, "train.qnet")
        self.slots_per_unit = TRAIN_EPISODES * self.env_cfg.horizon
        self._curves: dict[int, bytes] = {}

    def run_unit(self, index: int, step):
        seed = [self.seed, index % TRAIN_SEEDS]
        return step(agent.run_training, self.env_cfg, self.agent_cfg, TRAIN_EPISODES, seed)

    def check(self, index: int, result) -> list[str]:
        errs = check_training(result, self.env_cfg, self.agent_cfg, TRAIN_EPISODES)
        curve = curve_bytes(result)
        if self._curves.setdefault(index % TRAIN_SEEDS, curve) != curve:
            errs.append(f"unit {index}: same-seed training repeat gave a different curve")
        errs += check_checkpoint(result.params, self.agent_cfg, self.checkpoint)
        return errs

    def quality(self, result) -> dict:
        return {
            "final_episode_efficiency": result.episode_efficiency[-1],
            "final_episode_feedback_rate": result.episode_feedback_rate[-1],
        }


class EvalHeldout:
    """One evaluation set per unit: a greedy agent and KT on the fig4 GE
    point, KT on the fig13 HMM point, and a trace CSV round trip."""

    unit_name = "eval_set_s"

    def __init__(self, seed: int, workdir: str):
        ge = harness.apply_preset(harness.default_config(), "fig4")
        hmm = harness.apply_preset(harness.default_config(), "fig13")
        self.ge_cfg = harness.make_env_config(ge)
        self.hmm_cfg = harness.make_env_config(hmm)
        agent_cfg = harness.make_agent_config(ge)
        spec = agent.EncoderSpec.for_env(self.ge_cfg, agent_cfg)
        params = mlp.init_params(
            agent.mlp_config_for(spec, agent_cfg), np.random.default_rng([seed, 0])
        )
        path = os.path.join(workdir, "eval.qnet")
        agent.save_checkpoint(path, params, agent_cfg, episode=0, epsilon=0.0)
        loaded, _, _ = agent.load_checkpoint(path)
        if not mlp.params_equal(params, loaded):
            raise RuntimeError("checkpoint round trip changed the evaluation network")
        self.policies = (
            ("agent_ge", agent.AgentPolicy(loaded, spec), self.ge_cfg),
            ("kt_ge", baselines.KtPolicy(harness.make_kt_config(ge)), self.ge_cfg),
            ("kt_hmm", baselines.KtPolicy(harness.make_kt_config(hmm)), self.hmm_cfg),
        )
        self.seed = seed
        self.csv_path = os.path.join(workdir, "trace.csv")
        self.slots_per_unit = sum(cfg.horizon for _, _, cfg in self.policies)

    def run_unit(self, index: int, step):
        point_seed = self.seed * 1_000_000 + index
        runs = []
        for label, policy, cfg in self.policies:
            trace, metrics = step(harness.evaluate_policy, policy, cfg, point_seed)
            runs.append((label, cfg, trace, metrics))
        # The HMM trace is the one with a real-valued z_H column.
        _, _, trace, metrics = runs[-1]
        return runs, (trace, metrics), step(self._round_trip, trace)

    def _round_trip(self, trace):
        trace.to_csv(self.csv_path)
        return Trace.from_csv(self.csv_path)

    def check(self, index: int, output) -> list[str]:
        runs, written, reread = output
        return check_eval_set(runs, written, reread, self.hmm_cfg.lengths)

    def quality(self, output) -> dict:
        runs, _, _ = output
        return {f"{label}_efficiency": m.transmission_efficiency for label, _, _, m in runs}


class OracleMc:
    """harness.oracle_check's work: the exact optimum on the tiny instance
    for horizons 1-6, fsm_check, and Monte-Carlo values of the five check
    policies over MC_ROLLOUTS rollouts of MC_STEPS slots each."""

    unit_name = "oracle_check_s"

    def __init__(self, seed: int, workdir: str):
        self.cfg = harness.tiny_oracle_config()
        self.policies = (
            ("fixed_ir", baselines.FixedPolicy(HeaderType.IR)),
            ("fixed_co7", baselines.FixedPolicy(HeaderType.CO7)),
            ("fixed_co3", baselines.FixedPolicy(HeaderType.CO3)),
            ("random", baselines.RandomPolicy()),
            ("kt_always", baselines.KtPolicy(baselines.KtConfig(w=self.cfg.w, feedback_prob=1.0))),
        )
        self.seed = seed
        self.slots_per_unit = len(self.policies) * MC_ROLLOUTS * MC_STEPS

    def run_unit(self, index: int, step):
        values, mismatches = step(self._exact_checks)
        mc = {
            name: step(
                baselines.mc_discounted_value,
                policy, self.cfg, MC_STEPS, MC_ROLLOUTS, [self.seed, index],
            )
            for name, policy in self.policies
        }
        return values, mismatches, mc

    def _exact_checks(self):
        values = [baselines.exact_oracle(self.cfg, h).value for h in ORACLE_HORIZONS]
        mismatches, _ = harness.fsm_check()
        return values, mismatches

    def check(self, index: int, output) -> list[str]:
        return check_oracle(*output)

    def quality(self, output) -> dict:
        values, _, mc = output
        oracle = values[ORACLE_HORIZONS.index(MC_STEPS)]
        return {f"{name}_oracle_gap": oracle - v for name, v in mc.items()}


WORKLOADS = {"train_desk": TrainDesk, "eval_heldout": EvalHeldout, "oracle_mc": OracleMc}


# --------------------------------------------------------------------------
# worker


class Tally:
    """Unit timings, check outcomes and quality numbers of one phase."""

    def __init__(self):
        self.unit_s: list[float] = []
        self.unit_ref_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quality: dict[str, list[float]] = {}

    def record(self, errs: list[str], quality: dict) -> None:
        self.attempted += 1
        self.failed += bool(errs)
        self.failures += errs[: MAX_REPORTED_FAILURES - len(self.failures)]
        for key, value in quality.items():
            self.quality.setdefault(key, []).append(float(value))


def measure(workload, seconds: float, first_index: int, tally: Tally, meter: Meter, tracer=None) -> int:
    """Run units until their summed wall time reaches `seconds`; probes and
    checks run outside the timed part.  Returns the next unit index."""
    index = first_index
    spent = 0.0
    while spent < seconds:
        if tracer is not None:
            tracer.begin_unit()
        output = workload.run_unit(index, meter.step)
        if tracer is not None:
            tracer.end_unit()
        wall, ref = meter.take()
        spent += wall
        tally.unit_s.append(wall)
        tally.unit_ref_s.append(ref)
        tally.record(workload.check(index, output), workload.quality(output))
        index += 1
    return index


def versions() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"worker needs {', '.join(unpinned)}=1; start it through bench/run.py", file=sys.stderr)
        return 2

    meter = Meter(probing=not args.trace)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tally = Tally()
    output = workload.run_unit(0, meter.step)
    meter.take()
    tally.record(workload.check(0, output), workload.quality(output))
    # run.py measures set-up from process start to this line.  It subtracts
    # the probes' own time and scales by the median probe, and it counts the
    # warm-up unit's checks of set-up-only workers from here.
    scale = CAL_REF_S / statistics.median(meter.probes) if meter.probes else 1.0
    print(f"READY {tally.attempted} {tally.failed} {meter.probe_wall!r} {scale!r}", flush=True)
    if args.mode == "setup":
        return 0

    result = {"unit_name": workload.unit_name, "slots_per_unit": workload.slots_per_unit}
    if args.trace:
        untraced = Tally()
        index = measure(workload, args.seconds / 2, 1, untraced, meter)
        untraced_sps = workload.slots_per_unit * len(untraced.unit_s) / sum(untraced.unit_s)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        measure(workload, args.seconds / 2, index, tally, meter, tracer)
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed
        tally.failures += untraced.failures
        result["per_layer"] = tracing.per_layer_metrics(
            tracer, workload.slots_per_unit, untraced_sps
        )
        result["spans"] = tracer.spans()
        result["missing_targets"] = tracer.missing
        result["untraced_unit_s"] = untraced.unit_s
    else:
        measure(workload, args.seconds, 1, tally, meter)
    result.update(
        unit_s=tally.unit_s,
        unit_ref_s=tally.unit_ref_s,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures[:MAX_REPORTED_FAILURES],
        quality=tally.quality,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=versions(),
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
