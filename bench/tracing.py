"""Span tracing around the public functions of bdrohc, from outside the package.

Each traced function is replaced, where its caller looks it up, by a wrapper
that records a span.  Modules bind imported names at import time, so
``bdrohc.env.decompressor_step`` (not ``bdrohc.core.decompressor_step``) is
the name the environment calls, and methods are replaced on their class.

Spans are kept as per-(name, parent) aggregates of count, total time and
self time (duration minus the time covered by child spans), which keeps
memory bounded however many per-slot calls a unit makes.  The MLP kernels
also accumulate computed operation counts derived from the layer widths and
the rows of each call.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

import numpy as np

from bdrohc import agent, baselines, channels, env, harness

UNIT_SPAN = "bench.unit"

# Span name -> the (owner, attribute) pairs it replaces.  Owners are modules
# (the caller's namespace) or classes (for methods).
TARGETS = {
    "core.decompressor_step": [
        (env, "decompressor_step"),
        (baselines, "decompressor_step"),
        (harness, "decompressor_step"),
    ],
    "core.source_step": [(env, "source_step")],
    "channels.ge_step": [(env, "ge_step")],
    "channels.hmm_step": [(env, "hmm_step"), (channels, "hmm_step")],
    "channels.transmission": [(env, "ge_transmission"), (env, "hmm_transmission")],
    "channels.observe": [
        (env, "observe_transmission"),
        (env, "observe_channel_ge"),
        (env, "observe_channel_hmm"),
    ],
    "env.step": [(env.RohcEnv, "step")],
    "env.reset": [(env.RohcEnv, "reset")],
    "env.trace_append": [(env.Trace, "append")],
    "env.trace_csv": [(env.Trace, "to_csv"), (env.Trace, "from_csv")],
    "env.run_episode": [(harness, "run_episode")],
    "mlp.forward": [(agent, "forward")],
    "mlp.forward_batch": [(agent, "forward_batch")],
    "mlp.batch_td_loss_grad": [(agent, "batch_td_loss_grad")],
    "mlp.sgd_step": [(agent, "sgd_step")],
    "agent.run_training": [(agent, "run_training")],
    "agent.encode": [(agent, "encode")],
    "agent.window_push": [(agent.HistoryWindow, "push")],
    "agent.train_step": [(agent, "train_step")],
    "agent.replay_push": [(agent.ReplayMemory, "push")],
    "agent.replay_sample": [(agent.ReplayMemory, "sample")],
    "baselines.policy_act": [
        (baselines.KtPolicy, "act"),
        (baselines.FixedPolicy, "act"),
        (baselines.RandomPolicy, "act"),
        (agent.AgentPolicy, "act"),
    ],
    "baselines.discounted_return": [(baselines, "discounted_return")],
    "baselines.mc_discounted_value": [(baselines, "mc_discounted_value")],
    "baselines.exact_oracle": [(baselines, "exact_oracle")],
    "harness.evaluate_policy": [(harness, "evaluate_policy")],
    "harness.compute_metrics": [(harness, "compute_metrics")],
    "harness.fsm_check": [(harness, "fsm_check")],
}

# Per-layer metrics reported by a traced run, with units.  Every value is
# per timed unit unless the unit says otherwise.
PER_LAYER = (
    ("core.decompressor_step.calls", "count/unit"),
    ("core.decompressor_step.self_s", "s/unit"),
    ("core.source_step.self_s", "s/unit"),
    ("channels.ge_step.self_s", "s/unit"),
    ("channels.hmm_step.self_s", "s/unit"),
    ("channels.transmission.self_s", "s/unit"),
    ("channels.observe.self_s", "s/unit"),
    ("env.step.calls", "count/unit"),
    ("env.step.self_s", "s/unit"),
    ("env.trace_append.self_s", "s/unit"),
    ("env.reset.calls", "count/unit"),
    ("env.reset.self_s", "s/unit"),
    ("env.slots_per_reset", "slots"),
    ("env.trace_csv.self_s", "s/unit"),
    ("env.trace_csv.bytes", "B/unit"),
    ("env.run_episode.self_s", "s/unit"),
    ("mlp.forward.calls", "count/unit"),
    ("mlp.forward.self_s", "s/unit"),
    ("mlp.forward.rows_per_call", "rows"),
    ("mlp.forward.flops_computed", "flop/unit"),
    ("mlp.forward.bytes_computed", "B/unit"),
    ("mlp.forward.gflops", "GFLOP/s"),
    ("mlp.forward_batch.calls", "count/unit"),
    ("mlp.forward_batch.self_s", "s/unit"),
    ("mlp.forward_batch.rows_per_call", "rows"),
    ("mlp.forward_batch.flops_computed", "flop/unit"),
    ("mlp.forward_batch.bytes_computed", "B/unit"),
    ("mlp.forward_batch.gflops", "GFLOP/s"),
    ("mlp.batch_td_loss_grad.calls", "count/unit"),
    ("mlp.batch_td_loss_grad.self_s", "s/unit"),
    ("mlp.batch_td_loss_grad.flops_computed", "flop/unit"),
    ("mlp.batch_td_loss_grad.bytes_computed", "B/unit"),
    ("mlp.batch_td_loss_grad.gflops", "GFLOP/s"),
    ("mlp.sgd_step.self_s", "s/unit"),
    ("agent.run_training.self_s", "s/unit"),
    ("agent.encode.calls", "count/unit"),
    ("agent.encode.self_s", "s/unit"),
    ("agent.window_push.self_s", "s/unit"),
    ("agent.train_step.self_s", "s/unit"),
    ("agent.replay_push.self_s", "s/unit"),
    ("agent.replay_sample.self_s", "s/unit"),
    ("agent.replay_fill", "share"),
    ("baselines.policy_act.self_s", "s/unit"),
    ("baselines.discounted_return.self_s", "s/unit"),
    ("baselines.mc_discounted_value.self_s", "s/unit"),
    ("baselines.exact_oracle.s", "s/unit"),
    ("harness.evaluate_policy.self_s", "s/unit"),
    ("harness.compute_metrics.self_s", "s/unit"),
    ("harness.fsm_check.self_s", "s/unit"),
    ("bench.unit.self_s", "s/unit"),
    ("trace.unit_s", "s"),
    ("trace.slots_per_s", "1/s"),
    ("trace.untraced_slots_per_s", "1/s"),
    ("trace.overhead_share", "share"),
    ("trace.layer_self_share", "share"),
)

_F8 = 8  # bytes per float64


def _layers(params):
    return [w.shape for w in params.weights]


def forward_ops(params, rows: int) -> tuple[int, int]:
    """Computed (FLOPs, bytes) of a forward pass over `rows` inputs: a
    multiply-add per weight and an add per bias per row; weights and biases
    read once, each layer's input read and output written once."""
    flops = 0
    nbytes = 0
    for out_w, in_w in _layers(params):
        flops += rows * (2 * in_w * out_w + out_w)
        nbytes += _F8 * (in_w * out_w + out_w + rows * (in_w + out_w))
    return flops, nbytes


def td_grad_ops(params, rows: int) -> tuple[int, int]:
    """Computed (FLOPs, bytes) of batch_td_loss_grad: the forward pass, then
    per layer the weight gradient (delta^T @ input), the bias gradient and,
    below the top layer, delta @ W with the ReLU mask."""
    flops, nbytes = forward_ops(params, rows)
    for layer, (out_w, in_w) in enumerate(_layers(params)):
        flops += rows * (2 * in_w * out_w + out_w)
        nbytes += _F8 * (in_w * out_w + out_w + rows * (in_w + out_w))
        if layer > 0:
            flops += rows * (2 * out_w * in_w + in_w)
            nbytes += _F8 * (in_w * out_w + 2 * rows * in_w)
    return flops, nbytes


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) == 1 else shape[0]


class Tracer:
    """Aggregating span recorder; records only while `active`."""

    def __init__(self):
        self.active = False
        self.units = 0
        self.unit_wall = 0.0
        self._unit_start = 0.0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self.agg: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        entry = self.agg.get((name, parent))
        if entry is None:
            entry = self.agg[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def begin_unit(self) -> None:
        self.active = True
        self.enter(UNIT_SPAN)
        self._unit_start = perf_counter()

    def end_unit(self) -> None:
        self.unit_wall += perf_counter() - self._unit_start
        self.exit()
        self.active = False
        self.units += 1

    def by_name(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds], over all parents."""
        out: dict[str, list] = {}
        for (name, _), (count, total, own) in self.agg.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += count
            acc[1] += total
            acc[2] += own
        return out

    def spans(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
        ]


def _mlp_counter(tracer: Tracer, name: str, ops):
    def count(args):
        params, x = args[0], args[1]
        rows = _rows(x)
        flops, nbytes = ops(params, rows)
        tracer.add(name + ".rows", rows)
        tracer.add(name + ".flops", flops)
        tracer.add(name + ".bytes", nbytes)
    return count


def _csv_counter(tracer: Tracer):
    def count(args):
        tracer.add("env.trace_csv.bytes", os.path.getsize(args[1]))
    return count


def _replay_counter(tracer: Tracer):
    def count(args):
        memory = args[0]
        fill = len(memory) / memory.capacity
        tracer.counters["agent.replay_fill"] = max(
            tracer.counters.get("agent.replay_fill", 0.0), fill
        )
    return count


def _wrap(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            counter(args)
        return result
    return traced


def install(tracer: Tracer) -> None:
    """Replace every target with a tracing wrapper.  A target that the
    package no longer has is skipped and listed in tracer.missing, so its
    metrics read 0 instead of the benchmark failing."""
    counters = {
        "agent.forward": _mlp_counter(tracer, "mlp.forward", forward_ops),
        "agent.forward_batch": _mlp_counter(tracer, "mlp.forward_batch", forward_ops),
        "agent.batch_td_loss_grad": _mlp_counter(tracer, "mlp.batch_td_loss_grad", td_grad_ops),
        "ReplayMemory.sample": _replay_counter(tracer),
        "Trace.to_csv": _csv_counter(tracer),
    }
    for name, targets in TARGETS.items():
        for owner, attr in targets:
            where = f"{owner.__name__.rpartition('.')[2]}.{attr}"
            raw = owner.__dict__.get(attr)
            if raw is None:
                tracer.missing.append(where)
                print(f"tracing: {where} not found, skipped", file=sys.stderr)
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            traced = _wrap(tracer, name, raw.__func__ if kind else raw, counters.get(where))
            setattr(owner, attr, kind(traced) if kind else traced)


def per_layer_metrics(tracer: Tracer, slots_per_unit: int, untraced_slots_per_s: float) -> dict:
    """The PER_LAYER values for the traced units recorded so far."""
    n = max(tracer.units, 1)
    names = tracer.by_name()
    counters = tracer.counters

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return names.get(name, [0, 0.0, 0.0])[2]

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, _, quantity = metric.rpartition(".")
        if quantity == "calls":
            values[metric] = calls(layer) / n
        elif quantity == "self_s":
            values[metric] = self_s(layer) / n
    for kernel in ("mlp.forward", "mlp.forward_batch", "mlp.batch_td_loss_grad"):
        flops = counters.get(kernel + ".flops", 0.0)
        own = self_s(kernel)
        values[kernel + ".rows_per_call"] = counters.get(kernel + ".rows", 0.0) / max(calls(kernel), 1)
        values[kernel + ".flops_computed"] = flops / n
        values[kernel + ".bytes_computed"] = counters.get(kernel + ".bytes", 0.0) / n
        values[kernel + ".gflops"] = flops / own / 1e9 if own > 0 else 0.0
    values["env.slots_per_reset"] = calls("env.step") / max(calls("env.reset"), 1)
    values["env.trace_csv.bytes"] = counters.get("env.trace_csv.bytes", 0.0) / n
    values["agent.replay_fill"] = counters.get("agent.replay_fill", 0.0)
    values["baselines.exact_oracle.s"] = names.get("baselines.exact_oracle", [0, 0.0, 0.0])[1] / n

    wall = tracer.unit_wall
    layer_self = sum(own for name, (_, _, own) in names.items() if name != UNIT_SPAN)
    traced_sps = slots_per_unit * tracer.units / wall if wall > 0 else 0.0
    values["trace.unit_s"] = wall / n
    values["trace.slots_per_s"] = traced_sps
    values["trace.untraced_slots_per_s"] = untraced_slots_per_s
    values["trace.overhead_share"] = 1.0 - traced_sps / untraced_slots_per_s if untraced_slots_per_s > 0 else 0.0
    values["trace.layer_self_share"] = layer_self / wall if wall > 0 else 0.0
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}
