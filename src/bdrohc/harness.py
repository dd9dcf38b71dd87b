"""Experiment harness: flat config files, metric reports (compute_metrics
and MetricsReport live beside Trace in env and are re-exported here),
sweep and adaptation runs, and the built-in consistency checks behind the
CLI.

Config files are lines of ``section.key = value``; every key must appear in
the schema below.  Sweeps repeat the train/evaluate cycle once per sweep
value with a per-point seed of ``seed + point index``, and each trained
policy is paired with a KT run whose feedback probability matches the
trained policy's measured feedback rate.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .agent import (
    AgentConfig,
    AgentPolicy,
    EncoderSpec,
    run_training,
)
from .baselines import (
    FixedPolicy,
    KtConfig,
    KtPolicy,
    RandomPolicy,
    exact_oracle,
    mc_discounted_value,
)
from .channels import GilbertElliotConfig, HmmChannelConfig, ObsNoiseConfig
from .core import HeaderLengths, HeaderType, SourceDynamics, decompressor_step
from .env import EnvConfig, MetricsReport, Policy, compute_metrics, run_episode, write_csv  # noqa: F401


# --------------------------------------------------------------------------
# flat config schema

# Keys that set one EnvConfig or AgentConfig field; their defaults are the
# dataclasses' own.
_FIELDS: dict[str, tuple[type, str]] = {
    "env.w": (EnvConfig, "w"),
    "env.d": (EnvConfig, "delay"),
    "env.t": (EnvConfig, "horizon"),
    "env.lambda": (EnvConfig, "feedback_penalty"),
    "env.gamma": (EnvConfig, "discount"),
    "agent.eta": (AgentConfig, "learning_rate"),
    "agent.gamma_eps": (AgentConfig, "epsilon_decay"),
    "agent.eps_floor": (AgentConfig, "epsilon_floor"),
    "agent.batch": (AgentConfig, "batch_size"),
    "agent.replay": (AgentConfig, "replay_capacity"),
    "agent.k": (AgentConfig, "grad_steps"),
    "agent.d0": (AgentConfig, "history_extra"),
    "agent.width": (AgentConfig, "hidden_width"),
    "agent.depth": (AgentConfig, "depth"),
    "agent.double_argmax": (AgentConfig, "double_argmax"),
}

_SCHEMA: dict[str, object] = {
    "env.channel": "ge",
    "env.l": 20,
    "env.l0": 60,
    "env.l1": 15,
    "env.l2": 1,
    "obs.eps_t": 0.1,
    "obs.eps_h": 0.1,
    "ge.l_b": 5.0,
    "ge.eps_b": 0.2,
    "ge.beta1": 0.9,
    "ge.beta0": 0.1,
    "hmm.rho": 0.5,
    "hmm.d_h": 4,
    "hmm.p_t": 2.0,
    "hmm.omega_sq": 1.0,
    "source.p_one_after_zero": 1.0,
    "source.p_zero_after_one": 0.1,
    **{
        key: next(f.default for f in fields(owner) if f.name == name)
        for key, (owner, name) in _FIELDS.items()
    },
    "kt.p_f": 0.2,
    "run.m": 100,
    "run.policy": "rl",
    "run.checkpoint": "",
    "run.trace": "",
    "sweep.param": "",
    "sweep.values": "",
    "adapt.schedule": "",
}


def default_config() -> dict:
    return dict(_SCHEMA)


def _coerce(key: str, raw: str):
    """Read raw as the type of key's default; the error names the key."""
    kind = type(_SCHEMA[key])
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key} expects a boolean, got {raw!r}")
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            noun = "an integer" if kind is int else "a float"
            raise ValueError(f"{key} expects {noun}, got {raw!r}") from None
    return raw


def parse_config(text: str, base: dict | None = None) -> dict:
    """Overlay ``key = value`` lines onto the schema defaults."""
    cfg = dict(_SCHEMA) if base is None else dict(base)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            cfg[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return cfg


def load_config(path, base: dict | None = None) -> dict:
    with open(path) as fh:
        return parse_config(fh.read(), base)


def _table_fields(owner: type, cfg: dict) -> dict:
    """owner's tabled fields, each read from cfg as its default's type."""
    return {
        name: type(_SCHEMA[key])(cfg[key])
        for key, (cls, name) in _FIELDS.items()
        if cls is owner
    }


def make_env_config(cfg: dict) -> EnvConfig:
    kind = cfg["env.channel"]
    if kind == "ge":
        channel = GilbertElliotConfig(
            mean_bad_duration=float(cfg["ge.l_b"]),
            eps_b=float(cfg["ge.eps_b"]),
            good_success=float(cfg["ge.beta1"]),
            bad_success=float(cfg["ge.beta0"]),
        )
    elif kind == "hmm":
        channel = HmmChannelConfig(
            correlation=float(cfg["hmm.rho"]),
            order=int(cfg["hmm.d_h"]),
            tx_power=float(cfg["hmm.p_t"]),
            obs_noise_var=float(cfg["hmm.omega_sq"]),
        )
    else:
        raise ValueError(f"env.channel must be 'ge' or 'hmm', got {kind!r}")
    return EnvConfig(
        lengths=HeaderLengths(
            int(cfg["env.l"]), int(cfg["env.l0"]), int(cfg["env.l1"]), int(cfg["env.l2"])
        ),
        channel=channel,
        noise=ObsNoiseConfig(float(cfg["obs.eps_t"]), float(cfg["obs.eps_h"])),
        source=SourceDynamics.first_order(
            float(cfg["source.p_one_after_zero"]), float(cfg["source.p_zero_after_one"])
        ),
        **_table_fields(EnvConfig, cfg),
    )


def make_agent_config(cfg: dict) -> AgentConfig:
    return AgentConfig(**_table_fields(AgentConfig, cfg))


def training_episodes(cfg: dict) -> int:
    """run.m, the number of training episodes; refused when negative."""
    episodes = int(cfg["run.m"])
    if episodes < 0:
        raise ValueError(f"run.m must be >= 0, got {episodes}")
    return episodes


def make_kt_config(cfg: dict, feedback_prob: float | None = None) -> KtConfig:
    p = float(cfg["kt.p_f"]) if feedback_prob is None else float(feedback_prob)
    return KtConfig(w=int(cfg["env.w"]), feedback_prob=p)


# The keys a sweep point reads besides the table: on every channel, then
# per channel (the fading channel's observation is its noisy envelope, so
# obs.eps_h goes unused there).
_POINT_KEYS = (
    "run.m", "env.channel", "env.l", "env.l0", "env.l1", "env.l2", "obs.eps_t",
    "source.p_one_after_zero", "source.p_zero_after_one",
)
_CHANNEL_KEYS = {
    "ge": ("obs.eps_h", "ge.l_b", "ge.eps_b", "ge.beta1", "ge.beta0"),
    "hmm": ("hmm.rho", "hmm.d_h", "hmm.p_t", "hmm.omega_sq"),
}


def parse_sweep_values(cfg: dict) -> list:
    param = cfg["sweep.param"]
    raw = str(cfg["sweep.values"]).strip()
    if not param:
        return []
    if param not in _SCHEMA:
        raise ValueError(f"sweep.param {param!r} is not a known config field")
    channel = cfg["env.channel"]
    if param not in (*_FIELDS, *_POINT_KEYS, *_CHANNEL_KEYS.get(channel, ())):
        raise ValueError(
            f"sweep.param {param!r} is not read by a sweep point on env.channel = {channel}; "
            "its rows would differ only by their seeds"
        )
    if not raw:
        raise ValueError("sweep.values is empty")
    try:
        return [_coerce(param, piece) for piece in raw.split(",")]
    except ValueError as exc:
        raise ValueError(f"sweep.values: {exc}") from None


def parse_adapt_schedule(cfg: dict) -> list[tuple[int, float]]:
    raw = str(cfg["adapt.schedule"]).strip()
    if not raw:
        return []
    out = []
    for piece in raw.split(","):
        ep, _, val = piece.partition(":")
        try:
            out.append((int(ep), float(val)))
        except ValueError:
            raise ValueError(
                f"adapt.schedule entries are 'episode:eps_b', got {piece!r}"
            ) from None
    out.sort()
    for (episode, _), (following, _) in zip(out, out[1:]):
        if episode == following:
            raise ValueError(f"adapt.schedule lists episode {episode} more than once")
    return out


# --------------------------------------------------------------------------
# presets

_DESK = {
    "run.m": 100,
    "env.t": 2000,
    "agent.width": 128,
    "agent.eta": 1e-3,
    "agent.gamma_eps": 0.95,
}

_HMM_BASE = {
    "env.channel": "hmm",
    "env.d": 8,
    "hmm.d_h": 4,
    "hmm.rho": 0.5,
    "hmm.p_t": 2.0,
    "hmm.omega_sq": 1.0,
}

PRESETS: dict[str, dict] = {
    "fig4": {**_DESK, "sweep.param": "ge.eps_b", "sweep.values": "0.1,0.2,0.3,0.4,0.5"},
    "fig5": {**_DESK, "sweep.param": "env.d", "sweep.values": "2,4,6,8"},
    "fig6": {**_DESK, "sweep.param": "obs.eps_t", "sweep.values": "0.1,0.2,0.3,0.4"},
    "fig7": {**_DESK, "sweep.param": "obs.eps_h", "sweep.values": "0.1,0.2,0.3,0.4"},
    "fig8": {**_DESK, "sweep.param": "env.l", "sweep.values": "10,20,40,80"},
    "fig13": {**_DESK, **_HMM_BASE, "sweep.param": "hmm.p_t", "sweep.values": "1,2,3,4"},
    "fig14": {**_DESK, **_HMM_BASE, "sweep.param": "hmm.rho", "sweep.values": "0.1,0.3,0.5,0.7,0.9"},
    "fig15": {**_DESK, **_HMM_BASE, "sweep.param": "hmm.omega_sq", "sweep.values": "0.25,0.5,1,2"},
}

PAPER_SCALE = {
    "run.m": 3000,
    "env.t": 10000,
    "agent.width": 2048,
    "agent.eta": 1e-4,
    "agent.gamma_eps": 0.995,
}


def apply_preset(cfg: dict, preset: str | None, paper_scale: bool = False) -> dict:
    out = dict(cfg)
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}")
        out.update(PRESETS[preset])
    if paper_scale:
        out.update(PAPER_SCALE)
    return out


# --------------------------------------------------------------------------
# experiment drivers

RESULT_COLUMNS = (
    "sweep_param",
    "sweep_value",
    "policy",
    "efficiency",
    "feedback_rate",
    "mean_reward",
    "seed",
)

CURVE_COLUMNS = ("episode", "mean_reward", "efficiency", "feedback_rate", "epsilon")


def result_row(param: str, value: str, policy: str, metrics: MetricsReport, seed: int) -> dict:
    """One row of a result file, keyed by RESULT_COLUMNS."""
    return {
        "sweep_param": param,
        "sweep_value": value,
        "policy": policy,
        "efficiency": metrics.transmission_efficiency,
        "feedback_rate": metrics.feedback_rate,
        "mean_reward": metrics.mean_reward,
        "seed": seed,
    }


def write_result_csv(path, rows) -> None:
    write_csv(path, RESULT_COLUMNS, ([row[c] for c in RESULT_COLUMNS] for row in rows))


def write_curve_csv(path, result) -> None:
    write_csv(
        path,
        CURVE_COLUMNS,
        zip(
            range(len(result.episode_rewards)),
            result.episode_rewards,
            result.episode_efficiency,
            result.episode_feedback_rate,
            result.episode_epsilon,
        ),
    )


def eval_seed_for(point_seed: int):
    """Held-out evaluation stream, disjoint from every training stream."""
    return np.random.SeedSequence([int(point_seed), 2])


def evaluate_policy(policy: Policy, env_cfg: EnvConfig, point_seed: int):
    trace = run_episode(policy, env_cfg, eval_seed_for(point_seed))
    return trace, compute_metrics(trace, env_cfg.lengths)


def train_point(cfg: dict, point_seed: int):
    """Train on one config point; returns (params, spec, training result)."""
    env_cfg = make_env_config(cfg)
    agent_cfg = make_agent_config(cfg)
    result = run_training(env_cfg, agent_cfg, training_episodes(cfg), point_seed)
    spec = EncoderSpec.for_env(env_cfg, agent_cfg)
    return result.params, spec, result


def run_experiment(cfg: dict, seed: int, out_path=None):
    """Sweep driver.  For each sweep value: train the agent, evaluate it
    greedily on a held-out stream, then evaluate KT at the agent's measured
    feedback rate.  Returns the result rows; optionally writes them."""
    values = parse_sweep_values(cfg)
    points = values if values else [None]
    param = cfg["sweep.param"] if values else ""
    rows = []
    for index, value in enumerate(points):
        point = dict(cfg)
        if value is not None:
            point[param] = value
        point_seed = int(seed) + index
        env_cfg = make_env_config(point)
        params, spec, _ = train_point(point, point_seed)
        rl_trace, rl_metrics = evaluate_policy(AgentPolicy(params, spec), env_cfg, point_seed)
        kt_cfg = make_kt_config(point, feedback_prob=rl_metrics.feedback_rate)
        _, kt_metrics = evaluate_policy(KtPolicy(kt_cfg), env_cfg, point_seed)
        shown = "" if value is None else str(value)
        rows.append(result_row(param, shown, "rl", rl_metrics, point_seed))
        rows.append(result_row(param, shown, "kt", kt_metrics, point_seed))
    if out_path is not None:
        write_result_csv(out_path, rows)
    return rows


def adapt_experiment(cfg: dict, seed: int, out_path=None):
    """Train once while the channel parameter switches mid-run, without
    resetting the network; returns the per-episode training result."""
    schedule = parse_adapt_schedule(cfg)
    episodes = training_episodes(cfg)
    if schedule and cfg["env.channel"] == "hmm":
        raise ValueError(
            "adapt.schedule switches ge.eps_b, which the hmm channel does not "
            "use; adapt runs need env.channel = ge"
        )
    for episode, _ in schedule:
        if not 0 <= episode < episodes:
            raise ValueError(
                f"adapt.schedule episode {episode} lies outside 0..{episodes - 1} "
                f"(run.m = {episodes})"
            )
    env_cfg = make_env_config(cfg)
    agent_cfg = make_agent_config(cfg)
    env_schedule = []
    for episode, eps_b in schedule:
        point = dict(cfg)
        point["ge.eps_b"] = eps_b
        env_schedule.append((episode, make_env_config(point)))
    result = run_training(env_cfg, agent_cfg, episodes, seed, env_schedule=env_schedule)
    if out_path is not None:
        write_curve_csv(out_path, result)
    return result


# --------------------------------------------------------------------------
# built-in checks (independent transcriptions of the transition table and
# the tiny-instance optimum, used by the CLI self-check commands)

def _reference_next_level(v: int, w: int, header: HeaderType, tx: int, comp: int):
    """Second, table-style transcription of the context transitions.
    Returns (target, number of matching rules); exactly one rule must fire."""
    co3 = header == HeaderType.CO3
    if v <= w - 1:
        rules = [
            (0, tx == 1 and (comp == 1 or not co3)),
            (v + 1, tx == 0 and comp == 1),
            (w, comp == 0 and (tx == 0 or co3)),
        ]
    elif v == w:
        rules = [(0, tx == 1 and not co3), (w, tx == 0 or co3)]
    else:
        rules = [(0, tx == 1 and header == HeaderType.IR), (w + 1, tx == 0 or header != HeaderType.IR)]
    hits = [target for target, cond in rules if cond]
    return hits, len(hits)


def fsm_check(ws=(5, 1)) -> tuple[int, list[str]]:
    """Exhaustive comparison of decompressor_step against the reference
    table for every (state, header, arrival, compressibility) case.
    Returns (number of mismatches, report lines)."""
    lines = []
    bad = 0
    for w in ws:
        cases = 0
        for v in range(w + 2):
            for header in HeaderType:
                for tx in (0, 1):
                    for comp in (0, 1):
                        cases += 1
                        hits, n = _reference_next_level(v, w, header, tx, comp)
                        got = decompressor_step(v, header, tx, comp, w)
                        if n != 1 or got != hits[0]:
                            bad += 1
                            lines.append(
                                f"  mismatch w={w} v={v} header={header.name} "
                                f"tx={tx} comp={comp}: rules={hits} step={got}"
                            )
        lines.append(f"w={w}: {cases} cases checked")
    return bad, lines


def oracle_check(seed: int = 0) -> tuple[int, list[str]]:
    """Tiny-instance sanity run: the exact optimum must upper bound
    Monte Carlo estimates of several simple policies."""
    cfg = tiny_oracle_config()
    horizon = 3
    rollouts = 4000
    oracle = exact_oracle(cfg, horizon)
    lines = [f"oracle value over {horizon} slots: {oracle.value:.6f}"]
    failures = 0
    policies = [
        ("fixed-ir", FixedPolicy(HeaderType.IR)),
        ("fixed-co7", FixedPolicy(HeaderType.CO7)),
        ("fixed-co3", FixedPolicy(HeaderType.CO3)),
        ("random", RandomPolicy()),
        ("kt-always", KtPolicy(KtConfig(w=cfg.w, feedback_prob=1.0))),
    ]
    for name, policy in policies:
        est = mc_discounted_value(policy, cfg, horizon, rollouts, seed)
        ok = est <= oracle.value + 0.02
        failures += 0 if ok else 1
        lines.append(f"  {name}: {est:.6f} {'<=' if ok else '>'} oracle+0.02")
    return failures, lines


def tiny_oracle_config() -> EnvConfig:
    """Smallest fully observable instance: zero delay, one full-context
    level, noiseless observations, moderate two-state channel."""
    return EnvConfig(
        lengths=HeaderLengths(20, 60, 15, 1),
        channel=GilbertElliotConfig(5.0, 0.5, 0.9, 0.3),
        noise=ObsNoiseConfig(0.0, 0.0),
        source=SourceDynamics.first_order(1.0, 0.1),
        w=1,
        delay=0,
        feedback_penalty=0.01,
        discount=0.95,
        horizon=2000,
    )


def degenerate_config() -> EnvConfig:
    """Perfect channel, always-compressible flow, zero delay."""
    return EnvConfig(
        lengths=HeaderLengths(20, 60, 15, 1),
        channel=GilbertElliotConfig(5.0, 0.5, 1.0, 1.0),
        noise=ObsNoiseConfig(0.0, 0.0),
        source=SourceDynamics.constant(1),
        w=5,
        delay=0,
        feedback_penalty=0.01,
        discount=0.95,
        horizon=2000,
    )
