"""Command line front end.

Subcommands: train, eval, sweep, adapt, fsm-check, oracle-check.  Config
resolution order: schema defaults, then --preset, then --paper-scale, then
the --config file.  Exit status 0 on success, 2 on validation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import harness
from .agent import AgentPolicy, EncoderSpec, run_training, save_checkpoint, load_checkpoint
from .baselines import FixedPolicy, KtPolicy, RandomPolicy
from .core import HeaderType


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdrohc",
        description="Header compression simulator and learned compressor policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    preset_names = sorted(harness.PRESETS)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument("--out", help="output path")
        p.add_argument("--preset", choices=preset_names, help="named sweep preset")
        p.add_argument(
            "--paper-scale",
            action="store_true",
            help="switch to the long training schedule (3000 episodes of 10000 slots, width 2048)",
        )

    common(sub.add_parser("train", help="train the agent, write curve and checkpoint"))
    common(sub.add_parser("eval", help="evaluate a policy on a held-out stream"))
    common(sub.add_parser("sweep", help="train and evaluate across a sweep axis"))
    common(sub.add_parser("adapt", help="train across mid-run channel switches"))
    common(sub.add_parser("fsm-check", help="exhaustively verify the context state machine"))
    common(sub.add_parser("oracle-check", help="verify the tiny-instance optimum bound"))
    return parser


def _resolve_config(args) -> dict:
    cfg = harness.default_config()
    cfg = harness.apply_preset(cfg, args.preset, args.paper_scale)
    if args.config:
        cfg = harness.load_config(args.config, base=cfg)
    return cfg


# Why a command that does not use a key refuses it.
_WHY_REFUSED = {
    "adapt.schedule": "only adapt runs a schedule",
    "run.trace": "only eval writes a trace",
    "run.checkpoint": "only eval with run.policy = rl loads a checkpoint",
}


def _refuse_ignored(cfg, command: str, keys) -> None:
    """Refuse a set key that command would silently ignore."""
    for key in keys:
        if cfg[key]:
            raise ValueError(f"{key} is set, but {command} ignores it; {_WHY_REFUSED[key]}")


def _cmd_train(args, cfg) -> int:
    _refuse_ignored(cfg, "train", ("adapt.schedule", "run.trace", "run.checkpoint"))
    out = args.out or "train_curve.csv"
    env_cfg = harness.make_env_config(cfg)
    agent_cfg = harness.make_agent_config(cfg)
    episodes = harness.training_episodes(cfg)
    result = run_training(env_cfg, agent_cfg, episodes, args.seed)
    harness.write_curve_csv(out, result)
    ckpt = out + ".params"
    epsilon = result.episode_epsilon[-1] if result.episode_epsilon else agent_cfg.epsilon_init
    spec = EncoderSpec.for_env(env_cfg, agent_cfg)
    save_checkpoint(ckpt, result.params, agent_cfg, episodes, epsilon, spec)
    print(f"wrote {out} and checkpoint {ckpt}")
    return 0


def _layout_keys(fields: dict) -> dict:
    """The EncoderSpec fields a config sets, as config keys and values; the
    history length comes from the checkpoint's own agent config."""
    return {
        "env.channel": "hmm" if fields["hmm"] else "ge",
        "env.w": fields["w"],
        "env.d": fields["delay"],
    }


def _check_checkpoint_layout(recorded, spec: EncoderSpec, input_width: int) -> None:
    """Refuse a checkpoint whose encoded input layout differs from the one
    the config builds.  Sidecars written before the layout was recorded
    are checked by input width alone."""
    if recorded is not None:
        config = _layout_keys(asdict(spec))
        for key, value in _layout_keys(recorded).items():
            if value != config[key]:
                raise ValueError(f"checkpoint has {key} = {value}, config has {key} = {config[key]}")
    if input_width != spec.input_len:
        raise ValueError(
            f"checkpoint input width {input_width} does not match the "
            f"config's encoded window width {spec.input_len}"
        )


def _eval_policy_for(cfg, args):
    name = cfg["run.policy"]
    harness.make_agent_config(cfg)  # bad agent.* values fail whichever policy runs
    if name == "rl":
        ckpt = cfg["run.checkpoint"]
        if not ckpt:
            params, spec, _ = harness.train_point(cfg, args.seed)
            return AgentPolicy(params, spec)
        params, agent_cfg, meta = load_checkpoint(ckpt)
        spec = EncoderSpec.for_env(harness.make_env_config(cfg), agent_cfg)
        _check_checkpoint_layout(meta.get("encoder"), spec, params.widths[0])
        return AgentPolicy(params, spec)
    if name == "kt":
        return KtPolicy(harness.make_kt_config(cfg))
    if name == "random":
        return RandomPolicy()
    if name in ("fixed-ir", "fixed-co7", "fixed-co3"):
        header = {"fixed-ir": HeaderType.IR, "fixed-co7": HeaderType.CO7, "fixed-co3": HeaderType.CO3}
        return FixedPolicy(header[name])
    raise ValueError(f"unknown run.policy {name!r}")


def _cmd_eval(args, cfg) -> int:
    _refuse_ignored(cfg, "eval", ("adapt.schedule",))
    if cfg["run.checkpoint"] and cfg["run.policy"] != "rl":
        raise ValueError(
            f"run.checkpoint is set, but eval ignores it with run.policy = {cfg['run.policy']}; "
            "checkpoints load only with run.policy = rl"
        )
    env_cfg = harness.make_env_config(cfg)
    policy = _eval_policy_for(cfg, args)
    trace, metrics = harness.evaluate_policy(policy, env_cfg, args.seed)
    trace_path = cfg["run.trace"]
    if trace_path:
        trace.to_csv(trace_path)
    rows = [harness.result_row("", "", cfg["run.policy"], metrics, args.seed)]
    out = args.out or "eval_metrics.csv"
    harness.write_result_csv(out, rows)
    print(
        f"{cfg['run.policy']}: efficiency {metrics.transmission_efficiency:.4f}, "
        f"feedback rate {metrics.feedback_rate:.4f}, mean reward {metrics.mean_reward:.4f}"
    )
    return 0


def _cmd_sweep(args, cfg) -> int:
    _refuse_ignored(cfg, "sweep", ("adapt.schedule", "run.trace", "run.checkpoint"))
    out = args.out or "sweep_results.csv"
    rows = harness.run_experiment(cfg, args.seed, out_path=out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_adapt(args, cfg) -> int:
    _refuse_ignored(cfg, "adapt", ("run.trace", "run.checkpoint"))
    out = args.out or "adapt_curve.csv"
    harness.adapt_experiment(cfg, args.seed, out_path=out)
    print(f"wrote {out}")
    return 0


def _cmd_fsm_check(args, cfg) -> int:
    bad, lines = harness.fsm_check()
    for line in lines:
        print(line)
    print("fsm-check: " + ("PASS" if bad == 0 else f"FAIL ({bad} mismatches)"))
    return 0 if bad == 0 else 2


def _cmd_oracle_check(args, cfg) -> int:
    failures, lines = harness.oracle_check(args.seed)
    for line in lines:
        print(line)
    print("oracle-check: " + ("PASS" if failures == 0 else f"FAIL ({failures} policies above bound)"))
    return 0 if failures == 0 else 2


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "adapt": _cmd_adapt,
    "fsm-check": _cmd_fsm_check,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
