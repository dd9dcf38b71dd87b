"""Benchmark two source checkouts against each other and keep the runs in
one JSON file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out FILE \
        --workload train_desk --seeds 11 12 13 [--trace 0] [--seconds 25]

For every seed, bench/run.py runs the workload once in each checkout, one
after the other; the parent goes first on even positions of --seeds and the
change first on odd ones, so a drift of the host's speed over the session
falls on both sides alike.  Each run's result file is read back from the
checkout's bench/out/.  The runs are added to FILE (created if missing;
a run of the same workload, seed, trace level and side replaces the older
one), and FILE's summary is rebuilt from all the runs it holds:

- untraced runs (--trace 0): per workload, each end-to-end metric of
  BENCHMARK.json for both sides in seed order, each side's median and
  quartiles, the parent's interquartile range, the number of pairs the
  change wins (a tie is a win for neither side) and gain_shown: whether
  those runs show a gain by the rule for claiming one, which asks for at
  least MIN_PAIRS pairs, a change that wins at least WIN_SHARE of them,
  and a median better than the parent's by more than the parent's
  interquartile range;
- traced runs (--trace 1): per workload, each per-layer metric's median
  over the traced runs of each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    path = tree / "bench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def keep(record: dict, side: str) -> dict:
    """The parts of a result record worth committing: no raw samples, which
    run to thousands of entries on oracle_mc."""
    kept = {
        "side": side,
        "workload": record["workload"],
        "seed": record["seed"],
        "trace": record["trace"],
        "git_commit": record["environment"]["git_commit"],
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "failures": record["failures"],
        "metrics": {k: m["value"] for k, m in record["metrics"].items()},
        "quality": record["quality"],
    }
    if record["trace"]:
        kept["missing_targets"] = record["missing_targets"]
    return kept


def quartiles(values: list) -> list | None:
    """[first quartile, third quartile], or None for fewer than 2 values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def gain_shown(wins: int, pairs: int, gain: float, parent_iqr: float | None) -> bool:
    """The rule for claiming a gain: enough pairs, the change winning at
    least WIN_SHARE of them, and medians further apart, in the change's
    favour, than the parent's interquartile range."""
    return (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and parent_iqr is not None
        and gain > parent_iqr
    )


def summarise(runs: list, end_to_end: list) -> dict:
    by_key = {(r["workload"], r["trace"], r["seed"], r["side"]): r for r in runs}
    summary: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        for trace in (0, 1):
            seeds = sorted(
                s for (w, t, s, side) in by_key
                if (w, t, side) == (workload, trace, "parent")
                and (workload, trace, s, "change") in by_key
            )
            if not seeds:
                continue
            pairs = {side: [by_key[(workload, trace, s, side)] for s in seeds] for side in SIDES}
            entry = {
                "pairs": len(seeds),
                "seeds": seeds,
                "failed_units": {side: sum(r["failed"] for r in pairs[side]) for side in SIDES},
                "attempted_units": {side: sum(r["attempted"] for r in pairs[side]) for side in SIDES},
            }
            if trace == 0:
                for metric in end_to_end:
                    name, lower = metric["name"], metric["better"] == "lower"
                    values = {side: [r["metrics"][name] for r in pairs[side]] for side in SIDES}
                    wins = sum(
                        (c < p) if lower else (c > p)
                        for p, c in zip(values["parent"], values["change"])
                    )
                    parent_median = statistics.median(values["parent"])
                    change_median = statistics.median(values["change"])
                    gain = (parent_median - change_median) * (1 if lower else -1)
                    q = {side: quartiles(values[side]) for side in SIDES}
                    parent_iqr = q["parent"][1] - q["parent"][0] if q["parent"] else None
                    entry[name] = {
                        "parent_median": parent_median,
                        "change_median": change_median,
                        "parent_quartiles": q["parent"],
                        "change_quartiles": q["change"],
                        "relative_change": change_median / parent_median - 1.0,
                        "change_wins": wins,
                        "parent_iqr": parent_iqr,
                        "gain_shown": gain_shown(wins, len(seeds), gain, parent_iqr),
                        **values,
                    }
                summary[workload] = entry
            else:
                names = pairs["parent"][0]["metrics"]
                entry["per_layer_median"] = {
                    name: {
                        side: statistics.median(r["metrics"][name] for r in pairs[side])
                        for side in SIDES
                    }
                    for name in names
                }
                summary.setdefault("traced", {})[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parent-against-change bench/run.py pairs")
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "bench/run.py result records of a parent checkout against a change "
        "checkout, alternating per seed which side runs first; written by "
        "scripts/bench_pairs.py",
        "runs": [],
    }
    for position, seed in enumerate(args.seeds):
        order = SIDES if position % 2 == 0 else SIDES[::-1]
        for side in order:
            record = run_bench(trees[side], args.workload, seed, args.seconds, args.trace)
            if "host" not in doc:
                doc["host"] = {k: v for k, v in record["environment"].items() if k != "git_commit"}
            run = keep(record, side)
            doc["runs"] = [
                r for r in doc["runs"]
                if (r["workload"], r["seed"], r["trace"], r["side"])
                != (run["workload"], run["seed"], run["trace"], side)
            ] + [run]
            shown = run["metrics"].get("unit_s", run["metrics"].get("trace.unit_s"))
            print(
                f"{args.workload} seed {seed} trace {args.trace} {side}: "
                f"unit_s {shown:.4f}, {run['attempted']} units, {run['failed']} failed",
                flush=True,
            )
            doc["summary"] = summarise(doc["runs"], spec["end_to_end"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
