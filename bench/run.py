"""Benchmark command for bdrohc: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses the package under
src/ without installing it.  Workloads (see bench/README.md):

    train_desk    desk-scale run_training calls       unit: train_run_s
    eval_heldout  held-out evaluation sets            unit: eval_set_s
    oracle_mc     exact oracle + FSM + Monte-Carlo    unit: oracle_check_s

Every measurement runs in a fresh worker process (bench/workloads.py) with
OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1.  With --trace 0 the command
starts SETUP_SAMPLES workers, the last of which also runs the timed units,
and prints the end-to-end metrics; with --trace 1 it starts one worker that
times the units untraced and then traced, and prints the per-layer metrics.
End-to-end times are reported in reference seconds, scaled by a host-speed
probe that the workers run between timed steps (see workloads.py); the
printed lines and the result file give the raw wall-clock figures beside
them.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the run environment is
written to bench/out/.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("train_desk", "eval_heldout", "oracle_mc")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

# Set-up is measured this many times per run, each in a fresh process, and
# reported as the median.
SETUP_SAMPLES = 3
# Every worker is killed once the run has taken this long, so the command
# always ends within 180 s.
RUN_LIMIT_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


class BenchError(Exception):
    pass


def tail_percentile(samples):
    """(p, value) for the highest of TAIL_PERCENTILES with at least
    MIN_BEYOND samples above its nearest rank, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(math.ceil(p / 100.0 * n), 1)
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, mode: str, workdir: Path, env: dict, deadline: float):
    """Start one worker; returns (seconds until READY, the READY fields:
    attempted, failed, probe seconds, reference scale, and the result)."""
    cmd = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--workdir", str(workdir),
    ]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
    timer.start()
    ready = fields = result = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                ready = perf_counter() - start
                attempted, failed, probe_s, scale = line.split()[1:5]
                fields = (int(attempted), int(failed), float(probe_s), float(scale))
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode == "measure" and result is None):
        raise BenchError(f"{mode} worker for {args.workload} failed (exit code {code})")
    return ready, fields, result


def end_to_end(result: dict, setup_ref: list) -> dict:
    units = result["unit_ref_s"]
    return {
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "slots_per_s": {"value": result["slots_per_unit"] * len(units) / sum(units), "unit": "1/s"},
        "unit_s": {"value": statistics.median(units), "unit": "s"},
    }


def describe(samples) -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no percentile above the median has 10 samples beyond it"
    return f"median {statistics.median(samples):.4f}, {tail_text}, max {max(samples):.4f}, n={len(samples)}"


def print_end_to_end(metrics: dict, result: dict, setup_ref: list, setup_wall: list) -> None:
    wall = result["unit_s"]
    slots = result["slots_per_unit"]
    print("end-to-end metrics, in reference seconds (wall-clock figures follow each):")
    print(f"setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setup_ref)} set-ups in fresh workers")
    print(f"  wall s: " + ", ".join(f"{s:.4f}" for s in setup_wall))
    print(f"unit_s       {metrics['unit_s']['value']:.4f} s   {result['unit_name']}: {describe(result['unit_ref_s'])}")
    print(f"  wall s: {describe(wall)}")
    print(f"slots_per_s  {metrics['slots_per_s']['value']:.1f} 1/s   {slots} env slots per unit")
    print(f"  wall 1/s: {slots * len(wall) / sum(wall):.1f}")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB   peak resident memory of the measuring worker")


def print_per_layer(metrics: dict, result: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    layer = metrics["trace.layer_self_share"]["value"]
    overhead = metrics["trace.overhead_share"]["value"]
    print(
        f"layer self times cover {layer:.1%} of the traced unit wall time; "
        f"the remaining {1 - layer:.1%} is bench glue, against a tracing overhead of {overhead:.1%} "
        f"({len(result['unit_s'])} traced units, {len(result['untraced_unit_s'])} untraced)"
    )
    if result["missing_targets"]:
        print("not traced (absent from the package): " + ", ".join(result["missing_targets"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bdrohc benchmark: one workload per run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "bdrohc" / "__init__.py").is_file():
        print(f"no bdrohc package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    setup_wall, setup_ref = [], []
    try:
        for k in range(1 if args.trace else SETUP_SAMPLES):
            mode = "measure" if k == SETUP_SAMPLES - 1 or args.trace else "setup"
            ready, (a, f, probe_s, scale), result = run_worker(args, mode, workdir, env, deadline)
            setup_wall.append(ready)
            setup_ref.append((ready - probe_s) * scale)
            if mode == "setup":
                attempted += a
                failed += f
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += result["attempted"]
    failed += result["failed"]

    versions = result["versions"]
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "blas": versions["blas"],
        "threads": versions["threads"],
        "git_commit": git_commit(),
    }
    print(
        f"workload {args.workload}, seed {args.seed}, {args.seconds} s measured, "
        f"tracing {'on' if args.trace else 'off'}"
    )
    print("environment: " + ", ".join(
        f"{k}={v}" for k, v in environment.items() if k != "threads"
    ) + ", " + ", ".join(f"{k}={v}" for k, v in environment["threads"].items()))
    if args.trace:
        metrics = result["per_layer"]
        print_per_layer(metrics, result)
    else:
        metrics = end_to_end(result, setup_ref)
        print_end_to_end(metrics, result, setup_ref, setup_wall)
    quality = {k: statistics.median(v) for k, v in result["quality"].items()}
    print(f"checks       {attempted} units attempted, {failed} failed")
    for msg in result["failures"]:
        print(f"  failure: {msg}")
    print("quality (informational, median over units): " + ", ".join(
        f"{k} {v:.4f}" for k, v in quality.items()
    ))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "metrics": metrics,
        "quality": quality,
        "setup_s_samples": setup_ref,
        "setup_wall_s_samples": setup_wall,
        "unit_name": result["unit_name"],
        "unit_s_samples": result["unit_ref_s"],
        "unit_wall_s_samples": result["unit_s"],
        "unit_s_tail": tail_percentile(result["unit_ref_s"]),
        "unit_wall_s_tail": tail_percentile(result["unit_s"]),
    }
    if args.trace:
        record.update(
            untraced_unit_s_samples=result["untraced_unit_s"],
            spans=result["spans"],
            missing_targets=result["missing_targets"],
        )
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
