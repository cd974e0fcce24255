"""nkhodge benchmark: cold-start verdict workloads and per-layer self times.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every measurement is a fresh
interpreter (child.py), because a user pays every model build on every CLI
call. Load model: one caller, single-threaded, one verdict after another;
children run one at a time and a lock refuses a second concurrent run.

--trace 0 prints the end-to-end metrics:
  wall_ref_s   median round time, from a round's models being ready to its
               last verdict (a run does whole rounds for --seconds, at least
               one), in reference seconds
  setup_s      median over five cold processes of import, model generation
               and validate_model, up to the first verdict, in reference
               seconds
  peak_rss_mb  peak resident set of the measuring process
Reference seconds are wall seconds rescaled to a fixed host speed by a
calibration kernel timed in the same process while it works (calibrate.py),
because the speed a shared host gives drifts by more than the bounds within
minutes. The measured wall times are printed too, but are no metric.
--trace 1 runs the workload untraced, then traced, both without calibration,
and prints the per-layer metrics: self times, calls and counts per round,
per-check inclusive times, a scalar microbenchmark, and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Every verdict is compared with the hand-written
answers in expected.json; failed counts verdicts that disagree or raise.
"""

import argparse
import compileall
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    # fixed string hashing, so the same seed gives the same run
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_metadata(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    probes = [run_child(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = run_child(args, "run", deadline)
    setups = probes + [main]
    print(f"measured: wall_s {statistics.median(main['walls']):.6g} s, "
          f"setup_s {statistics.median(p['setup_raw_s'] for p in setups):.6g} s")
    metrics = {
        "wall_ref_s": (statistics.median(main["walls_ref"]), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    return metrics, [main]


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    plain = run_child(args, "plain", deadline)
    traced = run_child(args, "trace", deadline)
    traced_wall = sum(traced["walls"])
    apart = abs(traced["accounted_s"] - traced_wall) / traced_wall
    print(f"trace: {traced['spans']} spans; self times + untraced = {traced['accounted_s']:.4f} s "
          f"against traced wall {traced_wall:.4f} s ({100 * apart:.3f}% apart)")
    units = {"_ns": "ns", "_s": "s", "_calls": "count"}
    metrics = {}
    for name, value in traced["layers"].items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    overhead = statistics.median(traced["walls"]) / statistics.median(plain["walls"]) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    return metrics, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "nkhodge" / "__init__.py").is_file():
        print(f"no nkhodge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with open(OUT / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("another benchmark run holds the lock; runs must be serial", file=sys.stderr)
            return 3
        meta = run_metadata(args)
        print("meta:", json.dumps(meta))
        # children then import from bytecode, as an installed package would
        compileall.compile_dir(ROOT / "src", quiet=2)
        measure = per_layer if args.trace else end_to_end
        try:
            metrics, children = measure(args, deadline)
        except ChildFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    rounds = [len(c["walls"]) for c in children]
    print(f"rounds {rounds}; verdicts {attempted}; failed {failed}; fail_rate {failed / attempted:.6f}")
    for child in children:
        for message in child["mismatches"]:
            print("mismatch:", message)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
