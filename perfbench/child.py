"""One cold benchmark process: set up a workload's models, then run rounds.

Started by run.py, one interpreter per measurement. Modes:

* ``setup``: import nkhodge, generate and validate the first round's models,
  report the time since the process started, and exit;
* ``run``: set up, then run whole rounds until --seconds have passed (at
  least one), each on freshly relabelled models, and report each round's
  wall time, the verdict tally and the peak resident set; calibration chunks
  run every calibrate.PERIOD_S meanwhile;
* ``plain``: as ``run`` without calibration chunks, the base of the tracing
  overhead;
* ``trace``: as ``plain`` with the outside-in tracer installed; also reports
  per-layer metrics and a scalar microbenchmark, and writes the spans to
  .perfbench/spans-<workload>-<seed>.jsonl.

Every mode times calibration chunks before, during and after set-up and reports
set-up time both as measured and rescaled to the reference speed (see
calibrate.py); ``run`` also reports every round rescaled by the chunks that
ran during it.

The last line of standard output is one JSON object.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import operator  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHUNKS = 25  # calibration chunks on each side of set-up
SETUP_PERIOD_S = 0.01  # and one every 10 ms during it


def import_nkhodge():
    sys.path.insert(0, str(SRC))
    import nkhodge

    location = Path(nkhodge.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"nkhodge was imported from {location}, not from {SRC}")


def scalar_pool() -> list:
    """Nonzero entries of su2-four's orthogonalized d and its adjoint, in a fixed order."""
    import nkhodge.models
    import nkhodge.operators

    model = nkhodge.models.builtin_model("su2-four").orthogonalized()
    d = model.d()
    dstar = nkhodge.operators.adjoint(d, model.gram())
    return [v for op in (d, dstar) for c in sorted(op.cols) for _, v in sorted(op.cols[c].items())]


def scalar_op_ns(pool: list, repeats: int = 5) -> dict[str, float]:
    """Median nanoseconds per Scalar mul, add and div over pairs from the pool."""
    gc.collect()
    xs = pool
    ys = pool[7:] + pool[:7]
    out = {}
    for name, op in (("mul", operator.mul), ("add", operator.add), ("div", operator.truediv)):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            list(map(op, xs, ys))
            samples.append((time.perf_counter_ns() - start) / len(xs))
        out[f"scalars.{name}_ns"] = statistics.median(samples)
    return out


def main() -> int:
    cal = calibrate.Calibrator()
    cal.sample(SETUP_CHUNKS)
    cal.start(SETUP_PERIOD_S)
    try:
        import_nkhodge()
        import tracer as tracing
        import workloads

        parser = argparse.ArgumentParser(description=__doc__)
        parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--mode", required=True, choices=("setup", "run", "plain", "trace"))
        args = parser.parse_args()

        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        models = workloads.make_models(args.workload, args.seed, 0)
        ready = time.perf_counter()
    finally:
        cal.stop()
    cal.sample(SETUP_CHUNKS)
    # every chunk before `ready` lies inside [PROCESS_START, ready) and is taken out
    out = {
        "setup_raw_s": ready - PROCESS_START - cal.chunk_time(PROCESS_START, ready),
        "setup_s": cal.rescale(PROCESS_START, ready, speed_from=cal.samples),
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tally = workloads.Tally()
    windows = []
    if args.mode == "run":
        cal.start()
    try:
        begin = time.perf_counter()
        while True:
            if windows:
                models = workloads.make_models(args.workload, args.seed, len(windows))
            start = time.perf_counter()
            workloads.run_round(args.workload, models, tally)
            end = time.perf_counter()
            windows.append((start, end))
            if end - begin >= args.seconds:
                break
    finally:
        cal.stop()
    if args.mode == "run":
        out["walls_ref"] = [cal.rescale(lo, hi) for lo, hi in windows]
    out.update(
        walls=[hi - lo - cal.chunk_time(lo, hi) for lo, hi in windows],
        attempted=tally.attempted,
        failed=tally.failed,
        mismatches=tally.mismatches,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans, windows, workloads.CATALOGUE_CHECKS)
        out["accounted_s"] = layers.pop("trace.accounted_s") * len(windows)
        out["spans"] = len(tracer.spans)
        spans_file = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans_file.parent.mkdir(exist_ok=True)
        tracer.write(spans_file)
        layers.update(scalar_op_ns(scalar_pool()))
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
