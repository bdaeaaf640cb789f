"""scrollsec benchmark: one workload, one seed, one process, one closed loop.

    python3 bench/run.py --workload matrix --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  One caller issues each point after the previous one returns.  The run
sets up (imports, inputs from the seed, warm-up) several times and reports the
median, then repeats whole rounds of the workload, with the program's caches
emptied before each, until the rounds have taken `--seconds`.  Every output
is checked.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
layers are wrapped from outside (see tracer.py) and the metrics are per layer.
Details of each run and the spans of the first traced round go to
bench/results/.  See bench/README.md for the workloads and the metrics.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_REPS = 3
MIN_TRACED_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("matrix", "atlas", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few points per round, for the self-test")
    return parser.parse_args(argv)


def load_program():
    """Import scrollsec from this checkout's src/ and nowhere else."""
    package = SRC / "scrollsec"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no scrollsec sources at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import scrollsec

    if Path(scrollsec.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: scrollsec was imported from {scrollsec.__file__}, not {package}")


def percentile(sorted_vals, p: float):
    """Nearest-rank percentile, and how many values lie beyond it."""
    k = max(0, math.ceil(p * len(sorted_vals)) - 1)
    return sorted_vals[k], len(sorted_vals) - k - 1


def setup(wl, caches, reps: int):
    """Draw round 0's inputs and warm up, `reps` times; the last inputs are kept."""
    from tracer import clear_program_caches

    times = []
    for _ in range(reps):
        start = perf_counter()
        inputs = wl.inputs(0)
        wl.warm(inputs)
        clear_program_caches(caches)
        times.append(perf_counter() - start)
    return inputs, times


def run_untraced(wl, caches, inputs, seconds: float):
    from tracer import clear_program_caches
    from workloads import Recorder

    rec = Recorder()
    problems = []
    timed = 0.0
    rnd = 0
    round_s = []
    while True:
        if rnd:
            inputs = wl.inputs(rnd)
        clear_program_caches(caches)
        start = perf_counter()
        outputs = wl.run(inputs, rec)
        round_s.append(perf_counter() - start)
        timed += round_s[-1]
        problems.extend(wl.check(inputs, outputs))
        rnd += 1
        if timed >= seconds:
            break
    pts = sorted(rec.point_s)
    tail, beyond = percentile(pts, wl.tail)
    metrics = {
        "setup_s": None,  # filled in by the caller
        "points_per_s": len(pts) / timed,
        "point_ms_p50": statistics.median(pts) * 1000.0,
        "point_ms_tail": tail * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"rounds": rnd, "round_s": round_s, "points": len(pts),
               "tail_percentile": wl.tail, "tail_points_beyond": beyond,
               "percentiles_ms": {str(p): percentile(pts, p)[0] * 1000.0
                                  for p in (0.5, 0.75, 0.9, 0.95, 0.98, 0.99)},
               "step_s_total": sum(rec.step_s), "timed_s": timed}
    return rec, problems, metrics, details


def run_traced(wl, caches, seconds: float, spans_path: Path):
    from tracer import Tracer, clear_program_caches, layer_metrics
    from workloads import Recorder

    tracer = Tracer()
    tracer.install()
    problems = []
    passes = []
    attempted = failed = 0
    elapsed = 0.0
    while len(passes) < MIN_TRACED_PASSES or elapsed < seconds:
        clear_program_caches(caches)
        tracer.reset()
        tracer.keep_spans = not passes
        start = perf_counter()
        inputs = wl.inputs(0)
        rec = Recorder(tracer)
        mid = perf_counter()
        outputs = wl.run(inputs, rec)
        end = perf_counter()
        tracer.keep_spans = False
        elapsed += end - start
        values = layer_metrics(tracer.snapshot())
        values["bench.points"] = len(rec.point_s)
        values["bench.round_ms"] = (end - mid) * 1000.0
        passes.append(values)
        attempted += len(rec.point_s) + rec.failed
        failed += rec.failed
        problems.extend(wl.check(inputs, outputs))
    tracer.write_spans(spans_path)
    counts = [{k: v for k, v in p.items() if isinstance(v, int)} for p in passes]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between passes over the same inputs: "
                        + json.dumps(counts))
    metrics = {name: (passes[0][name] if isinstance(passes[0][name], int)
                      else statistics.median(p[name] for p in passes))
               for name in passes[0]}
    return attempted, failed, problems, metrics, {"passes": len(passes)}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    t_imported = perf_counter()
    import tracer
    import workloads

    wl = workloads.make(args.workload, args.seed, args.quick)
    caches = tracer.program_caches()
    inputs, setup_times = setup(wl, caches, 1 if args.quick else SETUP_REPS)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        attempted, failed, problems, values, details = run_traced(
            wl, caches, args.seconds, RESULTS / f"{stem}.spans.jsonl")
        units = dict(tracer.LAYER_METRICS)
    else:
        rec, problems, values, details = run_untraced(wl, caches, inputs, args.seconds)
        values["setup_s"] = (t_imported - T_START) + statistics.median(setup_times)
        attempted, failed = len(rec.point_s) + rec.failed, rec.failed
        units = {"setup_s": "s", "points_per_s": "1/s", "point_ms_p50": "ms",
                 "point_ms_tail": "ms", "peak_rss_mb": "MB"}
        details["errors"] = rec.errors
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details.update(import_s=t_imported - T_START, setup_reps_s=setup_times,
                   problems=problems[:20], problem_count=len(problems), result=result)
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    for line in problems[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
