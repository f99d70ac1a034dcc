"""Benchmark of the arpg library: one workload per run, one JSON result last.

    python3 bench/run.py --workload generate_parallel --seed 1 --seconds 15 --trace 0

The run builds the workload's inputs from --seed, sets it up three times
(set-up time is the median), runs whole rounds of its operations back to back
from one client for --seconds, measures one more round under tracemalloc,
then checks every output. With --trace 0 it prints the end-to-end metrics;
with --trace 1 it alternates untraced and traced rounds and prints the
per-layer metrics, the tracing overhead among them. A record of the run
(machine, versions, threads, seeds, commit, counts) goes to bench/runs/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
NAMES = ("train", "generate_parallel", "generate_sequential", "edit")
SETUP_REPS = 3

# BLAS threads per workload, capped by the CPUs this process may use. The
# tape route's gemms gain from a second thread; decoding's row-by-row gemv
# calls are too small to split and only get noisier.
BLAS_THREADS = {"train": 2, "generate_parallel": 1, "generate_sequential": 1, "edit": 1}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_blas_threads(workload: str) -> int:
    """Fix BLAS threads through the environment, before numpy is imported."""
    threads = min(BLAS_THREADS[workload], len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def run(args) -> dict:
    import numpy as np

    import workloads as wls
    from tracer import arpg_tracer
    import environment

    import_s = time.perf_counter() - T_START
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = wls.WORKLOADS[args.workload](args.seed)
        for _, op in wl.round(0):  # warm-up round
            op()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + float(np.median(setups))

    tracer = arpg_tracer() if args.trace else None
    op_ms, round_ms, round_op_ms, traced_rounds = [], [], [], []
    tokens = attempted = failed = traced_ops = 0
    errors: list[str] = []
    r = 1
    t_begin = time.perf_counter()
    while True:
        traced = tracer is not None and r % 2 == 0
        if traced:
            tracer.install()
        t_round = time.perf_counter()
        done_ms = []
        for label, op in wl.round(r):
            attempted += 1
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.op += 1
                    with tracer.span("training.train_step" if label == "train_step"
                                     else "decoding.request"):
                        n, cache_b = op()
                    tracer.count("decoding.cache_mb", cache_b / 1e6)
                    traced_ops += 1
                else:
                    n, cache_b = op()
            except Exception as e:  # an operation that raises is counted, not fatal
                failed += 1
                if len(errors) < 5:
                    errors.append("round %d %s: %r" % (r, label, e))
                continue
            done_ms.append(1e3 * (time.perf_counter() - t0))
            tokens += n
        round_ms.append(1e3 * (time.perf_counter() - t_round))
        op_ms += done_ms
        if done_ms:
            round_op_ms.append(sum(done_ms) / len(done_ms))
        traced_rounds.append(traced)
        if traced:
            tracer.uninstall()
        r += 1
        if time.perf_counter() - t_begin >= args.seconds and (tracer is None or r % 2 == 1):
            break
    wall_s = time.perf_counter() - t_begin

    peak_mb = measure_peak_mb(wl, r)

    correct, done, failure = True, [], None
    try:
        done = wl.check(attempted)
    except Exception as e:  # a failed check or a crash inside one: not correct
        correct, failure = False, "%s: %s" % (type(e).__name__, e)

    # Latency per operation is taken over rounds, so edit's three request
    # kinds cannot make a percentile jump between the kinds' clusters.
    p10, p50, p90 = np.percentile(round_op_ms, [10, 50, 90])
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # The host switches between two clock speeds 1.45x apart every few
            # seconds; a whole-run mean follows the share of time spent slow
            # smoothly, where percentiles jump between the two modes.
            "tokens_per_s": {"value": tokens / wall_s, "unit": "tokens/s"},
            "peak_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        plain = [ms for ms, t in zip(round_ms, traced_rounds) if not t]
        traced_ms = [ms for ms, t in zip(round_ms, traced_rounds) if t]
        layers = tracer.layer_metrics(max(traced_ops, 1))
        layers["trace.overhead_pct"] = 100.0 * (np.median(traced_ms) / np.median(plain) - 1.0)
        units = {"_ms": "ms", "_mb": "MB", "_pct": "%"}
        result["metrics"] = {
            name: {"value": float(v), "unit": next((u for s, u in units.items()
                                                    if name.endswith(s)), "count")}
            for name, v in layers.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "init_seed": wls.INIT_SEED,
        "environment": environment.describe(ROOT, SRC),
        "attempted": attempted, "failed": failed, "errors": errors,
        "correct": correct, "checks": done, "check_failure": failure,
        "rounds": r - 1, "wall_s": wall_s, "import_s": import_s, "setup_reps_s": setups,
        "op_ms": op_ms, "op_count": len(op_ms),
        "op_ms_p10": float(p10), "op_ms_p50": float(p50),
        "metrics": result["metrics"],
    }
    if len(round_op_ms) >= 100:  # a p90 with at least ten samples beyond it
        record["op_ms_p90"] = float(p90)
    RUNS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (RUNS / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(RUNS / (args.workload + "-spans.npz"))
    summary = {k: v for k, v in record.items() if k not in ("op_ms", "metrics")}
    print(json.dumps(summary))
    return result


def measure_peak_mb(wl, r: int) -> float:
    """tracemalloc peak over each operation of one more round; the largest."""
    import tracemalloc

    peak = 0
    tracemalloc.start()
    try:
        for _, op in wl.round(r):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads(args.workload)
    if not (SRC / "arpg" / "__init__.py").is_file():
        print("bench: no arpg sources at %s; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
