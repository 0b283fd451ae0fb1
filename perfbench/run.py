"""teneig benchmark: run one workload from one seed, print every metric.

    python3 perfbench/run.py --workload generic --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports teneig from its src/.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Workloads, metrics and reference figures are
described in perfbench/README.md.
"""

import os

# one BLAS thread: the 2x2 to 6x6 solves gain nothing from a thread pool,
# which only adds start-up time; this must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "run_s": "s", "op_geomean_s": "s",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("generic", "singular", "commands"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (times setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def setup(args):
    """Import teneig, make the inputs, run the warm-up operation."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = OUT / f"inputs-{os.getpid()}"
    load = workloads.build(args.workload, args.seed, workdir)
    load.warmup.run()
    return load, workdir


def time_setup(args):
    """Median wall time from starting a fresh process to its first
    timed operation, over SETUP_SAMPLES processes run one after another."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed")
        samples.append(t1 - t0)
    return statistics.median(samples)


def run_pass(ops, tracer, times, failures):
    """Time every operation once; check each output outside the timer."""
    for index, op in enumerate(ops):
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                result = tracer.run_op(index, op.label, op.tag, op.run)
        except Exception:       # one failed operation must not end the run
            result, error = None, traceback.format_exc()
        times.append(time.perf_counter() - t0)
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        if error is not None:
            failures.append((op, error))


def run(args):
    load, workdir = setup(args)
    passes = max(1, round(args.seconds / load.pass_seconds))
    times, failures = [], []
    try:
        for _ in range(passes):
            run_pass(load.ops, None, times, failures)
        if args.trace:
            from tracing import PER_LAYER, Tracer, layer_metrics

            untraced_s = sum(times)
            tracer = Tracer()
            tracer.install()
            traced = []
            try:
                for _ in range(passes):
                    run_pass(load.ops, tracer, traced, failures)
            finally:
                tracer.uninstall()
            times += traced
            values = layer_metrics(tracer.spans, len(traced),
                                   sum(traced) - untraced_s)
            metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                       for k in PER_LAYER}
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz")
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {
                "setup_s": time_setup(args),
                "run_s": sum(times),
                "op_geomean_s": math.exp(statistics.fmean(
                    math.log(t) for t in times)),
                "peak_rss_mb": peak_mb,
            }
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op, error in failures:
        kind = "known fault" if op.known_fault else "FAILED"
        print(f"{kind}: {op.label}: {error.strip()}", file=sys.stderr)
    return {"correct": all(op.known_fault for op, _ in failures),
            "attempted": len(times), "failed": len(failures),
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "teneig" / "__init__.py").is_file():
        print(f"error: no teneig sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, workdir = setup(args)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result = run(args)
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
