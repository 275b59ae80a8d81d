"""skelkit benchmark: run one workload from a seed and print its metrics.

    python3 benchmark/run.py --workload ellipse-bie-rhs --seed 1 --seconds 3 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, measured with no tracing installed.  With
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans are written to ``.bench_out/``.  See benchmark/README.md.
"""

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from pathlib import Path

from catalog import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# one BLAS thread and the library's default of one node worker: single-
# threaded runs are the steadiest on a small shared host
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "SKELKIT_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(wl, seed, seconds, trace):
    """Run one workload; returns (result line, record for .bench_out)."""
    from catalog import END_TO_END, PER_LAYER, UNITS
    from measure import (Ops, check_metric_name, error_digits, fingerprint, median,
                         peak_rss_mb)
    from spans import Patches, Tracer, layer_metrics
    from workloads import latency_profile

    ops = Ops()
    tracer = Tracer()
    inp = wl.make_inputs(seed)
    digest = fingerprint(inp["arrays"])

    samples = wl.new_samples()
    setup_times = []

    def timed_setup():
        """One set-up; returns its state, or None when it raised.  A failed
        set-up leaves no operator whose outputs could be checked, so the
        run is then not correct."""
        gc.collect()
        t0 = time.perf_counter()
        ok, st = ops.run("setup", lambda: wl.setup(inp))
        setup_times.append(time.perf_counter() - t0)
        ops.correct &= ok
        return st

    err = float("inf")
    overhead = 0.0
    with Patches(tracer) if trace else contextlib.nullcontext():
        if not trace:
            # loop chunks between the set-ups spread the recorded calls over
            # the whole run rather than one stretch of host load
            for r in range(wl.setup_reps):
                st = None
                st = timed_setup()
                if st is None:
                    break
                if r == 0:
                    err = wl.reference(st, inp, ops, tracer)
                wl.loop(st, inp, ops, seconds / wl.setup_reps, samples,
                        final=r == wl.setup_reps - 1)
        # traced: the untraced set-ups first, as the reference for the
        # tracing overhead, stopping at the first that fails
        elif all(timed_setup() is not None for _ in range(wl.setup_reps)):
            tracer.enabled, tracer.phase = True, "setup"
            st = timed_setup()
            overhead = setup_times[-1] - median(setup_times[:-1])
            if st is not None:
                tracer.phase = "reference"
                err = wl.reference(st, inp, ops, tracer)
                tracer.phase = "loop"
                wl.loop(st, inp, ops, seconds, samples)
            tracer.enabled = False

    if trace:
        seen = {s.name for s in tracer.spans}
        missing = sorted(set(wl.traced) - seen)
        ops.check("trace", not missing, f"no span recorded for {missing}")
        values = layer_metrics(tracer.spans, samples, overhead)
        names = PER_LAYER
    else:
        values = {"setup_s": median(setup_times),
                  "err_digits": error_digits(err),
                  "peak_rss_mb": peak_rss_mb()}
        names = END_TO_END
    metrics = {check_metric_name(n): {"value": float(values[n]), "unit": UNITS[n]}
               for n in names}
    line = {"correct": ops.correct, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
              "input_sha256": digest, "setup_times_s": setup_times,
              "latency_ms": latency_profile(samples), "samples": samples,
              "error": err, "failures": ops.failures, "result": line}
    if trace:
        record["spans"] = [s.to_dict() for s in tracer.spans]
    return line, record


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "skelkit" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(THREAD_SETTINGS)  # before numpy loads BLAS
    sys.path[:0] = [str(SRC), str(HERE)]

    import skelkit
    if Path(skelkit.__file__).resolve().parent != (SRC / "skelkit").resolve():
        print(f"error: imported skelkit from {skelkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from catalog import COMPUTED
    from measure import environment
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    line, record = run_workload(wl, args.seed, args.seconds, args.trace)
    record["env"] = environment(ROOT, SRC)
    if args.trace:
        record["computed"] = sorted(COMPUTED)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({"env": record["env"], "input_sha256": record["input_sha256"],
                      "failures": record["failures"][:5], "record": str(out.relative_to(ROOT))}))
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
