#!/usr/bin/env python3
"""Alternated A/B pairs of one benchmark workload between two checkouts.

    python3 scripts/ab.py --parent ../parent --change . --workload trefoil-scatter \\
        --seeds 4501-4510 --claim peak_rss_mb --out BENCH_ab.json

For each seed, in the order given, the script runs

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0

once from each checkout, one process at a time, each with its own tree's
``src`` (run.py imports the library from the checkout it is run from).  The
parent goes first in the first pair, the change in the second, and so on,
so neither side always runs on a host that the other has just warmed.

It writes one JSON file with the host record that run.py reports, each
side's commit and source digest, every run's metrics and operation counts,
and per end-to-end metric each side's median, quartiles, min and max and
how many pairs the change won.  A pair is won when the change's value is
better than the parent's in the direction ``BENCHMARK.json`` gives the
metric; a tie is not a win.  ``--claim METRIC`` adds the verdict of the
rule a claimed gain is held to: better in at least 9 of 10 pairs, and the
medians apart, in the better direction, by more than the parent's
interquartile distance, over at least 10 pairs.  Quartiles interpolate
linearly between the sorted values, as ``numpy.percentile`` does.

A run that exits non-zero is listed with its exit status and the tail of
its standard error; its pair then counts for no metric.  The script exits
with status 1 if any run failed so, and 0 otherwise, whatever the
verdict.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WIN_SHARE = 0.9   # a claimed gain must win 9 of every 10 pairs
MIN_PAIRS = 10


def parse_seeds(text):
    """Seeds from a comma list of integers and inclusive ranges A-B."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def quantile(values, q):
    """The q-quantile of values, linear between the sorted values."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(values):
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "min": min(values), "max": max(values),
            "n": len(values)}


def compare(pairs, better):
    """Statistics of one metric over (parent, change) value pairs, with the
    change's wins, ties and losses in direction ``better``."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in pairs]
    out = {side: summary([pair[i] for pair in pairs]) for i, side in enumerate(SIDES)}
    out.update(better=better, pairs=len(pairs),
               change_wins=sum(g > 0 for g in gains), ties=sum(g == 0 for g in gains),
               change_losses=sum(g < 0 for g in gains))
    return out


def verdict(stats, metric):
    """The claim rule on one metric's ``compare`` output."""
    pairs, wins = stats["pairs"], stats["change_wins"]
    sign = 1.0 if stats["better"] == "lower" else -1.0
    gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    need = math.ceil(WIN_SHARE * pairs)
    return {"metric": metric, "better": stats["better"],
            "rule": f"better in at least {WIN_SHARE:.0%} of at least {MIN_PAIRS} pairs, and "
                    "the median better than the parent's by more than the parent's IQR",
            "pairs": pairs, "change_wins": wins, "wins_needed": need,
            "median_gain": gain, "parent_iqr": iqr,
            "met": pairs >= MIN_PAIRS and wins >= need and gain > iqr}


def run_one(checkout, workload, seed, seconds):
    """One benchmark process in ``checkout``; returns its run record, with
    ``metrics`` only if the run exited 0."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    rec = {"seed": seed, "exit": proc.returncode}
    if proc.returncode:
        rec["stderr"] = proc.stderr[-2000:]
        return rec
    # run.py prints its environment first and its result line last
    lines = proc.stdout.splitlines()
    head, result = json.loads(lines[0]), json.loads(lines[-1])
    rec.update(env=head["env"], correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"],
               metrics={name: m["value"] for name, m in result["metrics"].items()})
    return rec


def run_pairs(checkouts, workload, seeds, seconds, log=print):
    """Alternated pairs, one per seed; returns the pairs' records."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_one(checkouts[side], workload, seed, seconds)
            got = pair[side].get("metrics", f"failed, exit {pair[side]['exit']}")
            log(f"seed {seed} {side}: {got}")
        pairs.append(pair)
    return pairs


def report(pairs, directions, claim=None):
    """The JSON record of a list of ``run_pairs`` pairs."""
    ok = [p for p in pairs if all("metrics" in p[s] for s in SIDES)]
    metrics = {n: compare([(p["parent"]["metrics"][n], p["change"]["metrics"][n]) for p in ok],
                          better) for n, better in directions.items() if ok}
    runs = {side: [p[side] for p in pairs if "metrics" in p[side]] for side in SIDES}
    host = next((r["env"] for side in SIDES for r in runs[side]), {})
    sides = {side: {"commit": rs[0]["env"]["git_commit"] if rs else None,
                    "source_sha256": rs[0]["env"]["source_sha256"] if rs else None,
                    "runs": len(pairs), "failed_runs": len(pairs) - len(rs),
                    "attempted_ops": sum(r["attempted"] for r in rs),
                    "failed_ops": sum(r["failed"] for r in rs),
                    "all_correct": all(r["correct"] for r in rs)}
             for side, rs in runs.items()}
    out = {"host": {k: v for k, v in host.items() if k not in ("git_commit", "source_sha256")},
           "sides": sides, "metrics": metrics, "pairs": pairs}
    if claim is not None:
        out["verdict"] = (verdict(metrics[claim], claim) if claim in metrics else
                          {"metric": claim, "met": False, "why": "no pair ran on both sides"})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    ap.add_argument("--change", required=True, type=Path, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 4501-4510 or 7,9,11")
    ap.add_argument("--seconds", type=float, default=3.0, help="run.py's --seconds")
    ap.add_argument("--claim", metavar="METRIC", help="end-to-end metric the change claims")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    directions = {m["name"]: m["better"] for m in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    if args.claim is not None and args.claim not in directions:
        ap.error(f"--claim must be one of {sorted(directions)}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "benchmark" / "run.py").is_file():
            ap.error(f"--{side} {path} has no benchmark/run.py")
    pairs = run_pairs(checkouts, args.workload, seeds, args.seconds,
                      log=lambda msg: print(msg, file=sys.stderr))
    out = {"workload": args.workload, "seconds": args.seconds, "seeds": seeds,
           "command": "python3 benchmark/run.py --workload W --seed S --seconds T --trace 0",
           **report(pairs, directions, args.claim)}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if "verdict" in out:
        print(json.dumps(out["verdict"]))
    return 1 if any(s["failed_runs"] for s in out["sides"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
