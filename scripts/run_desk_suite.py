#!/usr/bin/env python3
"""Desk-scale benchmark suite: compressed-matvec sweeps on the circle and
the unit square, plus boundary-integral direct solves on the ellipse.

Writes one CSV per experiment under results/ and prints fitted log-log
scaling exponents of the compression time.  Expect a couple of minutes.
"""

import argparse
import pathlib

from skelkit.bench import RunConfig, fit_exponent, run


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--nmax", type=int, default=16384)
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the apply_bench points and right-hand sides")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ns = tuple(n for n in (1024, 2048, 4096, 8192, 16384) if n <= args.nmax)

    jobs = [
        ("apply_circle", RunConfig(experiment="apply_bench", geometry="circle",
                                   ns=ns, eps=1e-9, seed=args.seed,
                                   out=str(outdir / "apply_circle.csv"))),
        ("apply_square", RunConfig(experiment="apply_bench", geometry="square",
                                   ns=ns, eps=1e-6, seed=args.seed,
                                   out=str(outdir / "apply_square.csv"))),
        ("solve_ellipse", RunConfig(experiment="solve_bench", geometry="ellipse",
                                    ns=ns, eps=1e-9, out=str(outdir / "solve_ellipse.csv"))),
    ]
    for name, cfg in jobs:
        records = run(cfg)
        print(f"== {name} -> {cfg.out}")
        for rec in records:
            print("   " + ",".join(rec.row()))
        if len(records) >= 4:
            print(f"   Tcm log-log slope: {fit_exponent(records):.3f}")


if __name__ == "__main__":
    main()
