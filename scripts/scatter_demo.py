#!/usr/bin/env python3
"""Multiple-scattering preconditioner study at desk scale.

Two identical three-lobed sound-hard scatterers, a vertical plane wave, and
a sweep over center separations.  Each configuration is solved by plain
GMRES and by GMRES preconditioned with the block-diagonal compressed direct
inverse (``skelkit.bench``'s scatter_demo experiment).  The second trefoil
is a translate of the first, so both blocks share one compressed and
factored self-system.  The table reports iteration counts and the agreement
of the two solutions at an exterior checkpoint.
"""

import argparse
import pathlib

from skelkit import bie
from skelkit.bench import RunConfig, _scatter_demo_one


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=256, help="points per scatterer")
    ap.add_argument("--omega", type=float, default=2.0,
                    help="scatterer size in wavelengths")
    ap.add_argument("--eps", type=float, default=1e-8)
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'sep':>6} {'iters':>6} {'prec':>5} {'ratio':>6} {'agreement':>10}")
    rows = []
    for sep in (3.0, 2.0, 1.5, 1.25):
        cfg = RunConfig(experiment="scatter_demo", geometry="trefoil_scatterers",
                        ns=(args.n,), eps=args.eps, omega=args.omega,
                        geometry_params=(sep,), tol=args.tol)
        rec, it0, dens = _scatter_demo_one(cfg, args.n)
        it1, agree = rec.iters, rec.E
        print(f"{sep:6.2f} {it0:6d} {it1:5d} {it0 / it1:6.1f} {agree:10.2e}")
        rows.append((sep, it0, it1, agree))
        if sep == 1.5:
            bie.write_density_csv(outdir / "scatter_density.csv",
                                  bie.trefoil(args.n), dens[:args.n])
    with open(outdir / "scatter_demo.csv", "w") as f:
        f.write("separation,iters_plain,iters_prec,agreement\n")
        for sep, it0, it1, agree in rows:
            f.write(f"{sep},{it0},{it1},{agree:.6e}\n")
    print(f"wrote {outdir / 'scatter_demo.csv'}")


if __name__ == "__main__":
    main()
