#!/usr/bin/env python3
"""Multiple-scattering preconditioner study at desk scale.

Two identical three-lobed sound-hard scatterers, a vertical plane wave, and
a sweep over center separations.  Each configuration is solved by plain
GMRES and by GMRES preconditioned with the block-diagonal compressed direct
inverse.  The second trefoil is a translate of the first, so both blocks
share one compressed and factored self-system.  The table reports iteration
counts and the agreement of the two solutions at an exterior checkpoint.
"""

import argparse
import pathlib

import numpy as np

from skelkit import bie
from skelkit.errors import NotConverged
from skelkit.solver import gmres


def solve_config(n, omega, sep, eps, tol):
    curves = [bie.trefoil(n), bie.trefoil(n, center=(sep, 0.0))]
    k = 2 * np.pi * omega / curves[0].diameter()
    sys_ = bie.scattering_system(curves, k)
    A = sys_.matrix()
    b = sys_.rhs_plane_wave()
    pinv = sys_.precond_apply(sys_.precond_blocks(eps=eps))
    try:
        x0, it0 = gmres(lambda v: A @ v, b, tol=tol, max_iter=4 * n)
    except NotConverged as exc:
        x0, it0 = exc.x, exc.iterations
    x1, it1 = gmres(lambda v: A @ v, b, tol=tol, max_iter=4 * n, precond=pinv)
    chk = np.array([sep / 2, 2.5])
    u0 = sys_.scattered_field(x0, chk)[0]
    u1 = sys_.scattered_field(x1, chk)[0]
    return it0, it1, abs(u0 - u1) / abs(u0), x1, curves


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
        it0, it1, agree, dens, curves = solve_config(
            args.n, args.omega, sep, args.eps, args.tol)
        print(f"{sep:6.2f} {it0:6d} {it1:5d} {it0 / it1:6.1f} {agree:10.2e}")
        rows.append((sep, it0, it1, agree))
        if sep == 1.5:
            bie.write_density_csv(outdir / "scatter_density.csv",
                                  curves[0], dens[:args.n])
    with open(outdir / "scatter_demo.csv", "w") as f:
        f.write("separation,iters_plain,iters_prec,agreement\n")
        for sep, it0, it1, agree in rows:
            f.write(f"{sep},{it0},{it1},{agree:.6e}\n")
    print(f"wrote {outdir / 'scatter_demo.csv'}")


if __name__ == "__main__":
    main()
