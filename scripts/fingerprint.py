#!/usr/bin/env python3
"""SHA-256 fingerprints of what skelkit computes on six fixed cases.

Five cases compress and factor one matrix.  The script then hashes the
compressed and factored containers (``serialize_compressed`` and
``serialize_factored``) and the outputs of ``apply`` and ``solve`` on one
vector and on a block of 16 columns drawn at ``SEED``.  The sixth hashes the
dense multiple-scattering path: ``matrix()``, the preconditioner applied
to one complex vector drawn at ``SEED``, and the preconditioned and the
plain GMRES answers for that vector, whose item names carry their
iteration counts.  A change meant to keep every bit prints the same lines
before and after it, so running the script on both commits and comparing
the files checks bit identity:

    PYTHONPATH=src python scripts/fingerprint.py --outdir results
    PYTHONPATH=src python scripts/fingerprint.py --outdir new --compare results

``--compare DIR`` reads the ``fingerprint.txt`` a run saved in DIR, prints
each line that differs from it ("-" the saved line, "+" this run's) and
exits with status 1 if any does.

The cases are:

- the Dirichlet BIE on the 16384-point ellipse, at eps 1e-9;
- the Helmholtz Dirichlet BIE on the 4096-point ellipse at wavenumber 10,
  at eps 1e-8: complex blocks, Kapur-Rokhlin weights, and proxy surfaces
  of more than 64 points;
- the Laplace kernel on 8192 uniform points in the unit square, at eps 1e-6;
- the Laplace kernel on 4096 uniform points in the unit cube, at eps 1e-6;
- the self-system of one trefoil(256) scatterer at 2 wavelengths, at eps 1e-8,
  as the scattering preconditioner compresses it;
- the benchmark's 2x2 grid of trefoil(256) at spacing 3.0 and 2 wavelengths:
  its ``matrix()``, ``precond_apply(precond_blocks(eps=1e-8))``, and
  ``gmres`` at tol 1e-6 with that preconditioner and with none.

``--quick`` runs the same cases at small N.

The script runs BLAS on one thread, as ``benchmark/run.py`` does: it sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy loads BLAS, whatever they were.  Threaded BLAS splits its sums
otherwise, and most lines would then depend on the thread count.
"""

import argparse
import functools
import hashlib
import os
import pathlib
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})  # before numpy loads BLAS

import numpy as np

from skelkit import bie
from skelkit.geom import PointSet, build_tree
from skelkit.kernels import KernelSpec
from skelkit.skel import apply, compress, serialize_compressed
from skelkit.solver import factor, gmres, serialize_factored, solve

# every random draw: the volume clouds and the apply/solve inputs
SEED = 201


def _ellipse(n):
    system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, n), KernelSpec("laplace", 2))
    return bie.compress_system(system, 1e-9)[1]


def _helmholtz_ellipse(n):
    spec = KernelSpec("helmholtz", 2, wavenumber=10.0)
    return bie.compress_system(bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, n), spec), 1e-8)[1]


def _volume(dim, n):
    pts = PointSet(np.random.default_rng(SEED).random((n, dim)))
    return compress(KernelSpec("laplace", dim), pts, build_tree(pts), 1e-6)


def _trefoil(n):
    curve = bie.trefoil(n)
    k = 2 * np.pi * 2.0 / curve.diameter()
    return bie.compress_system(bie.scattering_system([curve], k).scatterers[0], 1e-8)[1]


def _factored(build, n):
    """(item, data) for the compressed matrix ``build(n)``: its containers
    and its ``apply`` and ``solve`` outputs."""
    cm = build(n)
    fi = factor(cm)
    draw = np.random.default_rng(SEED).standard_normal
    inputs = {"x1": draw(cm.n), "x16": draw((cm.n, 16))}
    if np.iscomplexobj(cm.S):
        inputs = {k: v + 1j * draw(v.shape) for k, v in inputs.items()}
    items = [("compressed", serialize_compressed(cm)), ("factored", serialize_factored(fi))]
    for key, x in inputs.items():
        items += [(f"apply.{key}", apply(cm, x)), (f"solve.{key}", solve(fi, x))]
    return items


def _scattering(n):
    """(item, data) for the 2x2 grid of trefoil(n): the dense matrix, the
    preconditioner applied to one vector, and the preconditioned and the
    plain GMRES answers for that vector, each named with its iteration
    count."""
    curves = [bie.trefoil(n, center=(3.0 * i, 3.0 * j)) for i in range(2) for j in range(2)]
    system = bie.scattering_system(curves, 2 * np.pi * 2.0 / curves[0].diameter())
    draw = np.random.default_rng(SEED).standard_normal
    x = draw(system.n) + 1j * draw(system.n)
    precond = system.precond_apply(system.precond_blocks(eps=1e-8))
    A = system.matrix()
    items = [("matrix", A), ("precond.x1", precond(x))]
    y, iters = gmres(lambda v: A @ v, x, tol=1e-6, precond=precond)
    items.append((f"gmres.x1.iters{iters}", y))
    # unpreconditioned, the solve runs hundreds of steps over several
    # blocks of the Krylov basis
    y, iters = gmres(lambda v: A @ v, x, tol=1e-6)
    return items + [(f"gmres_plain.x1.iters{iters}", y)]


# name: (full N, quick N, (item, data) pairs of a case of N points)
CASES = {
    "ellipse-bie": (16384, 1024, functools.partial(_factored, _ellipse)),
    "ellipse-helmholtz-bie": (4096, 512, functools.partial(_factored, _helmholtz_ellipse)),
    "square": (8192, 1024, functools.partial(_factored, functools.partial(_volume, 2))),
    "cube": (4096, 512, functools.partial(_factored, functools.partial(_volume, 3))),
    "trefoil-scatterer": (256, 128, functools.partial(_factored, _trefoil)),
    "scattering": (256, 64, _scattering),
}


def _sha(data):
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def fingerprint(name, n, items):
    """Lines "<case> <item> <sha256>" for one case."""
    return [f"{name} {item} {_sha(data)}" for item, data in items(n)]


def differing(saved, lines):
    """The saved lines this run did not print, marked "-", then this run's
    lines that are not saved, marked "+"."""
    now, before = set(lines), set(saved)
    return ([f"- {line}" for line in saved if line not in now]
            + [f"+ {line}" for line in lines if line not in before])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="small N for every case")
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--compare", metavar="DIR",
                    help="exit 1 if any line differs from DIR/fingerprint.txt")
    args = ap.parse_args()
    # read before this run writes, in case DIR is the output directory
    saved = (pathlib.Path(args.compare, "fingerprint.txt").read_text().splitlines()
             if args.compare else None)

    lines = []
    for name, (n_full, n_quick, items) in CASES.items():
        for line in fingerprint(name, n_quick if args.quick else n_full, items):
            print(line, flush=True)
            lines.append(line)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "fingerprint.txt").write_text("\n".join(lines) + "\n")
    if saved is not None:
        diff = differing(saved, lines)
        for line in diff:
            print(line)
        if diff:
            sys.exit(1)


if __name__ == "__main__":
    main()
