import json
import math

import numpy as np
import pytest

import skelkit.geom as geom
import skelkit.kernels as kernels
import skelkit.skel as skel
import skelkit.solver as solver
from skelkit.errors import InvalidInput
from catalog import COMPUTED, END_TO_END, PER_LAYER, WORKLOAD_NAMES
from run import run_workload
from workloads import ORACLE_ROWS, WORKLOADS, _CompressedWorkload

TINY = {"ellipse-bie-rhs": dict(n=1024), "square-volume": dict(n=1024),
        "trefoil-scatter": dict(n=128), "cube-volume": dict(n=1024)}


@pytest.mark.parametrize("n", [1024, 4096])
def test_sampled_oracle_tracks_dense_oracle(n):
    rng = np.random.default_rng(n)
    pts = geom.PointSet(rng.random((n, 2)))
    spec = kernels.KernelSpec("laplace", 2)
    cm = skel.compress(spec, pts, geom.build_tree(pts), 1e-6)
    x = rng.standard_normal(n)
    y = skel.apply(cm, x)
    ref = kernels.eval_block(spec, pts, pts) @ x
    dense = np.linalg.norm(y - ref) / np.linalg.norm(ref)
    rows = np.sort(rng.choice(n, ORACLE_ROWS, replace=False))
    sampled = _CompressedWorkload.sampled(
        rows, kernels.eval_block(spec, pts.subset(rows), pts))(y, x)
    assert dense <= 1e-4
    assert dense / 10 <= sampled <= dense * 10


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_workload_runs_correctly(name):
    wl = WORKLOADS[name](**TINY[name])
    line, record = run_workload(wl, seed=5, seconds=0.1, trace=0)
    assert line["correct"] and line["failed"] == 0, record["failures"]
    assert set(line["metrics"]) == set(END_TO_END)
    for m in line["metrics"].values():
        assert math.isfinite(m["value"]) and m["value"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_failed_setup_is_reported_not_raised(trace):
    wl = WORKLOADS["square-volume"](n=256)

    def setup(inp):
        raise RuntimeError("set-up defect")
    wl.setup = setup
    line, record = run_workload(wl, seed=1, seconds=0.1, trace=trace)
    assert not line["correct"] and line["failed"] >= 1
    assert record["failures"][0]["op"] == "setup"
    assert set(line["metrics"]) == set(PER_LAYER if trace else END_TO_END)
    json.dumps(line, allow_nan=False)


def test_inputs_follow_the_seed():
    wl = WORKLOADS["square-volume"](n=256)
    a, b, c = (wl.make_inputs(s)["arrays"] for s in (1, 1, 2))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_traced_run_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        wl = WORKLOADS["ellipse-bie-rhs"](n=1024, setup_reps=1)
        line, _ = run_workload(wl, seed=3, seconds=0.1, trace=1)
        assert line["correct"], line
        runs.append(line["metrics"])
    assert set(runs[0]) == set(PER_LAYER)
    for name in COMPUTED:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["kernels.eval_block.calls"]["value"] > 0
    assert runs[0]["solver.lu_factor.calls"]["value"] > 0


def test_cube_factor_probe_is_reported_not_counted(monkeypatch):
    real = solver.factor

    def factor(cm):  # the known factor defect, on a size that factors
        real(cm)
        raise InvalidInput("non-square Lambda block")
    monkeypatch.setattr(solver, "factor", factor)
    wl = WORKLOADS["cube-volume"](**TINY["cube-volume"])
    line, _ = run_workload(wl, seed=5, seconds=0.1, trace=1)
    assert line["correct"] and line["failed"] == 0, line
    assert line["metrics"]["solver.factor.failures"]["value"] == 1
