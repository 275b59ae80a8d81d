"""Workload and metric names with their units, read from BENCHMARK.json,
and the per-layer metrics that are computed rather than timed."""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# per-layer metrics derived from call counts and array shapes rather than a
# clock: at one seed they repeat exactly from run to run
COMPUTED = frozenset([
    "geom.level_neighbors.calls", "geom.boxes",
    "kernels.eval_block.calls", "kernels.eval_block.entries",
    "kernels.neumann_trace.calls", "kernels.neumann_trace.entries",
    "lowrank.id_fixed_precision.calls", "lowrank.pivoted_qr.calls",
    "lowrank.qr_gflop", "lowrank.id_rerun.calls", "lowrank.id.first_pass_frac",
    "lowrank.id_randomized.calls", "lowrank.id_randomized.fallbacks",
    "lowrank.max_interp_entry",
    "skel.nodes", "skel.levels", "skel.top_rank", "skel.compressed_mb",
    "solver.factor.failures", "solver.lu_factor.calls", "solver.lu_solve.calls",
    "solver.lu_gflop", "solver.rcond_warnings", "solver.factored_mb",
    "solver.solve_read_mb", "solver.gmres.iters_plain", "solver.gmres.iters_prec",
    "bie.scattering.matrix_mb", "bie.precond_apply.calls",
])
