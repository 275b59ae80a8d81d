"""Smoke runs of the experiment scripts documented in the README."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, outputs", [
    ("run_desk_suite.py", ["--nmax", "1024"],
     ["apply_circle.csv", "apply_square.csv", "solve_ellipse.csv"]),
    ("scatter_demo.py", ["--n", "64"], ["scatter_demo.csv", "scatter_density.csv"]),
    ("fingerprint.py", ["--quick"], ["fingerprint.txt"]),
])
def test_script_runs(tmp_path, script, args, outputs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--outdir", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) >= 2, name
