"""Smoke runs of the experiment scripts documented in the README."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args, cwd, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args, outputs", [
    ("run_desk_suite.py", ["--nmax", "1024"],
     ["apply_circle.csv", "apply_square.csv", "solve_ellipse.csv"]),
    ("scatter_demo.py", ["--n", "64"], ["scatter_demo.csv", "scatter_density.csv"]),
    ("fingerprint.py", ["--quick"], ["fingerprint.txt"]),
])
def test_script_runs(tmp_path, script, args, outputs):
    proc = _run(script, [*args, "--outdir", str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) >= 2, name


def test_fingerprint_compare_exits_1_on_a_differing_line(tmp_path):
    # the saved run asks for two BLAS threads and the compared run for one:
    # the script runs on one either way, so the lines still match
    saved, again, doctored = (tmp_path / d for d in ("saved", "again", "doctored"))
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    proc = _run("fingerprint.py", ["--quick", "--outdir", str(saved)], tmp_path,
                **dict.fromkeys(threads, "2"))
    assert proc.returncode == 0, proc.stderr
    lines = (saved / "fingerprint.txt").read_text().splitlines()
    proc = _run("fingerprint.py", ["--quick", "--outdir", str(again), "--compare", str(saved)],
                tmp_path, **dict.fromkeys(threads, "1"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # one hash changed: the saved line and this run's line are printed
    case, item, sha = lines[3].split()
    wrong = f"{case} {item} {sha[::-1]}"
    doctored.mkdir()
    (doctored / "fingerprint.txt").write_text("\n".join(lines[:3] + [wrong] + lines[4:]) + "\n")
    proc = _run("fingerprint.py", ["--quick", "--outdir", str(again), "--compare",
                                   str(doctored)], tmp_path)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-2:] == [f"- {wrong}", f"+ {lines[3]}"]
