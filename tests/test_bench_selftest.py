"""The benchmark harness runs against the package as it stands.

`bench/run.py --self-test` runs three ops of each workload through the
harness's oracles and expects exactly the one corrupted op to fail, and a
short traced run takes the per-layer path the self-test does not (the
probes, `verify_constants`, the CLI sweep and a few ops of the other
workloads), so a change to the package that breaks the harness fails here
first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_run(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )


def test_bench_self_test_passes():
    proc = bench_run("--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test ok" in proc.stdout


def test_a_traced_run_passes(tmp_path):
    proc = bench_run("--workload", "uniform_grid", "--seconds", "0.3", "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    [result_file] = tmp_path.glob("uniform_grid-*-trace1-*.json")
    result = json.loads(result_file.read_text())
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] > 0
