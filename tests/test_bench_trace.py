"""The traced benchmark calls the package's APIs directly (`bench/sweep.py`),
so one short traced run keeps them and the benchmark in step."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not (ROOT / "bench" / "run.py").exists(), reason="not run from a source checkout")
def test_one_traced_sweep_of_large_files_is_correct(tmp_path):
    # a copy, as the run writes .bench_work/ and .bench_traces/ next to bench/
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--trace", "1", "--workload", "large_files", "--seed", "1", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stderr
