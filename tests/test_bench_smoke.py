"""The benchmark's smoke run: every workload at minimal size, traced and
untraced, with its output checks. It writes only into the ignored
``e2ebench/out/``."""

import subprocess
import sys
from pathlib import Path

RUN_PATH = Path(__file__).resolve().parents[1] / "e2ebench" / "run.py"


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN_PATH), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
