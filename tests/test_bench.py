"""The benchmark's own self-check runs against this checkout, so a change to
the package that breaks the benchmark's oracle, draws or output checks fails
here and not only when the benchmark is next run."""

import subprocess
import sys
from pathlib import Path

from _subproc import child_env

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--selftest"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "selftest passed"
