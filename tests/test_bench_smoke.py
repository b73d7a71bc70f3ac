"""The benchmark's own smoke test, run as part of the suite.

`bench/smoke.py` runs every workload at tiny sizes, traced and untraced, and
checks that each emits its metrics, passes its output checks, fires every
traced layer and sends the same traffic for the same seed. Running it here
makes a change under `src/` that breaks the benchmark fail the suite.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
