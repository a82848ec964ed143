"""Fast self-test: every workload at a tiny size, traced, all checks on.

Run from the repository root with ``python -m pytest rxbench`` (a few
seconds; the tier-1 suite under ``tests/`` does not collect it).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_mode_passes_every_check():
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip().splitlines()[-1] == '{"smoke": "ok"}'
    for workload in ("catalog_scan", "index_lookup", "commit_mix"):
        assert f"[{workload}] hygiene:" in run.stdout
        assert f"[{workload}] trace.unattributed_frac" in run.stdout
