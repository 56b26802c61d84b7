"""The benchmark's smoke run: its pinned call counts and smoke references."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_is_correct():
    # about 5 s: all four workloads on small lattices, untraced and traced;
    # the failed checks, if any, are printed one per line before the result
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["failed"] == 0, "\n".join(lines[:-1])[-4000:]
    assert result["correct"] is True
    assert proc.returncode == 0
