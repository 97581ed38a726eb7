"""Repository checks.  The benchmark harness's self-tests run in a child
process so that its tracer's patching of fuzzfix never reaches this test
session; a change that removes a name the tracer patches fails here."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_one_scalar_loop_site():
    # every gauge evaluates array-first; expr.array_fn is the one place a
    # scalar-only library callable is looped over
    hits = [path.name for path in sorted((ROOT / "src" / "fuzzfix").rglob("*.py"))
            for line in path.read_text().splitlines() if "np.vectorize" in line]
    assert hits == ["expr.py"]
