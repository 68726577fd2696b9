"""The benchmark's traced run still reads its pinned counts from the program.

perfbench/tracing.py wraps field.scan, oracle2d.render_slice2d and
friends and reads work counts from their return values (a scan result's
``tags``, a slice's bit array); a change to those values would silently
break the benchmark's correctness gate.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result["metrics"]


def test_traced_sweep_benchmark_reports_correct():
    assert traced_run("sweep-newton-escape")["field.scan.voxels"]["value"] == 12 * 33**3


def test_traced_slice_benchmark_reports_correct():
    assert traced_run("slice-newton-oracle")["oracle2d.seeds_per_s"]["value"] > 0
