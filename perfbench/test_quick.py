"""Smoke test of the benchmark: every workload once, small, traced, with
all output checks (``run.py --quick``)."""

import json
import subprocess
import sys
from pathlib import Path

from tracing import metric_names

RUN = Path(__file__).resolve().parent / "run.py"


def test_quick_mode_runs_every_workload_and_its_checks():
    proc = subprocess.run([sys.executable, str(RUN), "--quick", "--seed", "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    failed_checks = [line for line in lines if "CHECK FAILED" in line]
    assert result["correct"], failed_checks
    assert result["attempted"] > 0 and result["failed"] == 0
    for name, metrics in result["metrics"].items():
        assert list(metrics) == metric_names(), name
    assert result["metrics"]["protocol_512"]["metrics.ssim_calls"]["value"] > 0
    assert result["metrics"]["stack_adaptive_512"][
        "gain.capture_adaptive_s"]["value"] > 0
