"""The benchmark's traced run ends in one strictly parseable result line."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    # json.dumps writes a non-finite float as NaN or Infinity, which a strict
    # JSON reader refuses
    raise ValueError(f"non-finite metric value {name}")


def test_traced_planted_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, lines
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert "# absent at this commit: none" in lines
