"""The benchmark's traced run ends in one strictly parseable result line, and
its counting generator proxy leaves the negative samplers' streams unchanged."""

import importlib.util
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from lbsnrec.training import sample_negative_links, sample_negative_locations

from property_checks import graph_of

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def values_drawn(seed, population, final_state, limit=100_000):
    """Single integers(0, population) draws that take a fresh generator from
    seed to final_state."""
    rng = np.random.default_rng(seed)
    for drawn in range(limit):
        if rng.bit_generator.state == final_state:
            return drawn
        rng.integers(0, population)
    raise AssertionError(f"final state not reached in {limit} draws")


TARGETS = np.random.default_rng(2).integers(0, 126, size=12)
GRAPH = graph_of(30, {(0, 1), (1, 0), (2, 0), (0, 2), (4, 5)})


# |L| = 126, n2 = 100 often falls short of distinct values in a first round;
# |L| = 20k does not
@pytest.mark.parametrize("sample, population", [
    (lambda rng: sample_negative_locations(126, TARGETS, 100, rng), 126),
    (lambda rng: sample_negative_locations(20000, TARGETS, 100, rng), 20000),
    (lambda rng: sample_negative_links(GRAPH, np.arange(30), 20, rng), 30)],
    ids=["locations_short_rows", "locations", "links"])
def test_counting_proxy_sees_every_draw_and_changes_none(sample, population):
    tracing = load_tracing()
    counts = defaultdict(float)
    bare = np.random.default_rng(11)
    proxy = tracing.CountingGenerator(np.random.default_rng(11), counts, "key")
    for got, want in zip(sample(proxy), sample(bare), strict=True):
        np.testing.assert_array_equal(got, want)
    assert proxy.bit_generator.state == bare.bit_generator.state
    drawn = values_drawn(11, population, bare.bit_generator.state)
    assert counts["key"] == drawn > 0


def _reject_constant(name):
    # json.dumps writes a non-finite float as NaN or Infinity, which a strict
    # JSON reader refuses
    raise ValueError(f"non-finite metric value {name}")


def _files_under(root):
    return {path.relative_to(root): (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_traced_planted_run_reports_every_per_layer_metric(tmp_path):
    # runs from a copy (not symlinks: run.py checks the resolved import
    # path), so the checkout's perfbench/_work stays as it was
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / "perfbench" / "_work"
    before = _files_under(work)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, lines
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert "# absent at this commit: none" in lines
    assert (tmp_path / "perfbench" / "_work" / "trace-planted-1.json").is_file()
    assert _files_under(work) == before


# Installs the unmodified tracer in a fresh interpreter, runs one trajectory
# batch with |L| > DENSE_SOFTMAX_RATIO (1 + n2), n2 = 100 (the gathered
# path), and prints each span's name and its parent's name.
TRACED_GATHERED_SOFTMAX = """
import importlib.util, json, sys
import numpy as np
root = sys.argv[1]
sys.path.insert(0, root + "/src")
spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", root + "/perfbench/tracing.py")
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from lbsnrec import training
from lbsnrec.model import FULL_VARIANT, ModelParams, tensor_shapes
num_locations = training.DENSE_SOFTMAX_RATIO * 101 + 16
rng = np.random.default_rng(0)
params = ModelParams(**{name: rng.uniform(-0.5, 0.5, size=shape)
                        for name, shape in tensor_shapes(
                            3, num_locations, 3).items()})
views = [(rng.integers(0, num_locations, size=6), [(0, 2), (2, 6)])
         for _ in range(3)]
batch = training.TrajectoryBatch(
    users=np.arange(3), views=views,
    negatives=[training.sample_negative_locations(num_locations, locs, 100, rng)
               for locs, _ in views])
training.trajectory_loss_and_grads(params, FULL_VARIANT, batch)
print(json.dumps({
    "spans": [[name, tracer.spans[parent][0] if parent >= 0 else None]
              for name, _, _, parent in tracer.spans],
    "metrics": tracer.layer_metrics()}))
"""


def test_traced_gathered_softmax_records_sampled_location_loss_spans():
    run = subprocess.run(
        [sys.executable, "-c", TRACED_GATHERED_SOFTMAX, str(ROOT)],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout)
    softmax = [parent for name, parent in result["spans"]
               if name == "training.sampled_location_loss"]
    assert softmax and set(softmax) == {"training.trajectory_loss_and_grads"}
    assert result["metrics"]["training.sampled_location_loss.calls"] == \
        len(softmax)
    assert result["metrics"]["training.sampled_location_loss.s"] > 0
