"""Quick self-test of the benchmark at a reduced workload size.

Run from the repository root (about 35 s):

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names the workloads defined in run.py, that an
untraced run prints every end-to-end metric of BENCHMARK.json with its unit
and passes the gate, that pooled recall counts each instance once however
many cycles a run fits in, that a traced run prints every
per-layer metric with its unit and checkpoints byte-identical to the untraced
ones, and that the gate rejects a corrupted checkpoint. Exits 0 when all
checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run
import worker

# Two planted instances, trained for 3 epochs at the default learning rate.
TINY = run.Workload(synth={}, train={"d": 16, "max_iterations": 3, "patience": 3},
                    instances=2)


def run_tiny(trace, seconds=1):
    """Run the tiny workload through run.main; return (stdout lines, result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", str(seconds),
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    if code != 0 or not lines:
        raise AssertionError(f"run exited {code} with output {lines}")
    return lines, json.loads(lines[-1])


def check_metrics(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        metric = result["metrics"].get(name)
        assert metric is not None, f"{name} missing"
        assert metric["unit"] == unit, f"{name}: unit {metric['unit']} != {unit}"
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), f"{name} not printed with its unit"
    assert set(result["metrics"]) == {spec["name"] for spec in declared}


def check_gate_rejects_corrupt_checkpoint(work):
    from lbsnrec import data, model, synth, training
    dataset = synth.generate(synth.SynthConfig(users_per_community=5,
                                               subtrajectories_per_user=10))
    splits = data.make_splits(dataset, seed=0)
    good = work / "good.jntm"
    training.train(dataset, splits,
                   training.TrainConfig(d=4, max_iterations=1, patience=1), good)
    assert gate.check_checkpoint(model.load_checkpoint, good, dataset) == []
    raw = good.read_bytes()
    truncated = work / "truncated.jntm"
    truncated.write_bytes(raw[:len(raw) // 2])
    flipped = work / "flipped.jntm"
    flipped.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0x01]))  # last vocabulary byte
    for bad in (truncated, flipped):
        problems = gate.check_checkpoint(model.load_checkpoint, bad, dataset)
        assert problems, f"gate accepted corrupted checkpoint {bad.name}"


def check_recall_counts_each_instance_once(work, data):
    from lbsnrec import synth
    run.prepare(TINY, 1, work, data, synth)
    instances = json.loads((work / "instances.json").read_text())
    cycles = worker.Run(work, "once", instances,
                        lambda name: contextlib.nullcontext(), eval_min_s=0.0)
    with contextlib.redirect_stdout(io.StringIO()):
        for index in range(len(instances)):
            cycles.cycle(index)
        once = cycles.pooled_quality()
        cycles.cycle(len(instances))      # trains the first instance again
    assert set(once) == {"next_recall10", "friend_recall10"}, once
    assert cycles.pooled_quality() == once, "recall depends on the run's length"


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), \
        "BENCHMARK.json and run.py name different workloads"
    run.WORKLOADS["tiny"] = TINY

    lines, result = run_tiny(trace=0)
    check_metrics(lines, result, spec["end_to_end"])
    lines, result = run_tiny(trace=1)
    check_metrics(lines, result, spec["per_layer"])
    assert any(line.startswith("# checkpoints of ") and line.endswith(": True")
               for line in lines), "a checkpoint differs from the untraced one"

    data, _ = run.import_program()
    run.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        check_gate_rejects_corrupt_checkpoint(work)
        check_recall_counts_each_instance_once(work, data)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
