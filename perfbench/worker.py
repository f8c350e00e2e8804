"""The measured process of one benchmark run.

It runs only this workload's setup, training and eval, so its peak resident
memory is the workload's. The parent prepares one or more instances of the
workload in the work directory (dataset cache, train config, chance floors,
listed in ``instances.json``); the result is written there as JSON. Run by
``run.py``; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import time
from pathlib import Path

import gate
from tracing import Tracer

EVAL_MIN_S = 0.5        # eval is repeated within a cycle until this much time


def training_checkins(dataset, splits):
    """Check-ins in every user's training subtrajectories."""
    total = 0
    for user, traj in enumerate(dataset.trajectories):
        end = int(splits.train_end[user])
        if end:
            total += traj.subtrajectory_bounds[end - 1][1]
    return total


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--once", action="store_true",
                        help="one setup, train and eval, with no repetition")
    parser.add_argument("--trace-out", help="trace the layers and write spans here")
    return parser.parse_args(argv)


class Run:
    """Setup, train and eval cycles over the instances, with the gate applied."""

    def __init__(self, work, tag, instances, region, eval_min_s):
        from lbsnrec import cli, data, model, training
        self.cli, self.data, self.training = cli, data, training
        self.load_checkpoint = model.load_checkpoint   # the gate's own copy
        self.work, self.instances, self.region = work, instances, region
        self.eval_min_s = eval_min_s
        self.checkpoint = str(work / f"{tag}.jntm")
        self.report_csv = str(work / f"{tag}.csv")
        self.samples = {"setup_s": [], "train_checkins_per_s": [], "eval_s": []}
        self.attempted = self.failed = 0
        self.problems = []
        self.quality = {}       # instance index -> {metric: (recall, events)}
        self.records = []

    def config(self, instance):
        keys = json.loads((self.work / instance["config"]).read_text())
        return self.training.TrainConfig(**keys)

    def setup(self, instance):
        config = self.config(instance)
        t0 = time.perf_counter()
        with self.region("bench.setup"):
            dataset = self.data.load_dataset(str(self.work / instance["data"]))
            splits = self.data.make_splits(dataset, seed=config.seed)
        self.samples["setup_s"].append(time.perf_counter() - t0)
        return dataset, splits

    def _record(self, found):
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems += found
        return not found

    def cycle(self, index):
        slot = index % len(self.instances)
        instance = self.instances[slot]
        config = self.config(instance)
        dataset, splits = self.setup(instance)
        checkins = training_checkins(dataset, splits)
        t0 = time.perf_counter()
        self.records = self.training.train(dataset, splits, config, self.checkpoint)
        elapsed = time.perf_counter() - t0
        if self._record(gate.check_records(self.records, config.max_iterations)
                        + gate.check_checkpoint(self.load_checkpoint,
                                                self.checkpoint, dataset)):
            self.samples["train_checkins_per_s"].append(
                checkins * config.max_iterations / elapsed)
        argv = ["eval", "--model", self.checkpoint,
                "--data", str(self.work / instance["data"]),
                "--config", str(self.work / instance["config"]),
                "--out", self.report_csv, "--task", "both"]
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            with self.region("bench.eval"):
                code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
            spent += elapsed
            found = [f"lbsnrec eval exited {code}"] if code != 0 else []
            if not found:
                recalls = gate.read_recalls(self.report_csv)
                # Training is deterministic, so a repeated instance adds nothing.
                self.quality.setdefault(slot, recalls)
                found = gate.check_recalls(recalls, instance["floors"])
            if self._record(found):
                self.samples["eval_s"].append(elapsed)
            if spent >= self.eval_min_s:
                return splits

    def pooled_quality(self):
        """Recall over the test events of every instance, each counted once."""
        pooled = {}
        for name in ("next_recall10", "friend_recall10"):
            pairs = [q[name] for q in self.quality.values() if name in q]
            events = sum(n for _, n in pairs)
            if events:
                pooled[name] = sum(r * n for r, n in pairs) / events
        return pooled


def main(argv=None):
    args = parse_args(argv)
    work = Path(args.workdir)
    instances = json.loads((work / "instances.json").read_text())
    tracer = Tracer() if args.trace_out else None
    region = tracer.region if tracer else (lambda name: contextlib.nullcontext())
    run = Run(work, args.tag, instances, region, 0.0 if args.once else EVAL_MIN_S)
    if tracer is not None:
        tracer.install()

    # Peak memory is read after the first setup, train and eval, before any
    # repetition, so it does not depend on how many repetitions fit in the run.
    start = time.perf_counter()
    splits = run.cycle(0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cycles = 1
    last = time.perf_counter() - start
    while not args.once:
        cycle_start = time.perf_counter()
        # Every instance is trained once, then cycles repeat until the deadline.
        if cycles >= len(instances) and cycle_start - start + last > args.seconds:
            break
        run.cycle(cycles)
        last = time.perf_counter() - cycle_start
        cycles += 1

    result = {
        **run.samples, "recalls": run.pooled_quality(),
        "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems[:20], "cycles": cycles,
        "peak_rss_mb": peak_rss_mb,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if tracer is not None:
        # A traced run is one cycle on the first instance.
        records, epochs = run.records, len(run.records)
        layers = tracer.layer_metrics()
        layers["data.cache_bytes"] = os.path.getsize(work / instances[0]["data"])
        layers["model.checkpoint_bytes"] = os.path.getsize(run.checkpoint)
        scored = tracer.counts.get("training.checkins")
        if records and scored:
            layers["training.traj_loss_per_checkin"] = (
                sum(r.traj_loss for r in records) / scored)
        links = len(splits.train_edges) * epochs + tracer.counts.get(
            "training.negative_links", 0)
        if records and links:
            layers["training.net_loss_per_link"] = sum(r.net_loss for r in records) / links
        result["layers"] = layers
        result["absent"] = tracer.absent
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({**tracer.dump(), "metrics": layers}, handle)
    (work / f"{args.tag}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
