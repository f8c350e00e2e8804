"""lbsnrec benchmark: training throughput, eval time and model quality.

Usage (from the repository root):

    python3 perfbench/run.py --workload planted --seed 1 --seconds 50 --trace 0

Each run generates its workload's synthetic dataset cache from ``--seed``,
then starts one worker process that pays what every ``lbsnrec train`` and
``lbsnrec eval`` invocation pays: it loads the cache and builds the splits
(``setup_s``), trains with ``training.train`` (``train_checkins_per_s``) and
evaluates the checkpoint with the in-process ``lbsnrec eval --task both``
(``eval_s``). It repeats setup and train+eval cycles for ``--seconds`` and
reports the 90th-percentile-slow setup, train and eval repetition (see
``slow_tail``), with the sample counts, medians and extremes. Every train and
eval passes a correctness gate (``gate.py``).

``--trace 1`` instead alternates untraced and traced single-cycle workers on
the first instance, at least ``MIN_TRACE_PAIRS`` pairs and more while
``--seconds`` lasts. The traced ones wrap the public functions of
``lbsnrec.data``, ``training``, ``model`` and ``evaluation`` from outside the
program (``tracing.py``) and report per-layer calls, time and self time plus
work counts, taken from the traced cycle of median training speed. Every
checkpoint must be byte-identical to the first untraced one. The tracing
overhead is the traced cycles' ``slow_tail`` minus the untraced ones'. Spans of
the reported cycle are written to ``perfbench/_work/trace-<workload>-<seed>.json``.

Metric units and workload descriptions are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# The paper's path is single-threaded; pin BLAS before numpy is imported here
# or in the worker, which inherits this environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
RUN_TIMEOUT_S = 170     # the whole run, workers included, ends within this
# Share of repetitions faster than the reported one: the 90th-percentile time,
# the 10th-percentile throughput.
SLOW_TAIL = {"setup_s": 0.9, "train_checkins_per_s": 0.1, "eval_s": 0.9}
MIN_TRACE_PAIRS = 3     # untraced/traced cycle pairs of a traced run, at least


@dataclass(frozen=True)
class Workload:
    synth: dict       # SynthConfig keys; the seed is added per instance
    train: dict       # TrainConfig keys for `lbsnrec train/eval --config`
    instances: int = 1  # instances per run; recall is pooled over their events


# patience >= max_iterations, so early stopping never changes the work done.
# Several small instances per run give more, shorter repetitions, and pool
# enough test events that recall varies little from seed to seed. bk_shape
# has 50 users: in batches of 32 (two AdaGrad steps an epoch) at learning
# rates of 0.3-0.5, some instances stayed at chance friend recall; in batches
# of 10 at the default rate, none of 60 did (lowest 0.32, chance 0.22).
WORKLOADS = {
    "planted": Workload(
        synth={},
        train={"d": 16, "learning_rate": 0.3, "max_iterations": 4, "patience": 4},
        instances=8),
    "bk_shape": Workload(
        synth={"num_communities": 5, "users_per_community": 10,
               "locations_per_community": 50, "shared_locations": 19750,
               "intra_edge_prob": 0.8, "inter_edge_prob": 0.005,
               "subtrajectories_per_user": 30, "locations_per_subtrajectory": 3},
        train={"d": 50, "batch_users": 10, "max_iterations": 2, "patience": 2},
        instances=6),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import lbsnrec from this checkout's src/, never from anywhere else."""
    if not (SRC / "lbsnrec" / "__init__.py").is_file():
        raise SystemExit(f"error: no lbsnrec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lbsnrec
    if Path(lbsnrec.__file__).resolve().parent != SRC / "lbsnrec":
        raise SystemExit(f"error: imported lbsnrec from {lbsnrec.__file__}")
    from lbsnrec import data, synth
    return data, synth


def prepare(workload, seed, work, data, synth):
    """Generate each instance's dataset cache, config and floors (untimed)."""
    instances = []
    for i in range(workload.instances):
        instance_seed = seed * workload.instances + i
        config = synth.SynthConfig(**workload.synth, seed=instance_seed)
        data.save_dataset(synth.generate(config), work / f"data-{i}.bin")
        (work / f"config-{i}.json").write_text(
            json.dumps({**workload.train, "seed": instance_seed}))
        # Default split fractions and link ratio, as `lbsnrec train/eval` use.
        floors = synth.chance_baselines(config, split_seed=instance_seed, ks=(10,))
        instances.append({"data": f"data-{i}.bin", "config": f"config-{i}.json",
                          "floors": {"next_recall10": floors["next_location"][10],
                                     "friend_recall10": floors["friend"][10]}})
    (work / "instances.json").write_text(json.dumps(instances))


def run_worker(work, tag, seconds, deadline, once=False, trace_out=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workdir", str(work),
           "--tag", tag, "--seconds", str(seconds)]
    if once:
        cmd.append("--once")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}")
    return json.loads((work / f"{tag}.json").read_text())


def load_units(trace):
    """{metric name: unit} of the metrics a run prints, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def slow_tail(name, samples):
    """The repetition that 90% of the run's repetitions of ``name`` beat.

    The host runs the same code up to 2x slower for stretches of 10-60 s, in
    CPU time as in wall time. The slow state is narrow and shows up in nearly
    every run; the fast one is wide and only in some runs. So the median and
    the fastest repetition depend on how much of a run was fast (across
    ten-run sets of planted they spread 5-36%), while the slow tail spread
    6-14%.
    """
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(SLOW_TAIL[name] * 100) - 1]


def end_to_end(result):
    """Slow-tail setup, train and eval repetition; peak memory; pooled recall."""
    metrics = {name: slow_tail(name, result[name]) for name in SLOW_TAIL
               if result[name]}
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    metrics.update(result["recalls"])
    return metrics


def run_traced(args, work, deadline):
    """Alternate untraced and traced single cycles; per-layer metrics, overhead."""
    start = time.monotonic()
    plain, traced, workers = [], [], []
    while len(traced) < MIN_TRACE_PAIRS or time.monotonic() - start < args.seconds:
        n = len(traced)
        plain.append(run_worker(work, f"untraced-{n}", args.seconds, deadline, once=True))
        traced.append(run_worker(work, f"traced-{n}", args.seconds, deadline, once=True,
                                 trace_out=work / f"trace-{n}.json"))
        workers += [plain[-1], traced[-1]]
    reference = (work / "untraced-0.jntm").read_bytes()
    differ = [tag for tag in (f"{kind}-{i}" for i in range(len(traced))
                              for kind in ("untraced", "traced"))
              if (work / f"{tag}.jntm").read_bytes() != reference]
    # Counts are the same in every traced cycle; times come from the median one.
    best = statistics.median_low(
        (max(w["train_checkins_per_s"], default=0.0), i) for i, w in enumerate(traced))[1]
    trace_out = WORK / f"trace-{args.workload}-{args.seed}.json"
    shutil.copyfile(work / f"trace-{best}.json", trace_out)
    metrics = dict(traced[best]["layers"])
    for name in ("train_checkins_per_s", "eval_s"):
        without = [x for w in plain for x in w[name]]
        with_trace = [x for w in traced for x in w[name]]
        if without and with_trace:
            metrics[f"trace_overhead.{name}"] = (slow_tail(name, with_trace)
                                                 - slow_tail(name, without))
    result = {"attempted": sum(w["attempted"] for w in workers) + len(workers) - 1,
              "failed": sum(w["failed"] for w in workers) + len(differ),
              "problems": [p for w in workers for p in w["problems"]]
              + [f"checkpoint {tag} differs from untraced-0" for tag in differ],
              "threads": traced[best]["threads"], "cycles": len(workers)}
    notes = [f"checkpoints of {len(workers)} cycles byte-identical to the first "
             f"untraced one: {not differ}",
             f"trace overhead: slow tail of {len(traced)} traced minus slow tail "
             f"of {len(plain)} untraced cycles",
             f"absent at this commit: {', '.join(traced[best]['absent']) or 'none'}",
             f"spans: {trace_out.relative_to(ROOT)}"]
    return result, metrics, notes


def run(args):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    data, synth = import_program()
    workload = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        prepare(workload, args.seed, work, data, synth)
        if args.trace:
            return run_traced(args, work, deadline)
        result = run_worker(work, "run", args.seconds, deadline)
        return result, end_to_end(result), []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    try:
        units = load_units(args.trace)
        result, metrics, notes = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = {}
    for name, value in metrics.items():
        if name not in units:
            print(f"error: metric {name} is not in BENCHMARK.json", file=sys.stderr)
            return 1
        out[name] = {"value": value, "unit": units[name]}
        print(f"{name} = {value!r} {units[name]}")
    threads = " ".join(f"{k}={v}" for k, v in result["threads"].items())
    print(f"# {args.workload} seed={args.seed}: {result['attempted']} operations, "
          f"{result['attempted'] - result['failed']} passed the gate, "
          f"{result['failed']} failed")
    print(f"# {threads} nproc={len(os.sched_getaffinity(0))} cycles={result['cycles']}")
    for name in SLOW_TAIL:
        samples = result.get(name)
        if samples:
            print(f"# {name} samples: n={len(samples)} min={min(samples):.6g} "
                  f"median={statistics.median(samples):.6g} max={max(samples):.6g} "
                  f"reported={slow_tail(name, samples):.6g}")
    for line in notes + result["problems"]:
        print(f"# {line}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
