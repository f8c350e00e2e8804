"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``lbsnrec.data``, ``lbsnrec.training``,
``lbsnrec.model`` and ``lbsnrec.evaluation`` with wrappers that record one span
per call (name, start, end, parent span). Every module attribute of the
package that refers to a wrapped function is replaced, so names imported with
``from .model import ...`` are traced too. A name missing from the package at
the traced commit is skipped and listed as absent.

The generators returned by ``training.rng_streams`` are wrapped in a proxy that
forwards every call unchanged and counts the values drawn, which gives the
negative sampler's accept ratio without perturbing the random streams.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("data", "training", "model", "evaluation")

# (module, attribute path) of every traced function. Classmethods are written
# as "Class.method".
TRACED = (
    ("data", "load_dataset"),
    ("data", "make_splits"),
    ("data", "build_graph"),
    ("training", "train"),
    ("training", "init_params"),
    ("training", "draw_network_batch"),
    ("training", "network_loss_and_grads"),
    ("training", "draw_trajectory_batch"),
    ("training", "trajectory_loss_and_grads"),
    ("training", "sampled_location_loss"),
    ("training", "adagrad_update"),
    ("training", "Gradients.like"),
    ("model", "forward_trajectory"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("evaluation", "eval_next_location"),
    ("evaluation", "eval_friend_rec"),
)

TRAIN_SPAN = "training.train"
NEXT_EVAL_SPAN = "evaluation.eval_next_location"
LOCATION_STREAM = "location_negatives"


def span_metric_names(name):
    """Per-layer metric names reported for one traced function."""
    if name == NEXT_EVAL_SPAN:
        # Validation inside train and the eval command's reports are kept apart.
        return [f"{name}.{part}.{kind}" for part in ("validation", "report")
                for kind in ("calls", "s", "self_s")]
    return [f"{name}.{kind}" for kind in ("calls", "s", "self_s")]


class CountingGenerator:
    """Forwards every call to a numpy Generator and counts the values drawn."""

    def __init__(self, generator, counts, key):
        self._generator = generator
        self._counts = counts
        self._key = key

    def __getattr__(self, attr):
        target = getattr(self._generator, attr)
        if not callable(target):
            return target

        def forward(*args, **kwargs):
            result = target(*args, **kwargs)
            self._counts[self._key] += int(np.size(result))
            return result

        return forward


class Tracer:
    """Spans and counts recorded in memory; written out when the run ends."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(float)
        self.present = []
        self.absent = []
        self._hooks = {
            "training.draw_trajectory_batch": self._count_trajectory_batch,
            "training.draw_network_batch": self._count_network_batch,
            "training.rng_streams": self._wrap_streams,
            NEXT_EVAL_SPAN: self._count_events("evaluation.next_events"),
            "evaluation.eval_friend_rec": self._count_events("evaluation.friend_events"),
        }

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def region(self, name):
        """Span around one of the benchmark's own steps."""
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if hook is not None:
                result = hook(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package="lbsnrec"):
        """Wrap every traced name that exists; record the missing ones."""
        layers = {m: importlib.import_module(f"{package}.{m}") for m in LAYER_MODULES}
        modules = [importlib.import_module(package),
                   importlib.import_module(f"{package}.cli"), *layers.values()]
        # rng_streams is wrapped for its draw counts only; it is not a layer metric.
        for module_name, path in TRACED + (("training", "rng_streams"),):
            name = f"{module_name}.{path}"
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(layers[module_name], class_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
            else:
                owner, attr = layers[module_name], path
                raw = getattr(owner, attr, None)
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                wrapped = self._wrap(name, raw)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
            if name != "training.rng_streams":
                self.present.append(name)

    # -- count hooks -------------------------------------------------------

    def _count_trajectory_batch(self, batch):
        for per_user in getattr(batch, "negatives", ()):
            self.counts["training.checkins"] += len(per_user)
            self.counts["training.negative_locations"] += sum(len(n) for n in per_user)
        self.counts["training.batches"] += 1
        return batch

    def _count_network_batch(self, batch):
        self.counts["training.negative_links"] += sum(
            len(n) for n in getattr(batch, "negatives", ()))
        self.counts["training.batches"] += 1
        return batch

    def _count_events(self, key):
        def hook(report):
            # Only the eval command's reports; validation inside train is not counted.
            if not any(self.spans[i][0] == TRAIN_SPAN for i in self._stack):
                self.counts[key] += getattr(report, "num_events", 0)
            return report
        return hook

    def _wrap_streams(self, streams):
        for field, value in list(vars(streams).items()):
            if isinstance(value, np.random.Generator):
                self.counts[f"rng.{field}"] += 0
                setattr(streams, field, CountingGenerator(
                    value, self.counts, f"rng.{field}"))
        return streams

    # -- metrics -----------------------------------------------------------

    def _ancestor_named(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self):
        """{metric name: value} for every present traced function plus counts."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for name in self.present:
            for metric in span_metric_names(name):
                totals[metric] = 0
        for index, (name, start, end, _) in enumerate(self.spans):
            if name == NEXT_EVAL_SPAN:
                part = "validation" if self._ancestor_named(index, TRAIN_SPAN) else "report"
                key = f"{name}.{part}"
            else:
                key = name
            if f"{key}.calls" not in totals:
                continue
            totals[f"{key}.calls"] += 1
            totals[f"{key}.s"] += end - start
            totals[f"{key}.self_s"] += end - start - child_time[index]
        for key, value in self.counts.items():
            if not key.startswith("rng."):
                totals[key] = int(value)
        accepted = self.counts.get("training.negative_locations")
        drawn = self.counts.get(f"rng.{LOCATION_STREAM}")
        if accepted and drawn is not None:
            # The sampler enumerates every candidate and draws nothing when
            # n2 >= |L| - 1; then each examined candidate is accepted.
            totals["training.sampler_accept_ratio"] = accepted / drawn if drawn else 1.0
        return totals

    def dump(self):
        return {"spans": self.spans, "present": self.present,
                "absent": self.absent, "counts": dict(self.counts)}
