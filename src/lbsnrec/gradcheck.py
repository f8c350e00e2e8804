"""Finite-difference oracle for the hand-written gradients.

Freezes one negative-sampled batch (network and trajectory), so the total
loss is a deterministic function of the parameters, then compares the
analytic gradients against central differences entry by entry. Vectors are
checked exhaustively, matrices on a seeded sample of entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as lbsn_data
from .model import TENSOR_NAMES, tensor_shapes
from .training import (Gradients, TrainConfig, draw_network_batch,
                       draw_trajectory_batch, init_params, is_number,
                       network_loss_and_grads, rng_streams,
                       trajectory_loss_and_grads)

DEFAULT_STEP = 1e-5


@dataclass
class TensorCheck:
    tensor: str
    max_rel: float
    max_abs: float
    worst_index: int
    passed: bool


@dataclass
class GradCheckReport:
    checks: list
    passed: bool

    def failing_tensors(self):
        return [c.tensor for c in self.checks if not c.passed]


def finite_diff_gradient(loss_fn, params, tensor_name, flat_index,
                         step=DEFAULT_STEP):
    """Central difference of loss_fn over one parameter entry."""
    probe = params.copy()
    arr = probe.tensor(tensor_name)
    base = arr.flat[flat_index]
    arr.flat[flat_index] = base + step
    up = loss_fn(probe)
    arr.flat[flat_index] = base - step
    down = loss_fn(probe)
    arr.flat[flat_index] = base
    if not (math.isfinite(up) and math.isfinite(down)):
        raise FloatingPointError(
            f"non-finite loss while probing {tensor_name}[{flat_index}]")
    return (up - down) / (2.0 * step)


def make_toy_dataset(seed=0):
    """Six users, eight locations; users 0 and 1 carry two subtrajectories
    of up to four check-ins, the rest a single check-in each."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(77,)))
    num_users, num_locations = 6, 8
    checkins = []
    hour, day = 3600, 86400

    def add(user, n_per_sub, start):
        t = start
        for sub in range(len(n_per_sub)):
            for _ in range(n_per_sub[sub]):
                loc = int(rng.integers(0, num_locations))
                checkins.append(lbsn_data.CheckIn(
                    user=f"u{user}", location=f"l{loc}", timestamp=t))
                t += hour
            t += day

    add(0, [4, 3], 10_000)
    add(1, [2, 4], 20_000)
    for u in range(2, num_users):
        add(u, [1], 30_000 + 1000 * u)
    pairs = [("u0", "u1"), ("u0", "u2"), ("u1", "u3"), ("u4", "u5"), ("u2", "u5")]
    return lbsn_data.build_dataset(checkins, pairs)


def _frozen_loss_fn(graph, net_batch, traj_batch, mask):
    def loss_fn(p):
        net, _ = network_loss_and_grads(p, graph, net_batch)
        traj, _ = trajectory_loss_and_grads(p, mask, traj_batch)
        return net + traj
    return loss_fn


def check_all(dataset, config, tolerance_rel=1e-5, tolerance_abs=1e-8,
              sample_entries_per_tensor=20, step=DEFAULT_STEP):
    """Compare analytic gradients of the frozen sampled loss to differences.

    An entry passes when |analytic - numeric| <= max(tolerance_abs,
    tolerance_rel * max(|analytic|, |numeric|)). A NaN or infinite
    tolerance would pass every entry and a negative one fail every entry.
    """
    if not all(is_number(t) and t >= 0 for t in (tolerance_rel, tolerance_abs)):
        raise ValueError("tolerances must be finite numbers >= 0, got "
                         f"{tolerance_rel!r} (rel) and {tolerance_abs!r} (abs)")
    streams = rng_streams(config.seed)
    params = init_params(config, dataset.num_users, dataset.num_locations)
    splits = lbsn_data.full_train_splits(dataset)
    users = np.arange(dataset.num_users, dtype=np.int64)
    net_batch = draw_network_batch(dataset.graph, users, config.n1_per_user,
                                   streams.link_negatives)
    traj_batch = draw_trajectory_batch(dataset, splits, users, config.n2,
                                       streams.location_negatives)
    loss_fn = _frozen_loss_fn(dataset.graph, net_batch, traj_batch,
                              config.variant)

    grads = Gradients.like(params)
    network_loss_and_grads(params, dataset.graph, net_batch, grads)
    trajectory_loss_and_grads(params, config.variant, traj_batch, grads)

    entry_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(101,)))
    checks = []
    shapes = tensor_shapes(dataset.num_users, dataset.num_locations, config.d)
    for name in TENSOR_NAMES:
        size = int(np.prod(shapes[name]))
        if len(shapes[name]) == 1 or size <= sample_entries_per_tensor:
            indices = np.arange(size)
        else:
            indices = entry_rng.choice(size, size=sample_entries_per_tensor,
                                       replace=False)
        max_rel = 0.0
        max_abs = 0.0
        worst = 0
        passed = True
        analytic_tensor = grads.tensor(name)
        for idx in indices:
            idx = int(idx)
            analytic = float(analytic_tensor.flat[idx])
            numeric = finite_diff_gradient(loss_fn, params, name, idx, step)
            abs_err = abs(analytic - numeric)
            scale = max(abs(analytic), abs(numeric))
            rel_err = abs_err / scale if scale > 0 else 0.0
            if abs_err > max_abs:
                max_abs = abs_err
                worst = idx
            max_rel = max(max_rel, rel_err)
            if abs_err > max(tolerance_abs, tolerance_rel * scale):
                passed = False
        checks.append(TensorCheck(tensor=name, max_rel=max_rel, max_abs=max_abs,
                                  worst_index=worst, passed=passed))
    return GradCheckReport(checks=checks, passed=all(c.passed for c in checks))


def write_report_csv(report, path):
    """CSV rows: tensor,max_rel,max_abs,worst_index,pass."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("tensor,max_rel,max_abs,worst_index,pass\n")
        for c in report.checks:
            handle.write(f"{c.tensor},{repr(float(c.max_rel))},"
                         f"{repr(float(c.max_abs))},{c.worst_index},"
                         f"{int(c.passed)}\n")


def default_toy_config(seed=0, variant=None):
    from .model import VariantMask

    # init_range well above the training default so gate gradients sit far
    # from the absolute-tolerance floor and injected faults are detectable.
    return TrainConfig(d=4, n1_per_user=3, n2=4, seed=seed, init_range=0.4,
                       variant=variant or VariantMask())
