import dataclasses
import math

import pytest

import numpy as np

from lbsnrec import data as lbsn_data
from lbsnrec import gradcheck, training
from lbsnrec import model as lbsn_model
from lbsnrec.model import ModelParams, VariantMask
from lbsnrec.gradcheck import (check_all, default_toy_config,
                               finite_diff_gradient, make_toy_dataset,
                               write_report_csv)

from conftest import make_checkins


def test_finite_diff_quadratic():
    params = ModelParams.zeros(1, 1, 1)
    params.S0[0] = 3.0

    def loss_fn(p):
        return float(p.S0[0] ** 2)

    grad = finite_diff_gradient(loss_fn, params, "S0", 0, step=1e-5)
    assert grad == pytest.approx(6.0, abs=1e-9)


def test_finite_diff_constant_and_linear():
    params = ModelParams.zeros(1, 1, 2)
    assert finite_diff_gradient(lambda p: 7.5, params, "S0", 0) == 0.0
    assert finite_diff_gradient(lambda p: float(p.S0.sum()), params, "S0", 1) \
        == pytest.approx(1.0, abs=1e-10)


def test_finite_diff_rejects_non_finite():
    params = ModelParams.zeros(1, 1, 1)
    with pytest.raises(FloatingPointError):
        finite_diff_gradient(lambda p: float("nan"), params, "S0", 0)


def test_truncation_error_shrinks_with_step():
    # smooth scalar loss exp(x) at x=0.4: error should fall ~4x per halving
    params = ModelParams.zeros(1, 1, 1)
    params.C0[0] = 0.4
    loss_fn = lambda p: math.exp(p.C0[0])
    exact = math.exp(0.4)
    errors = [abs(finite_diff_gradient(loss_fn, params, "C0", 0, step=h) - exact)
              for h in (1e-2, 5e-3, 2.5e-3)]
    assert errors[1] < errors[0] and errors[2] < errors[1]
    assert errors[1] == pytest.approx(errors[0] / 4, rel=0.05)


def test_check_all_passes_on_toy():
    from lbsnrec.model import TENSOR_NAMES

    report = check_all(make_toy_dataset(seed=0), default_toy_config(seed=0))
    assert report.passed
    assert {c.tensor for c in report.checks} == set(TENSOR_NAMES)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_all_passes_on_ragged_last_subtrajectories(seed):
    # last subtrajectories of one to five check-ins end the users' long-term
    # schedules at different steps, so the chain runs in several blocks; u2's
    # single subtrajectory takes no long-term step
    sizes = {"u0": [3, 2, 4], "u1": [2, 1], "u2": [5], "u3": [1, 3, 2, 2],
             "u4": [4, 3], "u5": [2, 2, 1, 5]}
    names = iter(f"l{i % 8}" for i in range(100))
    layout = {user: [[next(names) for _ in range(n)] for n in subs]
              for user, subs in sizes.items()}
    dataset = lbsn_data.build_dataset(
        make_checkins(layout), [("u0", "u1"), ("u2", "u3"), ("u4", "u5")])
    assert [len(t.subtrajectory_bounds) for t in dataset.trajectories] == \
        [3, 2, 1, 4, 2, 4]
    report = check_all(dataset, default_toy_config(seed=seed))
    assert report.passed, report.failing_tensors()


def record_softmax_paths(monkeypatch):
    """(path, whether its rows are masked) of every trajectory softmax call."""
    calls = []
    for path in ("dense", "gathered"):
        softmax = getattr(training, f"_{path}_softmax")

        def recorded(params, contexts, targets, negatives, grads, path=path,
                     softmax=softmax):
            calls.append((path, negatives is not None))
            return softmax(params, contexts, targets, negatives, grads)
        monkeypatch.setattr(training, f"_{path}_softmax", recorded)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_all_passes_on_gathered_softmax(monkeypatch, seed):
    # with DENSE_SOFTMAX_RATIO 0 the toy's 8 locations exceed it, so every
    # position goes through the gathered softmax
    monkeypatch.setattr(training, "DENSE_SOFTMAX_RATIO", 0)
    calls = record_softmax_paths(monkeypatch)
    report = check_all(make_toy_dataset(seed=seed),
                       default_toy_config(seed=seed))
    assert report.passed, report.failing_tensors()
    assert calls and {path for path, _ in calls} == {"gathered"}


def test_check_all_fails_on_scaled_recorded_score_gradients(monkeypatch):
    # the U_out gradient check_all reads is multiplied out of the gathered
    # softmax's records: scaling their score gradients by 0.999 fails U_out
    monkeypatch.setattr(training, "DENSE_SOFTMAX_RATIO", 0)
    gathered = training._gathered_softmax

    def scaled(params, contexts, targets, negatives, grads):
        result = gathered(params, contexts, targets, negatives, grads)
        grads.records["U_out"][-1][0].data *= 0.999
        return result
    monkeypatch.setattr(training, "_gathered_softmax", scaled)
    report = check_all(make_toy_dataset(seed=0), default_toy_config(seed=0))
    assert report.failing_tensors() == ["U_out"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_all_passes_on_masked_dense_softmax(monkeypatch, seed):
    # 8 locations <= DENSE_SOFTMAX_RATIO (1 + 3): the dense path, with each
    # row's 4 candidates kept and the other 4 locations masked
    calls = record_softmax_paths(monkeypatch)
    config = dataclasses.replace(default_toy_config(seed=seed), n2=3)
    report = check_all(make_toy_dataset(seed=seed), config)
    assert report.passed, report.failing_tensors()
    assert calls and set(calls) == {("dense", True)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_all_passes_across_forward_groups_and_chain_blocks(monkeypatch,
                                                                 seed):
    # at two positions a group and two step-columns a chain block, the toy
    # batch (histories of 7, 6, 1, 1, 1, 1 check-ins; long-term live counts
    # 2, 2, 1, 1) runs in four forward groups and three chain blocks, the
    # first two splitting the run of two live sequences
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", 2)
    dataset = make_toy_dataset(seed=seed)
    splits = lbsn_data.full_train_splits(dataset)
    views = [training.training_view(dataset, splits, u)
             for u in range(dataset.num_users)]
    groups = list(lbsn_model.forward_groups([len(locs) for locs, _ in views]))
    ends = [bounds[-1][0] for _, bounds in views]
    live = lbsn_model.lockstep(np.cumsum(ends) - ends, ends).live
    blocks = list(lbsn_model.chain_blocks(live))
    assert len(groups) >= 3 and len(blocks) >= 3
    assert any(t1 == s0 and live[t0] == live[s0] for (t0, t1, _, _), (
        s0, *_) in zip(blocks, blocks[1:]))
    report = check_all(dataset, default_toy_config(seed=seed))
    assert report.passed, report.failing_tensors()


@pytest.mark.parametrize("fault", ["forget_gate", "d_consulted"])
def test_check_all_catches_a_scaled_long_term_backward(monkeypatch, fault):
    if fault == "forget_gate":
        # scale the forget gates each long-term BPTT block rebuilds, the
        # only (n, 2d, k) expit of training
        exact = training.expit

        def scaled(x, out=None):
            result = exact(x, out=out)
            if result.ndim == 3:
                result[:, result.shape[1] // 2:] *= 0.999
            return result

        monkeypatch.setattr(training, "expit", scaled)
    else:
        exact = training._long_term_backward
        monkeypatch.setattr(
            training, "_long_term_backward",
            lambda params, chain, d_consulted, grads: exact(
                params, chain, 0.999 * d_consulted, grads))
    report = check_all(make_toy_dataset(seed=0), default_toy_config(seed=0))
    assert not report.passed


def test_check_all_fault_injection_names_tensor(monkeypatch):
    exact = gradcheck.trajectory_loss_and_grads

    def faulty(params, mask, batch, grads=None):
        # scale the analytic W_f1 gradient by 1.01; the loss stays exact
        loss, grads = exact(params, mask, batch, grads)
        grads.W_f1 *= 1.01
        return loss, grads

    monkeypatch.setattr(gradcheck, "trajectory_loss_and_grads", faulty)
    report = check_all(make_toy_dataset(seed=0), default_toy_config(seed=0))
    assert not report.passed
    assert report.failing_tensors() == ["W_f1"]


def test_check_all_base_variant_gate_entries_trivially_zero():
    cfg = default_toy_config(seed=1, variant=VariantMask(False, False))
    report = check_all(make_toy_dataset(seed=1), cfg)
    assert report.passed
    by_name = {c.tensor: c for c in report.checks}
    for name in ("W_i1", "W_f2", "b_c", "W", "S0", "C0", "U"):
        assert by_name[name].max_abs == 0.0


def test_report_csv(tmp_path):
    report = check_all(make_toy_dataset(seed=2), default_toy_config(seed=2),
                       sample_entries_per_tensor=4)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "tensor,max_rel,max_abs,worst_index,pass"
    assert len(lines) == 18
    assert all(line.endswith(",1") for line in lines[1:])


@pytest.mark.parametrize("kwargs", [
    {"tolerance_abs": math.nan}, {"tolerance_abs": math.inf},
    {"tolerance_rel": math.nan}, {"tolerance_rel": math.inf},
    {"tolerance_abs": -1e-8}, {"tolerance_rel": -1e-5}],
    ids=str)
def test_check_all_rejects_tolerances_that_decide_nothing(kwargs):
    with pytest.raises(ValueError, match="tolerances must be finite"):
        check_all(make_toy_dataset(0), default_toy_config(0), **kwargs)
