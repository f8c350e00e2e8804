import copy
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lbsnrec import data as lbsn_data
from lbsnrec import model as lbsn_model
from lbsnrec import evaluation, synth, training
from lbsnrec.model import (BASE_VARIANT, FULL_VARIANT, ModelParams,
                           EMBEDDING_NAMES, TENSOR_NAMES, VariantMask,
                           joint_log_likelihood_full,
                           load_checkpoint, location_log_prob_full,
                           network_log_likelihood_full, save_checkpoint)
from lbsnrec.training import (Gradients, OptimizerState, TrainConfig,
                              adagrad_update, draw_network_batch,
                              draw_trajectory_batch, init_params,
                              network_loss_and_grads,
                              rng_streams, sample_negative_links,
                              sample_negative_locations, sampled_location_loss,
                              trajectory_loss_and_grads,
                              train)

from conftest import make_checkins
from property_checks import (graph_of, planted_instance, random_params,
                             reference_negative_links,
                             reference_rejection_sample)


def toy_config(**kwargs):
    kwargs.setdefault("d", 3)
    kwargs.setdefault("n1_per_user", 4)
    kwargs.setdefault("n2", 4)
    kwargs.setdefault("seed", 0)
    return TrainConfig(**kwargs)


def toy_dataset(seed=0, num_users=4, num_locations=8):
    rng = np.random.default_rng(seed)
    layout = {}
    for u in range(num_users):
        subs = []
        for _ in range(int(rng.integers(1, 3))):
            subs.append([f"l{rng.integers(num_locations)}"
                         for _ in range(int(rng.integers(1, 5)))])
        layout[f"u{u}"] = subs
    for loc in range(num_locations):
        layout.setdefault("u0", []).append([f"l{loc}"])
    edges = [("u0", "u1"), ("u1", "u2"), ("u2", "u3")]
    return lbsn_data.build_dataset(make_checkins(layout), edges)


# ---------------------------------------------------------------------------
# initialization and sampling
# ---------------------------------------------------------------------------

def test_init_params_deterministic():
    cfg = toy_config(seed=11)
    a = init_params(cfg, 5, 7)
    b = init_params(cfg, 5, 7)
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(a.tensor(name), b.tensor(name))


def test_init_params_support():
    cfg = toy_config(seed=1, d=10)
    params = init_params(cfg, 20, 30)
    for name in TENSOR_NAMES:
        arr = params.tensor(name)
        assert arr.min() >= -0.02 and arr.max() <= 0.02
    assert params.U_out.std() > 0


def test_init_params_zero_range():
    cfg = toy_config(init_range=0.0)
    params = init_params(cfg, 3, 3)
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(params.tensor(name), 0.0)


def test_sample_negative_links_complete_graph():
    edges = {(i, j) for i in range(4) for j in range(4) if i != j}
    graph = graph_of(4, edges)
    rng = np.random.default_rng(0)
    (negs,) = sample_negative_links(graph, [0], 100, rng)
    assert len(negs) == 0


def test_sample_negative_links_edgeless():
    graph = graph_of(200, set())
    rng = np.random.default_rng(0)
    (negs,) = sample_negative_links(graph, [7], 100, rng)
    assert len(negs) == 100
    assert len(set(negs.tolist())) == 100
    assert 7 not in negs


def test_sample_negative_links_reproducible_and_valid():
    graph = graph_of(50, {(0, 1), (1, 0), (0, 2), (2, 0)})
    (a,) = sample_negative_links(graph, [0], 10, np.random.default_rng(42))
    (b,) = sample_negative_links(graph, [0], 10, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    assert not ({0, 1, 2} & set(a.tolist()))


def test_sample_negative_locations_forced_all():
    rng = np.random.default_rng(0)
    (negs,) = sample_negative_locations(101, [17], 100, rng)
    assert sorted(negs.tolist()) == [l for l in range(101) if l != 17]


def test_sample_negative_locations_excludes_target_distinct():
    rng = np.random.default_rng(1)
    (negs,) = sample_negative_locations(1000, [3], 100, rng)
    assert len(negs) == 100 and len(set(negs.tolist())) == 100
    assert 3 not in negs
    (again,) = sample_negative_locations(1000, [3], 100, np.random.default_rng(1))
    np.testing.assert_array_equal(negs, again)


@pytest.mark.parametrize("n2", [0, 5, 100])
def test_sampled_negative_rows_equal_successive_one_target_draws(n2):
    # rows are drawn in target order, so the stream matches one call per target
    targets = np.array([3, 3, 999, 0, 512])
    rng, reference = np.random.default_rng(4), np.random.default_rng(4)
    rows = sample_negative_locations(1000, targets, n2, rng)
    assert rows.shape == (len(targets), n2) and rows.dtype == np.int64
    for target, row in zip(targets, rows):
        (expected,) = sample_negative_locations(1000, [target], n2, reference)
        np.testing.assert_array_equal(row, expected)
        assert target not in row and len(set(row.tolist())) == n2
    assert rng.bit_generator.state == reference.bit_generator.state
    empty = sample_negative_locations(1000, [], n2, rng)
    assert empty.shape == (0, n2)


@pytest.mark.parametrize("n2", [7, 8, 100])
def test_enumerated_negatives_batch_equals_per_position_draws(n2):
    # |L| = 8: with n2 >= |L| - 1 every position's negatives are every
    # location but its target, one array per user, drawing nothing
    ds = toy_dataset(seed=5, num_users=4, num_locations=8)
    assert ds.num_locations - 1 <= n2
    splits = lbsn_data.full_train_splits(ds)
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    batch = draw_trajectory_batch(ds, splits, np.arange(ds.num_users), n2, rng)
    assert rng.bit_generator.state == state
    reference = np.random.default_rng(9)
    for u, (locs, _), negs in zip(batch.users, batch.views, batch.negatives):
        # the batch records that it enumerates and builds no rows
        assert isinstance(negs, training.OtherLocations)
        assert negs.shape == (len(locs), ds.num_locations - 1)
        assert len(negs) == len(locs) > 0
        np.testing.assert_array_equal(
            negs, sample_negative_locations(ds.num_locations, locs, n2,
                                            reference))
        for target, neg in zip(locs, negs):
            expected = np.array([l for l in range(ds.num_locations)
                                 if l != target], dtype=np.int64)
            assert neg.dtype == expected.dtype
            np.testing.assert_array_equal(neg, expected)
    assert reference.bit_generator.state == state


@pytest.mark.parametrize("mask", [VariantMask(s, g) for s in (True, False)
                                  for g in (True, False)],
                         ids=["full", "short_only", "long_only", "base"])
def test_enumerated_batch_loss_builds_no_negative_rows(monkeypatch, mask):
    # the dense softmax reads only the width of enumerated negatives; the
    # batch's loss and gradients equal those of its materialised rows
    ds = toy_dataset(seed=5, num_users=4, num_locations=8)
    splits = lbsn_data.full_train_splits(ds)
    rng = np.random.default_rng(9)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.5)
    batch = draw_trajectory_batch(ds, splits, np.arange(ds.num_users), 7, rng)
    rows = training.TrajectoryBatch(
        users=batch.users, views=batch.views,
        negatives=[np.asarray(negs) for negs in batch.negatives])
    want_loss, want = trajectory_loss_and_grads(params, mask, rows)

    def refuse(self, *args, **kwargs):
        raise AssertionError("enumerated negatives were materialised")

    monkeypatch.setattr(training.OtherLocations, "__array__", refuse)
    loss, grads = trajectory_loss_and_grads(params, mask, batch)
    assert loss == want_loss
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(grads.tensor(name), want.tensor(name))
    assert touched_rows(grads) == touched_rows(want)


class RoundCounter:
    """Forwards integers() to a generator and counts the calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def reference_location_rows(num_locations, targets, n2, rng):
    """One reference_rejection_sample call per target, and each row's rounds."""
    counter = RoundCounter(rng)
    rows, rounds = [], []
    for target in targets.tolist():
        before = counter.calls
        rows.append(reference_rejection_sample(n2, num_locations, {target},
                                               counter))
        rounds.append(counter.calls - before)
    return np.array(rows, dtype=np.int64).reshape(len(targets), n2), rounds


@pytest.mark.parametrize("window_rows", [None, 1, 2, 3])
@pytest.mark.parametrize("n2", [0, 5, 100])
@pytest.mark.parametrize("num_locations", [8, 126, 150, 1000, 20000])
def test_batch_location_sampler_equals_sequential_draws(monkeypatch,
                                                        num_locations, n2,
                                                        window_rows):
    if window_rows is not None:
        # windows of that many rows at most: short rows land on window edges
        monkeypatch.setattr(training, "SAMPLE_WINDOW_DRAWS",
                            window_rows * (2 * n2 + 8))
    rng = np.random.default_rng(num_locations + n2)
    targets = rng.integers(0, num_locations, size=30)
    got_rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    rows = sample_negative_locations(num_locations, targets, n2, got_rng)
    if num_locations - 1 <= n2:
        want = np.array([[l for l in range(num_locations) if l != t]
                         for t in targets.tolist()], dtype=np.int64)
    else:
        want, _ = reference_location_rows(num_locations, targets, n2,
                                          reference)
    assert rows.dtype == np.int64
    np.testing.assert_array_equal(rows, want)
    assert got_rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("window_rows", [None, 1, 2, 3, 5])
def test_batch_location_sampler_continues_short_rows(monkeypatch, window_rows):
    # |L| = 126, n2 = 100: a first round of 208 draws often holds fewer than
    # 100 distinct non-targets; with this seed the first row takes five
    # rounds, the last two, and a quarter of the rows more than one
    if window_rows is not None:
        monkeypatch.setattr(training, "SAMPLE_WINDOW_DRAWS",
                            window_rows * 208)
    rng = np.random.default_rng(2)
    targets = rng.integers(0, 126, size=40)
    reference = np.random.default_rng(2)
    reference.bit_generator.state = rng.bit_generator.state
    want, rounds = reference_location_rows(126, targets, 100, reference)
    assert rounds[0] == 5 and rounds[-1] == 2 and sum(r > 1 for r in rounds) >= 10
    rows = sample_negative_locations(126, targets, 100, rng)
    np.testing.assert_array_equal(rows, want)
    assert rng.bit_generator.state == reference.bit_generator.state


def varied_degree_graph(num_users, seed):
    """Users with no, few and many out-neighbors, and one self-loop."""
    rng = np.random.default_rng(seed)
    edges = {(0, 0)}
    for u in range(num_users):
        for v in rng.choice(num_users, size=int(rng.integers(0, num_users)),
                            replace=False).tolist():
            if u % 5 and u != v:
                edges |= {(u, v), (v, u)}
    return graph_of(num_users, edges)


@pytest.mark.parametrize("count", [0, 1, 5, 20])
@pytest.mark.parametrize("kind", ["varied", "edgeless"])
def test_batch_link_sampler_equals_sequential_draws(kind, count):
    graph = (varied_degree_graph(40, 3) if kind == "varied"
             else graph_of(40, set()))
    users = np.random.default_rng(1).permutation(40)
    eligible = [40 - len(set(graph.adjacency[u].tolist()) | {int(u)})
                for u in users]
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    got = sample_negative_links(graph, users, count, rng)
    want = reference_negative_links(graph, users, count, reference)
    assert len(got) == len(want) == len(users)
    for row, expected in zip(got, want):
        assert row.dtype == np.int64
        np.testing.assert_array_equal(row, expected)
    assert rng.bit_generator.state == reference.bit_generator.state
    if len(graph.directed_edges) and count:
        # some users enumerate and some draw
        assert min(eligible) <= count < max(eligible)


# ---------------------------------------------------------------------------
# sampled losses and their gradients
# ---------------------------------------------------------------------------

def test_network_loss_zero_embeddings():
    graph = graph_of(6, {(0, 1), (1, 0), (2, 3), (3, 2)})
    params = ModelParams.zeros(6, 4, 3)
    rng = np.random.default_rng(0)
    batch = draw_network_batch(graph, np.arange(6), 2, rng)
    loss, grads = network_loss_and_grads(params, graph, batch)
    n_terms = sum(len(graph.adjacency[u]) for u in range(6))
    n_terms += sum(len(n) for n in batch.negatives)
    assert loss == pytest.approx(n_terms * math.log(2), abs=1e-12)
    # zero F_ctx rows make dF zero, but the +-0.5 coefficients hit F_ctx rows
    assert np.all(grads.tensor("F") == 0.0)


def test_network_loss_grad_coefficients():
    # zero F with random F_ctx: dF[v] = sum (sigma(0)-1) F'_pos + sigma(0) F'_neg
    rng = np.random.default_rng(3)
    graph = graph_of(5, {(0, 1), (1, 0), (0, 2), (2, 0)})
    params = ModelParams.zeros(5, 4, 3)
    params.F_ctx[:] = rng.normal(size=(5, 3))
    batch = draw_network_batch(graph, np.array([0]), 2, rng)
    _, grads = network_loss_and_grads(params, graph, batch)
    expected = (-0.5 * (params.F_ctx[1] + params.F_ctx[2])
                + 0.5 * params.F_ctx[batch.negatives[0]].sum(axis=0))
    np.testing.assert_allclose(grads.tensor("F")[0], expected, atol=1e-12)


def test_network_loss_no_edges_no_negatives():
    graph = graph_of(1, set())
    params = ModelParams.zeros(1, 2, 2)
    batch = draw_network_batch(graph, np.array([0]), 5, np.random.default_rng(0))
    loss, grads = network_loss_and_grads(params, graph, batch)
    assert loss == 0.0
    assert not grads.tensor("F").any() and not grads.tensor("F_ctx").any()


def finite_diff(loss_fn, params, name, idx, h=1e-6):
    probe = params.copy()
    arr = probe.tensor(name)
    base = arr.flat[idx]
    arr.flat[idx] = base + h
    up = loss_fn(probe)
    arr.flat[idx] = base - h
    down = loss_fn(probe)
    return (up - down) / (2 * h)


def test_network_grads_match_finite_differences():
    # the central difference divides the loss's rounding error by h = 1e-6,
    # so all 40 seeds pass only with a correctly rounded (math.fsum) loss
    graph = graph_of(6, {(0, 1), (1, 0), (2, 4), (4, 2), (3, 5), (5, 3)})
    for seed in range(40):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 6, 4, 3, scale=0.7)
        batch = draw_network_batch(graph, np.arange(6), 3, rng)
        _, grads = network_loss_and_grads(params, graph, batch)

        def loss_fn(p):
            return network_loss_and_grads(p, graph, batch)[0]

        for name in ("F", "F_ctx"):
            for idx in range(params.tensor(name).size):
                numeric = finite_diff(loss_fn, params, name, idx)
                analytic = grads.tensor(name).flat[idx]
                assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-9), \
                    (seed, name, idx)


def test_sampled_location_loss_uniform():
    params = ModelParams.zeros(1, 101, 2)
    context = np.zeros(8)
    negs = np.array([l for l in range(101) if l != 5])
    loss, _, _, _ = sampled_location_loss(params, context, 5, negs)
    assert loss == pytest.approx(math.log(101), abs=1e-12)


def test_sampled_location_loss_equals_full_softmax():
    rng = np.random.default_rng(9)
    num_locations = 50
    params = random_params(rng, 2, num_locations, 3, scale=0.5)
    for _ in range(100):
        context = rng.normal(size=12)
        target = int(rng.integers(num_locations))
        negs = np.array([l for l in range(num_locations) if l != target])
        loss, _, _, _ = sampled_location_loss(params, context, target, negs)
        assert loss == pytest.approx(
            -location_log_prob_full(params, context, target), abs=1e-12)


def test_sampled_location_loss_grads_match_finite_differences():
    rng = np.random.default_rng(10)
    params = random_params(rng, 2, 20, 3, scale=0.5)
    context = rng.normal(size=12)
    target = 4
    (negs,) = sample_negative_locations(20, [target], 6, rng)
    loss, d_context, cands, d_scores = sampled_location_loss(
        params, context, target, negs)
    h = 1e-6
    for i in range(12):
        probe = context.copy()
        probe[i] += h
        up, _, _, _ = sampled_location_loss(params, probe, target, negs)
        probe[i] -= 2 * h
        down, _, _, _ = sampled_location_loss(params, probe, target, negs)
        assert d_context[i] == pytest.approx((up - down) / (2 * h), rel=1e-6,
                                             abs=1e-10)
    # gradient of U_out rows is d_scores outer context
    def loss_fn(p):
        return sampled_location_loss(p, context, target, negs)[0]
    for row_pos, cand in enumerate(cands):
        for col in (0, 5, 11):
            idx = int(cand) * 12 + col
            numeric = finite_diff(loss_fn, params, "U_out", idx)
            analytic = d_scores[row_pos] * context[col]
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("n2", [0, 1, 6])
def test_batched_sampled_location_loss_equals_its_rows(n2):
    rng = np.random.default_rng(13)
    params = random_params(rng, 2, 20, 3, scale=0.5)
    contexts = rng.normal(size=(5, 12))
    targets = rng.integers(20, size=5)
    negs = sample_negative_locations(20, targets, n2, rng)
    loss, d_contexts, cands, d_scores = sampled_location_loss(
        params, contexts, targets, negs)
    assert d_contexts.shape == (5, 12) and d_scores.shape == (5, 1 + n2)
    want_loss = 0.0
    for i in range(5):
        l, d_ctx, c, d_s = sampled_location_loss(params, contexts[i],
                                                 targets[i], negs[i])
        want_loss += l
        np.testing.assert_array_equal(cands[i], c)
        np.testing.assert_allclose(d_contexts[i], d_ctx, rtol=0, atol=1e-15)
        np.testing.assert_allclose(d_scores[i], d_s, rtol=0, atol=1e-15)
    assert abs(loss - want_loss) <= 1e-12 * want_loss


@pytest.mark.parametrize("num_locations,n2", [(12, 4), (9, 8), (40, 0)],
                         ids=["sampled", "enumerated", "no_negatives"])
def test_dense_softmax_matches_per_position_oracle(monkeypatch, num_locations,
                                                   n2):
    rng = np.random.default_rng(14)
    params = random_params(rng, 2, num_locations, 3, scale=0.5)
    for m in (1, 2, 5, 9):
        contexts = rng.normal(size=(m, 12))
        targets = rng.integers(num_locations, size=m)
        targets[-1] = targets[0]    # one target at two positions when m > 1
        negs = sample_negative_locations(num_locations, targets, n2, rng)
        want_loss = 0.0
        want_contexts = np.zeros_like(contexts)
        want_u_out = np.zeros_like(params.U_out)
        for i in range(m):
            l, d_ctx, c, d_scores = sampled_location_loss(
                params, contexts[i], targets[i], negs[i])
            want_loss += l
            want_contexts[i] = d_ctx
            want_u_out[c] += np.outer(d_scores, contexts[i])
        # one score block of all rows, then blocks of two rows
        for entries in (evaluation.SCORE_BLOCK_ENTRIES, 2 * num_locations):
            monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES", entries)
            grads = Gradients.like(params)
            loss, d_contexts = training._dense_softmax(
                params, contexts.copy(), targets,
                None if n2 >= num_locations - 1 else negs, grads)
            # each score block records its product over every U_out row;
            # the rows outside the candidates are zero
            assert touched_rows(grads)["U_out"] == set(range(num_locations))
            assert abs(loss - want_loss) <= 1e-12
            np.testing.assert_allclose(d_contexts, want_contexts, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(grads.tensor("U_out"), want_u_out,
                                       rtol=0, atol=1e-12)


def test_enumerated_dense_softmax_equals_full_softmax_oracle():
    # rows whose negatives are all other locations take no mask: each row's
    # loss is minus model.location_log_prob_full of its target
    rng = np.random.default_rng(15)
    params = random_params(rng, 2, 66, 4, scale=0.5)
    contexts = rng.normal(size=(40, 16))
    targets = rng.integers(66, size=40)
    grads = Gradients.like(params)
    loss, _ = training._dense_softmax(params, contexts.copy(), targets, None,
                                      grads)
    want = -sum(location_log_prob_full(params, c, t)
                for c, t in zip(contexts, targets.tolist()))
    assert abs(loss - want) <= 1e-12 * abs(want)
    assert len(grads.touched_rows("U_out")) == 66


# ---------------------------------------------------------------------------
# trajectory iteration / BPTT structure
# ---------------------------------------------------------------------------

def touched_rows(grads):
    """{embedding tensor name: set of the rows its records reach}."""
    return {name: set(grads.touched_rows(name).tolist())
            for name in EMBEDDING_NAMES}


def single_position_dataset():
    return lbsn_data.build_dataset(
        make_checkins({"u0": [["l0"]], "u1": [["l1"]]}), [("u0", "u1")])


def test_single_position_touches_expected_tensors():
    ds = single_position_dataset()
    rng = np.random.default_rng(0)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.4)
    splits = lbsn_data.full_train_splits(ds)
    batch = draw_trajectory_batch(ds, splits, np.array([0]), 1, rng)
    _, grads = trajectory_loss_and_grads(params, FULL_VARIANT, batch)
    assert grads.tensor("P")[0].any() and grads.tensor("F")[0].any()
    assert np.any(grads.S0 != 0.0)       # context S-block is S0 itself
    assert np.any(grads.C0 != 0.0)       # via the tanh(C0) block
    assert np.all(grads.W == 0.0)        # no recurrence step ran
    assert not grads.tensor("U").any()  # no chain consumed a location
    for name in ("W_i1", "W_i2", "W_f1", "W_f2", "W_c1", "W_c2",
                 "b_i", "b_f", "b_c"):
        assert np.all(grads.tensor(name) == 0.0)
    touched = touched_rows(grads)
    assert touched["U"] == set()
    assert touched["P"] == {0} and touched["F"] == {0}
    assert touched["U_out"] == {0, 1}


def test_base_variant_recurrent_grads_exactly_zero():
    ds = toy_dataset(seed=3)
    rng = np.random.default_rng(1)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.4)
    splits = lbsn_data.full_train_splits(ds)
    batch = draw_trajectory_batch(ds, splits, np.arange(ds.num_users), 3, rng)
    _, grads = trajectory_loss_and_grads(params, BASE_VARIANT, batch)
    for name in ("W", "S0", "U", "C0", "W_i1", "W_i2", "W_f1", "W_f2",
                 "W_c1", "W_c2", "b_i", "b_f", "b_c"):
        assert np.all(grads.tensor(name) == 0.0), name


@pytest.mark.parametrize("n2,ragged", [(3, False), (7, False), (0, False),
                                       (3, True)],
                         ids=["n2_3", "n2_all", "n2_0", "ragged_batch"])
def test_trajectory_grads_match_finite_differences_all_tensors(n2, ragged):
    # |V|=4, |L|=8, 2 users with 2 subtrajectories of <= 4 locations; n2=7
    # enumerates every other location, n2=0 leaves the target alone
    layout = {"u0": [["l0", "l1", "l2", "l3"], ["l4", "l5"]],
            "u1": [["l6", "l7", "l0"], ["l1", "l2", "l3", "l4"]],
            "u2": [["l5"]], "u3": [["l6"]]}
    ds = lbsn_data.build_dataset(make_checkins(layout),
                                 [("u0", "u1"), ("u2", "u3")])
    rng = np.random.default_rng(12)
    params = random_params(rng, 4, 8, 3, scale=0.5)
    splits = lbsn_data.full_train_splits(ds)
    batch = draw_trajectory_batch(ds, splits, np.arange(4), n2, rng)
    if ragged:
        # seven views of the four users (some twice), among them an empty
        # one, one-check-in subtrajectories and a last subtrajectory of one
        # position
        batch = ragged_batch(rng, 8, n2)
        batch.users = batch.users % 4
    _, grads = trajectory_loss_and_grads(params, FULL_VARIANT, batch)

    def loss_fn(p):
        return trajectory_loss_and_grads(p, FULL_VARIANT, batch)[0]

    entry_rng = np.random.default_rng(0)
    for name in TENSOR_NAMES:
        size = params.tensor(name).size
        idxs = (range(size) if size <= 12
                else entry_rng.choice(size, size=12, replace=False))
        for idx in idxs:
            idx = int(idx)
            numeric = finite_diff(loss_fn, params, name, idx)
            analytic = grads.tensor(name).flat[idx]
            assert abs(analytic - numeric) <= max(
                1e-5 * max(abs(analytic), abs(numeric)), 1e-8), (name, idx)


RAGGED_LAYOUTS = [[4, 2, 1], [], [1, 1, 1], [7], [3, 5, 2, 1], [1], [2, 6]]


def ragged_batch(rng, num_locations, n2, layouts=RAGGED_LAYOUTS):
    """Users of different lengths, by default an empty view, one-check-in
    subtrajectories, a last subtrajectory of one position, longer ones;
    layouts lists each user's subtrajectory sizes."""
    views, negatives = [], []
    for sizes in layouts:
        ends = np.cumsum(sizes, dtype=np.int64)
        locs = rng.integers(0, num_locations, size=sum(sizes))
        views.append((locs, [(int(e - n), int(e)) for n, e in zip(sizes, ends)]))
        negatives.append(sample_negative_locations(num_locations, locs, n2, rng))
    users = np.array([4, 0, 8, 2, 5, 1, 7])[:len(layouts)]
    return training.TrajectoryBatch(users=users, views=views,
                                    negatives=negatives)


ALL_VARIANTS = [VariantMask(s, g) for s in (True, False) for g in (True, False)]


def one_user_batches(params, mask, batch):
    """Loss and gradients of the batch's users run as one-user batches."""
    grads, loss = Gradients.like(params), 0.0
    for b in range(len(batch.users)):
        one = training.TrajectoryBatch(users=batch.users[b:b + 1],
                                       views=batch.views[b:b + 1],
                                       negatives=batch.negatives[b:b + 1])
        loss += trajectory_loss_and_grads(params, mask, one, grads)[0]
    return loss, grads


@pytest.mark.parametrize("order", ["given", "reversed", "shuffled"])
@pytest.mark.parametrize("mask", ALL_VARIANTS,
                         ids=["full", "short_only", "long_only", "base"])
def test_lockstep_batch_grads_match_one_user_batches(mask, order):
    rng = np.random.default_rng(21)
    params = random_params(rng, 9, 12, 3, scale=0.8)
    batch = ragged_batch(rng, 12, 5)
    perm = {"given": np.arange(7), "reversed": np.arange(7)[::-1],
            "shuffled": rng.permutation(7)}[order]
    batch = training.TrajectoryBatch(
        users=batch.users[perm], views=[batch.views[i] for i in perm],
        negatives=[batch.negatives[i] for i in perm])
    loss, grads = trajectory_loss_and_grads(params, mask, batch)
    want_loss, want = one_user_batches(params, mask, batch)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name in TENSOR_NAMES:
        got, expected = grads.tensor(name), want.tensor(name)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-12 * scale, name
    assert touched_rows(grads) == touched_rows(want)
    if mask.use_short or mask.use_long:
        assert np.any(grads.tensor("U") != 0.0)


def planted_batch(seed, num_users=32, scale=0.3):
    """Random planted-shaped params (d = 16) and a frozen batch with n2 = 100
    (every other location a negative)."""
    ds, splits, _ = planted_instance(seed)
    rng = np.random.default_rng(seed)
    params = random_params(rng, ds.num_users, ds.num_locations, 16, scale=scale)
    users = rng.permutation(ds.num_users)[:num_users]
    return params, draw_trajectory_batch(ds, splits, users, 100, rng)


# (batch shape, positions per forward group, forward calls). Ragged lengths
# are 7, 0, 3, 7, 11, 1, 8: at 20 positions the groups are users (0, 1, 2,
# 3) and (4, 5, 6). Uneven lengths are 0, 1, 7, 3, 0, 12: at 11 positions the
# groups are users (0 .. 4) and (5,), where bounding users x longest history
# would make four, and at 1 position (0, 1), (2,), (3,), (4,) and (5,), the
# fourth without positions. Planted users have 102 training positions each,
# so 102 positions make one group per user and 512 positions groups of 5.
FORWARD_GROUP_CASES = [
    pytest.param("ragged", 1, 7, id="1"), pytest.param("ragged", 20, 2, id="20"),
    pytest.param("uneven", 1, 5, id="uneven-1"),
    pytest.param("uneven", 11, 2, id="uneven-11"),
    pytest.param("uneven", 10**6, 1, id="uneven-whole"),
    pytest.param("planted", 102, 32, id="planted-102"),
    pytest.param("planted", 512, 7, id="planted-512"),
    pytest.param("planted", 10**6, 1, id="planted-whole")]
UNEVEN_LAYOUTS = [[], [1], [4, 3], [1, 2], [], [5, 1, 6]]


@pytest.mark.parametrize("shape, positions, calls", FORWARD_GROUP_CASES)
def test_trajectory_grads_independent_of_forward_groups(monkeypatch, shape,
                                                        positions, calls):
    # grouped against the default groups; the uneven batch, under all four
    # masks, against one-user batches
    masks, tolerance = [FULL_VARIANT], 1e-12
    if shape == "planted":
        params, batch = planted_batch(5)
        # the default bound: 6 planted users a group
        assert [hi - lo for lo, hi in lbsn_model.forward_groups(
            [len(locs) for locs, _ in batch.views])] == [6, 6, 6, 6, 6, 2]
    else:
        rng = np.random.default_rng(22)
        params = random_params(rng, 9, 12, 3, scale=0.8)
        if shape == "ragged":
            batch = ragged_batch(rng, 12, 5)
        else:
            batch = ragged_batch(rng, 12, 5, UNEVEN_LAYOUTS)
            masks, tolerance = ALL_VARIANTS, 1e-14
    lengths = [len(locs) for locs, _ in batch.views]
    wanted = [one_user_batches(params, mask, batch) if shape == "uneven"
              else trajectory_loss_and_grads(params, mask, batch)
              for mask in masks]
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", positions)
    groups = list(lbsn_model.forward_groups(lengths))
    # consecutive groups of at most `positions` summed positions or one
    # user, each ending where the next user would not fit
    assert [lo for lo, _ in groups[1:]] == [hi for _, hi in groups[:-1]]
    for lo, hi in groups:
        assert sum(lengths[lo:hi]) <= positions or hi - lo == 1
        assert hi == len(lengths) or sum(lengths[lo:hi + 1]) > positions
    recorded, chains = [], []
    forward = training.forward_trajectory
    monkeypatch.setattr(training, "forward_trajectory",
                        lambda *args: recorded.append(args) or forward(*args))
    chain = training.long_term_chain
    monkeypatch.setattr(training, "long_term_chain",
                        lambda *args: chains.append(args) or chain(*args))
    for mask, (loss, grads) in zip(masks, wanted):
        recorded.clear()
        chains.clear()
        grouped_loss, grouped = trajectory_loss_and_grads(params, mask, batch)
        # one chain over the batch; each group reads its users' hidden states
        assert len(recorded) == calls and len(chains) == mask.use_long
        assert [len(args[2]) for args in recorded] == [
            hi - lo for lo, hi in groups]
        assert abs(grouped_loss - loss) <= tolerance * abs(loss)
        for name in TENSOR_NAMES:
            scale = np.abs(grads.tensor(name)).max()
            assert np.abs(grouped.tensor(name) - grads.tensor(name)).max() <= \
                tolerance * scale, name
        touched = touched_rows(grouped)
        assert touched == touched_rows(grads)
        # users without positions record no F or P row
        assert touched["F"] == touched["P"] == {
            int(u) for u, n in zip(batch.users, lengths) if n}


def record_softmax_calls(monkeypatch):
    """(path, contexts) of every softmax call in call order: "dense" per
    score_blocks row block, "gathered" per sampled_location_loss call."""
    calls = []
    score_blocks = training.score_blocks
    scored = training.sampled_location_loss

    def dense(contexts, u_out):
        for block, scores in score_blocks(contexts, u_out):
            calls.append(("dense", contexts[block].copy()))
            yield block, scores

    def gathered(params, contexts, *rest):
        calls.append(("gathered", np.array(contexts, ndmin=2)))
        return scored(params, contexts, *rest)

    monkeypatch.setattr(training, "score_blocks", dense)
    monkeypatch.setattr(training, "sampled_location_loss", gathered)
    return calls


def softmax_path(num_locations, n2):
    """The path the shape rule routes n2 drawn negatives per position to."""
    dense = num_locations <= training.DENSE_SOFTMAX_RATIO * (1 + n2)
    return "dense" if dense else "gathered"


def batch_contexts(params, mask, batch):
    """The forward contexts of every position of the batch, in batch order."""
    out = []
    views = batch.views
    hidden = lbsn_model.long_term_chain(params, views).hidden
    firsts = np.cumsum([0] + [len(bounds) for _, bounds in views])
    for lo, hi in lbsn_model.forward_groups([len(locs) for locs, _ in views]):
        trace = lbsn_model.forward_trajectory(
            params, mask, batch.users[lo:hi], views[lo:hi],
            hidden[firsts[lo]:firsts[hi]] if mask.use_long else None)
        out.append(trace.contexts)
    return np.concatenate(out)


def assert_each_position_scored_once(calls, params, mask, batch):
    np.testing.assert_array_equal(
        np.concatenate([contexts for _, contexts in calls]),
        batch_contexts(params, mask, batch))


@pytest.mark.parametrize("num_locations, n2, path", [
    (66, 100, "dense"), (66, 20, "dense"), (384, 5, "gathered"),
    (384, 95, "dense"), (384, 94, "gathered"), (12, 2, "dense"),
    (12, 1, "gathered")],
    ids=["planted", "planted_sampled", "small_n2", "ratio_at", "ratio_above",
         "toy_at", "toy_above"])
def test_softmax_route_follows_the_shape_rule(monkeypatch, num_locations, n2,
                                              path):
    # dense when |L| <= DENSE_SOFTMAX_RATIO (1 + n2') for n2' = min(n2,
    # |L| - 1) drawn negatives per position, gathered otherwise; the planted
    # shape enumerates, so it scores every location with no mask
    assert training.DENSE_SOFTMAX_RATIO == 4
    assert softmax_path(num_locations, min(n2, num_locations - 1)) == path
    rng = np.random.default_rng(22)
    params = random_params(rng, 9, num_locations, 3, scale=0.8)
    batch = ragged_batch(rng, num_locations, n2)
    routed = []
    for name in ("_dense_softmax", "_gathered_softmax"):
        softmax = getattr(training, name)

        def recorded(params, contexts, targets, negatives, grads,
                     name=name, softmax=softmax):
            routed.append((name, negatives is None))
            return softmax(params, contexts, targets, negatives, grads)
        monkeypatch.setattr(training, name, recorded)
    calls = record_softmax_calls(monkeypatch)
    trajectory_loss_and_grads(params, FULL_VARIANT, batch)
    assert routed == [(f"_{path}_softmax",
                       path == "dense" and n2 >= num_locations - 1)]
    assert {p for p, _ in calls} == {path}
    assert_each_position_scored_once(calls, params, FULL_VARIANT, batch)


# bounds that force one-position softmax calls (one-row score blocks, and
# one-row U_out chunks) and one call per forward group
BLOCK_BOUNDS = {"one_position": {"SCORE_BLOCK_ENTRIES": 1,
                                 "GATHER_CHUNK_ENTRIES": 1},
                "whole_group": {"SCORE_BLOCK_ENTRIES": 1 << 40,
                                "GATHER_CHUNK_ENTRIES": 1 << 40}}


@pytest.mark.parametrize("bounds", sorted(BLOCK_BOUNDS))
@pytest.mark.parametrize("num_locations, n2", [(12, 11), (400, 100), (12, 5),
                                               (12, 0)],
                         ids=["enumerated", "n2_100", "n2_5", "n2_0"])
@pytest.mark.parametrize("mask", ALL_VARIANTS,
                         ids=["full", "short_only", "long_only", "base"])
def test_trajectory_grads_independent_of_softmax_blocks(monkeypatch, mask,
                                                        num_locations, n2,
                                                        bounds):
    rng = np.random.default_rng(23)
    params = random_params(rng, 9, num_locations, 3, scale=0.8)
    batch = ragged_batch(rng, num_locations, n2)
    calls = record_softmax_calls(monkeypatch)
    loss, grads = trajectory_loss_and_grads(params, mask, batch)
    # the 37 positions of lengths 7, 0, 3, 7, 11, 1, 8 form one forward group,
    # one call across subtrajectory and user boundaries: dense unless n2 = 0
    path = softmax_path(num_locations, min(n2, num_locations - 1))
    assert path == ("gathered" if n2 == 0 else "dense")
    assert [(p, len(c)) for p, c in calls] == [(path, 37)]
    assert_each_position_scored_once(calls, params, mask, batch)
    for name, value in BLOCK_BOUNDS[bounds].items():
        owner = evaluation if name == "SCORE_BLOCK_ENTRIES" else training
        monkeypatch.setattr(owner, name, value)
    calls.clear()
    blocked_loss, blocked = trajectory_loss_and_grads(params, mask, batch)
    assert [(p, len(c)) for p, c in calls] == \
        {"one_position": [(path, 1)] * 37, "whole_group": [(path, 37)]}[bounds]
    assert_each_position_scored_once(calls, params, mask, batch)
    assert abs(blocked_loss - loss) <= 1e-12 * abs(loss)
    for name in TENSOR_NAMES:
        scale = np.abs(grads.tensor(name)).max()
        assert np.abs(blocked.tensor(name) - grads.tensor(name)).max() <= \
            1e-12 * scale, name
    assert touched_rows(blocked) == touched_rows(grads)


def test_planted_softmax_calls_follow_the_block_rule(monkeypatch):
    # every planted position has all 66 locations as candidates, so each
    # forward group is one dense call, in score blocks of
    # evaluation.score_block_rows(66) rows across subtrajectories and users
    ds = synth.generate(synth.SynthConfig(seed=7))
    splits = lbsn_data.make_splits(ds, seed=7)
    rng = np.random.default_rng(0)
    batch = draw_trajectory_batch(ds, splits, np.arange(ds.num_users), 100, rng)
    params = random_params(rng, ds.num_users, ds.num_locations, 4)
    lengths = [len(locs) for locs, _ in batch.views]
    groups = [sum(lengths[lo:hi]) for lo, hi in lbsn_model.forward_groups(lengths)]
    calls = record_softmax_calls(monkeypatch)
    loss, grads = trajectory_loss_and_grads(params, FULL_VARIANT, batch)
    assert evaluation.score_block_rows(ds.num_locations) >= max(groups)
    assert [(p, len(c)) for p, c in calls] == [("dense", g) for g in groups]
    assert_each_position_scored_once(calls, params, FULL_VARIANT, batch)
    for p in (1, 7, 248):
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES",
                            p * ds.num_locations + ds.num_locations - 1)
        assert evaluation.score_block_rows(ds.num_locations) == p
        calls.clear()
        blocked_loss, blocked = trajectory_loss_and_grads(params, FULL_VARIANT,
                                                          batch)
        want = []
        for n in groups:
            want += [p] * (n // p) + ([n % p] if n % p else [])
        assert [len(c) for _, c in calls] == want
        assert abs(blocked_loss - loss) <= 1e-12 * abs(loss)
        for name in TENSOR_NAMES:
            scale = np.abs(grads.tensor(name)).max()
            assert np.abs(blocked.tensor(name) - grads.tensor(name)).max() \
                <= 1e-12 * scale, name


@pytest.mark.parametrize("n2", [5, 100, 383])
def test_gathered_softmax_calls_bounded_by_gather_chunks(monkeypatch, n2):
    # above DENSE_SOFTMAX_RATIO (1 + n2) locations only the gathered path
    # runs, in consecutive calls of GATHER_CHUNK_ENTRIES gathered entries at
    # most
    num_locations = training.DENSE_SOFTMAX_RATIO * (1 + 383) + 16
    rng = np.random.default_rng(24)
    params = random_params(rng, 9, num_locations, 3, scale=0.8)
    batch = ragged_batch(rng, num_locations, n2)
    loss, grads = trajectory_loss_and_grads(params, FULL_VARIANT, batch)
    entries = (1 + n2) * 12     # one position's gathered U_out entries
    calls = record_softmax_calls(monkeypatch)
    for chunk in (training.GATHER_CHUNK_ENTRIES // entries, 1, 4, 36):
        monkeypatch.setattr(training, "GATHER_CHUNK_ENTRIES", chunk * entries)
        calls.clear()
        chunked_loss, chunked = trajectory_loss_and_grads(params, FULL_VARIANT,
                                                          batch)
        assert [(p, len(c)) for p, c in calls] == \
            [("gathered", chunk)] * (37 // chunk) + \
            [("gathered", 37 % chunk)] * (37 % chunk > 0)
        assert_each_position_scored_once(calls, params, FULL_VARIANT, batch)
        assert abs(chunked_loss - loss) <= 1e-12 * abs(loss)
        for name in TENSOR_NAMES:
            scale = np.abs(grads.tensor(name)).max()
            assert np.abs(chunked.tensor(name) - grads.tensor(name)).max() <= \
                1e-12 * scale, name
        assert touched_rows(chunked) == touched_rows(grads)


@pytest.mark.parametrize("n2", [0, 5, 100])
@pytest.mark.parametrize("num_locations", [385, 400, 20000])
@pytest.mark.parametrize("mask", ALL_VARIANTS,
                         ids=["full", "short_only", "long_only", "base"])
def test_gathered_softmax_equals_block_softmax(monkeypatch, mask,
                                               num_locations, n2):
    # the block softmax is the dense path, scored in score blocks; both are
    # forced whatever the shape rule routes. n2 = 0 scores one-candidate
    # rows; the gathered U_out gradient is read from its records
    rng = np.random.default_rng(25)
    params = random_params(rng, 9, num_locations, 3, scale=0.8)
    batch = ragged_batch(rng, num_locations, n2)
    calls = record_softmax_calls(monkeypatch)
    monkeypatch.setattr(training, "DENSE_SOFTMAX_RATIO", 0)
    loss, grads = trajectory_loss_and_grads(params, mask, batch)
    assert {p for p, _ in calls} == {"gathered"}
    monkeypatch.setattr(training, "DENSE_SOFTMAX_RATIO", num_locations)
    calls.clear()
    block_loss, block = trajectory_loss_and_grads(params, mask, batch)
    assert {p for p, _ in calls} == {"dense"}
    assert_each_position_scored_once(calls, params, mask, batch)
    assert abs(block_loss - loss) <= 1e-12 * abs(loss)
    for name in TENSOR_NAMES:
        scale = np.abs(block.tensor(name)).max()
        assert np.abs(grads.tensor(name) - block.tensor(name)).max() <= \
            1e-12 * scale, name
    # the dense path records U_out over every row, the gathered over the
    # candidates
    gathered, dense = touched_rows(grads), touched_rows(block)
    assert dense.pop("U_out") == set(range(num_locations))
    assert gathered.pop("U_out") <= set(range(num_locations))
    assert gathered == dense


def test_gathered_softmax_skips_groups_without_positions(monkeypatch):
    # one user per forward group: the second user's empty view makes a group
    # with no position, which calls no softmax
    rng = np.random.default_rng(26)
    params = random_params(rng, 9, 1000, 3, scale=0.8)
    batch = ragged_batch(rng, 1000, 100)
    loss, grads = trajectory_loss_and_grads(params, FULL_VARIANT, batch)
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", 1)
    calls = record_softmax_calls(monkeypatch)
    grouped_loss, grouped = trajectory_loss_and_grads(params, FULL_VARIANT,
                                                      batch)
    assert [(p, len(c)) for p, c in calls] == \
        [("gathered", n) for n in (7, 3, 7, 11, 1, 8)]
    assert_each_position_scored_once(calls, params, FULL_VARIANT, batch)
    assert abs(grouped_loss - loss) <= 1e-12 * abs(loss)
    for name in TENSOR_NAMES:
        scale = np.abs(grads.tensor(name)).max()
        assert np.abs(grouped.tensor(name) - grads.tensor(name)).max() <= \
            1e-12 * scale, name
    assert touched_rows(grouped) == touched_rows(grads)


def test_planted_training_batch_memory_below_the_padded_trace_peak():
    # with 512-position groups and the trace also kept padded, this batch
    # peaked at 2.19 MiB
    dataset, splits, params = planted_instance(5)
    rng = np.random.default_rng(5)
    batch = draw_trajectory_batch(dataset, splits,
                                  rng.permutation(dataset.num_users)[:32], 100,
                                  rng)
    grads = Gradients.like(params)
    tracemalloc.start()
    try:
        trajectory_loss_and_grads(params, FULL_VARIANT, batch, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.18 * 2**20


def test_planted_training_lockstep_steps(monkeypatch, tmp_path):
    # one planted training at the benchmark's config, validation included:
    # 7,992 long-term lockstep steps with 512-position groups throughout,
    # 4,992 with 630-position groups and chains over whole histories, 4,704
    # with chains that stop at the last consulted boundary, and 1,176 with
    # one chain per batch and per validation ranking
    dataset, splits, _ = planted_instance(5)
    steps = {True: [], False: []}
    chain = lbsn_model.long_term_chain

    def counted(params, views, caches=True):
        run = chain(params, views, caches)
        steps[caches].append(len(run.steps.live))
        return run

    monkeypatch.setattr(training, "long_term_chain", counted)
    monkeypatch.setattr(evaluation, "long_term_chain", counted)
    config = TrainConfig(d=16, learning_rate=0.3, max_iterations=4, patience=4,
                         seed=5)
    records = train(dataset, splits, config, tmp_path / "m.jntm")
    assert len(records) == 4 and len(steps[False]) == 4
    assert sum(steps[True]) + sum(steps[False]) <= 1176
    assert sum(r.lockstep_steps for r in records) == sum(steps[True]) <= 768


@pytest.mark.parametrize("positions", [1, 100, 630, 10**6])
@pytest.mark.parametrize("shape", ["ragged", "planted"])
def test_batch_long_term_steps_equal_its_longest_last_start(monkeypatch, shape,
                                                           positions):
    # every user of a batch advances in one chain, whatever the groups
    if shape == "ragged":
        rng = np.random.default_rng(22)
        params = random_params(rng, 9, 12, 3, scale=0.8)
        batch = ragged_batch(rng, 12, 5)
    else:
        params, batch = planted_batch(5)
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", positions)
    calls = []
    chain = training.long_term_chain
    monkeypatch.setattr(training, "long_term_chain",
                        lambda *args: calls.append(args) or chain(*args))
    phases = Counter()
    trajectory_loss_and_grads(params, FULL_VARIANT, batch, phases=phases)
    last = max(bounds[-1][0] for _, bounds in batch.views if bounds)
    assert len(calls) == 1 and phases["lockstep_steps"] == last > 0


def bk_shaped_batch(seed, num_locations=20000, d=50, n2=100, users=10,
                    checkins=90):
    """Random params and a batch of `users` histories of `checkins` uniform
    check-ins in subtrajectories of 3, with n2 drawn negatives per position."""
    rng = np.random.default_rng(seed)
    params = random_params(rng, users, num_locations, d, scale=0.1)
    views = [(rng.integers(0, num_locations, size=checkins),
              [(s, s + 3) for s in range(0, checkins, 3)])
             for _ in range(users)]
    batch = training.TrajectoryBatch(
        users=np.arange(users), views=views,
        negatives=[sample_negative_locations(num_locations, locs, n2, rng)
                   for locs, _ in views])
    return params, batch


def test_trajectory_softmax_memory_stays_below_half_of_u_out():
    # bk_shape-sized: |L| = 20k, d = 50, 10 users of 90 check-ins, n2 = 100;
    # a product over all of U_out at once would hold U_out.nbytes
    params, batch = bk_shaped_batch(27)
    grads = Gradients.like(params)
    state = OptimizerState(params)
    tracemalloc.start()
    try:
        trajectory_loss_and_grads(params, FULL_VARIANT, batch, grads)
        touched = len(grads.touched_rows("U_out"))
        adagrad_update(params, grads, state, 0.1, 1e-8)
        grads.zero()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.U_out.nbytes / 2
    # the forward groups' candidates touch most locations, so the update
    # formed the U_out gradient over all of U_out, a chunk of rows at a time
    assert touched > 0.9 * 20000


def test_gradients_allocate_no_embedding_rows():
    # at bk_shape's shape (|V| = 50, |L| = 20k, d = 50) only the 12
    # non-embedding tensors have buffers, about 140 KB; U_out's alone would
    # take 32 MB
    tracemalloc.start()
    try:
        grads = Gradients(50, 20000, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**18
    buffers = {name for name, value in vars(grads).items()
               if isinstance(value, np.ndarray)}
    assert buffers == set(TENSOR_NAMES) - EMBEDDING_NAMES
    # every embedding gradient is records, which zero() drops
    params, batch = bk_shaped_batch(28)
    graph = graph_of(10, {(0, 1), (1, 0), (2, 3), (3, 2)})
    grads = Gradients.like(params)
    network_loss_and_grads(params, graph, draw_network_batch(
        graph, np.arange(10), 3, np.random.default_rng(28)), grads)
    trajectory_loss_and_grads(params, FULL_VARIANT, batch, grads)
    assert all(grads.records[name] for name in EMBEDDING_NAMES)
    grads.zero()
    assert not any(grads.records.values())
    assert not any(len(grads.touched_rows(name)) for name in EMBEDDING_NAMES)


def test_enumerated_trajectory_loss_equals_full_likelihood_oracle():
    # with every other location as a negative, each position's sampled loss
    # is its full softmax, so the batch loss is minus the trajectory part of
    # joint_log_likelihood_full: no position may be skipped or counted twice
    ds = toy_dataset(seed=11, num_users=5, num_locations=8)
    rng = np.random.default_rng(5)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.5)
    splits = lbsn_data.full_train_splits(ds)
    batch = draw_trajectory_batch(ds, splits, np.arange(ds.num_users),
                                  ds.num_locations - 1, rng)
    loss, _ = trajectory_loss_and_grads(params, FULL_VARIANT, batch)
    oracle = (joint_log_likelihood_full(params, FULL_VARIANT, ds)
              - network_log_likelihood_full(params, ds.graph))
    assert abs(loss + oracle) <= 1e-12 * abs(oracle)


def test_sparse_rows_outside_touched_are_zero():
    ds = toy_dataset(seed=5, num_users=5, num_locations=10)
    rng = np.random.default_rng(2)
    params = random_params(rng, 5, 10, 3, scale=0.3)
    splits = lbsn_data.full_train_splits(ds)
    batch = draw_trajectory_batch(ds, splits, np.array([0, 2]), 3, rng)
    _, grads = trajectory_loss_and_grads(params, FULL_VARIANT, batch)
    for name in ("P", "F", "U", "U_out"):
        touched = touched_rows(grads)[name]
        arr = grads.tensor(name)
        for row in range(arr.shape[0]):
            if row not in touched:
                assert np.all(arr[row] == 0.0), (name, row)


def test_trajectory_loss_and_grads_deterministic():
    ds = toy_dataset(seed=7)
    cfg = toy_config(seed=3)
    params = init_params(cfg, ds.num_users, ds.num_locations)
    splits = lbsn_data.full_train_splits(ds)
    users = np.arange(ds.num_users)

    def draw_and_score():
        batch = draw_trajectory_batch(ds, splits, users, cfg.n2,
                                      rng_streams(3).location_negatives)
        return trajectory_loss_and_grads(params, cfg.variant, batch)

    l1, g1 = draw_and_score()
    l2, g2 = draw_and_score()
    assert l1 == l2
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(g1.tensor(name), g2.tensor(name))


# ---------------------------------------------------------------------------
# network loss and AdaGrad
# ---------------------------------------------------------------------------

def test_network_loss_and_grads_edgeless_no_negatives():
    graph = graph_of(6, set())
    params = ModelParams.zeros(6, 4, 3)
    cfg = toy_config(n1_per_user=0)
    batch = draw_network_batch(graph, np.arange(6), cfg.n1_per_user,
                               rng_streams(0).link_negatives)
    loss, grads = network_loss_and_grads(params, graph, batch)
    assert loss == 0.0
    assert not grads.tensor("F").any() and not grads.tensor("F_ctx").any()


def test_network_loss_and_grads_deterministic():
    graph = graph_of(10, {(0, 1), (1, 0), (4, 7), (7, 4)})
    rng = np.random.default_rng(2)
    params = random_params(rng, 10, 4, 3, scale=0.3)
    cfg = toy_config(seed=8)

    def draw_and_score():
        batch = draw_network_batch(graph, np.arange(10), cfg.n1_per_user,
                                   rng_streams(8).link_negatives)
        return network_loss_and_grads(params, graph, batch)

    l1, g1 = draw_and_score()
    l2, g2 = draw_and_score()
    assert l1 == l2
    np.testing.assert_array_equal(g1.tensor("F"), g2.tensor("F"))
    np.testing.assert_array_equal(g1.tensor("F_ctx"), g2.tensor("F_ctx"))


def test_network_descent_on_frozen_batch():
    rng = np.random.default_rng(21)
    graph = graph_of(8, {(0, 1), (1, 0), (2, 3), (3, 2),
                                      (4, 5), (5, 4)})
    params = random_params(rng, 8, 4, 4, scale=0.3)
    batch = draw_network_batch(graph, np.arange(8), 4, rng)
    loss0, grads = network_loss_and_grads(params, graph, batch)
    state = OptimizerState(params)
    # warm the accumulators so the step is conditioned, then re-descend
    adagrad_update(params, grads, state, 0.1, 1e-8)
    loss1, grads = network_loss_and_grads(params, graph, batch)
    adagrad_update(params, grads, state, 0.1, 1e-8)
    loss2, _ = network_loss_and_grads(params, graph, batch)
    assert loss2 < loss1 < loss0


def test_adagrad_scalar_step():
    params = ModelParams.zeros(1, 1, 1)
    grads = Gradients.like(params)
    grads.W[0, 0] = 3.0
    state = OptimizerState(params)
    adagrad_update(params, grads, state, 0.1, 1e-8)
    assert params.W[0, 0] == pytest.approx(-0.1, rel=1e-6)
    assert state.accumulators["W"][0, 0] == 9.0


def test_adagrad_zero_grad_untouched():
    rng = np.random.default_rng(1)
    params = random_params(rng, 2, 2, 2, scale=0.1)
    before = params.copy()
    grads = Gradients.like(params)
    state = OptimizerState(params)
    adagrad_update(params, grads, state, 0.1, 1e-8)
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(params.tensor(name), before.tensor(name))


def test_adagrad_second_step_smaller():
    params = ModelParams.zeros(1, 1, 1)
    grads = Gradients.like(params)
    grads.S0[0] = 2.0
    state = OptimizerState(params)
    adagrad_update(params, grads, state, 0.1, 1e-8)
    first = abs(params.S0[0])
    prev = params.S0[0]
    grads2 = Gradients.like(params)
    grads2.S0[0] = 2.0
    adagrad_update(params, grads2, state, 0.1, 1e-8)
    second = abs(params.S0[0] - prev)
    assert second < first


def test_adagrad_rejects_non_finite():
    params = ModelParams.zeros(2, 2, 2)
    grads = Gradients.like(params)
    grads.b_c[0] = np.nan
    with pytest.raises(FloatingPointError, match="b_c"):
        adagrad_update(params, grads, OptimizerState(params), 0.1, 1e-8)
    grads = Gradients.like(params)
    grads.add_rows("P", np.array([1]), np.array([[np.inf, 0.0]]))
    with pytest.raises(FloatingPointError, match="P"):
        adagrad_update(params, grads, OptimizerState(params), 0.1, 1e-8)


def test_adagrad_sparse_equals_dense_bit_for_bit():
    rng = np.random.default_rng(31)
    ds = toy_dataset(seed=9)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.3)
    splits = lbsn_data.full_train_splits(ds)
    batch = draw_trajectory_batch(ds, splits, np.arange(ds.num_users), 3, rng)
    _, grads = trajectory_loss_and_grads(params, FULL_VARIANT, batch)

    sparse_params = params.copy()
    sparse_state = OptimizerState(sparse_params)
    adagrad_update(sparse_params, grads, sparse_state, 0.1, 1e-8)

    dense_params = params.copy()
    dense_state = OptimizerState(dense_params)
    for name in TENSOR_NAMES:
        g = grads.tensor(name)
        acc = dense_state.accumulators[name]
        acc += g * g
        dense_params.tensor(name)[...] -= 0.1 * g / (np.sqrt(acc) + 1e-8)
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(sparse_params.tensor(name),
                                      dense_params.tensor(name))
        np.testing.assert_array_equal(sparse_state.accumulators[name],
                                      dense_state.accumulators[name])
    # the rows no record reaches have zero gradients and did not move
    for name in EMBEDDING_NAMES:
        untouched = np.setdiff1d(np.arange(len(params.tensor(name))),
                                 grads.touched_rows(name))
        assert not grads.tensor(name)[untouched].any(), name
        np.testing.assert_array_equal(sparse_params.tensor(name)[untouched],
                                      params.tensor(name)[untouched])


@pytest.mark.parametrize("scale", [1.0, 0.0], ids=["gradients", "zeros"])
def test_adagrad_touched_rows_equal_dense_bit_for_bit(scale):
    # few touched rows of large embedding tensors take the row path
    rng = np.random.default_rng(32)
    params = random_params(rng, 60, 300, 4, scale=0.3)
    grads = Gradients.like(params)
    state = OptimizerState(params)
    for name in TENSOR_NAMES:
        state.accumulators[name][...] = rng.uniform(0, 1, params.tensor(name).shape)
    touched = {"P": [3], "F": [0, 59], "F_ctx": [7, 8, 9], "U": [0, 5, 299],
               "U_out": rng.choice(300, size=40, replace=False)}
    for name, rows in touched.items():
        rows = np.sort(rows)
        grads.add_rows(name, rows, scale * rng.normal(
            size=(len(rows),) + params.tensor(name).shape[1:]))
        assert grads.touched_rows(name).tolist() == rows.tolist()
        assert grads.sparse_rows(name) is not None
    grads.W[...] = rng.normal(size=grads.W.shape)

    dense_params = params.copy()
    dense_acc = {name: acc.copy() for name, acc in state.accumulators.items()}
    adagrad_update(params, grads, state, 0.1, 1e-8)
    for name in TENSOR_NAMES:
        g = grads.tensor(name)
        acc = dense_acc[name]
        acc += g * g
        dense_params.tensor(name)[...] -= 0.1 * g / (np.sqrt(acc) + 1e-8)
        np.testing.assert_array_equal(params.tensor(name),
                                      dense_params.tensor(name))
        np.testing.assert_array_equal(state.accumulators[name], acc)


def test_adagrad_touched_rows_reject_non_finite():
    params = ModelParams.zeros(2, 100, 2)
    grads = Gradients.like(params)
    grads.add_rows("U", np.array([3, 40]),
                   np.array([[0.0, 0.0], [0.0, np.nan]]))
    assert grads.sparse_rows("U") is not None
    with pytest.raises(FloatingPointError, match="U"):
        adagrad_update(params, grads, OptimizerState(params), 0.1, 1e-8)


# (|L|, n2, check-ins per user): 4 users' 36 positions touch at most 216 of
# 1000 U_out rows (the touched-row path), their 120 about 9k of 20k (whole
# walk)
RECORD_SHAPES = {"touched_rows": (1000, 5, 9), "whole_walk": (20000, 100, 30)}


@pytest.mark.parametrize("chunk", ["default", "uneven"])
@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("walk", ["touched_rows", "whole_walk"])
def test_adagrad_from_u_out_records_equals_materialized_bit_for_bit(
        monkeypatch, walk, groups, chunk):
    # every embedding tensor, U_out's records of both kinds among them, takes
    # the row path (SPARSE_ROW_SHARE 2) or the whole walk (0); on the whole
    # walk the uneven bound cuts U_out's 20k rows into 541 chunks of 37 rows
    # and U's into 134 of 150
    num_locations, n2, checkins = RECORD_SHAPES["whole_walk"]
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS",
                        4 * checkins // groups)
    monkeypatch.setattr(training, "SPARSE_ROW_SHARE",
                        2.0 if walk == "touched_rows" else 0.0)
    if chunk == "uneven":
        monkeypatch.setattr(training, "GATHER_CHUNK_ENTRIES", 37 * 16 + 9)
    params, batch = bk_shaped_batch(34, num_locations, d=4, n2=n2, users=4,
                                    checkins=checkins)
    state = OptimizerState(params)
    rng = np.random.default_rng(35)
    for acc in state.accumulators.values():
        acc[...] = rng.uniform(0, 1, acc.shape)
    dense_params = params.copy()
    dense_acc = {name: acc.copy() for name, acc in state.accumulators.items()}

    # a network pass too, so that every embedding tensor has records
    graph = graph_of(4, {(0, 1), (1, 0), (1, 2), (2, 1)})
    recorded = Gradients.like(params)
    network_loss_and_grads(params, graph, draw_network_batch(
        graph, np.arange(4), 2, np.random.default_rng(38)), recorded)
    trajectory_loss_and_grads(params, FULL_VARIANT, batch, recorded)
    assert len(recorded.records["U_out"]) == groups
    assert len(recorded.records["U"]) == groups + 1
    # the gradient every reader sees: the records added in order
    for name in EMBEDDING_NAMES:
        assert (recorded.sparse_rows(name) is None) == (walk == "whole_walk")
        want = np.zeros_like(params.tensor(name))
        for rows, values in recorded.records[name]:
            if isinstance(rows, np.ndarray):
                want[rows] += values
            else:
                want += rows @ values
        np.testing.assert_array_equal(recorded.tensor(name), want)

    adagrad_update(params, recorded, state, 0.1, 1e-8)
    for name in TENSOR_NAMES:
        g = recorded.tensor(name)
        acc = dense_acc[name]
        acc += g * g
        dense_params.tensor(name)[...] -= 0.1 * g / (np.sqrt(acc) + 1e-8)
        np.testing.assert_array_equal(params.tensor(name),
                                      dense_params.tensor(name))
        np.testing.assert_array_equal(state.accumulators[name], acc)


def test_u_out_gradient_sums_dense_and_gathered_records(monkeypatch):
    # a dense softmax group records rows, a gathered one (G, C): the
    # gradient is their sum, and the update from the records equals the
    # update from that sum as one record
    params, batch = bk_shaped_batch(37, 1000, d=4, n2=5, users=4, checkins=9)
    parts = {}
    both = Gradients.like(params)
    for ratio in (1000, 0):
        monkeypatch.setattr(training, "DENSE_SOFTMAX_RATIO", ratio)
        trajectory_loss_and_grads(params, FULL_VARIANT, batch, both)
        parts[ratio] = trajectory_loss_and_grads(
            params, FULL_VARIANT, batch)[1].tensor("U_out")
    kinds = [isinstance(rows, np.ndarray) for rows, _ in both.records["U_out"]]
    assert kinds == [True, False]
    summed = both.tensor("U_out")
    np.testing.assert_array_equal(summed, parts[1000] + parts[0])
    materialized = copy.deepcopy(both)
    materialized.records["U_out"] = [(np.arange(1000), summed)]
    dense_params = params.copy()
    adagrad_update(params, both, OptimizerState(params), 0.1, 1e-8)
    adagrad_update(dense_params, materialized, OptimizerState(dense_params),
                   0.1, 1e-8)
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(params.tensor(name),
                                      dense_params.tensor(name))


@pytest.mark.parametrize("shape", sorted(RECORD_SHAPES))
def test_adagrad_rejects_a_non_finite_recorded_context(shape):
    num_locations, n2, checkins = RECORD_SHAPES[shape]
    params, batch = bk_shaped_batch(36, num_locations, d=4, n2=n2, users=4,
                                    checkins=checkins)
    grads = Gradients.like(params)
    trajectory_loss_and_grads(params, FULL_VARIANT, batch, grads)
    grads.records["U_out"][0][1][3, 0] = np.nan
    with pytest.raises(FloatingPointError, match="U_out"):
        adagrad_update(params, grads, OptimizerState(params), 0.1, 1e-8)


# U_out records for the chunk-formation tests, in record order: "csr" a
# gathered (G, C) pair, "rows" an add_rows record
CHUNK_RECORDS = {"one_csr": ["csr"], "two_csr": ["csr", "csr"],
                 "three_csr": ["csr", "csr", "csr"],
                 "rows_then_csr": ["rows", "csr"],
                 "csr_rows_csr": ["csr", "rows", "csr"]}


def u_out_records(kinds, num_locations, width, index_dtype, rng):
    """Random U_out records of these kinds over num_locations rows: each
    (G, C) has 30 positions and no entry in rows 100-299, so whole chunks
    there have empty CSR windows."""
    from scipy import sparse

    records = []
    for kind in kinds:
        if kind == "rows":
            rows = np.sort(rng.choice(num_locations, 50, replace=False))
            records.append((rows, rng.normal(size=(50, width))))
            continue
        dense = rng.normal(size=(num_locations, 30))
        dense[rng.random(dense.shape) > 0.1] = 0.0
        dense[100:300] = 0.0
        g = sparse.csr_matrix(dense)
        g.indptr, g.indices = (g.indptr.astype(index_dtype),
                               g.indices.astype(index_dtype))
        records.append((g, rng.normal(size=(30, width))))
    return records


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("kinds", sorted(CHUNK_RECORDS))
def test_rows_forms_whole_walk_chunks_in_scratch_bit_for_bit(
        monkeypatch, kinds, index_dtype):
    # |L| = 1000 in chunks of 37 rows: the last chunk holds 1 row, and the
    # chunks inside rows 100-299 have no CSR entry
    monkeypatch.setattr(training, "GATHER_CHUNK_ENTRIES", 37 * 8)
    rng = np.random.default_rng(40)
    params = random_params(rng, 3, 1000, 2)
    grads = Gradients.like(params)
    grads.records["U_out"] = u_out_records(CHUNK_RECORDS[kinds], 1000, 8,
                                           index_dtype, rng)
    assert grads.sparse_rows("U_out") is None
    want = np.zeros((1000, 8))
    for rows, values in grads.records["U_out"]:
        if isinstance(rows, np.ndarray):
            want[rows] += values
        else:
            want += rows @ values
    state = OptimizerState(params)
    out, _, spare = state.scratch
    out.fill(np.nan)
    spare.fill(np.nan)
    chunks = list(training._row_chunks(want, training.GATHER_CHUNK_ENTRIES))
    assert len(chunks) == 28 and len(range(1000)[chunks[-1]]) == 1
    for chunk in chunks:
        got = grads.rows("U_out", chunk, out, spare)
        assert np.shares_memory(got, out)
        assert got.tobytes() == want[chunk].tobytes()
    assert grads.tensor("U_out").tobytes() == want.tobytes()

    # the update formed from these chunks equals the one from their sum
    dense_params = params.copy()
    acc = np.zeros_like(want)
    adagrad_update(params, grads, state, 0.1, 1e-8)
    acc += want * want
    dense_params.U_out -= 0.1 * want / (np.sqrt(acc) + 1e-8)
    np.testing.assert_array_equal(params.U_out, dense_params.U_out)
    np.testing.assert_array_equal(state.accumulators["U_out"], acc)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("shape", sorted(RECORD_SHAPES))
def test_adagrad_rejects_an_infinite_recorded_context(shape, value):
    num_locations, n2, checkins = RECORD_SHAPES[shape]
    params, batch = bk_shaped_batch(36, num_locations, d=4, n2=n2, users=4,
                                    checkins=checkins)
    grads = Gradients.like(params)
    trajectory_loss_and_grads(params, FULL_VARIANT, batch, grads)
    grads.records["U_out"][-1][1][5, 2] = value
    before = params.copy()
    with pytest.raises(FloatingPointError, match="U_out"):
        adagrad_update(params, grads, OptimizerState(params), 0.1, 1e-8)
    # the tensors before U_out updated, U_out and the ones after did not
    for name in TENSOR_NAMES[TENSOR_NAMES.index("U_out"):]:
        np.testing.assert_array_equal(params.tensor(name), before.tensor(name))


@pytest.mark.parametrize("magnitude, warns", [(1e155, True), (1e154, False)],
                         ids=["squares_overflow", "sum_overflows"])
@pytest.mark.parametrize("walk", ["touched_rows", "whole_walk"])
def test_adagrad_steps_finite_gradients_whose_squares_overflow(
        monkeypatch, walk, magnitude, warns):
    # |g| = 1e155 squares to inf (numpy warns about that multiply, as it
    # always did); |g| = 1e154 squares to a finite 1e308 whose chunk sum
    # overflows, which is no error and warns nothing
    import warnings

    monkeypatch.setattr(training, "SPARSE_ROW_SHARE",
                        2.0 if walk == "touched_rows" else 0.0)
    rng = np.random.default_rng(41)
    params = random_params(rng, 3, 1000, 2)
    grads = Gradients.like(params)
    records = u_out_records(["rows", "csr"], 1000, 8, np.int32, rng)
    records[0][1][:3] = magnitude * np.sign(records[0][1][:3])
    grads.records["U_out"] = records
    grads.W[0] = magnitude
    dense_params = params.copy()
    state = OptimizerState(params)
    norms = Counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adagrad_update(params, grads, state, 0.1, 1e-8, norms)
    messages = {str(w.message) for w in caught}
    assert messages == ({"overflow encountered in multiply"} if warns
                        else set())
    with np.errstate(over="ignore"):
        for name in ("U_out", "W"):
            g = grads.tensor(name)
            acc = g * g
            dense_params.tensor(name)[...] -= 0.1 * g / (np.sqrt(acc) + 1e-8)
            np.testing.assert_array_equal(params.tensor(name),
                                          dense_params.tensor(name))
            np.testing.assert_array_equal(state.accumulators[name], acc)
    assert norms["U_out"] == norms["W"] == np.inf


@pytest.mark.parametrize("walk", ["touched_rows", "whole_walk"])
def test_adagrad_norms_equal_the_gradient_norms(monkeypatch, walk):
    # a network and a trajectory pass give every tensor a gradient; the
    # norms come from the sums of squares of many chunks (U_out's 1000 rows
    # in chunks of 37), on both embedding paths
    monkeypatch.setattr(training, "SPARSE_ROW_SHARE",
                        2.0 if walk == "touched_rows" else 0.0)
    monkeypatch.setattr(training, "GATHER_CHUNK_ENTRIES", 37 * 16 + 9)
    num_locations, n2, checkins = RECORD_SHAPES["touched_rows"]
    params, batch = bk_shaped_batch(42, num_locations, d=4, n2=n2, users=4,
                                    checkins=checkins)
    graph = graph_of(4, {(0, 1), (1, 0), (1, 2), (2, 1)})
    grads = Gradients.like(params)
    network_loss_and_grads(params, graph, draw_network_batch(
        graph, np.arange(4), 2, np.random.default_rng(43)), grads)
    trajectory_loss_and_grads(params, FULL_VARIANT, batch, grads)
    norms = Counter(W=1.0)
    adagrad_update(params, grads, OptimizerState(params), 0.1, 1e-8, norms)
    assert set(norms) == set(TENSOR_NAMES)
    for name in TENSOR_NAMES:
        want = np.linalg.norm(grads.tensor(name)) + (name == "W")
        assert want > 0
        assert norms[name] == pytest.approx(want, rel=1e-12, abs=0), name
    # a tensor without a touched row is skipped and adds nothing
    monkeypatch.undo()
    grads.zero()
    grads.W[...] = 1.0
    norms = Counter()
    adagrad_update(params, grads, OptimizerState(params), 0.1, 1e-8, norms)
    assert set(norms) == set(TENSOR_NAMES) - EMBEDDING_NAMES


def test_adagrad_forms_bk_shape_chunks_without_allocating_them():
    # one bk_shape-shaped update (|L| = 20k, d = 50, n2 = 100, 900
    # positions); forming each 409 x 200 U_out chunk (654 KB) as new arrays,
    # np.zeros plus a G[chunk] @ C product, peaked at 2,370,243 bytes here
    params, batch = bk_shaped_batch(27)
    grads = Gradients.like(params)
    trajectory_loss_and_grads(params, FULL_VARIANT, batch, grads)
    assert grads.sparse_rows("U_out") is None
    state = OptimizerState(params)
    tracemalloc.start()
    try:
        adagrad_update(params, grads, state, 0.1, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for chunk in training._row_chunks(params.U_out,
                                          training.GATHER_CHUNK_ENTRIES):
            grads.rows("U_out", chunk, state.scratch[0], state.scratch[2])
        _, forming = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_370_243 / 2
    assert forming < 2**14


@pytest.mark.parametrize("n2", [3, 399])
def test_gradients_zero_clears_every_tensor_and_mask(n2):
    # n2 = 3 touches few U_out rows, n2 = 399 enumerates all 400
    rng = np.random.default_rng(33)
    ds = toy_dataset(seed=4, num_users=6, num_locations=400)
    params = random_params(rng, ds.num_users, ds.num_locations, 3)
    splits = lbsn_data.full_train_splits(ds)
    grads = Gradients.like(params)
    network_loss_and_grads(params, ds.graph,
                           draw_network_batch(ds.graph, [1, 2], 2, rng), grads)
    trajectory_loss_and_grads(
        params, FULL_VARIANT,
        draw_trajectory_batch(ds, splits, np.array([1, 3]), n2, rng), grads)
    assert all(np.any(grads.tensor(name) != 0.0) for name in TENSOR_NAMES)
    dense = grads.sparse_rows("U_out") is None
    assert dense == (n2 == 399)
    grads.zero()
    for name in TENSOR_NAMES:
        assert not np.any(grads.tensor(name)), name
    assert not any(grads.records.values())


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_zero_iterations_checkpoints_init(tmp_path):
    ds = toy_dataset(seed=13)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=0)
    cfg = toy_config(seed=5, max_iterations=0)
    path = tmp_path / "m.jntm"
    log_path = tmp_path / "log.csv"
    records = train(ds, splits, cfg, path, log_path=log_path)
    assert records == []
    loaded, _, _, _ = load_checkpoint(path)
    expected = init_params(cfg, ds.num_users, ds.num_locations)
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(loaded.tensor(name), expected.tensor(name))
    assert log_path.read_text().strip() == "epoch,net_loss,traj_loss,val_recall5,seconds"


def test_train_failed_first_epoch_leaves_out_untouched(monkeypatch, tmp_path):
    # the initial parameters are checkpointed only when no epoch runs, so a
    # first epoch that raises leaves an earlier file at the path as it was;
    # a NaN U_out row makes the first trajectory batch's gradients non-finite
    ds = toy_dataset(seed=13)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=0)
    path = tmp_path / "m.jntm"
    save_checkpoint(path, ModelParams.zeros(ds.num_users, ds.num_locations, 3),
                    FULL_VARIANT, ds.user_vocab.ids, ds.location_vocab.ids)
    before = path.read_bytes()
    init = training.init_params

    def poisoned(*args):
        params = init(*args)
        params.U_out[0] = np.nan
        return params

    monkeypatch.setattr(training, "init_params", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite gradient"):
        train(ds, splits, toy_config(seed=5, max_iterations=1), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.jntm"]


def test_train_deterministic_checkpoint(tmp_path):
    ds = toy_dataset(seed=17, num_users=5)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=1)
    cfg = toy_config(seed=6, max_iterations=2)
    p1, p2 = tmp_path / "a.jntm", tmp_path / "b.jntm"
    r1 = train(ds, splits, cfg, p1)
    r2 = train(ds, splits, cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert [(r.net_loss, r.traj_loss, r.val_recall) for r in r1] == \
           [(r.net_loss, r.traj_loss, r.val_recall) for r in r2]


def test_train_writes_log_and_decreases_loss(tmp_path):
    ds = toy_dataset(seed=23, num_users=6, num_locations=9)
    splits = lbsn_data.full_train_splits(ds)
    cfg = toy_config(seed=2, max_iterations=6, n2=8, d=4)
    log_path = tmp_path / "log.csv"
    records = train(ds, splits, cfg, tmp_path / "m.jntm", log_path=log_path)
    assert len(records) == 6
    assert records[-1].traj_loss < records[0].traj_loss
    assert records[-1].net_loss < records[0].net_loss
    lines = log_path.read_text().strip().split("\n")
    assert lines[0] == "epoch,net_loss,traj_loss,val_recall5,seconds"
    assert len(lines) == 7


def test_train_log_header_names_the_validation_k(tmp_path):
    ds = toy_dataset(seed=23, num_users=6, num_locations=9)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=0)
    log_path = tmp_path / "log.csv"
    records = train(ds, splits, toy_config(seed=2, max_iterations=2,
                                           validation_k=10),
                    tmp_path / "m.jntm", log_path=log_path)
    lines = log_path.read_text().strip().split("\n")
    assert lines[0] == "epoch,net_loss,traj_loss,val_recall10,seconds"
    assert len(lines) == 1 + len(records)


def test_train_equals_fresh_gradients_and_sequential_draws(monkeypatch,
                                                         tmp_path):
    # one reused Gradients, touched-row AdaGrad and batch-drawn
    # negatives train bit for bit as a fresh Gradients per batch, whole-tensor
    # AdaGrad and one sequential draw per row
    ds = toy_dataset(seed=29, num_users=10, num_locations=300)
    splits = lbsn_data.full_train_splits(ds)
    cfg = toy_config(seed=9, max_iterations=2, batch_users=2, n2=5,
                     n1_per_user=2)
    train(ds, splits, cfg, tmp_path / "m.jntm")
    got, _, _, _ = load_checkpoint(tmp_path / "m.jntm")

    streams = rng_streams(cfg.seed)
    params = init_params(cfg, ds.num_users, ds.num_locations)
    state = OptimizerState(params)
    graph = lbsn_data.build_graph(ds.num_users, splits.train_edges)
    sparse_updates = 0

    def update(grads):
        nonlocal sparse_updates
        sparse_updates += any(grads.sparse_rows(name) is not None
                              and len(grads.touched_rows(name))
                              for name in EMBEDDING_NAMES)
        with monkeypatch.context() as patch:
            patch.setattr(training, "SPARSE_ROW_SHARE", 0.0)    # whole walks
            adagrad_update(params, grads, state, cfg.learning_rate,
                           cfg.adagrad_epsilon)

    for _ in range(cfg.max_iterations):
        order = streams.shuffle.permutation(ds.num_users)
        for s in range(0, len(order), cfg.batch_users):
            users = order[s:s + cfg.batch_users]
            negatives = reference_negative_links(graph, users, cfg.n1_per_user,
                                                 streams.link_negatives)
            update(network_loss_and_grads(
                params, graph, training.NetworkBatch(users, negatives))[1])
        order = streams.shuffle.permutation(ds.num_users)
        for s in range(0, len(order), cfg.batch_users):
            users = order[s:s + cfg.batch_users]
            views = [training.training_view(ds, splits, u) for u in users]
            negatives = [reference_location_rows(ds.num_locations, locs, cfg.n2,
                                                 streams.location_negatives)[0]
                         for locs, _ in views]
            update(trajectory_loss_and_grads(
                params, cfg.variant,
                training.TrajectoryBatch(users, views, negatives))[1])
    assert sparse_updates
    for name in TENSOR_NAMES:
        np.testing.assert_array_equal(got.tensor(name), params.tensor(name))


def test_dense_softmax_training_never_imports_scipy_sparse(tmp_path):
    # the planted instance's batches enumerate every other location, so only
    # the dense softmax runs; importing scipy.sparse alone would add about
    # 2.4 MB to the planted benchmark's peak RSS
    script = textwrap.dedent(f"""
        import sys
        from lbsnrec import cli
        data, model = {str(tmp_path / "d.bin")!r}, {str(tmp_path / "m.jntm")!r}
        cli.main(["synth", "--seed", "5", "--out", data])
        cli.main(["train", "--data", data, "--out", model, "--d", "8",
                  "--max-iterations", "1"])
        print("scipy.sparse" in sys.modules)
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(training.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert "|L|=66" in run.stdout
    assert run.stdout.splitlines()[-1] == "False"


def test_train_pass_times_lie_within_the_epoch(tmp_path):
    ds = toy_dataset(seed=19, num_users=5)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=2)
    records = train(ds, splits, toy_config(seed=4, max_iterations=3),
                    tmp_path / "m.jntm")
    assert records
    for r in records:
        assert 0 < r.net_seconds and 0 < r.traj_seconds
        assert r.net_seconds + r.traj_seconds <= r.seconds
        assert 0 < r.sample_seconds and 0 < r.update_seconds
        assert r.sample_seconds + r.update_seconds <= \
            r.net_seconds + r.traj_seconds
        assert 0 < r.forward_seconds and 0 < r.bptt_seconds
        assert 0 < r.softmax_seconds
        assert r.forward_seconds + r.softmax_seconds + r.bptt_seconds <= \
            r.traj_seconds
        assert r.lockstep_steps > 0
        assert 0 < r.validation_seconds
        assert r.net_seconds + r.traj_seconds + r.validation_seconds <= \
            r.seconds
    # each epoch whose recall improves saves a checkpoint, after seconds
    best = -np.inf
    for r in records:
        improved = r.val_recall is None or r.val_recall > best
        assert (r.checkpoint_seconds > 0) == improved
        best = max(best, -np.inf if r.val_recall is None else r.val_recall)


def test_train_records_the_summed_batch_gradient_norms(monkeypatch, tmp_path):
    # batches of 2 of 5 users: 3 network and 3 trajectory updates an epoch,
    # each gradient's norm taken here before the update
    ds = toy_dataset(seed=19, num_users=5)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=2)
    seen = []

    def update(params, grads, *args):
        seen.append({name: np.linalg.norm(grads.tensor(name))
                     for name in TENSOR_NAMES})
        return adagrad_update(params, grads, *args)

    monkeypatch.setattr(training, "adagrad_update", update)
    config = toy_config(seed=4, max_iterations=2, batch_users=2, patience=5)
    records = train(ds, splits, config, tmp_path / "m.jntm")
    assert len(records) == 2 and len(seen) == 12
    for r, epoch in zip(records, (seen[:6], seen[6:])):
        assert set(r.grad_norms) == set(TENSOR_NAMES)
        for name in TENSOR_NAMES:
            want = sum(norms[name] for norms in epoch)
            assert r.grad_norms[name] == pytest.approx(want, rel=1e-12), name
        assert r.grad_norms["U_out"] > 0
