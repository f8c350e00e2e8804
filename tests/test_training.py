import math

import numpy as np
import pytest

from lbsnrec import data as lbsn_data
from lbsnrec import model as lbsn_model
from lbsnrec import training
from lbsnrec.model import (BASE_VARIANT, FULL_VARIANT, ModelParams,
                           TENSOR_NAMES, VariantMask, joint_log_likelihood_full,
                           load_checkpoint, location_log_prob_full,
                           network_log_likelihood_full)
from lbsnrec.training import (Gradients, OptimizerState, TrainConfig,
                              adagrad_update, block_location_loss,
                              draw_network_batch,
                              draw_trajectory_batch, init_params,
                              network_loss_and_grads,
                              rng_streams, sample_negative_links,
                              sample_negative_locations, sampled_location_loss,
                              trajectory_loss_and_grads,
                              train)

from conftest import make_checkins
from property_checks import random_params


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
    graph = lbsn_data.build_graph(4, edges)
    rng = np.random.default_rng(0)
    assert len(sample_negative_links(graph, 0, 100, rng)) == 0


def test_sample_negative_links_edgeless():
    graph = lbsn_data.build_graph(200, set())
    rng = np.random.default_rng(0)
    negs = sample_negative_links(graph, 7, 100, rng)
    assert len(negs) == 100
    assert len(set(negs.tolist())) == 100
    assert 7 not in negs


def test_sample_negative_links_reproducible_and_valid():
    graph = lbsn_data.build_graph(50, {(0, 1), (1, 0), (0, 2), (2, 0)})
    a = sample_negative_links(graph, 0, 10, np.random.default_rng(42))
    b = sample_negative_links(graph, 0, 10, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    assert not ({0, 1, 2} & set(a.tolist()))


def test_sample_negative_locations_forced_all():
    rng = np.random.default_rng(0)
    negs = sample_negative_locations(101, 17, 100, rng)
    assert sorted(negs.tolist()) == [l for l in range(101) if l != 17]


def test_sample_negative_locations_excludes_target_distinct():
    rng = np.random.default_rng(1)
    negs = sample_negative_locations(1000, 3, 100, rng)
    assert len(negs) == 100 and len(set(negs.tolist())) == 100
    assert 3 not in negs
    again = sample_negative_locations(1000, 3, 100, np.random.default_rng(1))
    np.testing.assert_array_equal(negs, again)


# ---------------------------------------------------------------------------
# sampled losses and their gradients
# ---------------------------------------------------------------------------

def test_network_loss_zero_embeddings():
    graph = lbsn_data.build_graph(6, {(0, 1), (1, 0), (2, 3), (3, 2)})
    params = ModelParams.zeros(6, 4, 3)
    rng = np.random.default_rng(0)
    batch = draw_network_batch(graph, np.arange(6), 2, rng)
    loss, grads = network_loss_and_grads(params, graph, batch)
    n_terms = sum(len(graph.adjacency[u]) for u in range(6))
    n_terms += sum(len(n) for n in batch.negatives)
    assert loss == pytest.approx(n_terms * math.log(2), abs=1e-12)
    # zero F_ctx rows make dF zero, but the +-0.5 coefficients hit F_ctx rows
    assert np.all(grads.F == 0.0)


def test_network_loss_grad_coefficients():
    # zero F with random F_ctx: dF[v] = sum (sigma(0)-1) F'_pos + sigma(0) F'_neg
    rng = np.random.default_rng(3)
    graph = lbsn_data.build_graph(5, {(0, 1), (1, 0), (0, 2), (2, 0)})
    params = ModelParams.zeros(5, 4, 3)
    params.F_ctx[:] = rng.normal(size=(5, 3))
    batch = draw_network_batch(graph, np.array([0]), 2, rng)
    _, grads = network_loss_and_grads(params, graph, batch)
    expected = (-0.5 * (params.F_ctx[1] + params.F_ctx[2])
                + 0.5 * params.F_ctx[batch.negatives[0]].sum(axis=0))
    np.testing.assert_allclose(grads.F[0], expected, atol=1e-12)


def test_network_loss_no_edges_no_negatives():
    graph = lbsn_data.build_graph(1, set())
    params = ModelParams.zeros(1, 2, 2)
    batch = draw_network_batch(graph, np.array([0]), 5, np.random.default_rng(0))
    loss, grads = network_loss_and_grads(params, graph, batch)
    assert loss == 0.0
    assert np.all(grads.F == 0.0) and np.all(grads.F_ctx == 0.0)


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
    rng = np.random.default_rng(7)
    graph = lbsn_data.build_graph(6, {(0, 1), (1, 0), (2, 4), (4, 2), (3, 5), (5, 3)})
    params = random_params(rng, 6, 4, 3, scale=0.7)
    batch = draw_network_batch(graph, np.arange(6), 3, rng)
    _, grads = network_loss_and_grads(params, graph, batch)

    def loss_fn(p):
        return network_loss_and_grads(p, graph, batch)[0]

    for name in ("F", "F_ctx"):
        for idx in range(params.tensor(name).size):
            numeric = finite_diff(loss_fn, params, name, idx)
            analytic = grads.tensor(name).flat[idx]
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-9)


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
    negs = sample_negative_locations(20, target, 6, rng)
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


@pytest.mark.parametrize("num_locations,n2", [(12, 4), (9, 8), (40, 0)],
                         ids=["sampled", "enumerated", "no_negatives"])
def test_block_location_loss_matches_per_position_oracle(num_locations, n2):
    rng = np.random.default_rng(14)
    params = random_params(rng, 2, num_locations, 3, scale=0.5)
    for m in (1, 2, 5, 9):
        contexts = rng.normal(size=(m, 12))
        targets = rng.integers(num_locations, size=m)
        targets[-1] = targets[0]    # one target at two positions when m > 1
        negs = [sample_negative_locations(num_locations, int(t), n2, rng)
                for t in targets]
        cands = np.column_stack((targets, np.stack(negs)))
        loss, d_contexts, rows, d_rows = block_location_loss(params, contexts,
                                                             cands)
        want_loss = 0.0
        want_contexts = np.zeros_like(contexts)
        want_u_out = np.zeros_like(params.U_out)
        for i in range(m):
            l, d_ctx, c, d_scores = sampled_location_loss(
                params, contexts[i], targets[i], negs[i])
            want_loss += l
            want_contexts[i] = d_ctx
            want_u_out[c] += np.outer(d_scores, contexts[i])
        assert np.all(np.diff(rows) > 0)
        assert set(rows.tolist()) == set(cands.ravel().tolist())
        if m > 1:
            assert len(rows) < cands.size   # candidates repeat across positions
        got_u_out = np.zeros_like(params.U_out)
        got_u_out[rows] = d_rows
        assert abs(loss - want_loss) <= 1e-12
        np.testing.assert_allclose(d_contexts, want_contexts, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_u_out, want_u_out, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# trajectory iteration / BPTT structure
# ---------------------------------------------------------------------------

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
    assert np.any(grads.P[0] != 0.0) and np.any(grads.F[0] != 0.0)
    assert np.any(grads.S0 != 0.0)       # context S-block is S0 itself
    assert np.any(grads.C0 != 0.0)       # via the tanh(C0) block
    assert np.all(grads.W == 0.0)        # no recurrence step ran
    assert np.all(grads.U == 0.0)        # no chain consumed a location
    for name in ("W_i1", "W_i2", "W_f1", "W_f2", "W_c1", "W_c2",
                 "b_i", "b_f", "b_c"):
        assert np.all(grads.tensor(name) == 0.0)
    assert grads.touched["U"] == set()
    assert grads.touched["P"] == {0} and grads.touched["F"] == {0}
    assert grads.touched["U_out"] == {0, 1}


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


def ragged_batch(rng, num_locations, n2):
    """Users of different lengths: an empty view, one-check-in
    subtrajectories, a last subtrajectory of one position, longer ones."""
    layouts = [[4, 2, 1], [], [1, 1, 1], [7], [3, 5, 2, 1], [1], [2, 6]]
    views, negatives = [], []
    for sizes in layouts:
        ends = np.cumsum(sizes, dtype=np.int64)
        locs = rng.integers(0, num_locations, size=sum(sizes))
        views.append((locs, [(int(e - n), int(e)) for n, e in zip(sizes, ends)]))
        negatives.append([sample_negative_locations(num_locations, int(l), n2,
                                                    rng) for l in locs])
    return training.TrajectoryBatch(users=np.array([4, 0, 8, 2, 5, 1, 7]),
                                    views=views, negatives=negatives)


ALL_VARIANTS = [VariantMask(s, g) for s in (True, False) for g in (True, False)]


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
    want = Gradients.like(params)
    want_loss = 0.0
    for b in range(7):
        one = training.TrajectoryBatch(users=batch.users[b:b + 1],
                                       views=batch.views[b:b + 1],
                                       negatives=batch.negatives[b:b + 1])
        want_loss += trajectory_loss_and_grads(params, mask, one, want)[0]
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name in TENSOR_NAMES:
        got, expected = grads.tensor(name), want.tensor(name)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-12 * scale, name
    assert grads.touched == want.touched
    if mask.use_short or mask.use_long:
        assert np.any(grads.U != 0.0)


@pytest.mark.parametrize("positions", [1, 20])
def test_trajectory_grads_independent_of_forward_groups(monkeypatch, positions):
    rng = np.random.default_rng(22)
    params = random_params(rng, 9, 12, 3, scale=0.8)
    batch = ragged_batch(rng, 12, 5)
    loss, grads = trajectory_loss_and_grads(params, FULL_VARIANT, batch)
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", positions)
    calls = []
    forward = training.forward_trajectory
    monkeypatch.setattr(training, "forward_trajectory",
                        lambda *args: calls.append(args) or forward(*args))
    grouped_loss, grouped = trajectory_loss_and_grads(params, FULL_VARIANT,
                                                      batch)
    # lengths 7, 0, 3, 7, 11, 1, 8: at 20 positions the groups are users
    # (0, 1), (2, 3), (4,) and (5, 6)
    assert len(calls) == {1: 7, 20: 4}[positions]
    assert abs(grouped_loss - loss) <= 1e-12 * abs(loss)
    for name in TENSOR_NAMES:
        scale = np.abs(grads.tensor(name)).max()
        assert np.abs(grouped.tensor(name) - grads.tensor(name)).max() <= \
            1e-12 * scale, name
    assert grouped.touched == grads.touched


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
        touched = grads.touched[name]
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
    graph = lbsn_data.build_graph(6, set())
    params = ModelParams.zeros(6, 4, 3)
    cfg = toy_config(n1_per_user=0)
    batch = draw_network_batch(graph, np.arange(6), cfg.n1_per_user,
                               rng_streams(0).link_negatives)
    loss, grads = network_loss_and_grads(params, graph, batch)
    assert loss == 0.0
    assert np.all(grads.F == 0.0) and np.all(grads.F_ctx == 0.0)


def test_network_loss_and_grads_deterministic():
    graph = lbsn_data.build_graph(10, {(0, 1), (1, 0), (4, 7), (7, 4)})
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
    np.testing.assert_array_equal(g1.F, g2.F)
    np.testing.assert_array_equal(g1.F_ctx, g2.F_ctx)


def test_network_descent_on_frozen_batch():
    rng = np.random.default_rng(21)
    graph = lbsn_data.build_graph(8, {(0, 1), (1, 0), (2, 3), (3, 2),
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
    grads.P[1, 0] = np.inf
    grads.touch("P", 1)
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
