import math

import numpy as np
import pytest
from scipy.special import expit

from lbsnrec import data as lbsn_data
from lbsnrec import model as lbsn_model
from lbsnrec.model import (BASE_VARIANT, FULL_VARIANT, ModelParams, VariantMask,
                           forward_trajectory, gru_initial,
                           joint_log_likelihood_full, load_checkpoint,
                           location_log_prob_full, log_sigmoid,
                           long_term_chain, network_log_likelihood_full,
                           save_checkpoint, tensor_shapes)

from conftest import make_checkins
from property_checks import (edge_pairs, forward_one, graph_of, gru_step,
                             link_logit, random_params, reference_contexts,
                             rnn_step, unpack_trace)


def params_with(rng=None, num_users=3, num_locations=5, dim=2, scale=0.0):
    if scale == 0.0:
        return ModelParams.zeros(num_users, num_locations, dim)
    return random_params(rng, num_users, num_locations, dim, scale=scale)


def test_sigmoid_closed_forms():
    assert expit(0.0) == 0.5
    assert expit(math.log(3)) == pytest.approx(0.75, abs=1e-15)
    assert expit(-math.log(3)) == pytest.approx(0.25, abs=1e-15)
    assert log_sigmoid(math.log(3)) == pytest.approx(math.log(0.75), abs=1e-15)


def test_sigmoid_complement_identity():
    rng = np.random.default_rng(0)
    s = rng.uniform(-30, 30, size=1000)
    np.testing.assert_allclose(expit(s) + expit(-s), 1.0, atol=1e-15)
    np.testing.assert_allclose(np.exp(log_sigmoid(s)), expit(s), rtol=1e-14)


def test_sigmoid_overflow_safe():
    assert expit(700.0) == 1.0
    assert expit(-700.0) == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(log_sigmoid(np.array([-700.0, 700.0]))).all()


def test_link_logit_cases():
    p = params_with()
    assert link_logit(p, 0, 1) == 0.0
    p.F[0] = [1.0, 2.0]
    p.F_ctx[1] = [0.5, -0.25]
    assert link_logit(p, 0, 1) == 0.0
    p.F[0] = [1.0, 1.0]
    p.F_ctx[1] = [1.0, 1.0]
    assert link_logit(p, 0, 1) == 2.0


def brute_force_network_loglik(params, graph):
    edges = edge_pairs(graph.num_users, graph.directed_edges)
    total = 0.0
    for i in range(graph.num_users):
        for j in range(graph.num_users):
            if i == j:
                continue
            s = float(np.dot(params.F[i], params.F_ctx[j]))
            p = 1.0 / (1.0 + math.exp(-s))
            total += math.log(p) if (i, j) in edges else math.log(1 - p)
    return total


def test_network_loglik_two_users_zero_params():
    params = params_with(num_users=2)
    graph = graph_of(2, {(0, 1), (1, 0)})
    value = network_log_likelihood_full(params, graph)
    assert value == pytest.approx(2 * math.log(0.5), abs=1e-12)
    assert value == pytest.approx(brute_force_network_loglik(params, graph), abs=1e-12)


def test_network_loglik_empty_graph():
    params = params_with(num_users=3)
    graph = graph_of(3, set())
    assert network_log_likelihood_full(params, graph) == pytest.approx(
        6 * math.log(0.5), abs=1e-12)


def test_network_loglik_matches_brute_force_random():
    rng = np.random.default_rng(5)
    params = params_with(rng, num_users=4, scale=0.8)
    graph = graph_of(4, {(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)})
    assert network_log_likelihood_full(params, graph) == pytest.approx(
        brute_force_network_loglik(params, graph), rel=1e-12)


def test_network_loglik_saturated_limit():
    params = params_with(num_users=2, dim=2)
    params.F[0] = params.F[1] = [30.0, 0.0]
    params.F_ctx[0] = params.F_ctx[1] = [30.0, 0.0]
    graph = graph_of(2, {(0, 1), (1, 0)})
    assert network_log_likelihood_full(params, graph) == pytest.approx(0.0, abs=1e-6)


def test_rnn_step_cases():
    p = params_with(num_locations=3, dim=2)
    np.testing.assert_array_equal(rnn_step(p, np.zeros(2), 0), np.zeros(2))
    p.U[1] = [0.3, -0.2]
    np.testing.assert_allclose(rnn_step(p, np.array([5.0, -5.0]), 1),
                               np.tanh([0.3, -0.2]))
    p1 = ModelParams.zeros(1, 2, 1)
    p1.U[0] = 0.5
    p1.W[0, 0] = 1.0
    np.testing.assert_allclose(rnn_step(p1, np.array([0.25]), 0),
                               [0.6351489523872873], atol=1e-12)


def test_gru_step_zero_everything():
    p = params_with(dim=2)
    cell, hidden, i_gate, f_gate, cand = gru_step(p, np.zeros(2), np.zeros(2), 0)
    np.testing.assert_array_equal(cell, 0.0)
    np.testing.assert_array_equal(hidden, 0.0)
    np.testing.assert_array_equal(i_gate, 0.5)
    np.testing.assert_array_equal(f_gate, 0.5)
    np.testing.assert_array_equal(cand, 0.0)


def test_gru_step_pure_memory_mix():
    p = ModelParams.zeros(1, 2, 1)
    cell, hidden, _, _, _ = gru_step(p, np.array([1.0]), np.zeros(1), 0)
    assert cell[0] == pytest.approx(0.5, abs=1e-15)
    assert hidden[0] == pytest.approx(0.46211715726000974, abs=1e-12)


def test_gru_step_saturated_gates():
    p = ModelParams.zeros(1, 2, 2)
    p.b_i[:] = -40.0
    p.b_f[:] = 40.0
    c_prev = np.array([0.3, -0.7])
    cell, _, i_gate, f_gate, _ = gru_step(p, c_prev, np.zeros(2), 0)
    np.testing.assert_allclose(cell, c_prev, atol=1e-15)
    assert np.all(i_gate < 1e-15) and np.all(f_gate > 1 - 1e-15)


def test_gru_initial_pair():
    p = params_with(dim=3)
    p.C0[:] = [0.5, -1.0, 0.0]
    c0, h0 = gru_initial(p)
    np.testing.assert_allclose(h0, np.tanh(p.C0))
    np.testing.assert_array_equal(c0, p.C0)


def test_build_context_order_and_ablation():
    # contexts are [F_u; P_u; short block; long block], masked blocks zero
    rng = np.random.default_rng(1)
    p = params_with(rng, dim=2, scale=0.5)
    locs = np.array([0, 3, 1, 4])
    bounds = [(0, 2), (2, 4)]
    full = forward_one(p, FULL_VARIANT, 1, locs, bounds)
    assert full.contexts.shape == (4, 8)
    np.testing.assert_array_equal(full.contexts[:, :2], np.tile(p.F[1], (4, 1)))
    np.testing.assert_array_equal(full.contexts[:, 2:4], np.tile(p.P[1], (4, 1)))
    np.testing.assert_array_equal(full.contexts[:, 4:6], full.short_states)
    np.testing.assert_array_equal(full.contexts[:, 6:8],
                                  full.long_hidden[[0, 0, 2, 2]])
    none = forward_one(p, BASE_VARIANT, 1, locs, bounds)
    np.testing.assert_array_equal(none.contexts[:, 4:], 0.0)
    np.testing.assert_array_equal(none.contexts[:, :4], full.contexts[:, :4])
    zero = forward_one(params_with(dim=2), FULL_VARIANT, 0, locs, bounds)
    np.testing.assert_array_equal(zero.contexts, 0.0)


def test_location_log_prob_uniform():
    p = params_with(num_locations=7, dim=2)
    p.U_out[:] = 0.25
    context = np.ones(8)
    assert location_log_prob_full(p, context, 3) == pytest.approx(
        math.log(1 / 7), abs=1e-12)


def test_location_log_prob_two_term():
    p = ModelParams.zeros(1, 2, 1)
    p.U_out[0] = [1.0, 0.0, 0.0, 0.0]
    p.U_out[1] = [0.0, 0.0, 0.0, 0.0]
    context = np.array([1.0, 0.0, 0.0, 0.0])
    assert location_log_prob_full(p, context, 0) == pytest.approx(
        -0.3132616875182228, abs=1e-12)


def test_location_log_prob_shift_invariant_and_normalized():
    rng = np.random.default_rng(2)
    p = params_with(rng, num_locations=40, dim=3, scale=1.0)
    context = rng.normal(size=12)
    base = location_log_prob_full(p, context, 17)
    shifted = p.copy()
    # add a constant to every logit by shifting U_out along the context
    shifted.U_out += np.outer(np.ones(40), context) * (3.7 / (context @ context))
    assert location_log_prob_full(shifted, context, 17) == pytest.approx(
        base, abs=1e-12)
    total = sum(math.exp(location_log_prob_full(p, context, t)) for t in range(40))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_forward_single_position_context():
    rng = np.random.default_rng(3)
    p = params_with(rng, num_users=2, num_locations=4, dim=3, scale=0.5)
    trace = forward_one(p, FULL_VARIANT, 1, np.array([2]), [(0, 1)])
    expected = np.concatenate([p.F[1], p.P[1], p.S0, np.tanh(p.C0)])
    np.testing.assert_allclose(trace.contexts[0], expected)


def test_forward_second_subtrajectory_uses_h_after_first():
    rng = np.random.default_rng(4)
    p = params_with(rng, num_users=1, num_locations=6, dim=3, scale=0.5)
    locs = np.array([0, 1, 2, 3, 4])
    bounds = [(0, 3), (3, 5)]
    trace = forward_one(p, FULL_VARIANT, 0, locs, bounds)
    # replay the long-term chain independently step by step
    cell, hidden = gru_initial(p)
    for t in range(3):
        cell, hidden, _, _, _ = gru_step(p, cell, hidden, locs[t])
    np.testing.assert_allclose(trace.contexts[3][9:12], hidden)
    np.testing.assert_allclose(trace.contexts[4][9:12], hidden)
    # replay the short-term chain of subtrajectory 2
    np.testing.assert_allclose(trace.contexts[3][6:9], p.S0)
    np.testing.assert_allclose(trace.contexts[4][6:9], rnn_step(p, p.S0, locs[3]))


def test_forward_chains_match_step_functions():
    # both lockstep recurrences are GEMMs over rows, which round differently
    # from the GEMVs of gru_step and rnn_step
    rng = np.random.default_rng(10)
    p = params_with(rng, num_users=1, num_locations=30, dim=8, scale=0.6)
    locs = rng.integers(0, 30, size=400)
    bounds = [(b, b + 8) for b in range(0, 400, 8)]
    trace = forward_one(p, FULL_VARIANT, 0, locs, bounds)
    cell, hidden = gru_initial(p)
    cells, hiddens, gates = [cell], [hidden], []
    for loc in locs:
        cell, hidden, i_gate, f_gate, cand = gru_step(p, cell, hidden, loc)
        cells.append(cell)
        hiddens.append(hidden)
        gates.append(np.concatenate((i_gate, f_gate, cand)))
    fused_gates = np.hstack((trace.input_gates, trace.forget_gates,
                             trace.candidate_states))
    # the chain stops where the last subtrajectory starts: 392 steps
    last = bounds[-1][0]
    for fused, stepped, m in ((trace.long_cells, cells, last + 1),
                              (trace.long_hidden, hiddens, last + 1),
                              (fused_gates, gates, last)):
        # relative to the chain's scale: single entries may cancel to ~0
        stepped = np.asarray(stepped[:m])
        assert fused.shape == stepped.shape
        assert np.abs(fused - stepped).max() <= 1e-12 * np.abs(stepped).max()
    for b, e in bounds:
        state = p.S0
        for q in range(b, e):
            assert np.abs(trace.short_states[q] - state).max() <= \
                1e-12 * np.abs(state).max()
            state = rnn_step(p, state, locs[q])


def ragged_views(rng, num_locations):
    """Views of different lengths: an empty one, one-check-in
    subtrajectories, a last subtrajectory of one position, and longer ones."""
    layouts = [[4, 2, 1], [], [1, 1, 1], [7], [3, 5, 2, 1], [1], [2, 6]]
    views = []
    for sizes in layouts:
        ends = np.cumsum(sizes, dtype=np.int64)
        bounds = [(int(e - n), int(e)) for n, e in zip(sizes, ends)]
        views.append((rng.integers(0, num_locations, size=sum(sizes)), bounds))
    return views


ALL_VARIANTS = [VariantMask(s, g) for s in (True, False) for g in (True, False)]


@pytest.mark.parametrize("order", ["given", "reversed", "shuffled"])
@pytest.mark.parametrize("mask", ALL_VARIANTS,
                         ids=["full", "short_only", "long_only", "base"])
def test_lockstep_batch_matches_one_user_calls(mask, order):
    rng = np.random.default_rng(11)
    p = params_with(rng, num_users=9, num_locations=12, dim=3, scale=0.8)
    views = ragged_views(rng, 12)
    users = np.array([4, 0, 8, 2, 5, 1, 7])
    perm = {"given": np.arange(7), "reversed": np.arange(7)[::-1],
            "shuffled": rng.permutation(7)}[order]
    permuted = [views[i] for i in perm]
    traced = forward_trajectory(p, mask, users[perm], permuted)
    # user b's positions are consecutive rows, in batch order
    assert traced.contexts.shape == (sum(len(locs) for locs, _ in views), 12)
    starts = np.cumsum(traced.lengths) - traced.lengths
    batch = unpack_trace(p, mask, traced, permuted)
    for b, i in enumerate(perm):
        n = len(views[i][0])
        alone = forward_trajectory(p, mask, users[i:i + 1], [views[i]])
        one = unpack_trace(p, mask, alone, [views[i]])
        assert traced.lengths[b] == alone.lengths[0] == n
        pairs = [(traced.contexts[starts[b]:starts[b] + n], alone.contexts)]
        if mask.use_short:
            pairs.append((batch.short_states[b], one.short_states[0]))
        else:
            assert batch.short_states is None and one.short_states is None
        if mask.use_long:
            pairs += [(batch.long_cells[b], one.long_cells[0]),
                      (batch.long_hidden[b], one.long_hidden[0]),
                      (batch.gates[b], one.gates[0])]
            # the chain stops where the last subtrajectory starts
            last = views[i][1][-1][0] if views[i][1] else 0
            assert len(one.long_hidden[0]) == last + 1
            assert len(one.gates[0]) == last
            assert np.all(one.gates[0][:, :2 * p.dim] > 0.0)
        else:
            assert batch.long_hidden is None and batch.gates is None
        for batched, single in pairs:
            assert batched.shape == single.shape
            scale = max(np.abs(single).max(initial=0.0), 1.0)
            assert np.abs(batched - single).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("caches", [True, False], ids=["cached", "ranking"])
@pytest.mark.parametrize("mask", ALL_VARIANTS,
                         ids=["full", "short_only", "long_only", "base"])
def test_long_term_schedule_ends_at_the_last_consulted_boundary(mask, caches):
    rng = np.random.default_rng(14)
    p = params_with(rng, num_users=9, num_locations=12, dim=3, scale=0.8)
    views = ragged_views(rng, 12)
    users = np.array([4, 0, 8, 2, 5, 1, 7])
    chain = long_term_chain(p, views, caches=caches)
    # users 3 and 5 have a single subtrajectory, user 1 none: no steps
    last = [bounds[-1][0] if bounds else 0 for _, bounds in views]
    assert last == [6, 0, 2, 0, 10, 0, 2]
    starts = np.cumsum(last) - last
    np.testing.assert_array_equal(chain.steps.lengths, last)
    np.testing.assert_array_equal(chain.steps.starts, starts)
    np.testing.assert_array_equal(
        np.sort(chain.steps.rows), np.arange(sum(last)))
    np.testing.assert_array_equal(chain.locations, np.concatenate(
        [locs[:n] for (locs, _), n in zip(views, last)]))
    assert len(chain.hidden) == len(chain.consulted) == sum(
        len(bounds) for _, bounds in views)
    trace = forward_trajectory(p, mask, users, views,
                               chain.hidden if mask.use_long else None)
    start = 0
    for b, (locs, bounds) in enumerate(views):
        expected = reference_contexts(p, mask, users[b], locs, bounds)
        scale = max(np.abs(expected).max(initial=0.0), 1.0)
        assert np.abs(trace.contexts[start:start + len(locs)] - expected).max(
            initial=0.0) <= 1e-12 * scale
        start += len(locs)
    assert start == len(trace.contexts)


@pytest.mark.parametrize("mask", ALL_VARIANTS,
                         ids=["full", "short_only", "long_only", "base"])
def test_forward_without_caches_keeps_only_contexts(mask):
    # a trace holds the contexts and the short-term schedule; the long-term
    # chain keeps its cells only with caches, which change no state
    rng = np.random.default_rng(13)
    p = params_with(rng, num_users=9, num_locations=12, dim=3, scale=0.8)
    views = ragged_views(rng, 12)
    users = np.array([4, 0, 8, 2, 5, 1, 7])
    cached = long_term_chain(p, views)
    ranked = long_term_chain(p, views, caches=False)
    assert ranked.cells is None
    assert cached.cells.shape == (len(cached.steps.rows) + 1, 3)
    np.testing.assert_array_equal(cached.cells[-1], p.C0)
    np.testing.assert_array_equal(ranked.hidden, cached.hidden)
    standalone = forward_trajectory(p, mask, users, views)
    assert set(vars(standalone)) == {"lengths", "locations", "contexts",
                                     "subtrajectories"}
    given = forward_trajectory(p, mask, users, views,
                               cached.hidden if mask.use_long else None)
    np.testing.assert_array_equal(given.contexts, standalone.contexts)
    np.testing.assert_array_equal(given.lengths, standalone.lengths)


@pytest.mark.parametrize("bound", [1, 2, 5, 630])
def test_long_term_chain_independent_of_block_bound(monkeypatch, bound):
    # blocks of at most `bound` step-columns, runs of equal live count and
    # columns split, give the hidden states of whole-run blocks
    rng = np.random.default_rng(13)
    p = params_with(rng, num_users=9, num_locations=12, dim=3, scale=0.8)
    views = ragged_views(rng, 12)
    whole = long_term_chain(p, views)
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", bound)
    blocks = list(lbsn_model.chain_blocks(whole.steps.live))
    assert all((t1 - t0) * (c1 - c0) <= bound for t0, t1, c0, c1 in blocks)
    # a block's packed rows are contiguous, and each row lies in one block
    offsets, covered = whole.steps.offsets, []
    for t0, t1, c0, c1 in blocks:
        rows = [offsets[t] + c for t in range(t0, t1) for c in range(c0, c1)]
        assert rows == list(range(rows[0], rows[0] + len(rows)))
        covered += rows
    assert sorted(covered) == list(range(len(whole.steps.rows)))
    split = long_term_chain(p, views)
    np.testing.assert_array_equal(split.consulted, whole.consulted)
    np.testing.assert_allclose(split.hidden, whole.hidden, rtol=0, atol=1e-15)
    np.testing.assert_allclose(split.cells, whole.cells, rtol=0, atol=1e-15)
    later = whole.consulted >= 0
    np.testing.assert_allclose(whole.hidden[later],
                               np.tanh(whole.cells[whole.consulted[later]]),
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(whole.hidden[~later],
                                  np.tile(np.tanh(p.C0), (np.sum(~later), 1)))


def test_forward_empty_batch_and_empty_views():
    rng = np.random.default_rng(12)
    p = params_with(rng, num_users=2, num_locations=4, dim=2, scale=0.5)
    none = forward_trajectory(p, FULL_VARIANT, [], [])
    assert none.contexts.shape == (0, 8) and none.lengths.shape == (0,)
    empty = forward_trajectory(p, FULL_VARIANT, [0, 1],
                               [(np.zeros(0, dtype=np.int64), [])] * 2)
    assert empty.contexts.shape == (0, 8)
    np.testing.assert_array_equal(empty.lengths, [0, 0])


def test_forward_base_variant_ignores_history():
    rng = np.random.default_rng(5)
    p = params_with(rng, num_users=1, num_locations=6, dim=2, scale=0.5)
    a = forward_one(p, BASE_VARIANT, 0, np.array([0, 1, 2]), [(0, 3)])
    b = forward_one(p, BASE_VARIANT, 0, np.array([5, 4, 3]), [(0, 3)])
    np.testing.assert_array_equal(a.contexts, b.contexts)
    np.testing.assert_array_equal(a.contexts[:, 4:], 0.0)


def test_forward_no_short_block_when_masked():
    rng = np.random.default_rng(6)
    p = params_with(rng, num_users=1, num_locations=6, dim=2, scale=0.5)
    trace = forward_one(p, VariantMask(use_short=False, use_long=True), 0,
                               np.array([0, 1, 2, 3]), [(0, 2), (2, 4)])
    np.testing.assert_array_equal(trace.contexts[:, 4:6], 0.0)
    assert trace.short_states is None


def test_forward_determinism():
    rng = np.random.default_rng(7)
    p = params_with(rng, num_users=1, num_locations=6, dim=2, scale=0.5)
    locs = np.array([1, 2, 3])
    a = forward_one(p, FULL_VARIANT, 0, locs, [(0, 3)])
    b = forward_one(p, FULL_VARIANT, 0, locs, [(0, 3)])
    assert np.array_equal(a.contexts, b.contexts)


def test_joint_loglik_zero_param_toy():
    checkins = make_checkins({"a": [["x", "y"]], "b": [["y"]]})
    ds = lbsn_data.build_dataset(checkins, [("a", "b")])
    params = ModelParams.zeros(2, 2, 3)
    # independent enumerator: every ordered pair and every check-in is a
    # fair coin under zero parameters
    pair_terms = ds.num_users * (ds.num_users - 1)
    expected = -(pair_terms + ds.num_checkins) * math.log(2)
    assert joint_log_likelihood_full(params, FULL_VARIANT, ds) == pytest.approx(
        expected, abs=1e-12)


def test_joint_loglik_network_only():
    checkins = make_checkins({"a": [["x"]], "b": [["x"]]})
    ds = lbsn_data.build_dataset(checkins, [("a", "b")])
    ds_no_traj = lbsn_data.Dataset(graph=ds.graph, trajectories=[],
                                   user_vocab=ds.user_vocab,
                                   location_vocab=ds.location_vocab)
    rng = np.random.default_rng(8)
    params = params_with(rng, num_users=2, num_locations=1, dim=2, scale=0.6)
    assert joint_log_likelihood_full(params, FULL_VARIANT, ds_no_traj) == \
        pytest.approx(network_log_likelihood_full(params, ds.graph), abs=1e-12)


def test_joint_loglik_empty_everything():
    empty = lbsn_data.Dataset(graph=graph_of(0, set()),
                              trajectories=[],
                              user_vocab=lbsn_data.Vocab([], {}),
                              location_vocab=lbsn_data.Vocab([], {}))
    params = ModelParams.zeros(0, 0, 2)
    assert joint_log_likelihood_full(params, FULL_VARIANT, empty) == 0.0


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    params = params_with(rng, num_users=3, num_locations=4, dim=2, scale=0.3)
    mask = VariantMask(use_short=False, use_long=True)
    path = tmp_path / "model.jntm"
    save_checkpoint(path, params, mask, ["a", "b", "c"], ["w", "x", "y", "z"])
    loaded, loaded_mask, users, locations = load_checkpoint(path)
    assert loaded_mask == mask
    assert users == ["a", "b", "c"] and locations == ["w", "x", "y", "z"]
    for name in tensor_shapes(3, 4, 2):
        np.testing.assert_array_equal(loaded.tensor(name), params.tensor(name))
    # byte determinism
    path2 = tmp_path / "model2.jntm"
    save_checkpoint(path2, params, mask, ["a", "b", "c"], ["w", "x", "y", "z"])
    assert path.read_bytes() == path2.read_bytes()
    assert path.read_bytes()[:4] == b"JNTM"


def test_checkpoint_write_failure_keeps_previous(tmp_path):
    rng = np.random.default_rng(10)
    params = params_with(rng, num_users=3, num_locations=4, dim=2, scale=0.3)
    path = tmp_path / "model.jntm"
    vocab = (["a", "b", "c"], ["w", "x", "y", "z"])
    save_checkpoint(path, params, FULL_VARIANT, *vocab)
    before = path.read_bytes()

    class FullDisk:
        # stands in for U_out, written after the header and four tensors
        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    changed = params.copy()
    changed.U += 1.0
    changed.U_out = FullDisk()
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, changed, FULL_VARIANT, *vocab)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.jntm"]


@pytest.mark.parametrize("vocab", ["user", "location"])
def test_checkpoint_refuses_a_newline_in_an_id(tmp_path, vocab):
    from lbsnrec.model import CheckpointError
    rng = np.random.default_rng(10)
    params = params_with(rng, num_users=3, num_locations=4, dim=2, scale=0.3)
    path = tmp_path / "model.jntm"
    ids = {"user": ["a", "b", "c"], "location": ["w", "x", "y", "z"]}
    save_checkpoint(path, params, FULL_VARIANT, ids["user"], ids["location"])
    before = path.read_bytes()
    ids[vocab][1] += "\n"
    with pytest.raises(CheckpointError, match="newline"):
        save_checkpoint(path, params, FULL_VARIANT, ids["user"],
                        ids["location"])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.jntm"]


def test_checkpoint_bad_magic(tmp_path):
    from lbsnrec.model import CheckpointError
    path = tmp_path / "bad.jntm"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
