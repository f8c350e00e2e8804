"""Randomized property suites shared by the unit tests and the acceptance gate.

Each function runs `cases` seeded random trials and returns the number of
failing trials (0 expected).
"""

import os
import tempfile
from collections import Counter, defaultdict
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

from lbsnrec import data as lbsn_data
from lbsnrec import evaluation, training
from scipy.special import expit

from lbsnrec.model import (ModelParams, VariantMask, chain_weights,
                           forward_trajectory, gru_initial, log_sigmoid,
                           long_term_chain, tensor_shapes)
from lbsnrec import synth
from lbsnrec.synth import community_of_user


def edge_keys(num_users, pairs):
    """The sorted, distinct int64 edge keys i * |V| + j of (i, j) pairs."""
    return np.unique(np.array([i * num_users + j for i, j in pairs],
                              dtype=np.int64))


def edge_pairs(num_users, keys):
    """The {(i, j)} set of an edge-key array, which must hold sorted,
    distinct int64 keys of pairs in [0, |V|)^2."""
    assert isinstance(keys, np.ndarray) and keys.dtype == np.int64
    assert (np.diff(keys) > 0).all()
    assert not len(keys) or 0 <= keys[0] <= keys[-1] < num_users * num_users
    return set(zip(*(a.tolist() for a in np.divmod(keys, num_users))))


def assert_same_edges(a, b):
    """Two edge-key arrays hold the same sorted, distinct int64 keys."""
    for keys in (a, b):
        assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
    np.testing.assert_array_equal(a, b)


def graph_of(num_users, pairs):
    """build_graph over the keys of these (i, j) pairs."""
    return lbsn_data.build_graph(num_users, edge_keys(num_users, pairs))


def planted_instance(seed, dim=16):
    """The planted benchmark's instance (the default SynthConfig), with its
    default splits and initial parameters at d = dim."""
    dataset = synth.generate(synth.SynthConfig(seed=seed))
    splits = lbsn_data.make_splits(dataset, seed=seed)
    params = training.init_params(training.TrainConfig(d=dim, seed=seed),
                                  dataset.num_users, dataset.num_locations)
    return dataset, splits, params


def random_params(rng, num_users, num_locations, dim, scale=0.5):
    tensors = {name: rng.uniform(-scale, scale, size=shape)
               for name, shape in tensor_shapes(num_users, num_locations,
                                                dim).items()}
    return ModelParams(**tensors)


def reference_rejection_sample(count, population, excluded, rng):
    """count distinct draws uniform over range(population) avoiding excluded,
    one value at a time: the sequential sampler the batch sampler
    (training.sample_distinct_rows) reproduces, stream and all."""
    out = []
    seen = set()
    while len(out) < count:
        draw = rng.integers(0, population, size=2 * (count - len(out)) + 8)
        for v in draw:
            v = int(v)
            if v in excluded or v in seen:
                continue
            seen.add(v)
            out.append(v)
            if len(out) == count:
                break
    return np.array(out, dtype=np.int64)


def reference_negative_links(graph, users, count, rng):
    """Per user, every eligible user (ascending) when at most count are
    eligible, else one reference_rejection_sample call."""
    negatives = []
    for user in users:
        excluded = set(graph.adjacency[user].tolist()) | {int(user)}
        if graph.num_users - len(excluded) <= count:
            negatives.append(np.array([v for v in range(graph.num_users)
                                       if v not in excluded], dtype=np.int64))
        else:
            negatives.append(reference_rejection_sample(
                count, graph.num_users, excluded, rng))
    return negatives


def format_timestamp(epoch):
    """Check-in time text that lbsnrec.data.parse_checkins reads back."""
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(
        lbsn_data.CHECKIN_TIME_FORMAT)


def write_checkins_tsv(checkins, path):
    """Write CheckIns as a raw check-in TSV (zero latitude and longitude)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for c in checkins:
            handle.write(f"{c.user}\t{format_timestamp(c.timestamp)}\t"
                         f"0.0\t0.0\t{c.location}\n")


def write_edges_tsv(pairs, path):
    """Write (user, user) pairs as a raw edge TSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for a, b in pairs:
            handle.write(f"{a}\t{b}\n")


def link_logit(params, i, j):
    """Inner product of i's network embedding with j's context embedding."""
    return float(np.dot(params.F[i], params.F_ctx[j]))


def rnn_step(params, s_prev, loc):
    """One short-term step over a just-visited location, as forward_trajectory
    defines it, for one sequence."""
    return np.tanh(params.U[loc] + params.W @ s_prev)


def gru_step(params, c_prev, h_prev, loc):
    """One long-term step over a just-visited location, as forward_trajectory
    defines it, for one sequence.

    Returns (cell, hidden, input_gate, forget_gate, candidate).
    """
    x = params.U[loc]
    candidate = np.tanh(params.W_c1 @ x + params.W_c2 @ h_prev + params.b_c)
    i_gate = expit(params.W_i1 @ x + params.W_i2 @ h_prev + params.b_i)
    f_gate = expit(params.W_f1 @ x + params.W_f2 @ h_prev + params.b_f)
    cell = i_gate * candidate + f_gate * c_prev
    hidden = np.tanh(cell)
    return cell, hidden, i_gate, f_gate, candidate


def reference_contexts(params, mask, user, locations, bounds):
    """One user's contexts, position by position with rnn_step and gru_step;
    the long-term chain steps over every location, the last subtrajectory's
    included, as the model defines it."""
    d = params.dim
    contexts = np.zeros((len(locations), 4 * d))
    cell, hidden = gru_initial(params)
    for b, e in bounds:
        state, consulted = params.S0, hidden
        for p in range(b, e):
            contexts[p, :d] = params.F[user]
            contexts[p, d:2 * d] = params.P[user]
            if mask.use_short:
                contexts[p, 2 * d:3 * d] = state
            if mask.use_long:
                contexts[p, 3 * d:] = consulted
            state = rnn_step(params, state, locations[p])
            cell, hidden = gru_step(params, cell, hidden, locations[p])[:2]
    return contexts


def unpack_trace(params, mask, trace, views):
    """The recurrent states behind a ForwardTrace of these views, per user.

    short_states[b] (n_b x d) holds the short-term state consulted at each
    of user b's positions (the contexts' third block); long_cells[b] and
    long_hidden[b] (t_b + 1 x d) the state of the views' long_term_chain
    after t locations in row t (row 0 the initial state), t_b the start of
    the user's last subtrajectory (where the long-term schedule ends);
    gates[b] (t_b x 3d) the gates of the step over each position before that
    start, rebuilt from the cached cells with the chain's operations. States
    the mask disables are None.

    Also asserts that each rebuilt step turns the cell before it into the
    cached cell after it, and that each subtrajectory's contexts hold the
    hidden state the chain gives it.
    """
    d = params.dim
    unpacked = SimpleNamespace(short_states=None, long_cells=None,
                               long_hidden=None, gates=None)
    if mask.use_short:
        starts = np.cumsum(trace.lengths) - trace.lengths
        unpacked.short_states = np.split(trace.contexts[:, 2 * d:3 * d],
                                         starts[1:])
    if not mask.use_long:
        return unpacked
    chain = long_term_chain(params, views)
    steps, cells = chain.steps, chain.cells[:-1]
    first = steps.live[0] if steps.live else 0
    c_prev = chain.cells[np.concatenate((np.full(first, -1), steps.previous))]
    pre = np.hstack((np.tanh(c_prev), params.U[chain.locations[steps.rows]],
                     np.ones((len(cells), 1)))) @ chain_weights(params).T
    gates = np.hstack((expit(pre[:, :2 * d]), np.tanh(pre[:, 2 * d:])))
    rebuilt = gates[:, :d] * gates[:, 2 * d:] + gates[:, d:2 * d] * c_prev
    np.testing.assert_allclose(rebuilt, cells, rtol=0, atol=1e-14 * max(
        1.0, np.abs(cells).max(initial=0.0)))
    sub = trace.subtrajectories
    np.testing.assert_array_equal(trace.contexts[sub.starts, 3 * d:],
                                  chain.hidden)
    # packed rows back to the chain's order, users one after another
    order = np.argsort(steps.rows)
    c0 = gru_initial(params)[0]
    unpacked.long_cells = [np.vstack((c0, user_cells)) for user_cells in
                           np.split(cells[order], steps.starts[1:])]
    unpacked.long_hidden = [np.tanh(user_cells)
                            for user_cells in unpacked.long_cells]
    unpacked.gates = np.split(gates[order], steps.starts[1:])
    return unpacked


def forward_one(params, mask, user, locations, bounds):
    """forward_trajectory over a one-user batch.

    Returns the user's arrays (contexts, short_states, long_cells,
    long_hidden, input_gates, forget_gates, candidate_states; see
    unpack_trace, the long-term ones ending with the long-term schedule),
    None where the mask disables a chain.
    """
    views = [(locations, bounds)]
    trace = forward_trajectory(params, mask, [user], views)
    unpacked = vars(unpack_trace(params, mask, trace, views))
    unpacked["contexts"] = [trace.contexts]
    rows = {name: None if arrays is None else arrays[0]
            for name, arrays in unpacked.items()}
    gates, d = rows.pop("gates"), params.dim
    for k, name in enumerate(("input_gates", "forget_gates",
                              "candidate_states")):
        rows[name] = None if gates is None else gates[:, k * d:(k + 1) * d]
    return SimpleNamespace(**rows)


def community_oracle_recall(config, splits, k):
    """Exact expected friend Recall@k of the best ranker on a planted instance.

    synth draws every edge independently given the communities and
    make_splits shuffles undirected pairs uniformly, so for a user v every
    candidate (as in evaluation.eval_friend_rec: not v, not a training
    friend) in v's community is equally likely to be a held-out friend, and
    so is every candidate outside it. The best ranker lists v's community
    first, in random order: a held-out friend inside it reaches the top k
    with probability min(1, k/|same|), one outside it with probability
    min(1, max(0, k - |same|)/|other|). Events are micro-averaged.
    """
    train_adj, test_adj = defaultdict(set), defaultdict(set)
    for i, j in edge_pairs(config.num_users, splits.train_edges):
        train_adj[i].add(j)
    for i, j in edge_pairs(config.num_users, splits.test_edges):
        test_adj[i].add(j)
    hits = 0.0
    events = 0
    for v, truth in test_adj.items():
        community = community_of_user(config, v)
        candidates = [u for u in range(config.num_users)
                      if u != v and u not in train_adj[v]]
        num_same = sum(community_of_user(config, u) == community
                       for u in candidates)
        num_other = len(candidates) - num_same
        for u in truth:
            if community_of_user(config, u) == community:
                hits += min(1.0, k / num_same)
            else:
                hits += min(1.0, max(0, k - num_same) / num_other)
        events += len(truth)
    return hits / events


def reference_eval_next_location(params, mask, dataset, splits, ks=(1, 5, 10),
                                 mode="general", user_slice="all", part="test",
                                 per_user_out=None):
    """Per-position reference for evaluation.eval_next_location.

    Walks each user's history one check-in at a time with rnn_step and
    gru_step, scores every location with one U_out GEMV per evaluated
    position, and ranks the target by an explicit candidate mask: the
    straightforward reading of the protocol that the batched eval must match.
    """
    ks = tuple(sorted(ks))
    hits = {k: 0 for k in ks}
    events = 0
    d = params.dim
    for user in range(dataset.num_users):
        traj = dataset.trajectories[user]
        bounds = traj.subtrajectory_bounds
        m = len(bounds)
        if (user_slice == "cold-start"
                and m > evaluation.COLD_START_MAX_SUBTRAJECTORIES):
            continue
        lo, hi = evaluation._part_range(splits, user, part)
        if hi is None:
            hi = m
        if lo >= hi:
            continue
        locs = traj.locations
        unvisited = np.ones(params.num_locations, dtype=bool)
        cell, hidden = gru_initial(params)
        context = np.zeros(4 * d)
        context[0:d] = params.F[user]
        context[d:2 * d] = params.P[user]
        user_hits = {k: 0 for k in ks}
        user_events = 0
        for j in range(hi):
            b, e = bounds[j]
            if mask.use_long:
                context[3 * d:4 * d] = hidden
            state = params.S0
            for p in range(b, e):
                target = int(locs[p])
                if lo <= j and (mode == "general" or unvisited[target]):
                    if mask.use_short:
                        context[2 * d:3 * d] = state
                    scores = params.U_out @ context
                    cand = (np.ones(params.num_locations, dtype=bool)
                            if mode == "general" else unvisited)
                    s_t = scores[target]
                    rank = 1 + int(np.count_nonzero((scores > s_t) & cand))
                    rank += int(np.count_nonzero((scores[:target] == s_t)
                                                 & cand[:target]))
                    user_events += 1
                    for k in ks:
                        user_hits[k] += rank <= k
                state = rnn_step(params, state, target)
                cell, hidden, _, _, _ = gru_step(params, cell, hidden, target)
                unvisited[target] = False
        events += user_events
        for k in ks:
            hits[k] += user_hits[k]
        if per_user_out is not None and user_events:
            per_user_out[user] = {"events": user_events, "hits": user_hits}
    recall = {k: hits[k] / events for k in ks} if events else {}
    return evaluation.EvalReport(task="next-location", mode=mode,
                                 user_slice=user_slice, recall_at=recall,
                                 num_events=events)


def reference_eval_friend_rec(params, dataset, splits, ks=(5, 10),
                              user_slice="all", per_user_out=None):
    """Per-user reference for evaluation.eval_friend_rec.

    Scores every user against user v with one GEMV per link direction and
    ranks each held-out friend of v by an explicit candidate mask (not v,
    not a training friend), ties broken by ascending index.
    """
    ks = tuple(sorted(ks))
    num_users = dataset.num_users
    train_adj = lbsn_data.build_graph(num_users, splits.train_edges).adjacency
    test_adj = lbsn_data.build_graph(num_users, splits.test_edges).adjacency
    hits = {k: 0 for k in ks}
    events = 0
    for v in range(num_users):
        truth = test_adj[v]
        if len(truth) == 0:
            continue
        if (user_slice == "low-degree"
                and len(train_adj[v]) >= evaluation.LOW_DEGREE_MAX_FRIENDS):
            continue
        scores = (log_sigmoid(params.F_ctx @ params.F[v])
                  + log_sigmoid(params.F @ params.F_ctx[v]))
        cand = np.ones(num_users, dtype=bool)
        cand[v] = False
        cand[train_adj[v]] = False
        user_hits = {k: 0 for k in ks}
        for u in truth:
            s_u = scores[u]
            rank = 1 + int(np.count_nonzero((scores > s_u) & cand))
            rank += int(np.count_nonzero((scores[:u] == s_u) & cand[:u]))
            events += 1
            for k in ks:
                user_hits[k] += rank <= k
        for k in ks:
            hits[k] += user_hits[k]
        if per_user_out is not None:
            per_user_out[v] = {"events": len(truth), "hits": user_hits}
    recall = {k: hits[k] / events for k in ks} if events else {}
    return evaluation.EvalReport(task="friend", mode="-", user_slice=user_slice,
                                 recall_at=recall, num_events=events)


def check_splitting_round_trip(cases=100, seed=0):
    """Subtrajectory bounds partition the sequence and respect the gap rule."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(1, 40))
        gaps = rng.choice([60, 3600, 21600, 21601, 90000], size=n - 1)
        ts = np.concatenate(([1_000_000], 1_000_000 + np.cumsum(gaps))).astype(np.int64)
        bounds = lbsn_data.split_into_subtrajectories(ts)
        ok = bounds[0][0] == 0 and bounds[-1][1] == n
        ok &= all(bounds[i][1] == bounds[i + 1][0] for i in range(len(bounds) - 1))
        pieces = np.concatenate([ts[b:e] for b, e in bounds])
        ok &= np.array_equal(pieces, ts)
        for b, e in bounds:
            ok &= all(ts[i + 1] - ts[i] <= lbsn_data.SIX_HOURS
                      for i in range(b, e - 1))
        for (_, e), (b2, _) in zip(bounds, bounds[1:]):
            ok &= ts[b2] - ts[e - 1] > lbsn_data.SIX_HOURS
        failures += not ok
    return failures


def check_recall_monotonic(cases=100, seed=1):
    """Recall@K never decreases as K grows."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(2, 50))
        ranked = list(rng.permutation(n))
        truth = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        values = [evaluation.recall_at_k(ranked, truth, k)
                  for k in range(1, n + 1)]
        failures += any(b < a for a, b in zip(values, values[1:]))
    return failures


def _tiny_dataset(rng, num_users=3, num_locations=12):
    checkins = []
    for u in range(num_users):
        t = 1_000_000
        for _ in range(int(rng.integers(2, 4))):       # subtrajectories
            for _ in range(int(rng.integers(1, 4))):   # check-ins
                loc = int(rng.integers(0, num_locations))
                checkins.append(lbsn_data.CheckIn(f"u{u}", f"l{loc:03d}", t))
                t += 3600
            t += 30000
    # make sure every location id exists so permutation keeps |L| fixed
    for loc in range(num_locations):
        checkins.append(lbsn_data.CheckIn("uZ", f"l{loc:03d}", 1_000_000 + loc))
    return lbsn_data.build_dataset(checkins, [("u0", "u1"), ("u1", "u2")])


def check_location_permutation_equivariance(cases=100, seed=2):
    """Relabeling locations consistently leaves every recall value unchanged."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        dataset = _tiny_dataset(rng)
        num_locations = dataset.num_locations
        params = random_params(rng, dataset.num_users, num_locations, dim=3)
        splits = lbsn_data.full_train_splits(dataset)
        base = evaluation.eval_next_location(params, VariantMask(), dataset,
                                             splits, ks=(1, 3), part="train")
        perm = rng.permutation(num_locations)
        permuted = params.copy()
        permuted.U[perm] = params.U
        permuted.U_out[perm] = params.U_out
        for traj in dataset.trajectories:
            traj.locations = perm[traj.locations]
        after = evaluation.eval_next_location(permuted, VariantMask(), dataset,
                                              splits, ks=(1, 3), part="train")
        failures += base.recall_at != after.recall_at
    return failures


def check_gate_and_tanh_ranges(cases=100, seed=3):
    """Recurrent activations stay in [-1, 1]; gate outputs in (0, 1)."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        d = int(rng.integers(1, 6))
        params = random_params(rng, 2, 5, d, scale=3.0)
        s = rng.normal(size=d)
        loc = int(rng.integers(0, 5))
        out = rnn_step(params, s, loc)
        ok = np.all(np.abs(out) <= 1.0)
        c_prev, h_prev = gru_initial(params)
        cell, hidden, i_gate, f_gate, cand = gru_step(params, c_prev, h_prev, loc)
        ok &= np.all((i_gate > 0) & (i_gate < 1))
        ok &= np.all((f_gate > 0) & (f_gate < 1))
        ok &= np.all(np.abs(cand) <= 1.0) and np.all(np.abs(hidden) <= 1.0)
        # the long-term chain steps over the six locations before the last
        # subtrajectory starts
        locs = rng.integers(0, 5, size=7).astype(np.int64)
        trace = forward_one(params, VariantMask(), 0, locs,
                            [(0, 3), (3, 6), (6, 7)])
        # positions 0, 3 and 6 hold the raw initial state S0, not a tanh output
        ok &= np.all(np.abs(trace.short_states[[1, 2, 4, 5]]) <= 1.0)
        ok &= np.all(np.abs(trace.long_hidden) <= 1.0)
        for gate in (trace.input_gates[:6], trace.forget_gates[:6]):
            ok &= np.all((gate > 0) & (gate < 1))
        ok &= np.all(np.abs(trace.candidate_states[:6]) <= 1.0)
        failures += not ok
    return failures


def check_adagrad_accumulator_monotone(cases=100, seed=4):
    """Accumulators never decrease and parameters stay finite."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        params = random_params(rng, 3, 4, 2, scale=0.1)
        state = training.OptimizerState(params)
        ok = True
        for _ in range(10):
            grads = training.Gradients.like(params)
            for name in ("W", "S0", "b_i"):
                grads.tensor(name)[...] = rng.normal(size=grads.tensor(name).shape)
            row = int(rng.integers(0, 3))
            grads.add_rows("P", np.array([row]), rng.normal(size=(1, 2)))
            before = {n: state.accumulators[n].copy()
                      for n in ("W", "S0", "b_i", "P")}
            training.adagrad_update(params, grads, state, 0.1, 1e-8)
            for n, prev in before.items():
                ok &= np.all(state.accumulators[n] >= prev)
            ok &= all(np.isfinite(params.tensor(n)).all()
                      for n in ("W", "S0", "b_i", "P"))
        failures += not ok
    return failures


def reference_network_pass(params, graph, batch):
    """(loss, dF, dF_ctx, F rows, F_ctx rows) of the network pass, one
    (user, other) pair at a time on link_logit."""
    loss = 0.0
    d_f, d_ctx = np.zeros_like(params.F), np.zeros_like(params.F_ctx)
    f_rows, ctx_rows = set(), set()
    for v, negatives in zip(batch.users.tolist(), batch.negatives):
        for others, label in ((graph.adjacency[v], 1.0), (negatives, 0.0)):
            for u in np.asarray(others).tolist():
                s = link_logit(params, v, u)
                loss += np.logaddexp(0.0, -s if label else s)
                coef = expit(s) - label
                d_f[v] += coef * params.F_ctx[u]
                d_ctx[u] += coef * params.F[v]
                f_rows.add(v)
                ctx_rows.add(u)
    return loss, d_f, d_ctx, sorted(f_rows), sorted(ctx_rows)


def check_network_pass_matches_pairs(cases=100, seed=5):
    """training.network_loss_and_grads equals the per-pair reference (the
    loss to 1e-12 relative, each gradient to 1e-12 of its largest entry)
    and touches the same rows, on random graphs with edgeless users, n1 = 0
    and single-user batches."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        num_users = int(rng.integers(1, 12))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * num_users))):
            i, j = rng.integers(0, num_users, size=2).tolist()
            if i != j:
                edges |= {(i, j), (j, i)}
        graph = graph_of(num_users, edges)
        params = random_params(rng, num_users, 3, int(rng.integers(1, 6)),
                               scale=float(rng.uniform(0.1, 2.0)))
        size = 1 if rng.random() < 0.3 else int(rng.integers(1, num_users + 1))
        users = rng.choice(num_users, size=size, replace=False)
        n1 = 0 if rng.random() < 0.3 else int(rng.integers(1, num_users + 1))
        batch = training.draw_network_batch(graph, users, n1, rng)
        loss, grads = training.network_loss_and_grads(params, graph, batch)
        want_loss, d_f, d_ctx, f_rows, ctx_rows = reference_network_pass(
            params, graph, batch)
        ok = abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for name, want in (("F", d_f), ("F_ctx", d_ctx)):
            error = np.abs(grads.tensor(name) - want).max()
            ok &= error <= 1e-12 * np.abs(want).max()
        ok &= grads.touched_rows("F").tolist() == f_rows
        ok &= grads.touched_rows("F_ctx").tolist() == ctx_rows
        failures += not ok
    return failures


def reference_pair_edges(index, edges):
    """build_dataset's directed edges as a set of (i, j) pairs: both
    directions of each external-id pair with both ids in `index`, bar
    self-loops."""
    directed = set()
    for a, b in edges:
        if a in index and b in index and a != b:
            directed |= {(index[a], index[b]), (index[b], index[a])}
    return directed


def reference_pair_splits(directed, link_train_ratio, seed):
    """make_splits' link hold-out over a set of (i, j) pairs, one pair at a
    time: the sorted pairs i < j, shuffled by one seeded permutation; the
    first floor(ratio * n) train, both directions on one side."""
    pairs = sorted({(min(i, j), max(i, j)) for i, j in directed})
    order = np.random.default_rng(seed).permutation(len(pairs))
    n_train = int(link_train_ratio * len(pairs))
    train, test = set(), set()
    for rank, k in enumerate(order):
        i, j = pairs[k]
        (train if rank < n_train else test).update({(i, j), (j, i)})
    return train, test


def reference_friend_chance(num_users, train, test, k):
    """synth.chance_baselines' friend floor from pair sets, summed over the
    users with held-out friends in ascending order."""
    train_deg, truths = (Counter(i for i, _ in pairs) for pairs in (train, test))
    if not truths:
        return None
    num = 0.0
    for v, t in sorted(truths.items()):
        num += t * min(1.0, k / (num_users - 1 - train_deg[v]))
    return num / sum(truths.values())


def check_edge_keys_match_pair_sets(cases=100, seed=6):
    """The edge-key arrays equal a tuple-set reference end to end.

    Random external-id edge lists (self-loops, repeats, both directions,
    ids without check-ins) go through build_dataset and a cache round trip:
    the edges and adjacency match the reference. make_splits over three
    seeds assigns the same pairs to train and test; eval_friend_rec over
    every K (all users and the low-degree slice) gives each user the hits
    of the per-user reference on those pair sets, so each held-out pair is
    ranked among the same candidates. synth.chance_baselines matches the
    reference on a small instance per case.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.bin")
        for _ in range(cases):
            n = int(rng.integers(1, 10))
            names = [f"u{v}" for v in range(n + 2)]    # the last two: no check-ins
            checkins = [lbsn_data.CheckIn(name, "x", 0) for name in names[:n]]
            edges = [(names[a], names[b]) for a, b in rng.integers(
                0, n + 2, size=(int(rng.integers(0, 4 * n)), 2)).tolist()]
            dataset = lbsn_data.build_dataset(checkins, edges)
            directed = reference_pair_edges(dataset.user_vocab.index, edges)
            lbsn_data.save_dataset(dataset, path)
            ok = True
            for graph in (dataset.graph, lbsn_data.load_dataset(path).graph):
                ok &= edge_pairs(n, graph.directed_edges) == directed
                ok &= [a.tolist() for a in graph.adjacency] == [
                    sorted(j for i, j in directed if i == v) for v in range(n)]
            for split_seed in range(3):
                ratio = float(rng.uniform(0.05, 0.95))
                splits = lbsn_data.make_splits(dataset, link_train_ratio=ratio,
                                               seed=split_seed)
                train, test = reference_pair_splits(directed, ratio, split_seed)
                ok &= edge_pairs(n, splits.train_edges) == train
                ok &= edge_pairs(n, splits.test_edges) == test
                params = random_params(rng, n, 1, 2)
                pair_splits = SimpleNamespace(train_edges=edge_keys(n, train),
                                              test_edges=edge_keys(n, test))
                for user_slice in ("all", "low-degree"):
                    got, want = {}, {}
                    evaluation.eval_friend_rec(params, dataset, splits,
                                               range(1, n + 1), user_slice, got)
                    reference_eval_friend_rec(params, dataset, pair_splits,
                                              range(1, n + 1), user_slice, want)
                    ok &= got == want
            config = synth.SynthConfig(
                users_per_community=int(rng.integers(2, 7)),
                locations_per_community=2, shared_locations=0,
                intra_edge_prob=0.6, inter_edge_prob=0.1,
                subtrajectories_per_user=2, locations_per_subtrajectory=1,
                seed=int(rng.integers(0, 2**31)))
            checkins, edges = synth.generate_raw(config)
            index = {synth.user_name(v): v for v in range(config.num_users)}
            train, test = reference_pair_splits(
                reference_pair_edges(index, edges), 0.5, 7)
            floors = synth.chance_baselines(config, split_seed=7, ks=(1, 3))
            ok &= floors["friend"] == {k: reference_friend_chance(
                config.num_users, train, test, k) for k in (1, 3)}
            failures += not ok
    return failures


ALL_CHECKS = (
    ("trajectory splitting round-trip", check_splitting_round_trip),
    ("recall monotonicity in K", check_recall_monotonic),
    ("location-permutation equivariance", check_location_permutation_equivariance),
    ("gate/tanh range bounds", check_gate_and_tanh_ranges),
    ("adagrad accumulator monotonicity", check_adagrad_accumulator_monotone),
    ("network pass vs per-pair reference", check_network_pass_matches_pairs),
    ("edge keys vs tuple-set reference", check_edge_keys_match_pair_sets),
)
