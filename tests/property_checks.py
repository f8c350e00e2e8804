"""Randomized property suites shared by the unit tests and the acceptance gate.

Each function runs `cases` seeded random trials and returns the number of
failing trials (0 expected).
"""

from collections import defaultdict
from types import SimpleNamespace

import numpy as np

from lbsnrec import data as lbsn_data
from lbsnrec import evaluation, training
from lbsnrec.model import (ModelParams, VariantMask, forward_trajectory,
                           gru_initial, gru_step, log_sigmoid, rnn_step,
                           tensor_shapes)
from lbsnrec.synth import community_of_user


def random_params(rng, num_users, num_locations, dim, scale=0.5):
    tensors = {name: rng.uniform(-scale, scale, size=shape)
               for name, shape in tensor_shapes(num_users, num_locations,
                                                dim).items()}
    return ModelParams(**tensors)


def forward_one(params, mask, user, locations, bounds):
    """forward_trajectory over a one-user batch, unpadded.

    Returns the trace's arrays for row 0 (contexts, short_states, long_cells,
    long_hidden, input_gates, forget_gates, candidate_states), None where the
    mask disables a chain.
    """
    trace = forward_trajectory(params, mask, [user], [(locations, bounds)])
    rows = {name: None if getattr(trace, name) is None else getattr(trace, name)[0]
            for name in ("contexts", "short_states", "long_cells",
                         "long_hidden", "gates")}
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
    for i, j in splits.train_edges:
        train_adj[i].add(j)
    for i, j in splits.test_edges:
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
        locs = rng.integers(0, 5, size=6).astype(np.int64)
        trace = forward_one(params, VariantMask(), 0, locs, [(0, 3), (3, 6)])
        # positions 0 and 3 hold the raw initial state S0, not a tanh output
        ok &= np.all(np.abs(trace.short_states[[1, 2, 4, 5]]) <= 1.0)
        ok &= np.all(np.abs(trace.long_hidden) <= 1.0)
        ok &= np.all((trace.input_gates > 0) & (trace.input_gates < 1))
        ok &= np.all((trace.forget_gates > 0) & (trace.forget_gates < 1))
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
            grads.P[row] = rng.normal(size=2)
            grads.touch("P", row)
            before = {n: state.accumulators[n].copy()
                      for n in ("W", "S0", "b_i", "P")}
            training.adagrad_update(params, grads, state, 0.1, 1e-8)
            for n, prev in before.items():
                ok &= np.all(state.accumulators[n] >= prev)
            ok &= all(np.isfinite(params.tensor(n)).all()
                      for n in ("W", "S0", "b_i", "P"))
        failures += not ok
    return failures


ALL_CHECKS = (
    ("trajectory splitting round-trip", check_splitting_round_trip),
    ("recall monotonicity in K", check_recall_monotonic),
    ("location-permutation equivariance", check_location_permutation_equivariance),
    ("gate/tanh range bounds", check_gate_and_tanh_ranges),
    ("adagrad accumulator monotonicity", check_adagrad_accumulator_monotone),
)
