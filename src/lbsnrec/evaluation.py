"""Rank-based evaluation: next-location and friend recommendation Recall@K.

Next-location evaluation walks each user's history with teacher forcing
(states always advance on ground-truth locations) and scores every location
at each evaluated position; negative sampling is never used here. Friend
recommendation ranks all non-training-friend candidates by the symmetrized
link log-likelihood. Recall is micro-averaged over events, and ranking ties
break by ascending index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import build_graph
from .model import forward_groups, forward_trajectory, log_sigmoid

COLD_START_MAX_SUBTRAJECTORIES = 5
LOW_DEGREE_MAX_FRIENDS = 5
# Next-location scores are computed in blocks of whole rows, at most this
# many entries (8 MB of float64) per block unless one row is longer.
SCORE_BLOCK_ENTRIES = 1 << 20


@dataclass
class EvalReport:
    task: str               # "next-location" | "friend"
    mode: str               # "general" | "new-only" | "-"
    user_slice: str         # "all" | "cold-start" | "low-degree"
    recall_at: dict = field(default_factory=dict)
    num_events: int = 0


def recall_at_k(ranked, truth, k):
    """|truth intersected with the top-k of ranked| / |truth|."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not truth:
        raise ValueError("empty truth set has no defined recall")
    top = set(ranked[:k])
    return len(top & set(truth)) / len(truth)


def _rank_among(scores, target, candidate_mask=None):
    """1-based rank of target, ties broken by ascending index."""
    s_t = scores[target]
    if candidate_mask is None:
        better = int(np.count_nonzero(scores > s_t))
        ties = int(np.count_nonzero(scores[:target] == s_t))
    else:
        better = int(np.count_nonzero((scores > s_t) & candidate_mask))
        ties = int(np.count_nonzero((scores[:target] == s_t)
                                    & candidate_mask[:target]))
    return 1 + better + ties


def _part_range(splits, user, part):
    if part == "train":
        return 0, int(splits.train_end[user])
    if part == "validation":
        return int(splits.train_end[user]), int(splits.test_start[user])
    if part == "test":
        return int(splits.test_start[user]), None
    raise ValueError(f"unknown part {part!r}")


def _evaluated_users(dataset, splits, user_slice, part):
    """Yield (user, locations, bounds, first evaluated position) per user.

    locations and bounds cover the user's history up to the end of the part.
    """
    for user in range(dataset.num_users):
        traj = dataset.trajectories[user]
        bounds = traj.subtrajectory_bounds
        m = len(bounds)
        if user_slice == "cold-start" and m > COLD_START_MAX_SUBTRAJECTORIES:
            continue
        lo, hi = _part_range(splits, user, part)
        if hi is None:
            hi = m
        if lo >= hi:
            continue
        end = bounds[hi - 1][1]
        yield user, traj.locations[:end], bounds[:hi], bounds[lo][0]


def _evaluated_rows(params, mask, dataset, splits, mode, user_slice, part):
    """Yield (user, contexts, targets, ex_rows, ex_cols) per user with events.

    The contexts are those of the forward pass over the user's history up to
    the end of the part, taken at the positions the mode counts. (ex_rows,
    ex_cols) pairs each row with the locations that are not its candidates:
    none in general mode, and in new-only mode every location visited before
    the row's position.
    """
    evaluated = list(_evaluated_users(dataset, splits, user_slice, part))
    for lo, hi in forward_groups([len(item[1]) for item in evaluated]):
        group = evaluated[lo:hi]
        trace = forward_trajectory(params, mask, [item[0] for item in group],
                                   [item[1:3] for item in group])
        for (user, locs, _, start), contexts in zip(group, trace.contexts):
            positions = np.arange(start, len(locs))
            ex_rows = ex_cols = np.empty(0, dtype=np.int64)
            if mode == "new-only":
                # Position p counts iff it is the first visit of its location;
                # its candidates are the locations first visited at p or later.
                visited, first, inverse = np.unique(locs, return_index=True,
                                                    return_inverse=True)
                positions = positions[first[inverse[start:]] == positions]
                if len(positions) == 0:
                    continue
                order = np.argsort(first)
                counts = np.searchsorted(first[order], positions)
                ex_rows = np.repeat(np.arange(len(positions)), counts)
                ex_cols = visited[order][np.arange(len(ex_rows)) - np.repeat(
                    np.cumsum(counts) - counts, counts)]
            yield (user, contexts[positions], locs[positions], ex_rows,
                   ex_cols)


def _rank_block(params, contexts, targets, ex_rows, ex_cols):
    """1-based rank of each row's target among its candidate locations.

    A location outranks the target iff it scores higher, or scores the same
    with a smaller index (ties break by ascending index). The pairs
    (ex_rows, ex_cols) are not candidates.
    """
    scores = contexts @ params.U_out.T
    target_scores = scores[np.arange(len(targets)), targets][:, None]
    beats = scores > target_scores
    ties = scores == target_scores
    ties &= np.arange(scores.shape[1]) < targets[:, None]
    beats |= ties
    ranks = 1 + np.count_nonzero(beats, axis=1)
    ranks -= np.bincount(ex_rows[beats[ex_rows, ex_cols]],
                         minlength=len(targets))
    return ranks


def _rank_rows(params, chunks, num_rows, width):
    """Rank the first num_rows rows of chunks, `width` rows per score block.

    Returns (ranks, the remaining rows as one chunk).
    """
    contexts = np.concatenate([c[0] for c in chunks])
    targets = np.concatenate([c[1] for c in chunks])
    offsets = np.cumsum([0] + [len(c[1]) for c in chunks[:-1]])
    ex_rows = np.concatenate([c[2] + o for c, o in zip(chunks, offsets)])
    ex_cols = np.concatenate([c[3] for c in chunks])
    ranks = np.empty(num_rows, dtype=np.int64)
    for a in range(0, num_rows, width):
        b = min(a + width, num_rows)
        lo, hi = np.searchsorted(ex_rows, (a, b))
        ranks[a:b] = _rank_block(params, contexts[a:b], targets[a:b],
                                 ex_rows[lo:hi] - a, ex_cols[lo:hi])
    lo = np.searchsorted(ex_rows, num_rows)
    rest = (contexts[num_rows:], targets[num_rows:], ex_rows[lo:] - num_rows,
            ex_cols[lo:])
    return ranks, rest


def eval_next_location(params, mask, dataset, splits, ks=(1, 5, 10),
                       mode="general", user_slice="all", part="test",
                       per_user_out=None):
    """Micro-averaged Recall@K for next-location prediction.

    mode "general" scores every location at every evaluated position; mode
    "new-only" restricts candidates to locations the user has never visited
    before that position and skips positions whose true location is old.
    user_slice "cold-start" keeps users with at most five subtrajectories.
    part selects which subtrajectory range is scored; earlier history always
    warms the recurrent states with ground-truth inputs. per_user_out, when a
    dict, receives {user: {"events": n, "hits": {k: n}}} for debugging.

    Contexts come from one forward_trajectory call per group of users (see
    model.forward_groups); the rows of all users are scored together in
    blocks of at most SCORE_BLOCK_ENTRIES scores, one GEMM against U_out and
    one vectorised comparison per block.
    """
    if mode not in ("general", "new-only"):
        raise ValueError(f"unknown mode {mode!r}")
    if user_slice not in ("all", "cold-start"):
        raise ValueError(f"unknown slice {user_slice!r}")
    ks = tuple(sorted(ks))
    width = max(1, SCORE_BLOCK_ENTRIES // max(1, params.num_locations))
    owners, ranks = [], []
    chunks, pending = [], 0
    for user, *chunk in _evaluated_rows(params, mask, dataset, splits, mode,
                                        user_slice, part):
        owners.append(np.full(len(chunk[1]), user))
        chunks.append(chunk)
        pending += len(chunk[1])
        if pending >= width:
            full = pending - pending % width
            block_ranks, rest = _rank_rows(params, chunks, full, width)
            ranks.append(block_ranks)
            chunks, pending = [rest], pending - full
    if pending:
        ranks.append(_rank_rows(params, chunks, pending, width)[0])
    events = sum(len(r) for r in ranks)
    if not events:
        return EvalReport(task="next-location", mode=mode, user_slice=user_slice,
                          recall_at={}, num_events=0)
    ranks = np.concatenate(ranks)
    owners = np.concatenate(owners)
    hits = {k: ranks <= k for k in ks}
    recall = {k: int(np.count_nonzero(hits[k])) / events for k in ks}
    if per_user_out is not None:
        counts = np.bincount(owners)
        user_hits = {k: np.bincount(owners[hits[k]], minlength=len(counts))
                     for k in ks}
        for user in np.flatnonzero(counts).tolist():
            per_user_out[user] = {"events": int(counts[user]),
                                  "hits": {k: int(user_hits[k][user]) for k in ks}}
    return EvalReport(task="next-location", mode=mode, user_slice=user_slice,
                      recall_at=recall, num_events=events)


def eval_friend_rec(params, dataset, splits, ks=(5, 10), user_slice="all",
                    per_user_out=None):
    """Micro-averaged Recall@K for recommending held-out friends.

    Candidates for user v are all users except v and v's training friends;
    a candidate u is scored by the sum of both directed link log-likelihoods.
    user_slice "low-degree" keeps users with fewer than five training friends.
    """
    if user_slice not in ("all", "low-degree"):
        raise ValueError(f"unknown slice {user_slice!r}")
    ks = tuple(sorted(ks))
    num_users = dataset.num_users
    train_adj = build_graph(num_users, splits.train_edges).adjacency
    test_adj = build_graph(num_users, splits.test_edges).adjacency
    hits = {k: 0 for k in ks}
    events = 0
    for v in range(num_users):
        truth = test_adj[v]
        if len(truth) == 0:
            continue
        if user_slice == "low-degree" and len(train_adj[v]) >= LOW_DEGREE_MAX_FRIENDS:
            continue
        scores = (log_sigmoid(params.F_ctx @ params.F[v])
                  + log_sigmoid(params.F @ params.F_ctx[v]))
        cand = np.ones(num_users, dtype=bool)
        cand[v] = False
        cand[train_adj[v]] = False
        user_hits = {k: 0 for k in ks}
        for u in truth:
            rank = _rank_among(scores, int(u), cand)
            events += 1
            for k in ks:
                if rank <= k:
                    user_hits[k] += 1
        for k in ks:
            hits[k] += user_hits[k]
        if per_user_out is not None:
            per_user_out[v] = {"events": len(truth), "hits": user_hits}
    recall = {k: hits[k] / events for k in ks} if events else {}
    return EvalReport(task="friend", mode="-", user_slice=user_slice,
                      recall_at=recall, num_events=events)


def write_reports_csv(reports, path):
    """CSV rows: task,mode,slice,K,recall,num_events."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("task,mode,slice,K,recall,num_events\n")
        for r in reports:
            for k in sorted(r.recall_at):
                handle.write(f"{r.task},{r.mode},{r.user_slice},{k},"
                             f"{repr(float(r.recall_at[k]))},{r.num_events}\n")
            if not r.recall_at:
                handle.write(f"{r.task},{r.mode},{r.user_slice},,,"
                             f"{r.num_events}\n")
