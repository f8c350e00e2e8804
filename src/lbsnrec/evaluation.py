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
# Scores are computed in blocks of whole rows, at most this many entries
# (8 MB of float64) per block unless one row is longer.
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


def _evaluated_rows(params, mask, dataset, splits, mode, user_slice, part,
                    width):
    """Yield (owners, contexts, targets, ex_rows, ex_cols) per block of users.

    The contexts are those of the forward pass over each user's history up to
    the end of the part, taken at the positions the mode counts; owners holds
    each row's user. A block holds the rows of consecutive users, at most
    `width` rows unless one user has more. (ex_rows, ex_cols), sorted by row,
    pairs each row with the locations that are not its candidates: none in
    general mode, and in new-only mode every location visited before the
    row's position.
    """
    evaluated = list(_evaluated_users(dataset, splits, user_slice, part))
    empty = np.empty(0, dtype=np.int64)
    block, num_rows = [[], [], [], [empty], [empty]], 0
    for lo, hi in forward_groups([len(item[1]) for item in evaluated]):
        group = evaluated[lo:hi]
        trace = forward_trajectory(params, mask, [item[0] for item in group],
                                   [item[1:3] for item in group])
        for (user, locs, _, start), user_contexts in zip(group, trace.contexts):
            positions = np.arange(start, len(locs))
            ex_rows = ex_cols = empty
            if mode == "new-only":
                # Position p counts iff it is the first visit of its location;
                # its candidates are the locations first visited at p or later.
                visited, first, inverse = np.unique(locs, return_index=True,
                                                    return_inverse=True)
                positions = positions[first[inverse[start:]] == positions]
                order = np.argsort(first)
                counts = np.searchsorted(first[order], positions)
                ex_rows = np.repeat(np.arange(len(positions)), counts)
                ex_cols = visited[order][np.arange(len(ex_rows)) - np.repeat(
                    np.cumsum(counts) - counts, counts)]
            # Each score block streams all of U_out, so a block takes whole
            # users until the next one would not fit.
            if num_rows and num_rows + len(positions) > width:
                yield tuple(map(np.concatenate, block))
                block, num_rows = [[], [], [], [empty], [empty]], 0
            for rows, user_rows in zip(block, (
                    np.full(len(positions), user), user_contexts[positions],
                    locs[positions], num_rows + ex_rows, ex_cols)):
                rows.append(user_rows)
            num_rows += len(positions)
    if num_rows:
        yield tuple(map(np.concatenate, block))


def _rank_rows(scores, targets):
    """1-based rank of each row's target column.

    A column beats the target iff it scores higher, or scores the same with
    a smaller index (ties break by ascending index). Columns that are not
    candidates hold -inf, so they never beat a finite target score.
    """
    target_scores = scores[np.arange(len(targets)), targets][:, None]
    beats = scores > target_scores
    ties = scores == target_scores
    ties &= np.arange(scores.shape[1]) < targets[:, None]
    beats |= ties
    return 1 + np.count_nonzero(beats, axis=1)


def _report(task, mode, user_slice, ks, owners, ranks, per_user_out):
    """EvalReport over events with these ranks, micro-averaged.

    owners and ranks are lists of arrays holding each event's user and rank.
    per_user_out, when a dict, receives {user: {"events": n, "hits": {k: n}}}.
    """
    ks = tuple(sorted(ks))
    events = sum(len(r) for r in ranks)
    if not events:
        return EvalReport(task=task, mode=mode, user_slice=user_slice,
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
    return EvalReport(task=task, mode=mode, user_slice=user_slice,
                      recall_at=recall, num_events=events)


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
    model.forward_groups); the rows of consecutive users are scored in
    blocks of at most SCORE_BLOCK_ENTRIES scores, one GEMM against U_out and
    one vectorised comparison per block.
    """
    if mode not in ("general", "new-only"):
        raise ValueError(f"unknown mode {mode!r}")
    if user_slice not in ("all", "cold-start"):
        raise ValueError(f"unknown slice {user_slice!r}")
    width = max(1, SCORE_BLOCK_ENTRIES // max(1, params.num_locations))
    owners, ranks = [], []
    for users, contexts, targets, ex_rows, ex_cols in _evaluated_rows(
            params, mask, dataset, splits, mode, user_slice, part, width):
        owners.append(users)
        for a in range(0, len(targets), width):
            scores = contexts[a:a + width] @ params.U_out.T
            lo, hi = np.searchsorted(ex_rows, (a, a + width))
            scores[ex_rows[lo:hi] - a, ex_cols[lo:hi]] = -np.inf
            ranks.append(_rank_rows(scores, targets[a:a + width]))
    return _report("next-location", mode, user_slice, ks, owners, ranks,
                   per_user_out)


def eval_friend_rec(params, dataset, splits, ks=(5, 10), user_slice="all",
                    per_user_out=None):
    """Micro-averaged Recall@K for recommending held-out friends.

    Candidates for user v are all users except v and v's training friends;
    a candidate u is scored by the sum of both directed link log-likelihoods.
    user_slice "low-degree" keeps users with fewer than five training friends.

    Each held-out friend is one event row, scored against every user; rows
    are taken in blocks of at most SCORE_BLOCK_ENTRIES scores, one pair of
    GEMMs over the block's distinct users per block.
    """
    if user_slice not in ("all", "low-degree"):
        raise ValueError(f"unknown slice {user_slice!r}")
    num_users = dataset.num_users
    train_adj = build_graph(num_users, splits.train_edges).adjacency
    test_adj = build_graph(num_users, splits.test_edges).adjacency
    users = [v for v in range(num_users) if len(test_adj[v])
             and (user_slice == "all"
                  or len(train_adj[v]) < LOW_DEGREE_MAX_FRIENDS)]
    owners = np.repeat(np.array(users, dtype=np.int64),
                       [len(test_adj[v]) for v in users])
    targets = np.concatenate([np.empty(0, dtype=np.int64)]
                             + [test_adj[v] for v in users])
    width = max(1, SCORE_BLOCK_ENTRIES // max(1, num_users))
    ranks = []
    for a in range(0, len(targets), width):
        block, rows = np.unique(owners[a:a + width], return_inverse=True)
        scores = (log_sigmoid(params.F[block] @ params.F_ctx.T)
                  + log_sigmoid(params.F_ctx[block] @ params.F.T))
        for i, v in enumerate(block.tolist()):
            scores[i, v] = -np.inf
            scores[i, train_adj[v]] = -np.inf
        ranks.append(_rank_rows(scores[rows], targets[a:a + width]))
    return _report("friend", "-", user_slice, ks, [owners], ranks,
                   per_user_out)


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
