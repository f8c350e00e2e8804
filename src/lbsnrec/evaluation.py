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
from .model import (forward_groups, forward_trajectory, log_sigmoid,
                    long_term_chain)

COLD_START_MAX_SUBTRAJECTORIES = 5
LOW_DEGREE_MAX_FRIENDS = 5
# Scores are computed in blocks of whole rows, at most this many entries
# (8 MB of float64) per block unless one row is longer.
SCORE_BLOCK_ENTRIES = 1 << 20


def score_block_rows(num_columns):
    """Rows per score block of num_columns columns (SCORE_BLOCK_ENTRIES)."""
    return max(1, SCORE_BLOCK_ENTRIES // max(1, num_columns))


def score_blocks(contexts, u_out):
    """Yield (rows, contexts[rows] @ u_out.T) per block of consecutive rows
    of contexts, rows a slice of at most score_block_rows(len(u_out))."""
    width = score_block_rows(len(u_out))
    for a in range(0, len(contexts), width):
        rows = slice(a, a + width)
        yield rows, contexts[rows] @ u_out.T


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


def _evaluated_users(dataset, splits, part):
    """Yield (user, locations, bounds, first evaluated position) per user.

    locations covers the user's history up to the end of the part, bounds
    the part's subtrajectories.
    """
    for user in range(dataset.num_users):
        traj = dataset.trajectories[user]
        bounds = traj.subtrajectory_bounds
        lo, hi = _part_range(splits, user, part)
        if hi is None:
            hi = len(bounds)
        if lo >= hi:
            continue
        end = bounds[hi - 1][1]
        yield user, traj.locations[:end], bounds[lo:hi], bounds[lo][0]


def _evaluated_rows(params, mask, dataset, splits, new_only, part):
    """Yield (owners, contexts, targets, new, ex_rows, ex_cols) per group.

    One long_term_chain over every evaluated user's history gives the hidden
    state each of the part's subtrajectories consults; forward_trajectory
    then runs over the part's positions in forward_groups groups, its
    contexts all evaluated rows. owners holds each row's user. new indexes
    the rows that are first visits of their location (none unless new_only),
    and (ex_rows, ex_cols), sorted by row, pairs each of these (its index
    into new) with the locations visited before its position, which are not
    its new-only candidates.
    """
    evaluated = list(_evaluated_users(dataset, splits, part))
    hidden = (long_term_chain(params, [item[1:3] for item in evaluated],
                              caches=False).hidden if mask.use_long else None)
    firsts = np.cumsum([0] + [len(item[2]) for item in evaluated])
    users = np.array([item[0] for item in evaluated], dtype=np.int64)
    views = [(locs[start:], np.asarray(bounds, dtype=np.int64) - start)
             for _, locs, bounds, start in evaluated]
    empty = np.empty(0, dtype=np.int64)
    for lo, hi in forward_groups([len(locs) for locs, _ in views],
                                 caches=False):
        trace = forward_trajectory(
            params, mask, users[lo:hi], views[lo:hi],
            None if hidden is None else hidden[firsts[lo]:firsts[hi]])
        blocks, row, num_new = [(empty, empty, empty)], 0, 0
        for _, locs, _, start in evaluated[lo:hi] if new_only else ():
            # Position p is new iff it is the first visit of its location;
            # its candidates are the locations first visited at p or later.
            positions = np.arange(start, len(locs))
            visited, first, inverse = np.unique(locs, return_index=True,
                                                return_inverse=True)
            new = np.flatnonzero(first[inverse[start:]] == positions)
            order = np.argsort(first)
            counts = np.searchsorted(first[order], positions[new])
            ex_rows = np.repeat(np.arange(len(new)), counts)
            ex_cols = visited[order][np.arange(len(ex_rows)) - np.repeat(
                np.cumsum(counts) - counts, counts)]
            blocks.append((row + new, num_new + ex_rows, ex_cols))
            row += len(positions)
            num_new += len(new)
        yield (np.repeat(users[lo:hi], trace.lengths), trace.contexts,
               trace.locations, *map(np.concatenate, zip(*blocks)))


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
    if ks and ks[0] < 1:
        raise ValueError("k must be >= 1")
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


@dataclass
class NextLocationRanks:
    """Next-location events of one part, ranked once for several reports.

    rows maps each ranked mode to (owners, ranks): each event's user and the
    1-based rank of its target among that mode's candidates, over every user
    with events in the part.
    """
    part: str
    rows: dict


def rank_next_locations(params, mask, dataset, splits, part="test",
                        new_only=False):
    """NextLocationRanks of every general event, and of every new-only event
    when new_only.

    Every user with events in the part is forwarded once (_evaluated_rows),
    and each forward group's rows are scored in score_blocks: one GEMM
    against U_out per block. General rows are ranked on these scores.
    New-only rows (first visits) are ranked on a copy of theirs with each
    row's previously visited locations set to -inf.
    """
    empty = np.empty(0, dtype=np.int64)
    owners, ranks, new_owners, new_ranks = [empty], [empty], [empty], [empty]
    for users, contexts, targets, new, ex_rows, ex_cols in _evaluated_rows(
            params, mask, dataset, splits, new_only, part):
        owners.append(users)
        new_owners.append(users[new])
        for block, scores in score_blocks(contexts, params.U_out):
            block_targets = targets[block]
            ranks.append(_rank_rows(scores, block_targets))
            i, j = np.searchsorted(new, (block.start, block.stop))
            if i == j:
                continue
            rows = new[i:j] - block.start
            scores = scores[rows]
            lo, hi = np.searchsorted(ex_rows, (i, j))
            scores[ex_rows[lo:hi] - i, ex_cols[lo:hi]] = -np.inf
            new_ranks.append(_rank_rows(scores, block_targets[rows]))
    rows = {"general": (np.concatenate(owners), np.concatenate(ranks))}
    if new_only:
        rows["new-only"] = (np.concatenate(new_owners),
                            np.concatenate(new_ranks))
    return NextLocationRanks(part=part, rows=rows)


def eval_next_location(params, mask, dataset, splits, ks=(1, 5, 10),
                       mode="general", user_slice="all", part="test",
                       per_user_out=None, ranks=None):
    """Micro-averaged Recall@K for next-location prediction.

    mode "general" scores every location at every evaluated position; mode
    "new-only" restricts candidates to locations the user has never visited
    before that position and skips positions whose true location is old.
    user_slice "cold-start" keeps users with at most five subtrajectories.
    part selects which subtrajectory range is scored; earlier history always
    warms the recurrent states with ground-truth inputs. per_user_out, when a
    dict, receives {user: {"events": n, "hits": {k: n}}} for debugging.

    ranks, when given, is a rank_next_locations result for this part that
    holds this mode, so that several reports share one forward pass;
    otherwise the part is ranked here.
    """
    if mode not in ("general", "new-only"):
        raise ValueError(f"unknown mode {mode!r}")
    if user_slice not in ("all", "cold-start"):
        raise ValueError(f"unknown slice {user_slice!r}")
    if ranks is None:
        ranks = rank_next_locations(params, mask, dataset, splits, part,
                                    new_only=mode == "new-only")
    elif ranks.part != part or mode not in ranks.rows:
        raise ValueError(f"ranks of part {ranks.part!r} hold no {mode} "
                         f"events of part {part!r}")
    owners, event_ranks = ranks.rows[mode]
    if user_slice == "cold-start":
        counts = np.array([t.num_subtrajectories for t in dataset.trajectories],
                          dtype=np.int64)
        keep = counts[owners] <= COLD_START_MAX_SUBTRAJECTORIES
        owners, event_ranks = owners[keep], event_ranks[keep]
    return _report("next-location", mode, user_slice, ks, [owners],
                   [event_ranks], per_user_out)


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
    width = score_block_rows(num_users)
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
