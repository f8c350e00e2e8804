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

from .model import (forward_groups, forward_trajectory, log_sigmoid,
                    long_term_chain)

COLD_START_MAX_SUBTRAJECTORIES = 5
LOW_DEGREE_MAX_FRIENDS = 5
# Score blocks hold at most this many entries (2 MB), or one row or column
# if longer: all rows x some columns, or whole rows (score_blocks).
SCORE_BLOCK_ENTRIES = 1 << 18


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


def rank_columns(scores, targets, num_columns, ex_rows, ex_cols, cap):
    """Each row's 1-based rank of its target column among all num_columns
    columns, and among them less its excluded columns: exact up to cap, and
    cap + 1 beyond it.

    scores(rows, a, b) gives columns a .. b-1 of the rows (an index array,
    or slice(None) for all). A column beats the target iff it scores higher,
    or the same with a smaller index. Each block of the live rows x some
    columns is scored at once, and each row counts the columns beating its
    target score t, read from the target's block; the pairs (ex_rows,
    ex_cols), never a target, keep their scores, and those that beat t are
    subtracted. A GEMM over the rows with targets in a later block gives
    their t first: it may round differently, so columns within 2^-30 |t| of
    it are kept and judged by the block's t, and the walk runs again if that
    is further off. A row whose columns above t exceed cap plus its excluded
    columns leaves the walk once its target's block has passed.
    """
    num_rows = len(targets)
    width = max(1, SCORE_BLOCK_ENTRIES // max(1, num_rows))
    starts = range(0, num_columns, width)
    owns = [np.flatnonzero(targets // width == k) for k in range(len(starts))]
    t = np.empty(num_rows)
    for a, own in zip(starts[1:], owns[1:]):
        t[own] = scores(own, a, a + width)[range(len(own)), targets[own] - a]
    by_column = np.argsort(ex_cols, kind="stable")
    ex_rows, ex_cols = ex_rows[by_column], ex_cols[by_column]
    ex_scores = np.zeros(len(ex_cols))
    limit = cap + np.bincount(ex_rows, minlength=num_rows)
    for _ in range(2):
        beats, exact = np.ones(num_rows, dtype=np.int64), np.empty(num_rows)
        kept = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
        # the live rows, and each row's place among them (-1 once decided)
        live, ids, at = slice(None), np.arange(num_rows), np.arange(num_rows)
        for a, own in zip(starts, owns):
            block = scores(live, a, a + width)
            exact[own] = block[at[own], targets[own] - a]
            if not a:
                t[own] = exact[own]
                margin = np.abs(t) * 2.0 ** -30
                margin[margin == np.inf] = 0.0    # only ties near t = inf
                lo, hi = t - margin, t + margin
            above = (block > hi[live, None]).sum(axis=1, dtype=np.int32)
            beats[live] += above
            near = block >= lo[live, None]
            # columns this near t are rare, bar the targets' own
            if np.count_nonzero(near) > above.sum() + len(own):
                r, c = np.nonzero(near & (block <= hi[live, None]))
                kept.append((ids[r], a + c, block[r, c]))
            e = np.arange(*np.searchsorted(ex_cols, (a, a + width)))
            e = e[at[ex_rows[e]] >= 0]
            ex_scores[e] = block[at[ex_rows[e]], ex_cols[e] - a]
            if a + width < num_columns:
                done = (beats[ids] > limit[ids]) & (targets[ids] < a + width)
                if done.any():
                    at[ids[done]] = -1
                    live = ids = ids[~done]
                    at[ids] = np.arange(len(ids))
        if not np.any(np.abs(exact - t) > margin):
            break
        t = exact

    def beaten(rows, cols, values):
        t = exact[rows]
        wins = (values > t) | ((values == t) & (cols < targets[rows]))
        return np.bincount(rows[wins], minlength=num_rows)

    ranks = beats + beaten(*map(np.concatenate, zip(*kept)))
    return np.minimum((ranks, ranks - beaten(ex_rows, ex_cols, ex_scores)),
                      cap + 1)


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
        hi = len(bounds) if hi is None else hi
        if lo >= hi:
            continue
        end = bounds[hi - 1][1]
        yield user, traj.locations[:end], bounds[lo:hi], bounds[lo][0]


def _evaluated_rows(params, mask, dataset, splits, new_only, part):
    """Yield (owners, contexts, targets, new, ex_rows, ex_cols) per group.

    One long_term_chain over every evaluated user's history gives the hidden
    state each of the part's subtrajectories consults; forward_trajectory
    then runs over the part's positions in forward_groups groups, its
    contexts all evaluated rows. owners holds each row's user, new the rows
    that first visit their location (none unless new_only), and (ex_rows,
    ex_cols) pairs these with the locations visited before, not candidates.
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
        blocks, row = [(empty, empty, empty)], 0
        for _, locs, _, start in evaluated[lo:hi] if new_only else ():
            # The k-th location visited, first at position seen[k], is new
            # there; the k locations first visited before it are excluded.
            seen = np.sort(np.unique(locs, return_index=True)[1])
            k = np.arange(np.searchsorted(seen, start), len(seen))
            new = row + seen[k] - start
            j = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
            blocks.append((new, np.repeat(new, k), locs[seen[j]]))
            row += len(locs) - start
        yield (np.repeat(users[lo:hi], trace.lengths), trace.contexts,
               trace.locations, *map(np.concatenate, zip(*blocks)))


def _report(task, mode, user_slice, ks, owners, ranks, per_user_out):
    """EvalReport over events with these ranks, micro-averaged.

    owners and ranks hold each event's user and rank. per_user_out, when a
    dict, receives {user: {"events": n, "hits": {k: n}}}.
    """
    ks = tuple(sorted(ks))
    if ks and ks[0] < 1:
        raise ValueError("k must be >= 1")
    events = len(ranks)
    if not events:
        return EvalReport(task=task, mode=mode, user_slice=user_slice,
                          recall_at={}, num_events=0)
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
    1-based rank of its target among that mode's candidates, exact up to cap
    and cap + 1 beyond it (rank_columns): they serve reports of K <= cap.
    """
    part: str
    rows: dict
    cap: int


def rank_next_locations(params, mask, dataset, splits, part="test",
                        new_only=False, *, cap):
    """NextLocationRanks of every general event, and of every new-only event
    when new_only, to cap: every user with events in the part is forwarded
    once (_evaluated_rows), and rank_columns ranks each forward group's rows,
    the new-only rank less the previously visited locations that beat it.
    """
    groups = [(np.empty(0, dtype=np.int64),) * 4]
    for users, contexts, targets, new, ex_rows, ex_cols in _evaluated_rows(
            params, mask, dataset, splits, new_only, part):
        general, fresh = rank_columns(
            lambda rows, a, b: contexts[rows] @ params.U_out[a:b].T,
            targets, params.num_locations, ex_rows, ex_cols, cap)
        groups.append((users, general, users[new], fresh[new]))
    owners, ranks, new_owners, new_ranks = map(np.concatenate, zip(*groups))
    rows = {"general": (owners, ranks)}
    if new_only:
        rows["new-only"] = (new_owners, new_ranks)
    return NextLocationRanks(part=part, rows=rows, cap=cap)


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
    holds this mode at a cap of max(ks) or more, so that several reports
    share one forward pass; otherwise the part is ranked here.
    """
    if mode not in ("general", "new-only"):
        raise ValueError(f"unknown mode {mode!r}")
    if user_slice not in ("all", "cold-start"):
        raise ValueError(f"unknown slice {user_slice!r}")
    cap = max(ks, default=1)
    if ranks is None:
        ranks = rank_next_locations(params, mask, dataset, splits, part,
                                    new_only=mode == "new-only", cap=cap)
    elif ranks.part != part or mode not in ranks.rows or ranks.cap < cap:
        raise ValueError(f"ranks of part {ranks.part!r} to {ranks.cap} hold "
                         f"no {mode} events of part {part!r} to {cap}")
    owners, event_ranks = ranks.rows[mode]
    if user_slice == "cold-start":
        counts = np.array([t.num_subtrajectories for t in dataset.trajectories],
                          dtype=np.int64)
        keep = counts[owners] <= COLD_START_MAX_SUBTRAJECTORIES
        owners, event_ranks = owners[keep], event_ranks[keep]
    return _report("next-location", mode, user_slice, ks, owners,
                   event_ranks, per_user_out)


def eval_friend_rec(params, dataset, splits, ks=(5, 10), user_slice="all",
                    per_user_out=None):
    """Micro-averaged Recall@K for recommending held-out friends.

    Candidates for user v are all users except v and v's training friends;
    a candidate u is scored by the sum of both directed link log-likelihoods.
    user_slice "low-degree" keeps users with fewer than five training friends.
    Each held-out friend is a row for rank_columns, which excludes v and v's
    training friends and ranks to the cap max(ks).
    """
    if user_slice not in ("all", "low-degree"):
        raise ValueError(f"unknown slice {user_slice!r}")
    # pairs (v, u) as sorted keys v |V| + u: held-out friends are the event
    # rows; v and its training friends (no (v, v) among them) the excluded
    m = dataset.num_users
    owners, targets = np.divmod(splits.test_edges, m)
    ex_owners, ex_users = np.divmod(np.sort(np.concatenate(
        [splits.train_edges, np.arange(m) * (m + 1)])), m)
    sizes = np.bincount(ex_owners, minlength=m)
    if user_slice == "low-degree":
        owners, targets = np.compress(
            sizes[owners] <= LOW_DEGREE_MAX_FRIENDS, (owners, targets), axis=1)
    n = sizes[owners]
    ex_rows = np.repeat(np.arange(len(owners)), n)
    ex_cols = ex_users[np.arange(len(ex_rows)) + np.repeat(
        (np.cumsum(sizes) - sizes)[owners] - np.cumsum(n) + n, n)]

    def scores(users, a, b):
        # one pair of GEMMs over the distinct users
        block, inverse = np.unique(users, return_inverse=True)
        return (log_sigmoid(params.F[block] @ params.F_ctx[a:b].T)
                + log_sigmoid(params.F_ctx[block] @ params.F[a:b].T))[inverse]

    # ranked in groups of as many rows as a rank-only forward group's
    ranks = [np.empty(0, dtype=np.int64)]
    for lo, hi in forward_groups([1] * len(owners), caches=False):
        e = slice(*np.searchsorted(ex_rows, (lo, hi)))
        ranks.append(rank_columns(
            lambda rows, a, b: scores(owners[lo:hi][rows], a, b),
            targets[lo:hi], dataset.num_users, ex_rows[e] - lo,
            ex_cols[e], max(ks, default=1))[1])
    return _report("friend", "-", user_slice, ks, owners,
                   np.concatenate(ranks), per_user_out)


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
