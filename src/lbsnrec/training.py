"""Negative-sampled training with hand-written backpropagation through time.

One epoch alternates a network pass (per user: observed out-links against
sampled non-neighbors) and a trajectory pass (per check-in: the true next
location against sampled negative locations, with gradients pushed back
through the short-term recurrence of each subtrajectory and the gated
long-term chain of the whole sequence). Updates use AdaGrad on mini-batches
of users. All randomness flows from one seed split into per-purpose streams.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .evaluation import eval_next_location, score_blocks
from .model import (EMBEDDING_NAMES, TENSOR_NAMES, ModelParams, VariantMask,
                    chain_blocks, chain_weights, forward_groups,
                    forward_trajectory, long_term_chain, short_term_chain,
                    tensor_shapes)


def is_number(value):
    """A finite real number that is not a bool (JSON true/false)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class TrainConfig:
    d: int = 50
    learning_rate: float = 0.1
    n1_per_user: int = 100          # negative links sampled per user
    n2: int = 100                   # negative locations per prediction
    max_iterations: int = 50
    batch_users: int = 32
    seed: int = 0
    init_range: float = 0.02
    adagrad_epsilon: float = 1e-8
    variant: VariantMask = field(default_factory=VariantMask)
    patience: int = 3
    validation_k: int = 5

    def __post_init__(self):
        for name in ("d", "n1_per_user", "n2", "max_iterations", "batch_users",
                     "seed", "patience", "validation_k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "init_range", "adagrad_epsilon"):
            value = getattr(self, name)
            if not is_number(value):
                raise TypeError(f"{name} must be a finite number, "
                                f"got {value!r}")
        if self.d <= 0 or self.batch_users <= 0:
            raise ValueError("d and batch_users must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.init_range < 0 or self.adagrad_epsilon <= 0:
            raise ValueError("init_range must be >= 0, adagrad_epsilon > 0")
        if self.n1_per_user < 0 or self.n2 < 0 or self.max_iterations < 0:
            raise ValueError("counts must be >= 0")
        if self.seed < 0 or self.validation_k < 1:
            raise ValueError("seed must be >= 0 and validation_k >= 1")


@dataclass
class RngStreams:
    """Independent per-purpose generators derived from one seed."""

    init: np.random.Generator
    link_negatives: np.random.Generator
    location_negatives: np.random.Generator
    shuffle: np.random.Generator


def rng_streams(seed):
    children = np.random.SeedSequence(seed).spawn(4)
    return RngStreams(*(np.random.default_rng(c) for c in children))


class Gradients:
    """Gradients shaped like ModelParams: a buffer per non-embedding tensor,
    and per embedding tensor a list of records, added in record order:

    - (rows, values) adds values[i] to row rows[i], rows ascending and
      distinct (add_rows makes these);
    - (G, C), G a scipy.sparse CSR matrix, adds G @ C (_gathered_softmax).

    Rows no record reaches are zero; rows() forms any rows of a gradient.
    """

    def __init__(self, num_users, num_locations, dim):
        self.shapes = tensor_shapes(num_users, num_locations, dim)
        self.records = {name: [] for name in EMBEDDING_NAMES}
        for name, shape in self.shapes.items():
            if name not in EMBEDDING_NAMES:
                setattr(self, name, np.zeros(shape))

    @classmethod
    def like(cls, params):
        return cls(params.num_users, params.num_locations, params.dim)

    def add_rows(self, name, rows, values):
        """Record values[i] added to row rows[i] of an embedding gradient,
        summed per row with np.add.reduceat in a stable order."""
        if not len(rows):
            return
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        first = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        self.records[name].append(
            (rows[first], np.add.reduceat(values[order], first, axis=0)))

    def rows(self, name, chunk, out=None, spare=None):
        """Rows `chunk` of a gradient, a slice or a piece of touched_rows:
        a view of a buffer, or an embedding tensor's records summed in
        record order into the flat buffer `out` (new if None). A (G, C)
        record adds G[chunk] @ C, on a slice by scipy's csr_matvecs (G[chunk]
        @ C's kernel) over G's CSR window; after the first record, formed in
        the flat buffer `spare` (new if None) and then added."""
        if name not in self.records:
            return getattr(self, name)[chunk]
        if isinstance(chunk, slice):
            start, stop, _ = chunk.indices(self.shapes[name][0])
            count = stop - start
        else:
            start, stop, count = chunk[0], chunk[-1] + 1, len(chunk)
        shape = (count,) + self.shapes[name][1:]
        size = math.prod(shape)
        out, spare = (np.empty(shape) if b is None else b[:size].reshape(shape)
                      for b in (out, spare))
        out.fill(0.0)
        for i, (rows, values) in enumerate(self.records[name]):
            if isinstance(rows, np.ndarray):
                lo, hi = np.searchsorted(rows, (start, stop))
                at = (rows[lo:hi] - start if isinstance(chunk, slice)
                      else np.searchsorted(chunk, rows[lo:hi]))
                out[at] += values[lo:hi]
            elif not isinstance(chunk, slice):
                out += rows[chunk] @ values
            else:
                # imported here, as in _gathered_softmax
                from scipy.sparse._sparsetools import csr_matvecs
                if i:
                    spare.fill(0.0)
                csr_matvecs(count, rows.shape[1], values.shape[1],
                            rows.indptr[start:stop + 1], rows.indices,
                            rows.data, values.ravel(),
                            (spare if i else out).ravel())
                if i:
                    out += spare
        return out

    def tensor(self, name):
        """The whole gradient of a tensor (see rows)."""
        return self.rows(name, slice(None))

    def touched_rows(self, name):
        """The ascending rows of an embedding gradient its records reach."""
        reached = np.zeros(self.shapes[name][0], dtype=bool)
        for rows, _ in self.records[name]:
            reached[rows if isinstance(rows, np.ndarray)
                    else np.diff(rows.indptr) > 0] = True
        return np.flatnonzero(reached)

    def sparse_rows(self, name):
        """The touched rows of an embedding tensor when fewer than
        SPARSE_ROW_SHARE of its rows, else None (always for other tensors)."""
        if name not in self.records:
            return None
        rows = self.touched_rows(name)
        dense = len(rows) >= SPARSE_ROW_SHARE * self.shapes[name][0]
        return None if dense else rows

    def zero(self):
        """Zero every buffer and drop every record."""
        for name in TENSOR_NAMES:
            if name in self.records:
                self.records[name].clear()
            else:
                getattr(self, name).fill(0.0)


# An embedding tensor with fewer than this share of its rows touched is
# updated row by row; a more densely touched one as a whole.
SPARSE_ROW_SHARE = 0.25


def _row_chunks(array, entries, rows=None):
    """Chunks of whole rows of array, about `entries` entries each: slices
    over all its rows, or pieces of the index array `rows`."""
    per_chunk = max(1, entries // math.prod(array.shape[1:]))
    if rows is None:
        return (slice(s, s + per_chunk) for s in range(0, len(array), per_chunk))
    return (rows[s:s + per_chunk] for s in range(0, len(rows), per_chunk))


class OptimizerState:
    """Per-entry sums of squared gradients for AdaGrad, plus its scratch: a
    chunk's gradient, denominator and step (Gradients.rows' spare)."""

    def __init__(self, params):
        self.accumulators = {name: np.zeros_like(params.tensor(name))
                             for name in TENSOR_NAMES}
        size = max(GATHER_CHUNK_ENTRIES,
                   *(math.prod(params.tensor(name).shape[1:])
                     for name in TENSOR_NAMES))
        self.scratch = tuple(np.empty(size) for _ in range(3))


def init_params(config, num_users, num_locations):
    """Draw every tensor entry i.i.d. uniform on [-init_range, init_range]."""
    rng = rng_streams(config.seed).init
    r = config.init_range
    tensors = {}
    for name, shape in tensor_shapes(num_users, num_locations, config.d).items():
        tensors[name] = rng.uniform(-r, r, size=shape)
    return ModelParams(**tensors)


# sample_distinct_rows sifts at most about this many drawn values at once.
SAMPLE_WINDOW_DRAWS = 1 << 18


def _sift(prefix, draws, count):
    """Each row's first `count` draws, in draw order, that repeat neither an
    earlier draw of the row nor a value of its prefix row.

    Returns them (rows x count, padded with other values past the last one
    found) and how many each row found, at most count.
    """
    skip = prefix.shape[1]
    cols = skip + draws.shape[1]
    both = np.concatenate((prefix, draws), axis=1)
    # Sorting value * cols + column orders each row by value, then by column,
    # so each run of equal values starts at its earliest occurrence.
    keys = both * cols
    keys += np.arange(cols)
    keys.sort(axis=1)
    values = keys // cols
    columns = keys - values * cols
    first = np.empty(keys.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
    first &= columns >= skip
    columns[~first] = cols - 1
    columns.sort(axis=1)
    found = np.minimum(first.sum(axis=1), count)
    return both[np.arange(len(both))[:, None], columns[:, :count]], found


def _extend(stream, size, population, rng):
    """stream followed by the next draws of rng, at least size values."""
    if len(stream) >= size:
        return stream
    return np.concatenate(
        (stream, rng.integers(0, population, size=size - len(stream))))


def sample_distinct_rows(population, excluded, count, rng):
    """Row i: count distinct values uniform over range(population) outside
    excluded[i], a (rows x k) array (k >= 1, repeats allowed).

    Each row must have more than count eligible values. The rows, and the
    state rng is left in, equal rejection sampling row after row: a row
    draws rounds of 2 * (count - kept) + 8 values with rng.integers and
    keeps, in draw order, those neither excluded nor kept before, until it
    holds count. Bounded draws take one value at a time (Lemire's method),
    so the stream does not depend on how it is cut into calls: the rows'
    first rounds are drawn and sifted together, a window at a time, and
    only values that loop would draw are drawn. A row that falls short
    continues the stream right after its first round, and the window
    shrinks around such rows.
    """
    rows = len(excluded)
    out = np.empty((rows, count), dtype=np.int64)
    if not count:
        return out
    width = 2 * count + 8
    most = max(1, SAMPLE_WINDOW_DRAWS // width)
    stream = np.empty(0, dtype=np.int64)    # drawn but not yet used
    row, window = 0, most
    while row < rows:
        n = min(window, rows - row)
        # every row uses its first round at least, so none of this is wasted
        stream = _extend(stream, n * width, population, rng)
        draws = stream[:n * width].reshape(n, width)
        kept, found = _sift(excluded[row:row + n], draws, count)
        full = found == count
        good = n if full.all() else int(np.argmin(full))
        out[row:row + good] = kept[:good]
        stream = stream[good * width:]
        row += good
        if good == n:
            window = min(2 * window, most)
            continue
        # This row falls short: its later rounds continue the stream right
        # after its first round, one value at a time.
        values = kept[good, :found[good]].tolist()
        seen = set(values).union(excluded[row].tolist())
        stream = stream[width:]
        while len(values) < count:
            size = 2 * (count - len(values)) + 8
            stream = _extend(stream, size, population, rng)
            for value in stream[:size].tolist():
                if value not in seen:
                    seen.add(value)
                    values.append(value)
                    if len(values) == count:
                        break
            stream = stream[size:]
        out[row] = values
        row += 1
        window = 2 * (good + 1)
    return out


def sample_negative_links(graph, users, count, rng):
    """Per user, distinct users that are neither the user nor its out-neighbors.

    Rejection-sampled from the uniform distribution over users, one
    sample_distinct_rows call for the batch; a user with at most `count`
    eligible users gets all of them (ascending) and draws nothing.
    """
    users = np.asarray(users, dtype=np.int64)
    neighbors = [graph.adjacency[u] for u in users.tolist()]
    free = np.ones((len(users), graph.num_users), dtype=bool)
    free[np.repeat(np.arange(len(users)), [len(n) for n in neighbors]),
         np.concatenate([np.zeros(0, dtype=np.int64)] + neighbors)] = False
    free[np.arange(len(users)), users] = False
    listed = free.sum(axis=1) <= count
    negatives = [np.flatnonzero(row) if whole else None
                 for row, whole in zip(free, listed)]
    sampled = np.flatnonzero(~listed)
    if len(sampled):
        # each row: the user, its out-neighbors, then repeats of the user
        prefix = np.repeat(users[sampled, None],
                           1 + max(len(neighbors[i]) for i in sampled), axis=1)
        for row, i in zip(prefix, sampled):
            row[1:1 + len(neighbors[i])] = neighbors[i]
        rows = sample_distinct_rows(graph.num_users, prefix, count, rng)
        for i, row in zip(sampled, rows):
            negatives[i] = row
    return negatives


def sample_negative_locations(num_locations, targets, n2, rng):
    """Row i: n2 distinct locations uniform without replacement, excluding
    targets[i], drawn in row order (sample_distinct_rows).

    When n2 >= |L| - 1 each row is every location but its target, ascending,
    and nothing is drawn.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if num_locations - 1 <= n2:
        grid = np.broadcast_to(np.arange(num_locations, dtype=np.int64),
                               (len(targets), num_locations))
        return grid[grid != targets[:, None]].reshape(len(targets),
                                                      num_locations - 1)
    return sample_distinct_rows(num_locations, targets[:, None], n2, rng)


# ---------------------------------------------------------------------------
# Frozen batches: negatives are drawn once and the loss/gradient functions
# below are deterministic in (params, batch), which is what the
# finite-difference gradient checker relies on.
# ---------------------------------------------------------------------------

@dataclass
class NetworkBatch:
    users: np.ndarray
    negatives: list     # per user, sampled non-neighbor indices


class OtherLocations:
    """Negatives that are every location but each position's target (n2 >=
    |L| - 1): sample_negative_locations' rows, built only when read. The
    softmax reads only shape[1]."""

    def __init__(self, num_locations, targets):
        self.num_locations, self.targets = num_locations, targets
        self.shape = (len(targets), num_locations - 1)

    def __len__(self):
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(sample_negative_locations(
            self.num_locations, self.targets, self.shape[1], None), dtype)

    def __iter__(self):
        return iter(np.asarray(self))


@dataclass
class TrajectoryBatch:
    users: np.ndarray
    views: list         # per user, (locations, bounds) restricted to train range
    negatives: list     # per user, (positions x n2') negatives
                        # (sample_negative_locations), or OtherLocations


def draw_network_batch(graph, users, n1, rng):
    users = np.asarray(users, dtype=np.int64)
    return NetworkBatch(users=users,
                        negatives=sample_negative_links(graph, users, n1, rng))


def training_view(dataset, splits, user):
    """(locations, bounds) of the user's training subtrajectories."""
    traj = dataset.trajectories[user]
    t = int(splits.train_end[user])
    bounds = traj.subtrajectory_bounds[:t]
    if not bounds:
        return np.zeros(0, dtype=np.int64), []
    n = bounds[-1][1]
    return traj.locations[:n], bounds


def draw_trajectory_batch(dataset, splits, users, n2, rng):
    """A TrajectoryBatch of these users' training views and n2 negatives
    per position (sample_negative_locations, drawn in batch order). With n2
    >= |L| - 1 it records OtherLocations instead and draws nothing."""
    users = np.asarray(users, dtype=np.int64)
    views = [training_view(dataset, splits, int(u)) for u in users]
    if dataset.num_locations - 1 <= n2:
        negatives = [OtherLocations(dataset.num_locations, locs)
                     for locs, _ in views]
        return TrajectoryBatch(users=users, views=views, negatives=negatives)
    targets = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [locs for locs, _ in views])
    drawn = sample_negative_locations(dataset.num_locations, targets, n2, rng)
    ends = np.cumsum([len(locs) for locs, _ in views], dtype=np.int64)
    negatives = [drawn[end - len(locs):end]
                 for (locs, _), end in zip(views, ends)]
    return TrajectoryBatch(users=users, views=views, negatives=negatives)


def network_loss_and_grads(params, graph, batch, grads=None):
    """Negative log-likelihood of observed links vs. frozen negatives, with grads.

    Per user v: -sum log sigmoid(F_v . F'_u) over out-neighbors u, minus
    sum log(1 - sigmoid(F_v . F'_w)) over the batch's negatives w: all
    pairs scored by one row-wise dot, their terms summed by math.fsum.
    """
    if grads is None:
        grads = Gradients.like(params)
    lists = [part for u, negs in zip(batch.users.tolist(), batch.negatives)
             for part in (graph.adjacency[u], negs)]
    sizes = np.array([len(part) for part in lists], dtype=np.int64)
    owners = np.repeat(np.repeat(batch.users, 2), sizes)
    others = np.concatenate([np.zeros(0, dtype=np.int64)] + lists)
    observed = np.repeat(np.tile([1.0, 0.0], len(batch.users)), sizes)
    here, there = params.F[owners], params.F_ctx[others]
    scores = np.einsum("ij,ij->i", here, there)
    loss = math.fsum(np.logaddexp(0.0, (1.0 - 2.0 * observed) * scores))
    coef = (expit(scores) - observed)[:, None]
    grads.add_rows("F", owners, coef * there)
    grads.add_rows("F_ctx", others, coef * here)
    return loss, grads


def sampled_location_loss(params, context, target, negatives):
    """Candidate-softmax loss of the target against frozen negative locations.

    Returns (loss, grad wrt context, candidate indices, grad wrt the
    candidates' scores); the gradient of U_out[c] is grad_scores[c] * context.
    With a leading batch axis (context (n, 4d), target (n,), negatives
    (n, k)) each row is one position: the loss is summed over the rows, the
    other three are per row.
    """
    cands = np.concatenate((np.asarray(target, dtype=np.int64)[..., None],
                            np.asarray(negatives, dtype=np.int64)), axis=-1)
    u_rows = np.take(params.U_out, cands, axis=0)
    scores = np.matmul(u_rows, context[..., None])[..., 0]
    m = scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores - m)
    z = exps.sum(axis=-1, keepdims=True)
    loss = float((np.log(z) + m - scores[..., :1]).sum())
    grad_scores = exps / z
    grad_scores[..., 0] -= 1.0
    grad_context = np.matmul(grad_scores[..., None, :], u_rows)[..., 0, :]
    return loss, grad_context, cands, grad_scores


# A forward group's softmax scores all of L (_dense_softmax) when |L| is at
# most this many times a position's candidates (target and drawn negatives),
# else each position's own (_gathered_softmax); measured, see CHANGES.md.
DENSE_SOFTMAX_RATIO = 4

# _gathered_softmax and adagrad_update work in chunks of about this many
# float64 entries (640 KB), which stay in cache: positions x candidates x 4d
# gathered per sampled_location_loss call, whole rows per chunk of a tensor
# adagrad_update walks (409 U_out rows at d = 50).
GATHER_CHUNK_ENTRIES = 5 << 14


def _dense_softmax(params, contexts, targets, negatives, grads):
    """Loss and context gradients of positions scored against all of L.

    Scores come in evaluation.score_blocks row blocks of contexts @ U_out.T.
    negatives holds each row's drawn negatives (its non-candidates then
    score -inf), or None when they are all other locations. Per block, with
    G its score gradients, G.T @ C is recorded over every U_out row and
    G @ U_out is written over the block's contexts, which are returned.
    """
    total, every_row = 0.0, np.arange(params.num_locations)
    for block, scores in score_blocks(contexts, params.U_out):
        rows = np.arange(len(scores))
        at = targets[block]
        if negatives is not None:
            drop = np.ones(scores.shape, dtype=bool)
            drop[rows, at] = False
            drop[rows[:, None], negatives[block]] = False
            scores[drop] = -np.inf
        m = scores.max(axis=1)
        target = scores[rows, at]
        np.exp(np.subtract(scores, m[:, None], out=scores), out=scores)
        z = scores.sum(axis=1)
        total += float((np.log(z) + m - target).sum())
        scores /= z[:, None]
        scores[rows, at] -= 1.0
        grads.records["U_out"].append((every_row, scores.T @ contexts[block]))
        np.matmul(scores, params.U_out, out=contexts[block])
    return total, contexts


def _gathered_softmax(params, contexts, targets, negatives, grads):
    """Loss and context gradients of positions each scored against its own
    gathered candidates, in batched sampled_location_loss calls.

    The U_out gradient G @ contexts, with G[c, i] the gradient of position
    i's score of c, is recorded on grads as the pair (G, contexts), G a
    sparse matrix; adagrad_update multiplies it out a row chunk at a time.
    """
    # imported here: scipy.sparse adds about 1.7 MB of RSS, which runs that
    # only take the dense path never need
    from scipy import sparse

    chunk = max(1, GATHER_CHUNK_ENTRIES
                // ((1 + negatives.shape[1]) * contexts.shape[1]))
    losses, d_contexts, cands, d_scores = zip(*(
        sampled_location_loss(params, contexts[s:s + chunk],
                              targets[s:s + chunk], negatives[s:s + chunk])
        for s in range(0, len(contexts), chunk)))
    cands, d_scores = np.concatenate(cands), np.concatenate(d_scores)
    n, width = cands.shape
    g = sparse.csc_matrix(
        (d_scores.ravel(), cands.ravel(), np.arange(0, n * width + 1, width)),
        shape=(len(params.U_out), n)).tocsr()
    grads.records["U_out"].append((g, contexts))
    return sum(losses), np.concatenate(d_contexts)


def _short_term_backward(params, steps, d_states, states):
    """Lockstep BPTT of the short-term chain, newest in-subtrajectory step first.

    d_states holds the gradient reaching each packed state of the schedule
    `steps` (modified in place); states the packed states. Returns the
    pre-activation gradients of the steps past each subtrajectory's first
    position (row r belongs to packed row first + r, the step over the
    location one position earlier) and the S0 gradient.
    """
    first = steps.live[0] if steps.live else 0
    d_pre = np.empty((len(states) - first, params.dim))
    tanh_grad = 1.0 - states ** 2
    for j in range(len(steps.live) - 1, 0, -1):
        a, p, k = steps.offsets[j], steps.offsets[j - 1], steps.live[j]
        g = d_pre[a - first:a - first + k]
        np.multiply(d_states[a:a + k], tanh_grad[a:a + k], out=g)
        d_states[p:p + k] += g @ params.W
    return d_pre, d_states[:first].sum(axis=0)


def _long_term_backward(params, chain, d_consulted, grads):
    """Lockstep BPTT of a batch's long-term chain, newest block first;
    d_consulted[s] reaches the cell after packed row chain.consulted[s] (-1:
    C0). Adds the W_*, b_* and C0 gradients to grads and, as a block's cells
    are not read after it, overwrites chain.cells[r] with the U gradient of
    packed row r.

    Each model.chain_blocks block of n steps and k sequences is rebuilt from
    the cached cells as (n, 6d, k) columns: one stacked matmul of
    chain_weights with [tanh(c); U[x]; 1] and whole-block ufuncs give each
    step's pre-activation gradients per unit cell gradient [g i (1 - i);
    c f (1 - f); i (1 - g^2)], tanh' of the hidden state it reads, its
    forget gate and the contexts' gradient of its cell. Each step back then
    broadcasts the (d, k) cell gradients over the gate axis and takes one
    W_2.T @ g; the gate weights take one stacked matmul per block.
    """
    d = params.dim
    steps, cells = chain.steps, chain.cells
    weights = chain_weights(params)
    recur, inputs = weights[:, :d].T.copy(), weights[:, d:2 * d].T.copy()
    first = steps.live[0] if steps.live else 0
    previous = np.concatenate((np.full(first, -1), steps.previous))
    order = np.argsort(chain.consulted)
    ranked = chain.consulted[order]
    d_cells = np.zeros((d, first))  # column j: sequence j's cell gradient
    carried = np.empty((d, first))
    d_weights = np.zeros_like(weights)
    for t0, t1, c0, c1 in reversed(list(chain_blocks(steps.live))):
        n, k = t1 - t0, c1 - c0
        a = steps.offsets[t0] + c0
        block = np.empty((n, 6 * d, k))
        i_gate, f_gate, cand, held, forget, ext = np.split(block, 6, axis=1)
        operand = np.empty((n, 2 * d + 1, k))
        ext[...] = cells[previous[a:a + n * k]].reshape(n, k, d).transpose(
            0, 2, 1)    # the cell before each step, until ext is filled
        np.tanh(ext, out=operand[:, :d])
        operand[:, d:2 * d] = params.U[chain.locations[
            steps.rows[a:a + n * k]]].reshape(n, k, d).transpose(0, 2, 1)
        operand[:, 2 * d] = 1.0
        np.matmul(weights, operand, out=block[:, :3 * d])
        expit(block[:, :2 * d], out=block[:, :2 * d])
        np.tanh(cand, out=cand)
        held[...] = 1.0 - operand[:, :d] ** 2
        forget[...] = f_gate
        spare = cand * i_gate
        f_gate *= ext * (1.0 - f_gate)
        cand[...] = i_gate * (1.0 - cand ** 2)
        i_gate[...] = spare * (1.0 - i_gate)
        ext[...] = 0.0
        lo, hi = np.searchsorted(ranked, (a, a + n * k))
        slab, column = np.divmod(ranked[lo:hi] - a, k)
        ext[slab, :, column] = d_consulted[order[lo:hi]]
        dc = d_cells[:, c0:c1].copy()     # step back, newest step first
        for step in block[::-1]:
            dc += step[5 * d:]
            g = step[:3 * d]
            g.reshape(3, d, k)[...] *= dc
            np.matmul(recur, g, out=carried[:, :k])
            carried[:, :k] *= step[3 * d:4 * d]
            dc *= step[4 * d:5 * d]
            dc += carried[:, :k]
        d_cells[:, c0:c1] = dc
        gates = block[:, :3 * d]
        d_weights += np.matmul(gates, operand.transpose(0, 2, 1)).sum(axis=0)
        cells[a:a + n * k].reshape(n, k, d)[...] = np.matmul(
            inputs, gates).transpose(0, 2, 1)
        # freed before the next block's are allocated
        block = i_gate = f_gate = cand = held = forget = ext = step = g = None
        operand = spare = gates = None
    for part, gate in zip(np.split(d_weights, 3), "ifc"):
        grads.tensor(f"W_{gate}2")[:] += part[:, :d]
        grads.tensor(f"W_{gate}1")[:] += part[:, d:2 * d]
        grads.tensor(f"b_{gate}")[:] += part[:, 2 * d]
    grads.C0 += d_cells.sum(axis=1) + d_consulted[chain.consulted < 0].sum(
        axis=0)


def trajectory_loss_and_grads(params, mask, batch, grads=None, phases=None):
    """Sampled next-location loss over a frozen batch, with full BPTT gradients.

    The long-term chain runs once over the batch (model.long_term_chain),
    then each model.forward_groups group of users, which bounds the
    contexts, is one _lockstep_loss_and_grads call that reads its consulted
    hidden states from the chain and writes their gradients into one batch
    array; long-term BPTT then runs once (_long_term_backward). Phase seconds
    and lockstep_steps (see EpochRecord) are added to the Counter `phases`.
    """
    if grads is None:
        grads = Gradients.like(params)
    phases = Counter() if phases is None else phases
    users = np.asarray(batch.users, dtype=np.int64)
    views = batch.views
    begin = time.perf_counter()
    chain = long_term_chain(params, views) if mask.use_long else None
    phases["forward_seconds"] += time.perf_counter() - begin
    firsts = np.cumsum([0] + [len(bounds) for _, bounds in views])
    d_hidden = None if chain is None else np.zeros_like(chain.hidden)
    total = 0.0
    for lo, hi in forward_groups([len(locs) for locs, _ in views]):
        part = slice(firsts[lo], firsts[hi])
        total += _lockstep_loss_and_grads(
            params, mask, users[lo:hi], views[lo:hi], batch.negatives[lo:hi],
            None if chain is None else chain.hidden[part],
            None if chain is None else d_hidden[part], grads, phases)
    if chain is not None:
        begin = time.perf_counter()
        # from the consulted hidden states to their cells
        d_hidden *= 1.0 - chain.hidden ** 2
        _long_term_backward(params, chain, d_hidden, grads)
        grads.add_rows("U", chain.locations[chain.steps.rows], chain.cells[:-1])
        phases["bptt_seconds"] += time.perf_counter() - begin
        phases["lockstep_steps"] += len(chain.steps.live)
    return float(total), grads


def _lockstep_loss_and_grads(params, mask, users, views, negatives,
                             long_states, d_long, grads, phases):
    """Loss of a group of users; gradients accumulate into grads, and those
    of the long-term hidden states the group consults (long_states) are
    written into d_long.

    One forward_trajectory call fills the group's contexts; then, over all
    its positions at once:

    - Softmax: losses, context gradients (written over the contexts) and the
      recorded U_out gradient; _dense_softmax scores every location when |L|
      is at most DENSE_SOFTMAX_RATIO times a position's candidates, else
      _gathered_softmax each position's own.
    - Context: the F and P blocks sum into F[v] and P[v], the short-term
      block reaches the state consulted at each position, the long-term
      block sums per subtrajectory. The contexts are freed before BPTT.
    - Short-term BPTT reruns the short chain, then runs backward over every
      subtrajectory in lockstep to S0; W is one GEMM.
    """
    d = params.dim
    begin = time.perf_counter()
    trace = forward_trajectory(params, mask, users, views, long_states)
    phases["forward_seconds"] += time.perf_counter() - begin
    if not len(trace.locations):
        return 0.0
    sub = trace.subtrajectories
    begin = time.perf_counter()
    drawn = negatives[0].shape[1]   # negatives per position
    dense = params.num_locations <= DENSE_SOFTMAX_RATIO * (1 + drawn)
    total, d_context = (_dense_softmax if dense else _gathered_softmax)(
        params, trace.contexts, trace.locations,
        None if dense and drawn >= params.num_locations - 1
        else np.concatenate(negatives), grads)
    phases["softmax_seconds"] += time.perf_counter() - begin

    owners = np.repeat(users, trace.lengths)
    grads.add_rows("F", owners, d_context[:, :d])
    grads.add_rows("P", owners, d_context[:, d:2 * d])

    # BPTT needs only these blocks: free the contexts
    d_states = d_context[sub.rows, 2 * d:3 * d] if mask.use_short else None
    if mask.use_long:
        d_long[...] = np.add.reduceat(d_context[:, 3 * d:], sub.starts, axis=0)
    trace.contexts = d_context = None

    if mask.use_short:
        begin = time.perf_counter()
        # a few steps per subtrajectory: rerun rather than cached
        states = short_term_chain(params, sub, trace.locations)
        d_pre, d_s0 = _short_term_backward(params, sub, d_states, states)
        grads.S0 += d_s0
        grads.W += d_pre.T @ states[sub.previous]
        # d_pre[r] is the step over the location before its packed row
        grads.add_rows("U", trace.locations[
            sub.rows[len(sub.rows) - len(d_pre):] - 1], d_pre)
        phases["bptt_seconds"] += time.perf_counter() - begin
    return total


def adagrad_update(params, grads, optimizer_state, learning_rate, epsilon,
                   norms=None):
    """In-place AdaGrad step over every tensor with a gradient.

    Embedding tensors without touched rows are skipped, and sparsely touched
    ones (Gradients.sparse_rows) update only their touched rows. The others
    update as whole tensors: their untouched gradient rows are exactly zero,
    which leaves those rows and accumulators bit-for-bit unchanged, so every
    path equals the lazy row update. Tensors are walked in chunks of whole
    rows (GATHER_CHUNK_ENTRIES) through the optimizer's scratch buffers, an
    embedding tensor's chunks formed there from its records (Gradients.rows).
    Only a chunk whose squares do not sum finite is checked entry by entry
    for a non-finite gradient. Tensor L2 norms are added to norms if given.
    """
    grad_buf, denom_buf, step_buf = optimizer_state.scratch
    for name in TENSOR_NAMES:
        rows = grads.sparse_rows(name)
        if rows is not None and not len(rows):
            continue
        acc = optimizer_state.accumulators[name]
        target = params.tensor(name)
        squares = 0.0
        for chunk in _row_chunks(target, GATHER_CHUNK_ENTRIES, rows):
            # views of a slice; copies, written back below, of gathered rows
            gc = grads.rows(name, chunk, grad_buf, step_buf)
            acc_rows, target_rows = acc[chunk], target[chunk]
            shape, n = gc.shape, gc.size
            denom = np.multiply(gc, gc, out=denom_buf[:n].reshape(shape))
            with np.errstate(over="ignore"):
                square = float(denom.sum())
            if not math.isfinite(square) and not np.isfinite(gc).all():
                raise FloatingPointError(f"non-finite gradient in tensor {name}")
            squares += square
            acc_rows += denom
            np.sqrt(acc_rows, out=denom)
            denom += epsilon
            step = np.multiply(learning_rate, gc, out=step_buf[:n].reshape(shape))
            step /= denom
            target_rows -= step
            if rows is not None:
                acc[chunk] = acc_rows
                target[chunk] = target_rows
        if norms is not None:
            norms[name] += math.sqrt(squares)


@dataclass
class EpochRecord:
    epoch: int
    net_loss: float
    traj_loss: float
    val_recall: float | None
    seconds: float
    net_seconds: float      # the network pass, within seconds
    traj_seconds: float     # the trajectory pass, within seconds
    sample_seconds: float   # drawing both passes' batches, within them
    update_seconds: float   # AdaGrad steps (forming every embedding
                            # gradient from its records included) and
                            # re-zeroing, within them
    forward_seconds: float  # the trajectory pass's forward_trajectory calls
    softmax_seconds: float  # its softmax, the dense path's U_out gradient
                            # included
    bptt_seconds: float     # the trajectory pass's BPTT, within it
    lockstep_steps: int     # long-term lockstep steps of the trajectory pass
    validation_seconds: float   # the validation eval_next_location call
    checkpoint_seconds: float   # this epoch's save_checkpoint, 0.0 if none
    # per tensor, the sum over the epoch's batches of each batch gradient's
    # L2 norm (adagrad_update)
    grad_norms: dict = field(default_factory=dict)


def write_training_log(records, path, k=5):
    """CSV rows: epoch,net_loss,traj_loss,val_recall{k},seconds."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"epoch,net_loss,traj_loss,val_recall{k},seconds\n")
        for r in records:
            recall = "nan" if r.val_recall is None else repr(float(r.val_recall))
            handle.write(f"{r.epoch},{float(r.net_loss)!r},"
                         f"{float(r.traj_loss)!r},{recall},"
                         f"{float(r.seconds)!r}\n")


def _chunks(order, size):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def train(dataset, splits, config, checkpoint_path, log_path=None):
    """Alternate network and trajectory passes with per-batch AdaGrad updates.

    Each epoch shuffles the users, runs the network pass then the trajectory
    pass in batches of config.batch_users (one AdaGrad update per batch), and
    evaluates validation Recall@K for next-location prediction. The
    best-validation parameters are checkpointed; training stops after
    config.max_iterations epochs or once validation recall has not improved
    for config.patience consecutive epochs. Without validation events every
    epoch checkpoints and only max_iterations stops the loop. Only when no
    epoch runs (max_iterations = 0) are the initial parameters checkpointed,
    so a first epoch that raises leaves checkpoint_path as it was; an
    unwritable checkpoint_path (or directory) or log_path fails before it.
    """
    from .data import build_graph
    from .model import save_checkpoint

    if os.path.isdir(checkpoint_path):
        raise IsADirectoryError(f"Is a directory: '{checkpoint_path}'")
    open(f"{checkpoint_path}.tmp", "wb").close()    # save_checkpoint's temp
    os.remove(f"{checkpoint_path}.tmp")
    if log_path is not None:
        open(log_path, "a").close()
    streams = rng_streams(config.seed)
    params = init_params(config, dataset.num_users, dataset.num_locations)
    state = OptimizerState(params)
    grads = Gradients.like(params)      # zeroed after every update
    train_graph = build_graph(dataset.num_users, splits.train_edges)
    vocab_args = (dataset.user_vocab.ids, dataset.location_vocab.ids)

    def update():
        """AdaGrad step, then re-zero grads for the next batch; its seconds."""
        begin = time.perf_counter()
        adagrad_update(params, grads, state, config.learning_rate,
                       config.adagrad_epsilon, norms)
        grads.zero()
        return time.perf_counter() - begin

    records = []
    best = -np.inf
    stale = 0
    for epoch in range(1, config.max_iterations + 1):
        start = time.perf_counter()
        sample_seconds = update_seconds = 0.0
        net_loss = 0.0
        norms = Counter(dict.fromkeys(TENSOR_NAMES, 0.0))
        order = streams.shuffle.permutation(dataset.num_users)
        for users in _chunks(order, config.batch_users):
            begin = time.perf_counter()
            batch = draw_network_batch(train_graph, users, config.n1_per_user,
                                       streams.link_negatives)
            sample_seconds += time.perf_counter() - begin
            loss, _ = network_loss_and_grads(params, train_graph, batch, grads)
            update_seconds += update()
            net_loss += loss

        net_end = time.perf_counter()
        traj_loss = 0.0
        phases = Counter(forward_seconds=0.0, softmax_seconds=0.0,
                         bptt_seconds=0.0, lockstep_steps=0)
        order = streams.shuffle.permutation(dataset.num_users)
        for users in _chunks(order, config.batch_users):
            begin = time.perf_counter()
            batch = draw_trajectory_batch(dataset, splits, users, config.n2,
                                          streams.location_negatives)
            sample_seconds += time.perf_counter() - begin
            loss, _ = trajectory_loss_and_grads(params, config.variant, batch,
                                                grads, phases)
            update_seconds += update()
            traj_loss += loss

        traj_end = time.perf_counter()
        report = eval_next_location(params, config.variant, dataset, splits,
                                    ks=(config.validation_k,), part="validation")
        recall = report.recall_at.get(config.validation_k)
        validation_end = time.perf_counter()
        improved = recall is None or recall > best
        if improved:
            save_checkpoint(checkpoint_path, params, config.variant, *vocab_args)
        records.append(EpochRecord(epoch=epoch, net_loss=net_loss,
                                   traj_loss=traj_loss, val_recall=recall,
                                   seconds=validation_end - start,
                                   net_seconds=net_end - start,
                                   traj_seconds=traj_end - net_end,
                                   sample_seconds=sample_seconds,
                                   update_seconds=update_seconds,
                                   validation_seconds=validation_end - traj_end,
                                   checkpoint_seconds=(
                                       time.perf_counter() - validation_end
                                       if improved else 0.0),
                                   grad_norms=dict(norms), **phases))
        if recall is None:
            continue
        if improved:
            best = recall
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if not records:
        save_checkpoint(checkpoint_path, params, config.variant, *vocab_args)
    if log_path is not None:
        write_training_log(records, log_path, config.validation_k)
    return records
