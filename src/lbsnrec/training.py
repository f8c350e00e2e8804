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
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .model import (EMBEDDING_NAMES, TENSOR_NAMES, ModelParams, VariantMask,
                    forward_groups, forward_trajectory, state_index,
                    tensor_shapes)


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
        if self.d <= 0 or self.batch_users <= 0:
            raise ValueError("d and batch_users must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.init_range < 0 or self.adagrad_epsilon <= 0:
            raise ValueError("init_range must be >= 0, adagrad_epsilon > 0")
        if self.n1_per_user < 0 or self.n2 < 0 or self.max_iterations < 0:
            raise ValueError("counts must be >= 0")


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
    """Gradient buffers shaped like ModelParams with touched-row bookkeeping.

    Embedding rows outside the touched sets are exactly zero.
    """

    def __init__(self, num_users, num_locations, dim):
        for name, shape in tensor_shapes(num_users, num_locations, dim).items():
            setattr(self, name, np.zeros(shape))
        self.touched = {name: set() for name in EMBEDDING_NAMES}

    @classmethod
    def like(cls, params):
        return cls(params.num_users, params.num_locations, params.dim)

    def tensor(self, name):
        return getattr(self, name)

    def touch(self, name, rows):
        self.touched[name].update(np.unique(rows).tolist())


# adagrad_update walks each tensor in chunks of whole rows, about this many
# entries (128 KB of float64) per chunk, so its temporaries stay in cache.
ADAGRAD_CHUNK_ENTRIES = 1 << 14


class OptimizerState:
    """Per-entry sums of squared gradients for AdaGrad, plus its scratch."""

    def __init__(self, params):
        self.accumulators = {name: np.zeros_like(params.tensor(name))
                             for name in TENSOR_NAMES}
        size = max(ADAGRAD_CHUNK_ENTRIES,
                   *(math.prod(params.tensor(name).shape[1:])
                     for name in TENSOR_NAMES))
        self.scratch = (np.empty(size), np.empty(size),
                        np.empty(size, dtype=bool))


def init_params(config, num_users, num_locations):
    """Draw every tensor entry i.i.d. uniform on [-init_range, init_range]."""
    rng = rng_streams(config.seed).init
    r = config.init_range
    tensors = {}
    for name, shape in tensor_shapes(num_users, num_locations, config.d).items():
        tensors[name] = rng.uniform(-r, r, size=shape)
    return ModelParams(**tensors)


def _rejection_sample(count, population, excluded, rng):
    """count distinct draws uniform over range(population) avoiding excluded."""
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


def sample_negative_links(graph, user, count, rng):
    """Distinct users that are neither `user` nor its out-neighbors.

    Rejection-sampled from the uniform distribution over users; if fewer than
    `count` users are eligible, all of them are returned (ascending).
    """
    excluded = set(int(v) for v in graph.adjacency[user])
    excluded.add(int(user))
    eligible = graph.num_users - len(excluded)
    if eligible <= count:
        return np.array([v for v in range(graph.num_users) if v not in excluded],
                        dtype=np.int64)
    return _rejection_sample(count, graph.num_users, excluded, rng)


def sample_negative_locations(num_locations, target, n2, rng):
    """n2 distinct locations uniform without replacement, excluding target."""
    if num_locations - 1 <= n2:
        out = np.arange(num_locations, dtype=np.int64)
        return out[out != target]
    return _rejection_sample(n2, num_locations, {int(target)}, rng)


# ---------------------------------------------------------------------------
# Frozen batches: negatives are drawn once and the loss/gradient functions
# below are deterministic in (params, batch), which is what the
# finite-difference gradient checker relies on.
# ---------------------------------------------------------------------------

@dataclass
class NetworkBatch:
    users: np.ndarray
    negatives: list     # per user, sampled non-neighbor indices


@dataclass
class TrajectoryBatch:
    users: np.ndarray
    views: list         # per user, (locations, bounds) restricted to train range
    negatives: list     # per user, list of per-position negative arrays,
                        # all of one length (sample_negative_locations)


def draw_network_batch(graph, users, n1, rng):
    users = np.asarray(users, dtype=np.int64)
    negatives = [sample_negative_links(graph, int(u), n1, rng) for u in users]
    return NetworkBatch(users=users, negatives=negatives)


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
    users = np.asarray(users, dtype=np.int64)
    views = []
    negatives = []
    num_locations = dataset.num_locations
    for u in users:
        locs, bounds = training_view(dataset, splits, int(u))
        views.append((locs, bounds))
        negatives.append([sample_negative_locations(num_locations, int(l), n2, rng)
                          for l in locs])
    return TrajectoryBatch(users=users, views=views, negatives=negatives)


def network_loss_and_grads(params, graph, batch, grads=None):
    """Negative log-likelihood of observed links vs. frozen negatives, with grads.

    Per user v: -sum log sigmoid(F_v . F'_u) over out-neighbors u, minus
    sum log(1 - sigmoid(F_v . F'_w)) over the batch's negatives w.
    """
    if grads is None:
        grads = Gradients.like(params)
    loss = 0.0
    for u, negs in zip(batch.users, batch.negatives):
        u = int(u)
        pos = graph.adjacency[u]
        fv = params.F[u]
        dfv = np.zeros_like(fv)
        if len(pos):
            s = params.F_ctx[pos] @ fv
            loss += np.logaddexp(0.0, -s).sum()
            coef = expit(s) - 1.0
            dfv += coef @ params.F_ctx[pos]
            grads.F_ctx[pos] += np.outer(coef, fv)
            grads.touch("F_ctx", pos)
        if len(negs):
            s = params.F_ctx[negs] @ fv
            loss += np.logaddexp(0.0, s).sum()
            coef = expit(s)
            dfv += coef @ params.F_ctx[negs]
            grads.F_ctx[negs] += np.outer(coef, fv)
            grads.touch("F_ctx", negs)
        if len(pos) or len(negs):
            grads.F[u] += dfv
            grads.touch("F", u)
    return float(loss), grads


def sampled_location_loss(params, context, target, negatives):
    """Candidate-softmax loss of the target against frozen negative locations.

    Returns (loss, grad wrt context, candidate indices, grad wrt the
    candidates' scores); the gradient of U_out[c] is grad_scores[c] * context.
    """
    cands = np.concatenate(([int(target)], np.asarray(negatives, dtype=np.int64)))
    scores = params.U_out[cands] @ context
    m = scores.max()
    exps = np.exp(scores - m)
    z = exps.sum()
    loss = float(np.log(z) + m - scores[0])
    grad_scores = exps / z
    grad_scores[0] -= 1.0
    grad_context = grad_scores @ params.U_out[cands]
    return loss, grad_context, cands, grad_scores


# Candidate entries (positions x candidates per position) per
# block_location_loss call, at least one position. When few candidates repeat
# (|L| >> n2), a block's distinct candidates grow with its length and so does
# its GEMM cost per position, so long subtrajectories are split.
BLOCK_CANDIDATES = 512


def block_location_loss(params, contexts, cands):
    """Candidate-softmax loss of a block of positions, all at once.

    Row i of cands is position i's target followed by its frozen negatives
    (distinct within a row; rows may share candidates), scored against
    contexts[i]. The block's distinct candidates are gathered once, so scores,
    context gradients and the U_out gradient are three small GEMMs over them.
    Returns (loss summed over the block, grad wrt each context, the distinct
    candidate rows, grad wrt U_out[rows]); it equals summing
    sampled_location_loss over the positions.
    """
    rows, inv = np.unique(cands, return_inverse=True)
    inv = inv.reshape(cands.shape)
    u_rows = params.U_out[rows]
    at = np.arange(len(cands))[:, None]
    scores = (contexts @ u_rows.T)[at, inv]
    m = scores.max(axis=1, keepdims=True)
    exps = np.exp(scores - m)
    z = exps.sum(axis=1, keepdims=True)
    loss = float((np.log(z) + m - scores[:, :1]).sum())
    grad_scores = exps / z
    grad_scores[:, 0] -= 1.0
    dense = np.zeros((len(cands), len(rows)))
    dense[at, inv] = grad_scores
    return loss, dense @ u_rows, rows, dense.T @ contexts


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


def _long_term_backward(params, steps, gates, cells_before, hidden, d_hidden,
                        d_initial):
    """Lockstep BPTT of the gated long-term chain, newest step first.

    Packed row r of the schedule `steps` holds one step: its gates [i | f | c],
    the cell before it and the hidden state after it. d_hidden[r] is the
    gradient injected at that hidden state (modified in place) and d_initial
    the total injected at the initial one. Returns (pre-activation gradients
    [i | f | c] per packed row, the C0 gradient).
    """
    d = params.dim
    i_gate, f_gate, cand = gates[:, :d], gates[:, d:2 * d], gates[:, 2 * d:]
    # d_pre[r] = d_cell * local[r], d_cell tiled over the three gates:
    # local = [cand * i * (1 - i) | c_prev * f * (1 - f) | i * (1 - cand^2)].
    local = np.empty((len(gates), 3, d))
    np.multiply(cand, i_gate, out=local[:, 0])
    local[:, 0] *= 1.0 - i_gate
    np.multiply(cells_before, f_gate, out=local[:, 1])
    local[:, 1] *= 1.0 - f_gate
    np.square(cand, out=local[:, 2])
    np.subtract(1.0, local[:, 2], out=local[:, 2])
    local[:, 2] *= i_gate
    tanh_grad = 1.0 - hidden ** 2
    recur = np.vstack((params.W_i2, params.W_f2, params.W_c2))
    d_pre = np.empty((len(gates), 3, d))
    d_cell = np.zeros((steps.live[0] if steps.live else 0, d))
    d_h0 = d_initial
    for t in range(len(steps.live) - 1, -1, -1):
        a, k = steps.offsets[t], steps.live[t]
        dc = d_cell[:k]
        dc += d_hidden[a:a + k] * tanh_grad[a:a + k]
        g = d_pre[a:a + k]
        np.multiply(local[a:a + k], dc[:, None, :], out=g)
        back = g.reshape(k, 3 * d) @ recur
        if t:
            p = steps.offsets[t - 1]
            d_hidden[p:p + k] += back
        else:
            d_h0 = d_h0 + back.sum(axis=0)
        dc *= f_gate[a:a + k]
    return (d_pre.reshape(-1, 3 * d),
            d_cell.sum(axis=0) + d_h0 * (1.0 - np.tanh(params.C0) ** 2))


def trajectory_loss_and_grads(params, mask, batch, grads=None):
    """Sampled next-location loss over a frozen batch, with full BPTT gradients.

    The batch runs in consecutive groups of users (model.forward_groups, which
    bounds the working set); each group is one _lockstep_loss_and_grads call.
    """
    if grads is None:
        grads = Gradients.like(params)
    users = np.asarray(batch.users, dtype=np.int64)
    total = 0.0
    for lo, hi in forward_groups([len(locs) for locs, _ in batch.views]):
        total += _lockstep_loss_and_grads(params, mask, users[lo:hi],
                                          batch.views[lo:hi],
                                          batch.negatives[lo:hi], grads)
    return float(total), grads


def _lockstep_loss_and_grads(params, mask, users, views, negatives, grads):
    """Loss and gradients of a group of users, accumulated into grads.

    One forward_trajectory call runs the group's recurrences in lockstep;
    then, over all positions of the group at once:

    - Softmax: each subtrajectory is one block_location_loss call (long ones
      are split into blocks of at most BLOCK_CANDIDATES candidate entries),
      which gives the block's losses, context gradients and U_out gradient.
    - Context: the F and P blocks of the context gradients sum into F[v] and
      P[v]; the short-term block reaches the state consulted at each
      position; the long-term block reaches the hidden state frozen at the
      position's subtrajectory start.
    - Short-term BPTT runs backward over every subtrajectory in lockstep, by
      in-subtrajectory position, to S0. The per-step pre-activation gradients
      give W as one GEMM.
    - Long-term BPTT runs backward over every user in lockstep, by position,
      to C0. Steps past a user's last consulted boundary receive no gradient
      and contribute exact zeros. The per-step gate pre-activation gradients
      give the six gate matrices as one GEMM and the biases as one sum.
    - U rows of both recurrences are summed per position and reduced per
      location once.

    Only the recursions themselves loop, over steps.
    """
    d = params.dim
    trace = forward_trajectory(params, mask, users, views)
    lengths = trace.lengths
    num, width = trace.locations.shape
    valid = np.flatnonzero(np.arange(width) < lengths[:, None])
    if not len(valid):
        return 0.0
    flat_locations = trace.locations.reshape(-1)
    contexts = trace.contexts.reshape(-1, 4 * d)
    drawn = np.concatenate([neg for negs in negatives for neg in negs]).reshape(
        len(valid), -1)
    d_context = np.zeros((num * width, 4 * d))
    total = 0.0
    out_rows = []
    block = max(1, BLOCK_CANDIDATES // (1 + drawn.shape[1]))
    sub = trace.subtrajectories
    ends = np.cumsum(sub.lengths).tolist()
    for first, end in zip([0] + ends[:-1], ends):
        for s in range(first, end, block):
            t = min(s + block, end)
            at = valid[s:t]
            loss, d_context[at], rows, d_rows = block_location_loss(
                params, contexts[at],
                np.column_stack((flat_locations[at], drawn[s:t])))
            total += loss
            grads.U_out[rows] += d_rows
            out_rows.append(rows)
    grads.touch("U_out", np.concatenate(out_rows))

    seen = lengths > 0
    per_user = d_context.reshape(num, width, 4 * d)[:, :, :2 * d].sum(axis=1)
    np.add.at(grads.F, users[seen], per_user[seen, :d])
    np.add.at(grads.P, users[seen], per_user[seen, d:])
    grads.touch("F", users[seen])
    grads.touch("P", users[seen])

    # d_u[i] collects the gradient of U[locations at padded index i] from both
    # recurrences; stepped marks positions whose location a recurrence
    # consumed toward a consulted state.
    d_u = np.zeros((num * width, d))
    stepped = np.zeros(num * width, dtype=bool)
    if mask.use_short:
        steps = trace.subtrajectories
        states = contexts[:, 2 * d:3 * d]
        d_pre, d_s0 = _short_term_backward(
            params, steps, d_context[steps.rows, 2 * d:3 * d],
            states[steps.rows])
        grads.S0 += d_s0
        before = steps.rows[len(steps.rows) - len(d_pre):] - 1
        grads.W += d_pre.T @ states[before]
        d_u[before] += d_pre
        stepped[before] = True

    if mask.use_long:
        steps = trace.positions
        d_hidden = np.zeros((num * (width + 1), d))
        d_hidden[state_index(sub.starts, width)] = np.add.reduceat(
            d_context[:, 3 * d:], sub.starts, axis=0)
        before = state_index(steps.rows, width)
        cells = trace.long_cells.reshape(-1, d)
        hidden = trace.long_hidden.reshape(-1, d)
        gates = trace.gates.reshape(-1, 3 * d)[steps.rows]
        d_initial = d_hidden[::width + 1].sum(axis=0)
        d_pre, d_c0 = _long_term_backward(
            params, steps, gates, cells[before], hidden[before + 1],
            d_hidden[before + 1], d_initial)
        grads.C0 += d_c0
        w1 = d_pre.T @ params.U[flat_locations[steps.rows]]
        w2 = d_pre.T @ hidden[before]
        bias = d_pre.sum(axis=0)
        for k, (g1, g2, b_gate) in enumerate(
                ((grads.W_i1, grads.W_i2, grads.b_i),
                 (grads.W_f1, grads.W_f2, grads.b_f),
                 (grads.W_c1, grads.W_c2, grads.b_c))):
            gate = slice(k * d, (k + 1) * d)
            g1 += w1[gate]
            g2 += w2[gate]
            b_gate += bias[gate]
        d_u[steps.rows] += d_pre @ np.vstack((params.W_i1, params.W_f1,
                                              params.W_c1))
        last_start = np.array([bounds[-1][0] if bounds else 0
                               for _, bounds in views], dtype=np.int64)
        owner = steps.rows // width
        stepped[steps.rows[steps.rows - owner * width < last_start[owner]]] = True

    if stepped.any():
        at = np.flatnonzero(stepped)
        order = np.argsort(flat_locations[at], kind="stable")
        at = at[order]
        rows, first = np.unique(flat_locations[at], return_index=True)
        grads.U[rows] += np.add.reduceat(d_u[at], first, axis=0)
        grads.touch("U", rows)
    return total


def adagrad_update(params, grads, optimizer_state, learning_rate, epsilon):
    """In-place AdaGrad step over every tensor with a gradient.

    Embedding tensors without touched rows are skipped. The others update as
    whole tensors: their gradient rows outside the touched sets are exactly
    zero, which leaves those rows and accumulators bit-for-bit unchanged, so
    this equals the lazy row update. Each tensor is walked in chunks of
    whole rows (ADAGRAD_CHUNK_ENTRIES) through the optimizer's scratch
    buffers, checking each chunk for non-finite gradients before using it.
    """
    denom_buf, step_buf, finite_buf = optimizer_state.scratch
    for name in TENSOR_NAMES:
        if name in EMBEDDING_NAMES and not grads.touched[name]:
            continue
        acc = optimizer_state.accumulators[name]
        g = grads.tensor(name)
        target = params.tensor(name)
        rows = max(1, ADAGRAD_CHUNK_ENTRIES // math.prod(g.shape[1:]))
        for s in range(0, len(g), rows):
            gc = g[s:s + rows]
            shape, n = gc.shape, gc.size
            finite = finite_buf[:n].reshape(shape)
            if not np.isfinite(gc, out=finite).all():
                raise FloatingPointError(f"non-finite gradient in tensor {name}")
            denom = np.multiply(gc, gc, out=denom_buf[:n].reshape(shape))
            chunk = acc[s:s + rows]
            chunk += denom
            np.sqrt(chunk, out=denom)
            denom += epsilon
            step = np.multiply(learning_rate, gc, out=step_buf[:n].reshape(shape))
            step /= denom
            target[s:s + rows] -= step


@dataclass
class EpochRecord:
    epoch: int
    net_loss: float
    traj_loss: float
    val_recall: float | None
    seconds: float


def _format_float(x):
    return repr(float(x))


def write_training_log(records, path):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("epoch,net_loss,traj_loss,val_recall5,seconds\n")
        for r in records:
            recall = _format_float(r.val_recall) if r.val_recall is not None else "nan"
            handle.write(f"{r.epoch},{_format_float(r.net_loss)},"
                         f"{_format_float(r.traj_loss)},{recall},"
                         f"{_format_float(r.seconds)}\n")


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
    epoch checkpoints and only max_iterations stops the loop.
    """
    from .data import build_graph
    from .evaluation import eval_next_location
    from .model import save_checkpoint

    streams = rng_streams(config.seed)
    params = init_params(config, dataset.num_users, dataset.num_locations)
    state = OptimizerState(params)
    train_graph = build_graph(dataset.num_users, splits.train_edges)
    vocab_args = (dataset.user_vocab.ids, dataset.location_vocab.ids)

    save_checkpoint(checkpoint_path, params, config.variant, *vocab_args)
    records = []
    best = -np.inf
    stale = 0
    for epoch in range(1, config.max_iterations + 1):
        start = time.perf_counter()
        net_loss = 0.0
        order = streams.shuffle.permutation(dataset.num_users)
        for users in _chunks(order, config.batch_users):
            batch = draw_network_batch(train_graph, users, config.n1_per_user,
                                       streams.link_negatives)
            loss, grads = network_loss_and_grads(params, train_graph, batch)
            adagrad_update(params, grads, state, config.learning_rate,
                           config.adagrad_epsilon)
            net_loss += loss

        traj_loss = 0.0
        order = streams.shuffle.permutation(dataset.num_users)
        for users in _chunks(order, config.batch_users):
            batch = draw_trajectory_batch(dataset, splits, users, config.n2,
                                          streams.location_negatives)
            loss, grads = trajectory_loss_and_grads(params, config.variant, batch)
            adagrad_update(params, grads, state, config.learning_rate,
                           config.adagrad_epsilon)
            traj_loss += loss

        report = eval_next_location(params, config.variant, dataset, splits,
                                    ks=(config.validation_k,), part="validation")
        recall = report.recall_at.get(config.validation_k)
        seconds = time.perf_counter() - start
        records.append(EpochRecord(epoch=epoch, net_loss=net_loss,
                                   traj_loss=traj_loss, val_recall=recall,
                                   seconds=seconds))
        if recall is None:
            save_checkpoint(checkpoint_path, params, config.variant, *vocab_args)
            continue
        if recall > best:
            best = recall
            stale = 0
            save_checkpoint(checkpoint_path, params, config.variant, *vocab_args)
        else:
            stale += 1
            if stale >= config.patience:
                break
    if log_path is not None:
        write_training_log(records, log_path)
    return records
