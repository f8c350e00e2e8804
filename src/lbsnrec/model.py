"""Model parameters and forward computation.

The joint model scores friendship links with a Bernoulli over embedding
inner products and scores next locations with a softmax over a concatenated
context of a user's network embedding, preference embedding, a short-term
recurrent state that resets at each subtrajectory, and a gated long-term
state that advances over the whole check-in history but is consulted only at
subtrajectory boundaries. The full (unsampled) log-likelihoods here serve as
oracles for the negative-sampled training objectives.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

TENSOR_NAMES = (
    "P", "F", "F_ctx", "U", "U_out", "S0", "W", "C0",
    "W_i1", "W_i2", "W_f1", "W_f2", "W_c1", "W_c2", "b_i", "b_f", "b_c",
)

# Tensors indexed by user/location rows and updated sparsely.
EMBEDDING_NAMES = frozenset({"P", "F", "F_ctx", "U", "U_out"})


@dataclass(frozen=True)
class VariantMask:
    """Ablation switches: zero out the short- and/or long-term context blocks."""

    use_short: bool = True
    use_long: bool = True


FULL_VARIANT = VariantMask(True, True)
BASE_VARIANT = VariantMask(False, False)


@dataclass
class ModelParams:
    """All learnable tensors; float64 throughout."""

    P: np.ndarray       # |V| x d   preference embeddings
    F: np.ndarray       # |V| x d   network embeddings
    F_ctx: np.ndarray   # |V| x d   context network embeddings
    U: np.ndarray       # |L| x d   location embeddings (context modeling)
    U_out: np.ndarray   # |L| x 4d  location embeddings (prediction)
    S0: np.ndarray      # d         initial short-term state
    W: np.ndarray       # d x d     short-term transition
    C0: np.ndarray      # d         initial long-term cell state
    W_i1: np.ndarray
    W_i2: np.ndarray
    W_f1: np.ndarray
    W_f2: np.ndarray
    W_c1: np.ndarray
    W_c2: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray

    @property
    def num_users(self):
        return self.P.shape[0]

    @property
    def num_locations(self):
        return self.U.shape[0]

    @property
    def dim(self):
        return self.P.shape[1]

    def tensor(self, name):
        return getattr(self, name)

    def tensors(self):
        return {name: getattr(self, name) for name in TENSOR_NAMES}

    def copy(self):
        return ModelParams(**{name: getattr(self, name).copy()
                              for name in TENSOR_NAMES})

    @classmethod
    def zeros(cls, num_users, num_locations, dim):
        return cls(**{name: np.zeros(shape)
                      for name, shape in tensor_shapes(num_users, num_locations,
                                                       dim).items()})


def tensor_shapes(num_users, num_locations, dim):
    d = dim
    return {
        "P": (num_users, d), "F": (num_users, d), "F_ctx": (num_users, d),
        "U": (num_locations, d), "U_out": (num_locations, 4 * d),
        "S0": (d,), "W": (d, d), "C0": (d,),
        "W_i1": (d, d), "W_i2": (d, d), "W_f1": (d, d), "W_f2": (d, d),
        "W_c1": (d, d), "W_c2": (d, d), "b_i": (d,), "b_f": (d,), "b_c": (d,),
    }


@dataclass(frozen=True)
class Lockstep:
    """A batch of sequences advanced together, one step at a time.

    Sequence s occupies padded flat indices starts[s] .. starts[s] +
    lengths[s] - 1 (batch order, starts ascending). Step j advances the
    first live[j] sequences in order of descending length (ties in batch
    order), a prefix of the sequences step j-1 advanced. Per-step state is
    packed with step j at rows offsets[j] .. offsets[j + 1] - 1, so a step
    reads its predecessors from a prefix of the previous step's rows; rows[r]
    is the padded flat index of packed row r.
    """

    starts: np.ndarray
    lengths: np.ndarray
    live: list
    offsets: list
    rows: np.ndarray


def lockstep(starts, lengths):
    """Lockstep schedule of sequences at padded flat offsets `starts`."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max(initial=0))
    live = len(lengths) - np.cumsum(np.bincount(lengths, minlength=steps)[:steps])
    offsets = np.concatenate(([0], np.cumsum(live)))
    step = np.repeat(np.arange(steps), live)
    rank = np.arange(offsets[-1]) - offsets[step]
    return Lockstep(starts=starts, lengths=lengths, live=live.tolist(),
                    offsets=offsets.tolist(), rows=starts[order][rank] + step)


# Callers run forward_trajectory over groups of users of at most this many
# padded positions (users x longest history), or one user whose history is
# longer. A group's trace and BPTT temporaries take a few hundred floats per
# padded position at d=16, so this bounds the lockstep working set.
FORWARD_GROUP_POSITIONS = 512


def forward_groups(lengths):
    """Split a batch of users with these history lengths into consecutive
    (start, stop) groups of at most FORWARD_GROUP_POSITIONS padded positions
    each, or one user."""
    start = width = 0
    for i, n in enumerate(lengths):
        grown = max(width, n)
        if i > start and (i - start + 1) * grown > FORWARD_GROUP_POSITIONS:
            yield start, i
            start, grown = i, n
        width = grown
    if len(lengths) > start:
        yield start, len(lengths)


def state_index(index, width):
    """Flat index into (B, width + 1) long-term state arrays of the state
    before the position at flat index `index` into (B, width) arrays."""
    return index + index // max(width, 1)


@dataclass
class ForwardTrace:
    """Activations of a batch of users, cached by forward_trajectory for BPTT.

    Arrays are padded over the batch: row b holds user b's first lengths[b]
    positions and is zero past them. locations[b, p] is the location visited
    at position p and short_states[b, p] the short-term state consulted there
    (S0 at each subtrajectory start). long_cells/long_hidden have T+1
    columns: column t is the state after t locations, column 0 the initial
    state. Gate column t-1 belongs to step t and holds the input, forget and
    candidate gates side by side. Components disabled by the variant mask are
    None. `subtrajectories` schedules the short-term chain and `positions`
    (users stepped over their positions) the long-term one, over padded flat
    indices b * T + p.
    """

    lengths: np.ndarray
    locations: np.ndarray
    contexts: np.ndarray
    short_states: np.ndarray | None
    long_cells: np.ndarray | None
    long_hidden: np.ndarray | None
    gates: np.ndarray | None
    subtrajectories: Lockstep
    positions: Lockstep


def log_sigmoid(s):
    """log(sigmoid(s)), overflow-safe for large |s|."""
    return -np.logaddexp(0.0, -np.asarray(s, dtype=np.float64))


def link_logit(params, i, j):
    """Inner product of i's network embedding with j's context embedding."""
    return float(np.dot(params.F[i], params.F_ctx[j]))


def network_log_likelihood_full(params, graph):
    """Bernoulli log-likelihood over every ordered user pair (oracle, O(|V|^2))."""
    logits = params.F @ params.F_ctx.T
    log_edge = -np.logaddexp(0.0, -logits)
    log_non = -np.logaddexp(0.0, logits)
    edge_mask = np.zeros(logits.shape, dtype=bool)
    for i, j in graph.directed_edges:
        edge_mask[i, j] = True
    total = np.where(edge_mask, log_edge, log_non)
    np.fill_diagonal(total, 0.0)
    return float(total.sum())


def rnn_step(params, s_prev, loc):
    """Advance the short-term state over one just-visited location.

    This and gru_step define one step of each recurrence; forward_trajectory
    runs the same steps over a whole trajectory.
    """
    return np.tanh(params.U[loc] + params.W @ s_prev)


def gru_initial(params):
    """Initial (cell, hidden) pair of the long-term chain."""
    c0 = params.C0
    return c0, np.tanh(c0)


def gru_step(params, c_prev, h_prev, loc):
    """Advance the gated long-term cell over one just-visited location.

    Returns (cell, hidden, input_gate, forget_gate, candidate).
    """
    x = params.U[loc]
    candidate = np.tanh(params.W_c1 @ x + params.W_c2 @ h_prev + params.b_c)
    i_gate = expit(params.W_i1 @ x + params.W_i2 @ h_prev + params.b_i)
    f_gate = expit(params.W_f1 @ x + params.W_f2 @ h_prev + params.b_f)
    cell = i_gate * candidate + f_gate * c_prev
    hidden = np.tanh(cell)
    return cell, hidden, i_gate, f_gate, candidate


def location_log_prob_full(params, context, target):
    """Log softmax over all locations of context . U_out[l], at target (oracle)."""
    scores = params.U_out @ context
    m = scores.max()
    return float(scores[target] - m - np.log(np.exp(scores - m).sum()))


def forward_trajectory(params, mask, users, views):
    """Run the recurrent forward pass of a batch of users in lockstep.

    views[b] = (locations, bounds) of users[b]; the bounds partition the
    locations into non-empty subtrajectories, in order. The short-term state
    resets to S0 at each subtrajectory and advances as rnn_step inside it;
    the long-term chain advances as gru_step over every location in order,
    and predictions inside subtrajectory j consult the hidden state reached
    after subtrajectory j-1 (the initial tanh(C0) for j=0). Returns a padded
    ForwardTrace with one context per position.

    Each chain steps all of its sequences together, longest first (see
    Lockstep): the short-term one every subtrajectory of the batch by
    in-subtrajectory position, one (live x d) GEMM per position; the
    long-term one every user by position, one stacked [W_i2; W_f2; W_c2] GEMM
    per step, with the input projections U[loc] @ [W_i1; W_f1; W_c1].T plus
    biases formed for all positions at once and gates, cell and hidden state
    written in place.
    """
    users = np.asarray(users, dtype=np.int64)
    d = params.dim
    lengths = np.array([len(locs) for locs, _ in views], dtype=np.int64)
    num = len(lengths)
    width = int(lengths.max(initial=0))
    valid = np.flatnonzero(np.arange(width) < lengths[:, None])
    locations = np.zeros((num, width), dtype=np.int64)
    flat_locations = locations.reshape(-1)
    if len(valid):
        flat_locations[valid] = np.concatenate([locs for locs, _ in views])
    spans = [np.asarray(bounds, dtype=np.int64).reshape(-1, 2) + b * width
             for b, (_, bounds) in enumerate(views)]
    spans = np.concatenate(spans) if spans else np.zeros((0, 2), dtype=np.int64)
    subtrajectories = lockstep(spans[:, 0], spans[:, 1] - spans[:, 0])
    positions = lockstep(np.arange(num) * width, lengths)

    contexts = np.zeros((num, width, 4 * d))
    flat = contexts.reshape(-1, 4 * d)
    owner = users[valid // max(width, 1)]
    flat[valid, 0:d] = params.F[owner]
    flat[valid, d:2 * d] = params.P[owner]

    short_states = None
    if mask.use_short:
        steps = subtrajectories
        states = np.empty((len(steps.rows), d))
        first = steps.live[0] if steps.live else 0
        states[:first] = params.S0
        inputs = params.U[flat_locations[steps.rows[first:] - 1]]
        w_t = params.W.T
        for j in range(1, len(steps.live)):
            a, p, k = steps.offsets[j], steps.offsets[j - 1], steps.live[j]
            state = states[a:a + k]
            np.matmul(states[p:p + k], w_t, out=state)
            state += inputs[a - first:a - first + k]
            np.tanh(state, out=state)
        flat[steps.rows, 2 * d:3 * d] = states
        short_states = contexts[:, :, 2 * d:3 * d]

    long_cells = long_hidden = gates = None
    if mask.use_long:
        steps = positions
        packed = params.U[flat_locations[steps.rows]] @ np.vstack(
            (params.W_i1, params.W_f1, params.W_c1)).T
        packed += np.concatenate((params.b_i, params.b_f, params.b_c))
        recur_t = np.vstack((params.W_i2, params.W_f2, params.W_c2)).T
        cells = np.empty((len(steps.rows), d))
        hidden = np.empty((len(steps.rows), d))
        c0, h0 = gru_initial(params)
        carry = np.empty((num, d))
        recurrent = np.empty((num, 3 * d))
        for t, k in enumerate(steps.live):
            a = steps.offsets[t]
            if t:
                p = steps.offsets[t - 1]
                c_prev, h_prev = cells[p:p + k], hidden[p:p + k]
            else:
                c_prev, h_prev = c0, h0[None]
            g = packed[a:a + k]
            np.matmul(h_prev, recur_t, out=recurrent[:len(h_prev)])
            g += recurrent[:len(h_prev)]
            expit(g[:, :2 * d], out=g[:, :2 * d])
            np.tanh(g[:, 2 * d:], out=g[:, 2 * d:])
            cell = cells[a:a + k]
            np.multiply(g[:, :d], g[:, 2 * d:], out=cell)
            np.multiply(g[:, d:2 * d], c_prev, out=carry[:k])
            cell += carry[:k]
            np.tanh(cell, out=hidden[a:a + k])
        after = state_index(steps.rows, width) + 1
        long_cells = np.zeros((num, width + 1, d))
        long_hidden = np.zeros((num, width + 1, d))
        long_cells[:, 0] = c0
        long_hidden[:, 0] = h0
        long_cells.reshape(-1, d)[after] = cells
        long_hidden.reshape(-1, d)[after] = hidden
        gates = np.zeros((num, width, 3 * d))
        gates.reshape(-1, 3 * d)[steps.rows] = packed
        start = np.repeat(subtrajectories.starts, subtrajectories.lengths)
        flat[valid, 3 * d:4 * d] = long_hidden.reshape(-1, d)[
            state_index(start, width)]
    return ForwardTrace(lengths=lengths, locations=locations, contexts=contexts,
                        short_states=short_states, long_cells=long_cells,
                        long_hidden=long_hidden, gates=gates,
                        subtrajectories=subtrajectories, positions=positions)


def joint_log_likelihood_full(params, mask, dataset):
    """Network log-likelihood plus exact next-location log-likelihood (oracle)."""
    total = network_log_likelihood_full(params, dataset.graph)
    for traj in dataset.trajectories:
        if len(traj) == 0:
            continue
        trace = forward_trajectory(params, mask, [traj.user_index],
                                   [(traj.locations, traj.subtrajectory_bounds)])
        for p in range(len(traj)):
            total += location_log_prob_full(params, trace.contexts[0, p],
                                            traj.locations[p])
    return float(total)


# ---------------------------------------------------------------------------
# Checkpoints: magic "JNTM", u32 version, u64 |V|, u64 |L|, u64 d, one byte
# per variant flag (use_short, use_long), the 17 tensors as row-major
# little-endian float64 in TENSOR_NAMES order, then the user and location
# vocabularies (u64 entry count, each string u32 byte length + UTF-8 bytes).
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"JNTM"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params, mask, user_ids, location_ids):
    """Write a checkpoint atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces `path`; if writing fails, the temporary file is removed and any
    previous checkpoint at `path` is left as it was.
    """
    from .data import _write_string_table

    path = os.fspath(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            handle.write(struct.pack("<I", CHECKPOINT_VERSION))
            handle.write(struct.pack("<QQQ", params.num_users,
                                     params.num_locations, params.dim))
            handle.write(struct.pack("BB", int(mask.use_short),
                                     int(mask.use_long)))
            for name in TENSOR_NAMES:
                handle.write(np.ascontiguousarray(params.tensor(name),
                                                  dtype="<f8"))
            _write_string_table(handle, user_ids)
            _write_string_table(handle, location_ids)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    from .data import _read_exact, _read_into, _read_string_table

    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        header = _read_exact(handle, 30, "header", CheckpointError)
        version, num_users, num_locations, dim, use_short, use_long = \
            struct.unpack("<IQQQBB", header)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        mask = VariantMask(use_short=bool(use_short), use_long=bool(use_long))
        tensors = {}
        for name, shape in tensor_shapes(num_users, num_locations, dim).items():
            tensors[name] = _read_into(handle, shape, "<f8", f"tensor {name}",
                                       CheckpointError)
        user_ids = _read_string_table(handle, CheckpointError)
        location_ids = _read_string_table(handle, CheckpointError)
    if len(user_ids) != num_users or len(location_ids) != num_locations:
        raise CheckpointError(f"{path}: vocab sizes disagree with header")
    if (len(set(user_ids)) != num_users
            or len(set(location_ids)) != num_locations):
        raise CheckpointError(f"{path}: duplicate id in a vocabulary")
    return ModelParams(**tensors), mask, user_ids, location_ids
