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
BASE_PLUS_LONG = VariantMask(False, True)


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


@dataclass
class ForwardTrace:
    """Per-step activations cached by forward_trajectory for BPTT.

    short_states[p] is the short-term state consulted at position p (the
    subtrajectory-initial state for the first position of each subtrajectory).
    long_cells/long_hidden have N+1 rows: row t is the state after t
    locations, row 0 the initial state. Gate rows t-1 belong to step t.
    Components disabled by the variant mask are None.
    """

    contexts: np.ndarray
    short_states: np.ndarray | None
    long_cells: np.ndarray | None
    long_hidden: np.ndarray | None
    input_gates: np.ndarray | None
    forget_gates: np.ndarray | None
    candidate_states: np.ndarray | None


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


def forward_trajectory(params, mask, user, locations, bounds):
    """Run the recurrent forward pass and build one context per position.

    The short-term state resets to S0 at each subtrajectory and advances as
    rnn_step inside it. The long-term chain advances as gru_step over every
    location in order; predictions inside subtrajectory j consult the hidden
    state reached after subtrajectory j-1 (the initial tanh(C0) for j=0).
    The gates' input projections U[loc] @ [W_i1; W_f1; W_c1].T plus biases
    are one GEMM over all positions, so each long step is one stacked
    [W_i2; W_f2; W_c2] matvec with the gates, cell and hidden state written
    in place; the three gate arrays are views of one n x 3d array. The
    per-step matvecs use np.dot, which costs less per call than @ at this size.
    """
    n = len(locations)
    d = params.dim
    contexts = np.zeros((n, 4 * d))
    if n == 0:
        return ForwardTrace(contexts=contexts, short_states=None, long_cells=None,
                            long_hidden=None, input_gates=None, forget_gates=None,
                            candidate_states=None)
    x = params.U[locations]

    short_states = None
    if mask.use_short:
        short_states = np.empty((n, d))
        for b, e in bounds:
            short_states[b] = params.S0
            for p in range(b + 1, e):
                np.tanh(x[p - 1] + np.dot(params.W, short_states[p - 1]),
                        out=short_states[p])

    long_cells = long_hidden = input_gates = forget_gates = candidate_states = None
    if mask.use_long:
        long_cells = np.empty((n + 1, d))
        long_hidden = np.empty((n + 1, d))
        gates = x @ np.vstack((params.W_i1, params.W_f1, params.W_c1)).T
        gates += np.concatenate((params.b_i, params.b_f, params.b_c))
        recur = np.vstack((params.W_i2, params.W_f2, params.W_c2))
        long_cells[0], long_hidden[0] = gru_initial(params)
        carry = np.empty(d)
        for t in range(n):
            g = gates[t]
            g += np.dot(recur, long_hidden[t])
            expit(g[:2 * d], out=g[:2 * d])
            np.tanh(g[2 * d:], out=g[2 * d:])
            cell = long_cells[t + 1]
            np.multiply(g[:d], g[2 * d:], out=cell)
            np.multiply(g[d:2 * d], long_cells[t], out=carry)
            cell += carry
            np.tanh(cell, out=long_hidden[t + 1])
        input_gates = gates[:, :d]
        forget_gates = gates[:, d:2 * d]
        candidate_states = gates[:, 2 * d:]

    contexts[:, 0:d] = params.F[user]
    contexts[:, d:2 * d] = params.P[user]
    for b, e in bounds:
        if mask.use_short:
            contexts[b:e, 2 * d:3 * d] = short_states[b:e]
        if mask.use_long:
            contexts[b:e, 3 * d:4 * d] = long_hidden[b]
    return ForwardTrace(contexts=contexts, short_states=short_states,
                        long_cells=long_cells, long_hidden=long_hidden,
                        input_gates=input_gates, forget_gates=forget_gates,
                        candidate_states=candidate_states)


def joint_log_likelihood_full(params, mask, dataset):
    """Network log-likelihood plus exact next-location log-likelihood (oracle)."""
    total = network_log_likelihood_full(params, dataset.graph)
    for traj in dataset.trajectories:
        if len(traj) == 0:
            continue
        trace = forward_trajectory(params, mask, traj.user_index,
                                   traj.locations, traj.subtrajectory_bounds)
        for p in range(len(traj)):
            total += location_log_prob_full(params, trace.contexts[p],
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
                                                  dtype="<f8").tobytes())
            _write_string_table(handle, user_ids)
            _write_string_table(handle, location_ids)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    from .data import _read_exact, _read_string_table

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
            buf = _read_exact(handle, int(np.prod(shape)) * 8, f"tensor {name}",
                              CheckpointError)
            tensors[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        user_ids = _read_string_table(handle, CheckpointError)
        location_ids = _read_string_table(handle, CheckpointError)
    if len(user_ids) != num_users or len(location_ids) != num_locations:
        raise CheckpointError(f"{path}: vocab sizes disagree with header")
    return ModelParams(**tensors), mask, user_ids, location_ids
