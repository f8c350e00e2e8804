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

    Sequence s occupies flat indices starts[s] .. starts[s] + lengths[s] - 1
    (batch order, starts ascending). Step j advances the
    first live[j] sequences in order of descending length (ties in batch
    order), a prefix of the sequences step j-1 advanced. Step j's state is
    packed at rows offsets[j] .. offsets[j + 1] - 1, so a step reads its
    predecessors from a prefix of the previous step's rows. rows[r] is packed
    row r's flat index, previous[r - live[0]] its predecessor row.
    """

    starts: np.ndarray
    lengths: np.ndarray
    live: list
    offsets: list
    rows: np.ndarray
    previous: np.ndarray


def lockstep(starts, lengths):
    """Lockstep schedule of sequences at flat offsets `starts`."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths.max(initial=0))
    live = len(lengths) - np.cumsum(np.bincount(lengths, minlength=steps)[:steps])
    offsets = np.concatenate(([0], np.cumsum(live)))
    step = np.repeat(np.arange(steps), live)
    rank = np.arange(offsets[-1]) - offsets[step]
    previous = np.arange(offsets[1] if steps else 0, offsets[-1]) - np.repeat(
        live[:-1], live[1:])
    return Lockstep(starts=starts, lengths=lengths, live=live.tolist(),
                    offsets=offsets.tolist(), rows=starts[order][rank] + step,
                    previous=previous)


# Callers run forward_trajectory over groups of users of at most
# FORWARD_GROUP_POSITIONS positions in all, or one user whose history is
# longer; a rank-only forward, whose contexts take no gradients, takes twice
# as many. The long-term chain runs over a whole batch in blocks of at most
# this many step-columns (chain_blocks), so groups bound only the contexts.
FORWARD_GROUP_POSITIONS = 630


def forward_groups(lengths, caches=True):
    """Split a batch of users with these history lengths into consecutive
    (start, stop) groups of at most FORWARD_GROUP_POSITIONS positions each
    (twice that without caches), or one user."""
    bound = FORWARD_GROUP_POSITIONS * (1 if caches else 2)
    start = total = 0
    for i, n in enumerate(lengths):
        if i > start and total + n > bound:
            yield start, i
            start, total = i, 0
        total += n
    if len(lengths) > start:
        yield start, len(lengths)


def chain_blocks(live):
    """(t0, t1, c0, c1) per block of a long-term schedule with these live
    counts, in step order: steps t0 .. t1 - 1 of equal live count k, columns
    c0 .. c1 - 1 (all k unless k > FORWARD_GROUP_POSITIONS), at most
    FORWARD_GROUP_POSITIONS step-columns, packed rows offsets[t0] + c0 on."""
    bound = max(1, int(FORWARD_GROUP_POSITIONS))
    live = np.asarray(live, dtype=np.int64)
    ends = np.flatnonzero(np.diff(live, prepend=-1, append=-1))
    for t0, t1 in zip(ends[:-1].tolist(), ends[1:].tolist()):
        k = int(live[t0])
        width = min(k, bound)
        for s in range(t0, t1, bound // width):
            for c in range(0, k, width):
                yield s, min(s + bound // width, t1), c, min(c + width, k)


@dataclass
class ForwardTrace:
    """Contexts of a batch of users, made by forward_trajectory.

    User b's positions are rows starts[b] .. starts[b] + lengths[b] - 1 of
    locations and contexts, starts the exclusive cumulative sum of lengths;
    contexts[r] predicts locations[r], its third block the short-term state.
    `subtrajectories` schedules the short-term chain over these rows (see
    Lockstep), one sequence per subtrajectory.
    """

    lengths: np.ndarray
    locations: np.ndarray
    contexts: np.ndarray
    subtrajectories: Lockstep


@dataclass
class LongTermChain:
    """The long-term chain of a batch (long_term_chain): `steps` schedules it
    over `locations`, each user's up to their last subtrajectory start,
    concatenated. Subtrajectory s consults hidden[s], the hidden state after
    packed row consulted[s] (-1: the initial one). With caches, cells[r] is
    the cell after row r's step and cells[-1] is C0; else cells is None."""

    steps: Lockstep
    locations: np.ndarray
    consulted: np.ndarray
    hidden: np.ndarray
    cells: np.ndarray | None


def log_sigmoid(s):
    """log(sigmoid(s)), overflow-safe for large |s|."""
    return -np.logaddexp(0.0, -np.asarray(s, dtype=np.float64))


def network_log_likelihood_full(params, graph):
    """Bernoulli log-likelihood over every ordered user pair (oracle, O(|V|^2))."""
    logits = params.F @ params.F_ctx.T
    log_edge = -np.logaddexp(0.0, -logits)
    log_non = -np.logaddexp(0.0, logits)
    edge_mask = np.zeros(logits.shape, dtype=bool)
    edge_mask.flat[graph.directed_edges] = True
    total = np.where(edge_mask, log_edge, log_non)
    np.fill_diagonal(total, 0.0)
    return float(total.sum())


def gru_initial(params):
    """Initial (cell, hidden) pair of the long-term chain."""
    c0 = params.C0
    return c0, np.tanh(c0)


def location_log_prob_full(params, context, target):
    """Log softmax over all locations of context . U_out[l], at target (oracle)."""
    scores = params.U_out @ context
    m = scores.max()
    return float(scores[target] - m - np.log(np.exp(scores - m).sum()))


def short_term_chain(params, steps, locations):
    """Packed short-term states of the schedule `steps` over flat
    `locations`, one GEMM per in-subtrajectory position."""
    states = np.empty((len(steps.rows), params.dim))
    first = steps.live[0] if steps.live else 0
    states[:first] = params.S0
    inputs = params.U[locations[steps.rows[first:] - 1]]
    w_t = params.W.T
    for j in range(1, len(steps.live)):
        a, p, k = steps.offsets[j], steps.offsets[j - 1], steps.live[j]
        state = states[a:a + k]
        np.matmul(states[p:p + k], w_t, out=state)
        state += inputs[a - first:a - first + k]
        np.tanh(state, out=state)
    return states


def chain_weights(params):
    """[W_2 | W_1 | b] of the long-term gates, stacked i, f, c (3d x 2d + 1)."""
    return np.vstack([np.hstack((params.tensor(f"W_{g}2"), params.tensor(
        f"W_{g}1"), params.tensor(f"b_{g}")[:, None])) for g in "ifc"])


def _run_block(weights, block):
    """Run the steps of a long_term_chain block in place."""
    d = len(weights) // 3
    terms = np.empty((2 * d, block.shape[2]))   # [i * g; f * c]
    for pre, gates, cand, pairs, operand, cell, after in zip(
            block[:-1, :3 * d], block[:-1, :2 * d], block[:-1, 2 * d:3 * d],
            block[:-1, 2 * d:4 * d], block[:-1, 4 * d:],
            block[1:, 3 * d:4 * d], block[1:, 4 * d:5 * d]):
        np.matmul(weights, operand, out=pre)
        expit(gates, out=gates)
        np.tanh(cand, out=cand)
        np.multiply(gates, pairs, out=terms)
        np.add(terms[:d], terms[d:], out=cell)
        np.tanh(cell, out=after)


def long_term_chain(params, views, caches=True):
    """Run the long-term chain of a batch of users in lockstep.

    views[b] = (locations, bounds): user b's chain steps over their locations
    up to their last bound's start, and each bound consults the hidden state
    reached at its start. Returns a LongTermChain, with cells only with
    caches. It runs in chain_blocks: a block of n steps and k columns is one
    (n + 1, 6d + 1, k) array, block[j] holding step j's [i; f; g; c; h; x;
    1] as columns and block[n] the state after it. A step is one GEMM of
    chain_weights with [h; x; 1] and five ufuncs over whole rows.
    """
    d = params.dim
    ends = np.array([bounds[-1][0] if len(bounds) else 0
                     for _, bounds in views], dtype=np.int64)
    starts = np.cumsum(ends) - ends
    locations = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        locs[:n] for (locs, _), n in zip(views, ends.tolist())])
    steps = lockstep(starts, ends)
    packed = np.arange(len(locations))
    packed[steps.rows] = np.arange(len(steps.rows))
    heads = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.asarray(b, dtype=np.int64).reshape(-1, 2)[:, 0] + s - 1
        for (_, b), s in zip(views, starts.tolist())])
    consulted = np.where(heads >= np.repeat(starts, [len(b) for _, b in views]),
                         packed[heads.clip(0)] if len(packed) else -1, -1)
    weights = chain_weights(params)
    state = np.repeat(np.concatenate(gru_initial(params))[:, None],
                      steps.live[0] if steps.live else 0, axis=1)
    hidden = np.tile(gru_initial(params)[1], (len(consulted), 1))
    order = np.argsort(consulted)
    ranked = consulted[order]
    cells = np.concatenate((np.empty((len(steps.rows), d)), params.C0[None])
                           ) if caches else None
    for t0, t1, c0, c1 in chain_blocks(steps.live):
        n, k = t1 - t0, c1 - c0
        a = steps.offsets[t0] + c0
        block = np.empty((n + 1, 6 * d + 1, k))
        block[0, 3 * d:5 * d] = state[:, c0:c1]
        block[:n, 5 * d:6 * d] = params.U[locations[steps.rows[
            a:a + n * k]]].reshape(n, k, d).transpose(0, 2, 1)
        block[:n, 6 * d] = 1.0
        _run_block(weights, block)
        state[:, c0:c1] = block[n, 3 * d:5 * d]
        lo, hi = np.searchsorted(ranked, (a, a + n * k))
        slab, column = np.divmod(ranked[lo:hi] - a, k)
        hidden[order[lo:hi]] = block[slab + 1, 4 * d:5 * d, column]
        if caches:
            cells[a:a + n * k].reshape(n, k, d)[...] = block[
                1:, 3 * d:4 * d].transpose(0, 2, 1)
        block = None    # freed before the next block is allocated
    return LongTermChain(steps=steps, locations=locations, consulted=consulted,
                         hidden=hidden, cells=cells)


def forward_trajectory(params, mask, users, views, long_states=None):
    """Run the recurrent forward pass of a batch of users in lockstep.

    views[b] = (locations, bounds) of users[b]; the bounds partition the
    locations into non-empty subtrajectories, in order. The short-term state
    s resets to S0 at each subtrajectory and steps inside it over each
    just-visited location x as s' = tanh(U[x] + W s). The long-term chain
    starts from cell C0 and hidden state tanh(C0) (gru_initial) and steps
    over every location x in order: input gate i = sigmoid(W_i1 U[x] + W_i2 h
    + b_i), forget gate f = sigmoid(W_f1 U[x] + W_f2 h + b_f) and candidate
    g = tanh(W_c1 U[x] + W_c2 h + b_c) give the cell c' = i * g + f * c and
    hidden state h' = tanh(c'). Predictions inside subtrajectory j consult
    the hidden state reached after subtrajectory j-1 (tanh(C0) for j=0), so
    the chain stops where the last subtrajectory starts. Returns a
    ForwardTrace with one context per position.

    long_states holds the hidden state each subtrajectory consults, in
    order, from a LongTermChain over a larger batch or longer histories;
    when None, long_term_chain runs here without caches. The short-term
    chain steps all subtrajectories together, longest first (see Lockstep).
    """
    users = np.asarray(users, dtype=np.int64)
    d = params.dim
    lengths = np.array([len(locs) for locs, _ in views], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    locations = np.concatenate([np.zeros(0, dtype=np.int64)]
                               + [locs for locs, _ in views])
    spans = np.concatenate([np.zeros((0, 2), dtype=np.int64)] + [
        np.asarray(bounds, dtype=np.int64).reshape(-1, 2) + start
        for (_, bounds), start in zip(views, starts.tolist())])
    subtrajectories = lockstep(spans[:, 0], spans[:, 1] - spans[:, 0])
    if mask.use_long and long_states is None:
        long_states = long_term_chain(params, views, caches=False).hidden

    contexts = np.zeros((len(locations), 4 * d))
    owner = np.repeat(users, lengths)
    contexts[:, 0:d] = params.F[owner]
    contexts[:, d:2 * d] = params.P[owner]
    if mask.use_short:
        contexts[subtrajectories.rows, 2 * d:3 * d] = short_term_chain(
            params, subtrajectories, locations)
    if mask.use_long:
        contexts[:, 3 * d:] = np.repeat(long_states, subtrajectories.lengths,
                                        axis=0)
    return ForwardTrace(lengths=lengths, locations=locations, contexts=contexts,
                        subtrajectories=subtrajectories)


def joint_log_likelihood_full(params, mask, dataset):
    """Network log-likelihood plus exact next-location log-likelihood (oracle)."""
    total = network_log_likelihood_full(params, dataset.graph)
    for traj in dataset.trajectories:
        if len(traj) == 0:
            continue
        trace = forward_trajectory(params, mask, [traj.user_index],
                                   [(traj.locations, traj.subtrajectory_bounds)])
        for p in range(len(traj)):
            total += location_log_prob_full(params, trace.contexts[p],
                                            traj.locations[p])
    return float(total)


# ---------------------------------------------------------------------------
# Checkpoints: magic "JNTM", u32 version, u64 |V|, u64 |L|, u64 d, one byte
# per variant flag (use_short, use_long), the 17 tensors as row-major
# little-endian float64 in TENSOR_NAMES order, then the user and location
# vocabularies (u64 entry count, u64 byte length, the ids joined by "\n" as
# UTF-8), which end the file.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"JNTM"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params, mask, user_ids, location_ids):
    """Write a checkpoint atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces `path`; if writing fails, the temporary file is removed and any
    previous checkpoint at `path` is left as it was. An id holding "\n" is
    refused before any file is opened.
    """
    from .data import _string_table

    tables = (_string_table(user_ids, CheckpointError)
              + _string_table(location_ids, CheckpointError))
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC + struct.pack(
                "<IQQQBB", CHECKPOINT_VERSION, params.num_users,
                params.num_locations, params.dim, int(mask.use_short),
                int(mask.use_long)))
            for name in TENSOR_NAMES:
                handle.write(np.ascontiguousarray(params.tensor(name),
                                                  dtype="<f8"))
            handle.write(tables)
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
        if use_short > 1 or use_long > 1:
            raise CheckpointError(f"{path}: variant flags must be 0 or 1")
        mask = VariantMask(use_short=bool(use_short), use_long=bool(use_long))
        tensors = {}
        for name, shape in tensor_shapes(num_users, num_locations, dim).items():
            tensor = _read_into(handle, shape, "<f8", f"tensor {name}",
                                CheckpointError)
            # NaN and inf reach the row sums; finite entries may overflow
            with np.errstate(over="ignore", invalid="ignore"):
                sums = tensor @ np.ones(shape[-1])
            if not (np.isfinite(sums).all() or np.isfinite(tensor).all()):
                raise CheckpointError(f"{path}: non-finite value in tensor "
                                      f"{name}")
            tensors[name] = tensor
        user_ids = _read_string_table(handle, CheckpointError)
        location_ids = _read_string_table(handle, CheckpointError)
        if handle.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the location "
                                  "vocabulary")
    if len(user_ids) != num_users or len(location_ids) != num_locations:
        raise CheckpointError(f"{path}: vocab sizes disagree with header")
    if (len(set(user_ids)) != num_users
            or len(set(location_ids)) != num_locations):
        raise CheckpointError(f"{path}: duplicate id in a vocabulary")
    return ModelParams(**tensors), mask, user_ids, location_ids
