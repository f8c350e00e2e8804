"""Check-in and friendship data handling.

Parses the raw TSV dumps, filters inactive users/locations, segments each
user's check-in sequence into subtrajectories at six-hour gaps, builds
integer vocabularies, produces train/validation/test splits, and computes
the overlap-coefficient correlation statistics between friendship and
visited-location sets.
"""

from __future__ import annotations

import calendar
import math
import os
import struct
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

SIX_HOURS = 21600

CHECKIN_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


class ParseError(ValueError):
    """Raised for malformed input lines; carries the 1-based line number."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


@dataclass(slots=True)
class CheckIn:
    user: str
    location: str
    timestamp: int


@dataclass
class Trajectory:
    """One user's full check-in sequence with its subtrajectory segmentation."""

    user_index: int
    locations: np.ndarray       # int64, internal location ids
    timestamps: np.ndarray      # int64, epoch seconds, non-decreasing
    subtrajectory_bounds: list  # [(start, end)] partitioning [0, N)

    def __len__(self):
        return len(self.locations)

    @property
    def num_subtrajectories(self):
        return len(self.subtrajectory_bounds)


@dataclass
class SocialGraph:
    """G = (V, E). Each directed edge (i, j), i != j, is the key i * |V| + j:
    directed_edges holds them sorted and distinct (int64), and adjacency[i]
    is user i's ascending int64 array of out-neighbors."""

    num_users: int
    directed_edges: np.ndarray
    adjacency: list


@dataclass
class Vocab:
    """Bidirectional external-id <-> internal-index table."""

    ids: list
    index: dict

    @classmethod
    def from_sorted_ids(cls, external_ids):
        ids = sorted(set(external_ids))
        return cls(ids=ids, index={ext: i for i, ext in enumerate(ids)})

    def __len__(self):
        return len(self.ids)


@dataclass
class Dataset:
    graph: SocialGraph
    trajectories: list          # Trajectory per user index
    user_vocab: Vocab
    location_vocab: Vocab

    @property
    def num_users(self):
        return len(self.user_vocab)

    @property
    def num_locations(self):
        return len(self.location_vocab)

    @property
    def num_checkins(self):
        return sum(len(t) for t in self.trajectories)

    @property
    def num_subtrajectories(self):
        return sum(t.num_subtrajectories for t in self.trajectories)


@dataclass
class Splits:
    """Per-user subtrajectory ranges and the link hold-out.

    For user u the subtrajectory ranges are train [0, train_end[u]),
    validation [train_end[u], test_start[u]) and test [test_start[u], m_u).
    Validation subtrajectories are the tail of the training block and are
    excluded from gradient updates. train_edges and test_edges split the
    graph's directed-edge keys i * |V| + j (each sorted, distinct int64),
    with both directions of a friendship on the same side.
    """

    train_end: np.ndarray
    test_start: np.ndarray
    train_edges: np.ndarray
    test_edges: np.ndarray


def _tsv_rows(path, width):
    """Yield (line number, fields) of each non-blank line of a TSV whose lines
    must hold `width` tab-separated fields."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ParseError(path, line_number, f"expected {width} "
                                 f"tab-separated fields, got {len(fields)}")
            yield line_number, fields


def parse_checkins(path):
    """Parse a check-in TSV (user, ISO-8601 UTC time, lat, lon, location).

    Latitude/longitude are validated as floats and discarded.
    """
    checkins = []
    for line_number, (user, stamp, lat, lon, location) in _tsv_rows(path, 5):
        try:
            epoch = calendar.timegm(time.strptime(stamp, CHECKIN_TIME_FORMAT))
        except ValueError as exc:
            raise ParseError(path, line_number, f"bad timestamp {stamp!r}") from exc
        try:
            float(lat), float(lon)
        except ValueError as exc:
            raise ParseError(path, line_number, "bad coordinate") from exc
        if epoch < 0:
            raise ParseError(path, line_number, f"negative epoch from {stamp!r}")
        checkins.append(CheckIn(user=user, location=location, timestamp=epoch))
    return checkins


def parse_edges(path):
    """Parse an edge TSV of tab-separated user-id pairs (raw, undeduplicated)."""
    return [(a, b) for _, (a, b) in _tsv_rows(path, 2)]


def filter_dataset(checkins, edges, min_user_checkins, min_loc_checkins):
    """Drop inactive users, then rare locations, then emptied users.

    Single pass: users below min_user_checkins go first, location counts are
    taken after that removal, and users left with zero check-ins are dropped
    at the end. Edges are restricted to surviving users.
    """
    if min_user_checkins < 0 or min_loc_checkins < 0:
        raise ValueError("thresholds must be >= 0")
    user_counts = Counter(c.user for c in checkins)
    kept_users = {u for u, n in user_counts.items() if n >= min_user_checkins}
    stage1 = [c for c in checkins if c.user in kept_users]

    loc_counts = Counter(c.location for c in stage1)
    kept_locs = {l for l, n in loc_counts.items() if n >= min_loc_checkins}
    stage2 = [c for c in stage1 if c.location in kept_locs]

    survivors = {c.user for c in stage2}
    kept_edges = [(a, b) for a, b in edges if a in survivors and b in survivors]
    return stage2, kept_edges


def split_into_subtrajectories(timestamps, gap_seconds=SIX_HOURS):
    """Segment at every gap strictly greater than gap_seconds.

    Returns (start, end) bounds partitioning [0, len(timestamps)).
    """
    if len(timestamps) == 0:
        return []
    cuts = np.flatnonzero(np.diff(timestamps) > gap_seconds) + 1
    edges = [0, *cuts.tolist(), len(timestamps)]
    return list(zip(edges[:-1], edges[1:]))


def build_dataset(checkins, edges):
    """Assemble vocabularies, per-user sorted trajectories, and the graph.

    Vocabularies index external ids in sorted order. Check-ins are sorted by
    timestamp per user with input order breaking ties. Each undirected edge
    pair becomes two directed edges; self-loops and duplicates are dropped.
    """
    user_vocab = Vocab.from_sorted_ids(c.user for c in checkins)
    location_vocab = Vocab.from_sorted_ids(c.location for c in checkins)

    per_user = defaultdict(list)
    for c in checkins:
        per_user[user_vocab.index[c.user]].append(c)

    trajectories = []
    for u in range(len(user_vocab)):
        records = sorted(per_user[u], key=lambda c: c.timestamp)  # stable
        locs = np.array([location_vocab.index[c.location] for c in records],
                        dtype=np.int64)
        ts = np.array([c.timestamp for c in records], dtype=np.int64)
        trajectories.append(Trajectory(
            user_index=u, locations=locs, timestamps=ts,
            subtrajectory_bounds=split_into_subtrajectories(ts)))

    n, index = len(user_vocab), user_vocab.index
    i, j = np.array([(index.get(a, -1), index.get(b, -1)) for a, b in edges],
                    dtype=np.int64).reshape(-1, 2).T
    i, j = np.compress((np.minimum(i, j) >= 0) & (i != j), (i, j), axis=1)
    graph = build_graph(n, np.unique(np.concatenate([i * n + j, j * n + i])))
    return Dataset(graph=graph, trajectories=trajectories,
                   user_vocab=user_vocab, location_vocab=location_vocab)


def build_graph(num_users, keys):
    """The graph of these sorted, distinct edge keys: user i's adjacency is
    the tails of the keys in [i |V|, (i + 1) |V|)."""
    ends = np.searchsorted(keys, np.arange(num_users + 1) * num_users).tolist()
    tails = keys % num_users
    return SocialGraph(num_users=num_users, directed_edges=keys, adjacency=[
        tails[a:b] for a, b in zip(ends, ends[1:])])


def make_splits(dataset, trajectory_train_frac=0.9, validation_frac_of_train=0.1,
                link_train_ratio=0.5, seed=0):
    """Hold out the tail of each user's subtrajectories and a random link subset.

    The first ceil(trajectory_train_frac * m_u) subtrajectories of user u form
    the training block, the rest are test. Within the training block, the
    largest suffix of subtrajectories holding at most validation_frac_of_train
    of the block's check-ins is flagged validation (possibly empty; at least
    one subtrajectory always stays in train). Undirected link pairs are
    shuffled with the seeded RNG and the first floor(link_train_ratio * n)
    pairs train; both directions of a pair stay on the same side.
    """
    if not (0 < trajectory_train_frac <= 1) or not (0 < validation_frac_of_train <= 1):
        raise ValueError("fractions must lie in (0, 1]")
    if not (0 < link_train_ratio < 1):
        raise ValueError("link_train_ratio must lie in (0, 1)")

    num_users = dataset.num_users
    train_end = np.zeros(num_users, dtype=np.int64)
    test_start = np.zeros(num_users, dtype=np.int64)
    for u, traj in enumerate(dataset.trajectories):
        bounds = traj.subtrajectory_bounds
        m = len(bounds)
        k = math.ceil(trajectory_train_frac * m)
        sizes = [e - b for b, e in bounds[:k]]
        budget = validation_frac_of_train * sum(sizes)
        t = k
        taken = 0
        while t > 1 and taken + sizes[t - 1] <= budget:
            taken += sizes[t - 1]
            t -= 1
        train_end[u] = t
        test_start[u] = k

    # the pairs i < j in key order, which is sorted (i, j) order, shuffled
    keys = dataset.graph.directed_edges
    pairs = keys[keys // num_users < keys % num_users]
    pairs = pairs[np.random.default_rng(seed).permutation(len(pairs))]
    i, j = np.divmod(pairs, num_users)
    both = np.stack([pairs, j * num_users + i])
    n_train = int(link_train_ratio * len(pairs))
    return Splits(train_end=train_end, test_start=test_start,
                  train_edges=np.sort(both[:, :n_train], axis=None),
                  test_edges=np.sort(both[:, n_train:], axis=None))


def full_train_splits(dataset):
    """Splits with every subtrajectory and edge assigned to training."""
    m = np.array([t.num_subtrajectories for t in dataset.trajectories],
                 dtype=np.int64)
    return Splits(train_end=m, test_start=m,
                  train_edges=dataset.graph.directed_edges,
                  test_edges=np.zeros(0, dtype=np.int64))


def overlap_coefficient(set_a, set_b):
    """|A n B| / min(|A|, |B|); 0.0 when either set is empty."""
    if not set_a or not set_b:
        return 0.0
    inter = len(set_a & set_b)
    return inter / min(len(set_a), len(set_b))


@dataclass
class CorrelationReport:
    """Sampled friendship/trajectory correlation estimates (None = undefined)."""

    mean_overlap_friend_pairs: float | None
    mean_overlap_nonfriend_pairs: float | None
    prob_friendship: float | None
    prob_friendship_given_common_locations: float | None
    num_friend_pairs_sampled: int
    num_random_pairs_sampled: int
    num_common_location_pairs: int


def _sample_unordered_pairs(num_users, count, rng):
    total = num_users * (num_users - 1) // 2
    if total <= count:
        return [(i, j) for i in range(num_users) for j in range(i + 1, num_users)]
    pairs = []
    seen = set()
    while len(pairs) < count:
        draw = rng.integers(0, num_users, size=2 * (count - len(pairs)) + 8)
        for a, b in zip(draw[0::2], draw[1::2]):
            if a == b:
                continue
            key = (min(int(a), int(b)), max(int(a), int(b)))
            if key in seen:
                continue
            seen.add(key)
            pairs.append(key)
            if len(pairs) == count:
                break
    return pairs


def correlation_report(dataset, num_pair_samples=10000, seed=0):
    """Estimate friendship/visited-location correlation by seeded sampling.

    Reports the mean overlap coefficient over friend and non-friend pairs,
    the probability that two random users are friends, and that probability
    conditioned on sharing more than 3 visited locations. When fewer pairs
    exist than requested, all of them are used.
    """
    rng = np.random.default_rng(seed)
    location_sets = [set(t.locations.tolist()) for t in dataset.trajectories]
    keys, n = dataset.graph.directed_edges, dataset.num_users

    friend_sample = keys[keys // n < keys % n]
    if len(friend_sample) > num_pair_samples:
        friend_sample = friend_sample[rng.choice(
            len(friend_sample), size=num_pair_samples, replace=False)]
    friend_mean = None
    if len(friend_sample):
        friend_mean = float(np.mean([
            overlap_coefficient(location_sets[i], location_sets[j])
            for i, j in zip(*(a.tolist() for a in np.divmod(friend_sample, n)))]))

    random_pairs = _sample_unordered_pairs(n, num_pair_samples, rng)
    friends = np.isin([i * n + j for i, j in random_pairs], keys).tolist()
    nonfriend_overlaps = []
    n_friends = 0
    n_common = 0
    n_common_friends = 0
    for (i, j), is_friend in zip(random_pairs, friends):
        if is_friend:
            n_friends += 1
        else:
            nonfriend_overlaps.append(
                overlap_coefficient(location_sets[i], location_sets[j]))
        if len(location_sets[i] & location_sets[j]) > 3:
            n_common += 1
            if is_friend:
                n_common_friends += 1

    return CorrelationReport(
        mean_overlap_friend_pairs=friend_mean,
        mean_overlap_nonfriend_pairs=(float(np.mean(nonfriend_overlaps))
                                      if nonfriend_overlaps else None),
        prob_friendship=(n_friends / len(random_pairs) if random_pairs else None),
        prob_friendship_given_common_locations=(n_common_friends / n_common
                                                if n_common else None),
        num_friend_pairs_sampled=len(friend_sample),
        num_random_pairs_sampled=len(random_pairs),
        num_common_location_pairs=n_common,
    )


# ---------------------------------------------------------------------------
# Binary dataset cache.
#
# Layout (all little-endian): magic "LBSN", u32 version, u64 |V|, u64 |L|,
# user vocab, location vocab (u64 entry count, u64 byte length, the ids
# joined by "\n" as UTF-8), |V| + 1 u64 offsets (0 first, never falling;
# user u's check-ins are offsets[u] .. offsets[u + 1] - 1), every location
# id (u64), then every timestamp (i64), in user order, then a u64
# directed-edge count followed by (u64, u64) pairs (written in ascending
# key order), which end the file.
# ---------------------------------------------------------------------------

DATASET_MAGIC = b"LBSN"
DATASET_VERSION = 2


class FormatError(ValueError):
    pass


def _string_table(strings, error=FormatError):
    """The bytes of a vocabulary table; an id holding "\\n" is refused, as it
    would split in two on load."""
    text = "\n".join(strings)
    if text.count("\n") != max(len(strings) - 1, 0):
        raise error("a vocabulary id contains a newline")
    raw = text.encode("utf-8")
    return struct.pack("<QQ", len(strings), len(raw)) + raw


# Reads larger than this are first checked against the bytes left in the
# file, so a corrupt count never asks read for more than the file holds;
# smaller ones go straight to read, whose short result is caught after it.
# (The check costs two system calls.)
CHECKED_READ_BYTES = 1 << 16


def _check_size(handle, size, what, error):
    """Raise `error` before a read of `size` bytes, beyond CHECKED_READ_BYTES
    and the bytes left in the file (a cut file or a corrupt count)."""
    if size > CHECKED_READ_BYTES:
        left = os.fstat(handle.fileno()).st_size - handle.tell()
        if size > left:
            raise error(f"{handle.name}: truncated {what} ({size} bytes "
                        f"wanted, {left} left)")


def _read_exact(handle, size, what, error=FormatError):
    """Read exactly `size` bytes or raise `error` naming the file and field."""
    _check_size(handle, size, what, error)
    buf = handle.read(size)
    if len(buf) != size:
        raise error(f"{handle.name}: truncated {what}")
    return buf


def _read_into(handle, shape, dtype, what, error=FormatError):
    """Read an array of this shape and dtype straight into a new array, with
    the checks of _read_exact."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    _check_size(handle, size, what, error)
    out = np.empty(shape, dtype=dtype)
    if handle.readinto(out) != size:
        raise error(f"{handle.name}: truncated {what}")
    return out


def _read_string_table(handle, error=FormatError):
    count, length = struct.unpack("<QQ", _read_exact(handle, 16, "vocabulary",
                                                     error))
    raw = _read_exact(handle, length, "vocabulary", error)
    try:
        ids = raw.decode("utf-8").split("\n") if count or raw else []
    except UnicodeDecodeError:
        raise error(f"{handle.name}: vocabulary entry is not UTF-8") from None
    if len(ids) != count:
        raise error(f"{handle.name}: vocabulary of {count} entries holds "
                    f"{len(ids)}")
    return ids


def save_dataset(dataset, path):
    tables = (_string_table(dataset.user_vocab.ids)
              + _string_table(dataset.location_vocab.ids))
    trajectories = dataset.trajectories
    offsets = np.cumsum([0] + [len(t) for t in trajectories], dtype="<u8")
    # cast unsafely: uint64 ids beside int64 arrays stay u64, not float64
    columns = [np.concatenate([np.zeros(0, dtype)] + [
        getattr(t, name) for t in trajectories], dtype=dtype, casting="unsafe")
        for name, dtype in (("locations", "<u8"), ("timestamps", "<i8"))]
    edges = np.stack(np.divmod(dataset.graph.directed_edges,
                               dataset.num_users), axis=1).astype("<u8")
    with open(path, "wb") as handle:
        handle.write(DATASET_MAGIC + struct.pack(
            "<IQQ", DATASET_VERSION, dataset.num_users, dataset.num_locations))
        handle.write(tables)
        for array in (offsets, *columns):
            handle.write(array)
        handle.write(struct.pack("<Q", len(edges)) + edges.tobytes())


def _user_error(path, offsets, position, what):
    """A FormatError naming the user of the check-in at this position."""
    user = np.searchsorted(offsets, position, side="right") - 1
    return FormatError(f"{path}: user {user} has {what}")


def load_dataset(path):
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != DATASET_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version, num_users, num_locations = struct.unpack(
            "<IQQ", _read_exact(handle, 20, "header"))
        if version != DATASET_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        user_ids = _read_string_table(handle)
        location_ids = _read_string_table(handle)
        if len(user_ids) != num_users or len(location_ids) != num_locations:
            raise FormatError(f"{path}: vocab sizes disagree with header")
        offsets = _read_into(handle, (num_users + 1,), "<u8", "offsets")
        if offsets[0] != 0 or (offsets[1:] < offsets[:-1]).any():
            raise FormatError(f"{path}: check-in offsets must start at 0 "
                              "and never fall")
        total = int(offsets[-1])
        locations = _read_into(handle, (total,), "<u8", "locations")
        timestamps = _read_into(handle, (total,), "<i8", "timestamps")
        offsets = offsets.astype(np.int64)     # at most total, now read
        if total and locations.max() >= num_locations:
            bad = np.flatnonzero(locations >= num_locations)
            raise _user_error(path, offsets, bad[0], "location id "
                              f"{locations[bad[0]]} outside [0, {num_locations})")
        # a timestamp may fall only where a new user's check-ins begin
        falls = timestamps[1:] < timestamps[:-1]
        starts = offsets[:-1][offsets[:-1] < total]
        falls[starts[starts > 0] - 1] = False
        bad = np.flatnonzero(np.append(falls, False) | (timestamps < 0))
        if len(bad):
            raise _user_error(path, offsets, bad[0],
                              "a negative or falling timestamp")
        (edge_count,) = struct.unpack("<Q", _read_exact(handle, 8, "edges"))
        edges = _read_into(handle, (edge_count, 2), "<u8", "edges")
        if handle.read(1):
            raise FormatError(f"{path}: trailing bytes after the edges")
        if len(edges) and edges.max() >= num_users:
            i, j = edges[np.flatnonzero(edges.max(axis=1) >= num_users)[0]]
            raise FormatError(f"{path}: edge ({i}, {j}) has an endpoint "
                              f"outside [0, {num_users})")
        # friendship is undirected: every edge is stored in both directions
        i, j = edges.T.astype(np.int64)
        keys, reverse = np.sort(i * num_users + j), j * num_users + i
        at = np.minimum(np.searchsorted(keys, reverse), len(keys) - 1)
        bad = np.flatnonzero((i == j) | (keys[at] != reverse))
        if len(bad):
            raise FormatError(f"{path}: edge ({i[bad[0]]}, {j[bad[0]]}) is a "
                              "self-loop or lacks its reverse")
        repeats = keys[1:][keys[1:] == keys[:-1]]
        if len(repeats):
            raise FormatError(f"{path}: edge {divmod(int(repeats[0]), num_users)} "
                              "is stored more than once")
    # One gap scan over all users: a subtrajectory starts at each user's
    # first check-in and after each gap of more than SIX_HOURS.
    first = np.zeros(total, dtype=bool)
    first[1:] = np.diff(timestamps) > SIX_HOURS
    first[starts] = True
    heads = np.flatnonzero(first)
    per_user = np.searchsorted(heads, offsets).tolist()
    base = np.repeat(offsets[:-1], np.diff(per_user))
    bounds = list(zip((heads - base).tolist(),
                      (np.append(heads[1:], total) - base).tolist()))
    locations, ends = locations.view(np.int64), offsets.tolist()
    trajectories = [Trajectory(user_index=u, locations=locations[a:b],
                               timestamps=timestamps[a:b],
                               subtrajectory_bounds=bounds[i:j])
                    for u, (a, b, i, j) in enumerate(zip(
                        ends, ends[1:], per_user, per_user[1:]))]
    graph = build_graph(num_users, keys)
    user_vocab = Vocab(ids=user_ids, index=dict(zip(user_ids, range(num_users))))
    location_vocab = Vocab(ids=location_ids, index=dict(
        zip(location_ids, range(num_locations))))
    if (len(user_vocab.index) != num_users
            or len(location_vocab.index) != num_locations):
        raise FormatError(f"{path}: duplicate id in a vocabulary")
    return Dataset(graph=graph, trajectories=trajectories,
                   user_vocab=user_vocab, location_vocab=location_vocab)
