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
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone

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
    num_users: int
    directed_edges: set         # {(i, j)} ordered pairs, no self-pairs
    adjacency: list             # per-user sorted int64 array of out-neighbors

    @property
    def num_directed_edges(self):
        return len(self.directed_edges)


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
    excluded from gradient updates.
    """

    train_end: np.ndarray
    test_start: np.ndarray
    train_edges: set
    test_edges: set


def _parse_timestamp(text):
    parsed = time.strptime(text, CHECKIN_TIME_FORMAT)
    return calendar.timegm(parsed)


def parse_checkins(path):
    """Parse a check-in TSV (user, ISO-8601 UTC time, lat, lon, location).

    Latitude/longitude are validated as floats and discarded.
    """
    checkins = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ParseError(path, line_number,
                                 f"expected 5 tab-separated fields, got {len(fields)}")
            user, stamp, lat, lon, location = fields
            try:
                epoch = _parse_timestamp(stamp)
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
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(path, line_number,
                                 f"expected 2 tab-separated fields, got {len(fields)}")
            pairs.append((fields[0], fields[1]))
    return pairs


def filter_dataset(checkins, edges, min_user_checkins, min_loc_checkins):
    """Drop inactive users, then rare locations, then emptied users.

    Single pass: users below min_user_checkins go first, location counts are
    taken after that removal, and users left with zero check-ins are dropped
    at the end. Edges are restricted to surviving users.
    """
    if min_user_checkins < 0 or min_loc_checkins < 0:
        raise ValueError("thresholds must be >= 0")
    user_counts = defaultdict(int)
    for c in checkins:
        user_counts[c.user] += 1
    kept_users = {u for u, n in user_counts.items() if n >= min_user_checkins}
    stage1 = [c for c in checkins if c.user in kept_users]

    loc_counts = defaultdict(int)
    for c in stage1:
        loc_counts[c.location] += 1
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

    directed = set()
    for a, b in edges:
        ia = user_vocab.index.get(a)
        ib = user_vocab.index.get(b)
        if ia is None or ib is None or ia == ib:
            continue
        directed.add((ia, ib))
        directed.add((ib, ia))
    graph = build_graph(len(user_vocab), directed)
    return Dataset(graph=graph, trajectories=trajectories,
                   user_vocab=user_vocab, location_vocab=location_vocab)


def build_graph(num_users, directed_edges):
    neighbors = defaultdict(list)
    for i, j in directed_edges:
        neighbors[i].append(j)
    adjacency = [np.array(sorted(neighbors[u]), dtype=np.int64)
                 for u in range(num_users)]
    return SocialGraph(num_users=num_users, directed_edges=set(directed_edges),
                       adjacency=adjacency)


def undirected_pairs(edges):
    return sorted({(min(i, j), max(i, j)) for i, j in edges})


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

    pairs = undirected_pairs(dataset.graph.directed_edges)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    n_train = int(link_train_ratio * len(pairs))
    train_edges, test_edges = set(), set()
    for rank, pair_idx in enumerate(order):
        i, j = pairs[pair_idx]
        target = train_edges if rank < n_train else test_edges
        target.add((i, j))
        target.add((j, i))
    return Splits(train_end=train_end, test_start=test_start,
                  train_edges=train_edges, test_edges=test_edges)


def full_train_splits(dataset):
    """Splits with every subtrajectory and edge assigned to training."""
    m = np.array([t.num_subtrajectories for t in dataset.trajectories],
                 dtype=np.int64)
    return Splits(train_end=m, test_start=m,
                  train_edges=set(dataset.graph.directed_edges), test_edges=set())


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
    edge_set = dataset.graph.directed_edges

    friend_pairs = undirected_pairs(edge_set)
    if len(friend_pairs) > num_pair_samples:
        chosen = rng.choice(len(friend_pairs), size=num_pair_samples, replace=False)
        friend_sample = [friend_pairs[int(i)] for i in chosen]
    else:
        friend_sample = friend_pairs
    friend_mean = None
    if friend_sample:
        friend_mean = float(np.mean([
            overlap_coefficient(location_sets[i], location_sets[j])
            for i, j in friend_sample]))

    random_pairs = _sample_unordered_pairs(dataset.num_users, num_pair_samples, rng)
    nonfriend_overlaps = []
    n_friends = 0
    n_common = 0
    n_common_friends = 0
    for i, j in random_pairs:
        is_friend = (i, j) in edge_set
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
# user vocab, location vocab (u64 entry count, each string u32 byte length +
# UTF-8 bytes), then per user in index order a u64-length-prefixed array of
# u64 location ids and a u64-length-prefixed array of i64 timestamps, then a
# u64 directed-edge count followed by (u64, u64) pairs.
# ---------------------------------------------------------------------------

DATASET_MAGIC = b"LBSN"
DATASET_VERSION = 1


class FormatError(ValueError):
    pass


def _write_string_table(handle, strings):
    pack_length = struct.Struct("<I").pack
    parts = [struct.pack("<Q", len(strings))]
    for s in strings:
        raw = s.encode("utf-8")
        parts.append(pack_length(len(raw)))
        parts.append(raw)
    handle.write(b"".join(parts))


# Reads larger than this are first checked against the bytes left in the
# file, so a corrupt count never asks read for more than the file holds;
# smaller ones go straight to read, whose short result is caught after it.
# (The check costs two system calls, about 15% of loading a small cache if
# made for every read.)
CHECKED_READ_BYTES = 1 << 16


def _bytes_left(handle):
    return os.fstat(handle.fileno()).st_size - handle.tell()


def _read_exact(handle, size, what, error=FormatError):
    """Read exactly `size` bytes or raise `error` naming the file and field.

    A size beyond CHECKED_READ_BYTES and the bytes left in the file (a cut
    file or a corrupt count) raises before anything is read.
    """
    if size > CHECKED_READ_BYTES:
        left = _bytes_left(handle)
        if size > left:
            raise error(f"{handle.name}: truncated {what} ({size} bytes "
                        f"wanted, {left} left)")
    buf = handle.read(size)
    if len(buf) != size:
        raise error(f"{handle.name}: truncated {what}")
    return buf


def _read_string_table(handle, error=FormatError):
    (count,) = struct.unpack("<Q", _read_exact(handle, 8, "vocabulary", error))
    # Every entry needs at least its 4-byte length.
    left = _bytes_left(handle)
    if 4 * count > left:
        raise error(f"{handle.name}: truncated vocabulary ({count} entries, "
                    f"{left} bytes left)")
    # Inlined reads: this loop runs once per location and dominates loading.
    read = handle.read
    unpack_length = struct.Struct("<I").unpack
    checked = CHECKED_READ_BYTES
    out = []
    try:
        for _ in range(count):
            head = read(4)
            if len(head) != 4:
                raise error(f"{handle.name}: truncated vocabulary")
            (length,) = unpack_length(head)
            if length > checked and length > _bytes_left(handle):
                raise error(f"{handle.name}: truncated vocabulary (entry of "
                            f"{length} bytes)")
            raw = read(length)
            if len(raw) != length:
                raise error(f"{handle.name}: truncated vocabulary")
            out.append(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise error(f"{handle.name}: vocabulary entry is not UTF-8") from None
    return out


def _write_array(handle, arr, dtype):
    handle.write(struct.pack("<Q", len(arr)))
    handle.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _read_array(handle, dtype, what):
    (count,) = struct.unpack("<Q", _read_exact(handle, 8, what))
    itemsize = np.dtype(dtype).itemsize
    return np.frombuffer(_read_exact(handle, count * itemsize, what),
                         dtype=dtype).copy()


def save_dataset(dataset, path):
    with open(path, "wb") as handle:
        handle.write(DATASET_MAGIC)
        handle.write(struct.pack("<I", DATASET_VERSION))
        handle.write(struct.pack("<QQ", dataset.num_users, dataset.num_locations))
        _write_string_table(handle, dataset.user_vocab.ids)
        _write_string_table(handle, dataset.location_vocab.ids)
        for traj in dataset.trajectories:
            _write_array(handle, traj.locations, "<u8")
            _write_array(handle, traj.timestamps, "<i8")
        edges = sorted(dataset.graph.directed_edges)
        handle.write(struct.pack("<Q", len(edges)))
        for i, j in edges:
            handle.write(struct.pack("<QQ", i, j))


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
        trajectories = []
        for u in range(num_users):
            locs = _read_array(handle, "<u8", "locations")
            if len(locs) and locs.max() >= num_locations:
                raise FormatError(f"{path}: user {u} has location id "
                                  f"{int(locs.max())} outside [0, {num_locations})")
            locs = locs.astype(np.int64)
            ts = _read_array(handle, "<i8", "timestamps")
            if len(ts) != len(locs) or len(ts) and (
                    ts[0] < 0 or (ts[1:] < ts[:-1]).any()):
                raise FormatError(f"{path}: user {u} needs one non-negative, "
                                  "non-decreasing timestamp per location")
            trajectories.append(Trajectory(
                user_index=u, locations=locs, timestamps=ts,
                subtrajectory_bounds=split_into_subtrajectories(ts)))
        (edge_count,) = struct.unpack("<Q", _read_exact(handle, 8, "edges"))
        edges = np.frombuffer(_read_exact(handle, edge_count * 16, "edges"),
                              dtype="<u8").reshape(-1, 2)
        if len(edges) and edges.max() >= num_users:
            i, j = edges[np.flatnonzero(edges.max(axis=1) >= num_users)[0]]
            raise FormatError(f"{path}: edge ({i}, {j}) has an endpoint "
                              f"outside [0, {num_users})")
        directed = set(map(tuple, edges.tolist()))
    graph = build_graph(num_users, directed)
    user_vocab = Vocab(ids=user_ids, index={s: i for i, s in enumerate(user_ids)})
    location_vocab = Vocab(ids=location_ids,
                           index={s: i for i, s in enumerate(location_ids)})
    return Dataset(graph=graph, trajectories=trajectories,
                   user_vocab=user_vocab, location_vocab=location_vocab)


def format_timestamp(epoch):
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(
        CHECKIN_TIME_FORMAT)


def write_checkins_tsv(checkins, path):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for c in checkins:
            handle.write(f"{c.user}\t{format_timestamp(c.timestamp)}\t"
                         f"0.0\t0.0\t{c.location}\n")


def write_edges_tsv(pairs, path):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for a, b in pairs:
            handle.write(f"{a}\t{b}\n")
