import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lbsnrec import data as lbsn_data

from property_checks import edge_pairs


def make_checkins(layout, start=1_000_000, intra_gap=3600, inter_gap=30000):
    """layout: {user: [[loc, loc, ...], ...]} -> CheckIn list, one inner list
    per subtrajectory."""
    checkins = []
    for user, subtrajectories in layout.items():
        t = start
        for locations in subtrajectories:
            for loc in locations:
                checkins.append(lbsn_data.CheckIn(user, loc, t))
                t += intra_gap
            t += inter_gap - intra_gap
    return checkins


def cache_with_edges(dataset, path, edges):
    """Save `dataset` as a cache whose edge section holds `edges`, in this
    order (save_dataset writes them in key order); the section ends the
    file."""
    lbsn_data.save_dataset(dataset, path)
    stored = 8 + 16 * len(dataset.graph.directed_edges)
    path.write_bytes(path.read_bytes()[:-stored] + struct.pack("<Q", len(edges))
                     + np.array(edges, dtype="<u8").reshape(-1, 2).tobytes())
    return path


def corrupt_cache(dataset, path, location=None, edge=None):
    """Save `dataset` as a cache with its first location id replaced and/or
    one extra directed edge, stored in sorted order among the others; ids
    may lie outside the vocabularies."""
    if location is not None:
        locs = dataset.trajectories[0].locations.astype(np.uint64)
        locs[0] = location
        dataset.trajectories[0].locations = locs
    if edge is None:
        lbsn_data.save_dataset(dataset, path)
        return path
    graph = dataset.graph
    return cache_with_edges(dataset, path, sorted(
        edge_pairs(graph.num_users, graph.directed_edges) | {edge}))


@pytest.fixture
def two_user_dataset():
    checkins = make_checkins({
        "a": [["x", "y"], ["y"]],
        "b": [["y", "x", "x"]],
    })
    return lbsn_data.build_dataset(checkins, [("a", "b")])
