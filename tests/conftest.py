import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lbsnrec import data as lbsn_data


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


def corrupt_cache(dataset, path, location=None, edge=None):
    """Save `dataset` as a cache with its first location id replaced and/or
    one extra directed edge; ids may lie outside the vocabularies."""
    if location is not None:
        locs = dataset.trajectories[0].locations.astype(np.uint64)
        locs[0] = location
        dataset.trajectories[0].locations = locs
    if edge is not None:
        dataset.graph.directed_edges.add(edge)
    lbsn_data.save_dataset(dataset, path)
    return path


@pytest.fixture
def two_user_dataset():
    checkins = make_checkins({
        "a": [["x", "y"], ["y"]],
        "b": [["y", "x", "x"]],
    })
    return lbsn_data.build_dataset(checkins, [("a", "b")])
