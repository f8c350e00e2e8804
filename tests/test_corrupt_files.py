"""Every truncation and every single-bit flip of a small dataset cache and
checkpoint either loads into well-formed objects or raises the loader's
named error (FormatError / CheckpointError).

The cases are enumerated, not sampled, so the sweep is complete and
deterministic. Warnings are errors: an integer overflow warning means a
corrupt value got past the loader.
"""

import numpy as np
import pytest

from lbsnrec import data as lbsn_data
from lbsnrec import synth
from lbsnrec.model import (CheckpointError, FULL_VARIANT, load_checkpoint,
                           save_checkpoint, tensor_shapes)

from property_checks import random_params

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """A ~0.9 KB synth cache and a ~1.5 KB checkpoint for it (d = 2)."""
    root = tmp_path_factory.mktemp("small")
    dataset = synth.generate(synth.SynthConfig(
        users_per_community=3, locations_per_community=3, shared_locations=2,
        subtrajectories_per_user=3, locations_per_subtrajectory=2, seed=0))
    cache = root / "d.bin"
    lbsn_data.save_dataset(dataset, cache)
    params = random_params(np.random.default_rng(0), dataset.num_users,
                           dataset.num_locations, 2)
    checkpoint = root / "m.jntm"
    save_checkpoint(checkpoint, params, FULL_VARIANT, dataset.user_vocab.ids,
                    dataset.location_vocab.ids)
    return {"cache": cache.read_bytes(), "checkpoint": checkpoint.read_bytes(),
            "case": root / "case"}


def _check_dataset(path):
    dataset = lbsn_data.load_dataset(path)
    assert len(dataset.trajectories) == dataset.num_users
    assert len(dataset.user_vocab.ids) == dataset.num_users
    for traj in dataset.trajectories:
        ts = traj.timestamps
        assert len(traj.locations) == len(ts)
        assert np.all(traj.locations >= 0)
        assert np.all(traj.locations < dataset.num_locations)
        assert len(ts) == 0 or (ts[0] >= 0 and np.all(ts[1:] >= ts[:-1]))
        assert traj.subtrajectory_bounds == \
            lbsn_data.split_into_subtrajectories(ts)
    for i, j in dataset.graph.directed_edges:
        assert 0 <= i < dataset.num_users and 0 <= j < dataset.num_users


def _check_checkpoint(path):
    params, _, user_ids, location_ids = load_checkpoint(path)
    for name, shape in tensor_shapes(len(user_ids), len(location_ids),
                                     params.dim).items():
        assert params.tensor(name).shape == shape


LOADERS = {"cache": (_check_dataset, lbsn_data.FormatError),
           "checkpoint": (_check_checkpoint, CheckpointError)}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_truncation_raises_named_error(small_files, kind):
    # every byte of either format is read, so every proper prefix is short
    check, error = LOADERS[kind]
    raw, path = small_files[kind], small_files["case"]
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(error):
            check(path)
    path.write_bytes(raw)
    check(path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_bit_flip_loads_or_raises_named_error(small_files, kind):
    check, error = LOADERS[kind]
    raw, path = small_files[kind], small_files["case"]
    rejected = 0
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            check(path)
        except error:
            rejected += 1
    # both outcomes occur: most header and count flips are rejected, most
    # payload flips load
    assert 0 < rejected < 8 * len(raw)
