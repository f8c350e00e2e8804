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

from conftest import cache_with_edges
from property_checks import edge_pairs, random_params

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
    edges = edge_pairs(dataset.num_users, dataset.graph.directed_edges)
    for i, j in edges:
        assert 0 <= i < dataset.num_users and 0 <= j < dataset.num_users
        assert i != j and (j, i) in edges


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


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_one_appended_byte_raises_named_error(small_files, kind):
    # a bit flip that lowers the cache's edge count leaves bytes behind too
    check, error = LOADERS[kind]
    path = small_files["case"]
    path.write_bytes(small_files[kind] + b"\0")
    with pytest.raises(error, match="trailing bytes"):
        check(path)


def test_repeated_edge_raises_named_error(small_files):
    # a set of pairs hid a repeat; a key array would count the link twice
    path = small_files["case"]
    path.write_bytes(small_files["cache"])
    dataset = lbsn_data.load_dataset(path)
    edges = sorted(edge_pairs(dataset.num_users, dataset.graph.directed_edges))
    i, j = edges[-1]
    cache_with_edges(dataset, path, edges + [(j, i), (i, j)])
    with pytest.raises(lbsn_data.FormatError,
                       match=rf"edge \({min(i, j)}, {max(i, j)}\) is stored "
                             "more than once"):
        lbsn_data.load_dataset(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("tensor", ["U_out", "W_f1", "C0"])
def test_non_finite_checkpoint_tensor_raises_named_error(tmp_path, tensor,
                                                         value):
    # a NaN target score would rank first, so such a checkpoint must not load
    rng = np.random.default_rng(1)
    params = random_params(rng, 3, 5, 2)
    params.tensor(tensor).flat[1] = value
    path = tmp_path / "m.jntm"
    save_checkpoint(path, params, FULL_VARIANT, ["a", "b", "c"],
                    ["l0", "l1", "l2", "l3", "l4"])
    with pytest.raises(CheckpointError, match=f"non-finite value in tensor "
                                              f"{tensor}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("tensor", ["U_out", "W_f1", "C0"])
def test_finite_checkpoint_tensor_whose_row_sums_overflow_loads(tmp_path,
                                                                tensor):
    # each row holds entries near the largest float64, whose sum overflows
    # to inf; every entry is finite, so the checkpoint loads unchanged
    rng = np.random.default_rng(1)
    params = random_params(rng, 3, 5, 2)
    big = params.tensor(tensor)
    big[...] = np.finfo(np.float64).max * 0.75
    with np.errstate(over="ignore"):
        assert not np.isfinite(big @ np.ones(big.shape[-1])).all()
    path = tmp_path / "m.jntm"
    save_checkpoint(path, params, FULL_VARIANT, ["a", "b", "c"],
                    ["l0", "l1", "l2", "l3", "l4"])
    loaded = load_checkpoint(path)[0]
    np.testing.assert_array_equal(loaded.tensor(tensor), big)


def test_eval_exits_2_on_non_finite_checkpoint(tmp_path, capsys):
    # a trained synth model with U_out set to NaN and saved again
    from lbsnrec import cli

    cache, model = tmp_path / "d.bin", tmp_path / "m.jntm"
    lbsn_data.save_dataset(synth.generate(synth.SynthConfig(seed=3)), cache)
    assert cli.main(["train", "--data", str(cache), "--out", str(model),
                     "--d", "8", "--max-iterations", "1"]) == 0
    params, mask, user_ids, location_ids = load_checkpoint(model)
    params.U_out[:] = np.nan
    save_checkpoint(model, params, mask, user_ids, location_ids)
    capsys.readouterr()
    assert cli.main(["eval", "--model", str(model), "--data", str(cache),
                     "--task", "both", "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite value in tensor U_out" in err
    assert not (tmp_path / "r.csv").exists()
