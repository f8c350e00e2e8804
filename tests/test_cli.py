import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lbsnrec import cli, evaluation, training
from lbsnrec import data as lbsn_data
from lbsnrec import model as lbsn_model
from lbsnrec.model import (ModelParams, VariantMask, forward_groups,
                           save_checkpoint, tensor_shapes)

from conftest import cache_with_edges, corrupt_cache, make_checkins
from property_checks import edge_pairs, write_checkins_tsv, write_edges_tsv


def run_cli(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def synth_cache(tmp_path):
    path = tmp_path / "d.bin"
    code = run_cli(["synth", "--seed", 3, "--users-per-community", 5,
                    "--locations-per-community", 6, "--shared-locations", 2,
                    "--subtrajectories-per-user", 8,
                    "--locations-per-subtrajectory", 4, "--out", path])
    assert code == 0
    return path


def test_preprocess_stats_line(tmp_path, capsys):
    checkins = make_checkins({"a": [["x", "y"], ["y"]], "b": [["y", "x"]]})
    cpath, epath = tmp_path / "c.tsv", tmp_path / "e.tsv"
    write_checkins_tsv(checkins, cpath)
    write_edges_tsv([("a", "b")], epath)
    out = tmp_path / "d.bin"
    code = run_cli(["preprocess", cpath, epath, "--out", out,
                    "--min-user-checkins", 0, "--min-loc-checkins", 0])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line == "|V|=2 |E|=1 |D|=5 |L|=2 subtrajectories=3"
    assert lbsn_data.load_dataset(out).num_checkins == 5


def test_preprocess_empty_inputs(tmp_path, capsys):
    cpath, epath = tmp_path / "c.tsv", tmp_path / "e.tsv"
    cpath.write_text("")
    epath.write_text("")
    out = tmp_path / "d.bin"
    assert run_cli(["preprocess", cpath, epath, "--out", out]) == 0
    assert "|V|=0 |E|=0 |D|=0 |L|=0 subtrajectories=0" in capsys.readouterr().out


def test_preprocess_missing_file(tmp_path, capsys):
    code = run_cli(["preprocess", tmp_path / "nope.tsv", tmp_path / "nope2.tsv",
                    "--out", tmp_path / "d.bin"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_preprocess_parse_error(tmp_path, capsys):
    cpath, epath = tmp_path / "c.tsv", tmp_path / "e.tsv"
    cpath.write_text("only\ttwo\n")
    epath.write_text("")
    code = run_cli(["preprocess", cpath, epath, "--out", tmp_path / "d.bin"])
    assert code == 2
    assert ":1:" in capsys.readouterr().err


def test_synth_deterministic_files(tmp_path):
    args = ["synth", "--seed", 1, "--users-per-community", 4,
            "--locations-per-community", 5, "--shared-locations", 1,
            "--subtrajectories-per-user", 3, "--locations-per-subtrajectory", 3]
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    assert run_cli(args + ["--out", p1]) == 0
    assert run_cli(args + ["--out", p2]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_config_key_rejected(tmp_path, synth_cache, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 4, "max_iterationz": 2}))
    code = run_cli(["train", "--data", synth_cache, "--config", cfg,
                    "--out", tmp_path / "m.jntm"])
    assert code == 2
    assert "max_iterationz" in capsys.readouterr().err


def test_train_then_eval_pipeline(tmp_path, synth_cache):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 4, "max_iterations": 2, "seed": 5,
                               "n1_per_user": 8, "n2": 8}))
    model = tmp_path / "m.jntm"
    log = tmp_path / "log.csv"
    assert run_cli(["train", "--data", synth_cache, "--config", cfg,
                    "--out", model, "--log", log]) == 0
    report = tmp_path / "r.csv"
    per_user = tmp_path / "per_user.json"
    assert run_cli(["eval", "--model", model, "--data", synth_cache,
                    "--config", cfg, "--out", report,
                    "--per-user-json", per_user]) == 0
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "task,mode,slice,K,recall,num_events"
    assert len(lines) > 1
    dumps = json.loads(per_user.read_text())
    assert any(d["per_user"] for d in dumps)
    log_lines = log.read_text().strip().split("\n")
    assert log_lines[0] == "epoch,net_loss,traj_loss,val_recall5,seconds"
    assert len(log_lines) == 3


@pytest.mark.parametrize("bad", [{"location": 2}, {"location": 2**64 - 1},
                                 {"edge": (0, 2)}, {"edge": (1, 1)}],
                         ids=["location_num_locations", "location_u64_max",
                              "edge_endpoint", "edge_self_loop"])
def test_train_rejects_out_of_range_ids(tmp_path, two_user_dataset, capsys, bad):
    path = corrupt_cache(two_user_dataset, tmp_path / "bad.bin", **bad)
    code = run_cli(["train", "--data", path, "--out", tmp_path / "m.jntm",
                    "--d", 2, "--max-iterations", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "m.jntm").exists()


@pytest.mark.parametrize("timestamps", [[-5, 3600, 7200], [0, 7200, 3600],
                                        [0, 3600, 2**62 - 2**63]],
                         ids=["negative", "decreasing", "sign_bit_flipped"])
def test_train_rejects_unordered_timestamps(tmp_path, two_user_dataset, capsys,
                                            timestamps):
    # user "b" has three check-ins; no writer produces these timestamps
    two_user_dataset.trajectories[1].timestamps = np.array(timestamps)
    path = tmp_path / "bad.bin"
    lbsn_data.save_dataset(two_user_dataset, path)
    code = run_cli(["train", "--data", path, "--out", tmp_path / "m.jntm",
                    "--d", 2, "--max-iterations", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "m.jntm").exists()


def test_eval_rejects_corrupt_checkpoint(tmp_path, synth_cache, capsys):
    model = tmp_path / "m.jntm"
    model.write_bytes(b"NOPE" + b"\x00" * 40)
    code = run_cli(["eval", "--model", model, "--data", synth_cache,
                    "--out", tmp_path / "r.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad magic" in err


@pytest.mark.parametrize("fault", ["repeated_edge", "trailing_byte"])
def test_train_rejects_repeated_edge_or_trailing_bytes(tmp_path, synth_cache,
                                                      capsys, fault):
    ds = lbsn_data.load_dataset(synth_cache)
    bad = tmp_path / "bad.bin"
    if fault == "repeated_edge":
        edges = sorted(edge_pairs(ds.num_users, ds.graph.directed_edges))
        cache_with_edges(ds, bad, edges[:1] + edges)
    else:
        bad.write_bytes(synth_cache.read_bytes() + b"\0")
    code = run_cli(["train", "--data", bad, "--out", tmp_path / "m.jntm",
                    "--d", 2, "--max-iterations", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert {"repeated_edge": "is stored more than once",
            "trailing_byte": "trailing bytes after the edges"}[fault] in err
    assert not (tmp_path / "m.jntm").exists()


def test_eval_rejects_checkpoint_with_trailing_byte(tmp_path, synth_cache,
                                                    capsys):
    ds = lbsn_data.load_dataset(synth_cache)
    model = tmp_path / "m.jntm"
    save_checkpoint(model, ModelParams.zeros(ds.num_users, ds.num_locations, 2),
                    VariantMask(), ds.user_vocab.ids, ds.location_vocab.ids)
    assert run_cli(["eval", "--model", model, "--data", synth_cache,
                    "--out", tmp_path / "r.csv"]) == 0
    model.write_bytes(model.read_bytes() + b"\0")
    capsys.readouterr()
    code = run_cli(["eval", "--model", model, "--data", synth_cache,
                    "--out", tmp_path / "r2.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "trailing bytes after the location " \
        "vocabulary" in err
    assert not (tmp_path / "r2.csv").exists()


def test_train_rejects_version_1_cache(tmp_path, synth_cache, capsys):
    # version 1 held per-user arrays and length-prefixed ids; no reader is
    # kept, and the version is read before either
    assert synth_cache.read_bytes()[4:8] == struct.pack("<I", 2)
    old = _patched_copy(synth_cache, 4, "<I", 1, tmp_path / "v1.bin")
    code = run_cli(["train", "--data", old, "--out", tmp_path / "m.jntm",
                    "--d", 2, "--max-iterations", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "unsupported version 1" in err
    assert not (tmp_path / "m.jntm").exists()


def test_eval_rejects_version_1_checkpoint(tmp_path, synth_cache, capsys):
    ds = lbsn_data.load_dataset(synth_cache)
    model = tmp_path / "m.jntm"
    save_checkpoint(model, ModelParams.zeros(ds.num_users, ds.num_locations, 2),
                    VariantMask(), ds.user_vocab.ids, ds.location_vocab.ids)
    assert model.read_bytes()[4:8] == struct.pack("<I", 2)
    old = _patched_copy(model, 4, "<I", 1, tmp_path / "v1.jntm")
    code = run_cli(["eval", "--model", old, "--data", synth_cache,
                    "--out", tmp_path / "r.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "unsupported version 1" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("vocab", ["user", "location"])
def test_train_rejects_duplicate_vocabulary_ids(tmp_path, two_user_dataset,
                                               capsys, vocab):
    table = getattr(two_user_dataset, f"{vocab}_vocab")
    table.ids = [table.ids[0]] * len(table.ids)
    path = tmp_path / "dup.bin"
    lbsn_data.save_dataset(two_user_dataset, path)
    code = run_cli(["train", "--data", path, "--out", tmp_path / "m.jntm",
                    "--d", 2, "--max-iterations", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "duplicate id" in err
    assert not (tmp_path / "m.jntm").exists()


@pytest.mark.parametrize("vocab", ["user", "location"])
def test_eval_rejects_duplicate_checkpoint_vocabulary_ids(tmp_path, synth_cache,
                                                          capsys, vocab):
    ds = lbsn_data.load_dataset(synth_cache)
    ids = {"user": list(ds.user_vocab.ids),
           "location": list(ds.location_vocab.ids)}
    ids[vocab][1] = ids[vocab][0]
    model = tmp_path / "m.jntm"
    save_checkpoint(model, ModelParams.zeros(ds.num_users, ds.num_locations, 2),
                    VariantMask(), ids["user"], ids["location"])
    code = run_cli(["eval", "--model", model, "--data", synth_cache,
                    "--out", tmp_path / "r.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "duplicate id" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("ks", ["5,x", "", "0,10", "-3"])
def test_eval_rejects_bad_ks(tmp_path, synth_cache, capsys, ks):
    ds = lbsn_data.load_dataset(synth_cache)
    model = tmp_path / "m.jntm"
    save_checkpoint(model, ModelParams.zeros(ds.num_users, ds.num_locations, 2),
                    VariantMask(), ds.user_vocab.ids, ds.location_vocab.ids)
    code = run_cli(["eval", "--model", model, "--data", synth_cache,
                    "--out", tmp_path / "r.csv", f"--ks={ks}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --ks ")
    assert not (tmp_path / "r.csv").exists()


def test_eval_forwards_each_test_group_once(tmp_path, synth_cache,
                                            monkeypatch):
    # all four next-location reports share one forward pass over the users
    # with test events, in model.forward_groups groups
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 4, "max_iterations": 1, "seed": 5,
                               "n1_per_user": 4, "n2": 4,
                               "trajectory_train_frac": 0.5}))
    model = tmp_path / "m.jntm"
    assert run_cli(["train", "--data", synth_cache, "--config", cfg,
                    "--out", model]) == 0
    ds = lbsn_data.load_dataset(synth_cache)
    splits = lbsn_data.make_splits(ds, seed=5, **dict(
        cli.SPLIT_DEFAULTS, trajectory_train_frac=0.5))
    # each group forwards its users' test positions
    lengths = [len(locs) - start for _, locs, _, start in
               evaluation._evaluated_users(ds, splits, "test")]
    # rank-only groups of two users
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", max(lengths))
    groups = list(forward_groups(lengths, caches=False))
    assert max(hi - lo for lo, hi in groups) == 2
    calls = []
    forward = evaluation.forward_trajectory

    def counting_forward(params, mask, users, views, *long_states):
        calls.append((list(users), [len(locs) for locs, _ in views]))
        return forward(params, mask, users, views, *long_states)

    monkeypatch.setattr(evaluation, "forward_trajectory", counting_forward)
    assert run_cli(["eval", "--model", model, "--data", synth_cache,
                    "--config", cfg, "--out", tmp_path / "r.csv",
                    "--task", "both"]) == 0
    assert len(groups) > 1 and len(calls) == len(groups)
    assert [u for users, _ in calls for u in users] == sorted(
        u for u, *_ in evaluation._evaluated_users(ds, splits, "test"))
    assert [n for _, sizes in calls for n in sizes] == lengths


def _string_table_size(strings):
    return 16 + len("\n".join(strings).encode("utf-8"))


def _cache_sections(path):
    """Byte offsets of a dataset cache's check-in offsets, location ids,
    timestamps and edge count, and the loaded dataset."""
    ds = lbsn_data.load_dataset(path)
    offsets = (4 + 4 + 16 + _string_table_size(ds.user_vocab.ids)
               + _string_table_size(ds.location_vocab.ids))
    locations = offsets + 8 * (ds.num_users + 1)
    timestamps = locations + 8 * ds.num_checkins
    edges = path.stat().st_size - 8 - 16 * len(ds.graph.directed_edges)
    assert edges == timestamps + 8 * ds.num_checkins
    return offsets, locations, timestamps, edges, ds


def _cache_cuts(path):
    """Byte offsets inside each section of a dataset cache, and the field
    each cut leaves short (None: not pinned)."""
    offsets, locations, timestamps, edges, ds = _cache_sections(path)
    first = len(ds.trajectories[0])
    return {"header": (12, "header"), "vocab": (4 + 4 + 16 + 10, "vocabulary"),
            "location_vocab": (offsets - 1, "vocabulary"),
            "arrays": (offsets + 8 + 3, "offsets"),
            "locations": (locations + 8 * first + 4, "locations"),
            "timestamps": (timestamps + 8 * first + 4, "timestamps"),
            "edge_count": (edges + 4, "edges"),
            "edges": (path.stat().st_size - 5, "edges"), "300_bytes": (300, None)}


def _checkpoint_cuts(path, dim):
    tensors_start = 4 + 4 + 24 + 2
    return {"20_bytes": 20, "flags": tensors_start - 1,
            "tensor": tensors_start + 8 * dim + 3,
            "vocab_tail": path.stat().st_size - 50,
            "last_byte": path.stat().st_size - 1}


def _truncated_copy(path, size, out):
    out.write_bytes(path.read_bytes()[:size])
    return out


@pytest.mark.parametrize("section", ["header", "vocab", "location_vocab",
                                     "arrays", "locations", "timestamps",
                                     "edge_count", "edges", "300_bytes"])
def test_train_rejects_truncated_cache(tmp_path, synth_cache, capsys, section):
    size, field = _cache_cuts(synth_cache)[section]
    cut = _truncated_copy(synth_cache, size, tmp_path / "cut.bin")
    code = run_cli(["train", "--data", cut, "--out", tmp_path / "m.jntm",
                    "--d", 2, "--max-iterations", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"truncated {field or ''}" in err
    assert not (tmp_path / "m.jntm").exists()


@pytest.mark.parametrize("section", ["20_bytes", "flags", "tensor",
                                     "vocab_tail", "last_byte"])
def test_eval_rejects_truncated_checkpoint(tmp_path, synth_cache, capsys,
                                           section):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 4, "max_iterations": 1, "seed": 5,
                               "n1_per_user": 4, "n2": 4}))
    model = tmp_path / "m.jntm"
    assert run_cli(["train", "--data", synth_cache, "--config", cfg,
                    "--out", model]) == 0
    cut = _truncated_copy(model, _checkpoint_cuts(model, 4)[section],
                          tmp_path / "cut.jntm")
    capsys.readouterr()
    code = run_cli(["eval", "--model", cut, "--data", synth_cache,
                    "--config", cfg, "--out", tmp_path / "r.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "truncated" in err
    assert not (tmp_path / "r.csv").exists()


def _patched_copy(path, offset, fmt, value, out):
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    out.write_bytes(bytes(raw))
    return out


def _cache_counts(path):
    """(byte offset, format, true value) of count fields of a dataset cache:
    the last check-in offset (the length of both columns), the user table's
    entry count and byte length, and the directed-edge count."""
    offsets, _, _, edges, ds = _cache_sections(path)
    return {"locations": (offsets + 8 * ds.num_users, "<Q", ds.num_checkins),
            "user_vocabulary": (24, "<Q", ds.num_users),
            "string_length": (32, "<Q", _string_table_size(ds.user_vocab.ids)
                              - 16),
            "edges": (edges, "<Q", len(ds.graph.directed_edges))}


@pytest.mark.parametrize("value", ["huge", "one_more"])
@pytest.mark.parametrize("field", ["locations", "user_vocabulary",
                                   "string_length", "edges"])
def test_train_rejects_corrupt_cache_count(tmp_path, synth_cache, capsys, field,
                                           value):
    offset, fmt, count = _cache_counts(synth_cache)[field]
    assert struct.unpack_from(fmt, synth_cache.read_bytes(), offset) == (count,)
    bad = _patched_copy(synth_cache, offset, fmt,
                        2**61 if value == "huge" else count + 1,
                        tmp_path / "bad.bin")
    code = run_cli(["train", "--data", bad, "--out", tmp_path / "m.jntm",
                    "--d", 2, "--max-iterations", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "m.jntm").exists()


@pytest.mark.parametrize("value", ["huge", "one_more"])
@pytest.mark.parametrize("field", ["num_locations", "user_vocabulary"])
def test_eval_rejects_corrupt_checkpoint_count(tmp_path, synth_cache, capsys,
                                               field, value):
    ds = lbsn_data.load_dataset(synth_cache)
    model = tmp_path / "m.jntm"
    save_checkpoint(model, ModelParams.zeros(ds.num_users, ds.num_locations, 2),
                    VariantMask(), ds.user_vocab.ids, ds.location_vocab.ids)
    tensors_end = 4 + 4 + 24 + 2 + 8 * sum(
        math.prod(shape) for shape in tensor_shapes(ds.num_users,
                                                     ds.num_locations, 2).values())
    offset, count = {"num_locations": (16, ds.num_locations),
                     "user_vocabulary": (tensors_end, ds.num_users)}[field]
    bad = _patched_copy(model, offset, "<Q",
                        2**61 if value == "huge" else count + 1,
                        tmp_path / "bad.jntm")
    code = run_cli(["eval", "--model", bad, "--data", synth_cache,
                    "--out", tmp_path / "r.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("value", [2, 7, 255])
@pytest.mark.parametrize("offset", [32, 33], ids=["use_short", "use_long"])
def test_eval_rejects_bad_checkpoint_variant_flag(tmp_path, synth_cache, capsys,
                                                  offset, value):
    # the header's two variant flag bytes, after magic, version and sizes
    ds = lbsn_data.load_dataset(synth_cache)
    model = tmp_path / "m.jntm"
    save_checkpoint(model, ModelParams.zeros(ds.num_users, ds.num_locations, 2),
                    VariantMask(), ds.user_vocab.ids, ds.location_vocab.ids)
    assert model.read_bytes()[32:34] == b"\x01\x01"
    bad = _patched_copy(model, offset, "B", value, tmp_path / "bad.jntm")
    with pytest.raises(lbsn_model.CheckpointError, match="variant flags"):
        lbsn_model.load_checkpoint(bad)
    code = run_cli(["eval", "--model", bad, "--data", synth_cache,
                    "--out", tmp_path / "r.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "variant flags" in err
    assert not (tmp_path / "r.csv").exists()


def test_train_non_finite_gradients_exit_2(tmp_path, synth_cache, capsys):
    # a learning rate of 1e300 sends the parameters to about +-1e300 in one
    # step, after which scores overflow and the gradients turn non-finite;
    # the log, created before the first epoch, is left empty
    with np.errstate(all="ignore"):
        code = run_cli(["train", "--data", synth_cache, "--out",
                        tmp_path / "m.jntm", "--d", 2, "--max-iterations", 3,
                        "--learning-rate", 1e300, "--log", tmp_path / "l.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: non-finite gradient in tensor ")
    assert (tmp_path / "l.csv").read_bytes() == b""


def test_stats_command(tmp_path, synth_cache, capsys):
    out = tmp_path / "stats.json"
    assert run_cli(["stats", "--data", synth_cache, "--out", out,
                    "--samples", 200, "--seed", 1]) == 0
    payload = json.loads(out.read_text())
    assert "mean_overlap_friend_pairs" in payload
    assert payload["num_random_pairs_sampled"] > 0


def test_gradcheck_exit_codes(tmp_path):
    out = tmp_path / "gc.csv"
    assert run_cli(["gradcheck", "--seed", 7, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 18


def test_bench_writes_csv(tmp_path, synth_cache):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 4, "n1_per_user": 4, "n2": 4, "seed": 0}))
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--data", synth_cache, "--config", cfg,
                    "--out", out]) == 0
    header, row = out.read_text().strip().split("\n")
    assert header.startswith("num_checkins,net_iter_seconds")
    fields = row.split(",")
    assert int(fields[0]) == lbsn_data.load_dataset(synth_cache).num_checkins
    assert float(fields[2]) > 0


def test_bench_times_real_training_epochs(tmp_path, synth_cache, monkeypatch,
                                          capsys):
    runs = []
    train = training.train

    def recording_train(dataset, splits, config, checkpoint_path, log_path=None):
        records = train(dataset, splits, config, checkpoint_path, log_path)
        runs.append((config, records))
        return records

    monkeypatch.setattr(training, "train", recording_train)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 4, "n1_per_user": 4, "n2": 4, "seed": 0,
                               "max_iterations": 7}))
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--data", synth_cache, "--config", cfg,
                    "--out", out, "--reps", 2]) == 0
    ((config, records),) = runs
    assert config.max_iterations == 2 and len(records) == 2
    assert all(r.val_recall is None for r in records)
    fields = out.read_text().strip().split("\n")[1].split(",")
    assert float(fields[1]) == min(r.net_seconds for r in records)
    assert float(fields[2]) == min(r.traj_seconds for r in records)
    assert float(fields[3]) == float(fields[2]) / int(fields[0])
    out_line = capsys.readouterr().out
    assert f"sample={min(r.sample_seconds for r in records):.3f}s" in out_line
    assert f"update={min(r.update_seconds for r in records):.3f}s" in out_line
    assert f"forward={min(r.forward_seconds for r in records):.3f}s" in out_line
    assert f"softmax={min(r.softmax_seconds for r in records):.3f}s" in out_line
    assert f"bptt={min(r.bptt_seconds for r in records):.3f}s" in out_line
    assert f"validation={min(r.validation_seconds for r in records):.3f}s" \
        in out_line
    # without validation events every epoch checkpoints
    assert all(r.checkpoint_seconds > 0 for r in records)
    assert f"checkpoint={min(r.checkpoint_seconds for r in records):.3f}s" \
        in out_line
    assert f"steps={min(r.lockstep_steps for r in records)} " in out_line


def run_cli_exit_code(args):
    try:
        return run_cli(args)
    except SystemExit as exc:   # argparse rejects a flag value
        return exc.code


@pytest.mark.parametrize("bad", [
    {"validation_k": 0}, {"link_train_ratio": 1.0},
    {"trajectory_train_frac": 0}, {"seed": -1}, {"d": 4.5},
    {"max_iterations": 1.5}, {"batch_users": True}, {"use_short": "false"},
    {"link_train_ratio": "0.5"}, {"validation_frac_of_train": "0.1"},
    {"trajectory_train_frac": True}, {"learning_rate": True},
    {"init_range": False}, {"adagrad_epsilon": True},
    {"init_range": float("inf")}],
    ids=lambda bad: json.dumps(bad))
def test_train_rejects_bad_config_values(tmp_path, synth_cache, capsys, bad):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 4, "max_iterations": 1, "n1_per_user": 4,
                               "n2": 4, **bad}))
    assert run_cli_exit_code(["train", "--data", synth_cache, "--config", cfg,
                              "--out", tmp_path / "m.jntm"]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "m.jntm").exists()


@pytest.mark.parametrize("argv", [
    ["preprocess", "{checkins}", "{edges}", "--out", "{out}",
     "--min-user-checkins", -1],
    ["preprocess", "{checkins}", "{edges}", "--out", "{out}",
     "--min-loc-checkins", -1],
    ["synth", "--seed", -1, "--out", "{out}"],
    ["stats", "--data", "{data}", "--out", "{out}", "--samples", -1],
    ["stats", "--data", "{data}", "--out", "{out}", "--seed", -1],
    ["gradcheck", "--entries", -1, "--out", "{out}"],
    ["gradcheck", "--entries", 0, "--out", "{out}"],
    ["gradcheck", "--seed", -1, "--out", "{out}"],
    ["bench", "--data", "{data}", "--out", "{out}", "--reps", 0]],
    ids=lambda argv: " ".join(str(a) for a in argv if not str(a).startswith("{")))
def test_commands_reject_bad_counts(tmp_path, synth_cache, capsys, argv):
    paths = {"checkins": tmp_path / "c.tsv", "edges": tmp_path / "e.tsv",
             "data": synth_cache, "out": tmp_path / "out"}
    write_checkins_tsv(make_checkins({"a": [["x", "y"]], "b": [["y", "x"]]}),
                       paths["checkins"])
    write_edges_tsv([("a", "b")], paths["edges"])
    assert run_cli_exit_code([str(a).format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "{dir}"],
    ["train", "--data", "{dir}", "--out", "{out}"],
    ["train", "--data", "{data}", "--out", "{dir}"],
    ["train", "--data", "{data}", "--out", "{out}", "--log", "{dir}"],
    ["eval", "--model", "{model}", "--data", "{data}", "--out", "{dir}"],
    ["eval", "--model", "{model}", "--data", "{data}", "--out", "{out}",
     "--per-user-json", "{dir}"]],
    ids=lambda argv: " ".join(argv).format(
        dir="DIR", data="FILE", out="FILE", model="FILE"))
def test_commands_name_a_directory_they_cannot_use(tmp_path, synth_cache,
                                                   capsys, monkeypatch, argv):
    # an OSError is an input error: exit 2, one error line naming the path
    paths = {"dir": tmp_path / "dir", "data": synth_cache,
             "out": tmp_path / "m.jntm", "model": tmp_path / "model.jntm"}
    paths["dir"].mkdir()
    paths["out"].write_bytes(b"previous")
    ds = lbsn_data.load_dataset(synth_cache)
    save_checkpoint(paths["model"],
                    ModelParams.zeros(ds.num_users, ds.num_locations, 2),
                    VariantMask(), ds.user_vocab.ids, ds.location_vocab.ids)
    epochs = []
    draw = training.draw_network_batch
    monkeypatch.setattr(training, "draw_network_batch",
                        lambda *args: epochs.append(1) or draw(*args))
    code = run_cli([a.format(**paths) for a in argv]
                   + (["--d", 2, "--max-iterations", 1]
                      if argv[0] == "train" else []))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Is a directory" in err and "Traceback" not in err
    assert str(paths["dir"]) in err
    # train checks its paths before the first epoch, and a command whose
    # other path fails leaves --out as it was
    assert not epochs
    if "{out}" in argv:
        assert paths["out"].read_bytes() == b"previous"


@pytest.mark.parametrize("log_before", [b"old log", None])
@pytest.mark.parametrize("out", ["dir", "missing/m.jntm"])
def test_train_checks_out_before_epoch_1(tmp_path, synth_cache, capsys,
                                         monkeypatch, out, log_before):
    # a directory or unwritable --out exits 2 before any training, leaving
    # --out and --log as they were
    (tmp_path / "dir").mkdir()
    log = tmp_path / "l.csv"
    if log_before is not None:
        log.write_bytes(log_before)
    epochs = []
    draw = training.draw_network_batch
    monkeypatch.setattr(training, "draw_network_batch",
                        lambda *args: epochs.append(1) or draw(*args))
    assert run_cli(["train", "--data", synth_cache, "--out", tmp_path / out,
                    "--log", log, "--d", 2, "--max-iterations", 1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / out) in err and "Traceback" not in err
    assert not epochs
    assert (log.read_bytes() if log.exists() else None) == log_before
    assert not any((tmp_path / "dir").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["d.bin", "dir"] + ["l.csv"] * (log_before is not None))


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 7.45 GiB"),
     "Unable to allocate 7.45 GiB"),
    (MemoryError(), "out of memory"), (OSError(), "OSError")])
def test_out_of_memory_exits_2(tmp_path, synth_cache, capsys, monkeypatch,
                               error, line):
    # a bare MemoryError reads as out of memory; no other error does
    def allocate(*args, **kwargs):
        raise error

    monkeypatch.setattr(training, "train", allocate)
    assert run_cli(["train", "--data", synth_cache,
                    "--out", tmp_path / "m.jntm"]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "m.jntm").exists()


@pytest.mark.parametrize("flags", [
    ["--tolerance-abs", "nan"], ["--tolerance-abs", "inf"],
    ["--tolerance-rel", "nan"], ["--tolerance-rel", "inf"],
    ["--tolerance-abs", "-1"], ["--tolerance-rel", "-1"],
    ["--tolerance-abs", "-1", "--tolerance-rel", "-1"]], ids=" ".join)
def test_gradcheck_rejects_tolerances_that_decide_nothing(tmp_path, capsys,
                                                          flags):
    # a NaN or infinite tolerance passes every entry and a negative one fails
    # every entry; both are usage errors, not check results
    out = tmp_path / "gc.csv"
    assert run_cli_exit_code(["gradcheck", *flags, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert "must be a finite number >= 0" in line
    assert not out.exists()


def test_bench_empty_dataset_zero_rows(tmp_path):
    empty = lbsn_data.build_dataset([], [])
    data_path = tmp_path / "empty.bin"
    lbsn_data.save_dataset(empty, data_path)
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--data", data_path, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1  # header only


def test_cli_subprocess_entry(tmp_path):
    out = tmp_path / "d.bin"
    result = subprocess.run(
        [sys.executable, "-m", "lbsnrec.cli", "synth", "--seed", "2",
         "--users-per-community", "3", "--locations-per-community", "4",
         "--shared-locations", "1", "--subtrajectories-per-user", "2",
         "--locations-per-subtrajectory", "3", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True)
    assert result.returncode == 0
    assert out.exists()
    assert result.stdout.count("\n") == 1
