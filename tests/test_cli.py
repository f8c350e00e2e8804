import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest

from lbsnrec import cli
from lbsnrec import data as lbsn_data
from lbsnrec.model import ModelParams, VariantMask, save_checkpoint, tensor_shapes

from conftest import corrupt_cache, make_checkins


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
    lbsn_data.write_checkins_tsv(checkins, cpath)
    lbsn_data.write_edges_tsv([("a", "b")], epath)
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
                                 {"edge": (0, 2)}],
                         ids=["location_num_locations", "location_u64_max",
                              "edge_endpoint"])
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


def _string_table_size(strings):
    return 8 + sum(4 + len(s.encode("utf-8")) for s in strings)


def _cache_cuts(path):
    """Byte offsets inside each section of a dataset cache."""
    ds = lbsn_data.load_dataset(path)
    vocab_start = 4 + 4 + 16
    arrays_start = (vocab_start + _string_table_size(ds.user_vocab.ids)
                    + _string_table_size(ds.location_vocab.ids))
    edges_start = path.stat().st_size - 8 - 16 * ds.graph.num_directed_edges
    return {"header": 12, "vocab": vocab_start + 8 + 2,
            "location_vocab": arrays_start - 1, "arrays": arrays_start + 8 + 3,
            "timestamps": arrays_start + 8 + 8 * len(ds.trajectories[0]) + 4,
            "edge_count": edges_start + 4,
            "edges": path.stat().st_size - 5, "300_bytes": 300}


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
                                     "arrays", "timestamps", "edge_count",
                                     "edges", "300_bytes"])
def test_train_rejects_truncated_cache(tmp_path, synth_cache, capsys, section):
    cut = _truncated_copy(synth_cache, _cache_cuts(synth_cache)[section],
                          tmp_path / "cut.bin")
    code = run_cli(["train", "--data", cut, "--out", tmp_path / "m.jntm",
                    "--d", 2, "--max-iterations", 1])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "truncated" in err
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
    """(byte offset, format, true value) of count fields of a dataset cache."""
    ds = lbsn_data.load_dataset(path)
    arrays_start = (4 + 4 + 16 + _string_table_size(ds.user_vocab.ids)
                    + _string_table_size(ds.location_vocab.ids))
    edges_start = path.stat().st_size - 8 - 16 * ds.graph.num_directed_edges
    return {"locations": (arrays_start, "<Q", len(ds.trajectories[0])),
            "user_vocabulary": (24, "<Q", ds.num_users),
            "string_length": (32, "<I", len(ds.user_vocab.ids[0])),
            "edges": (edges_start, "<Q", ds.graph.num_directed_edges)}


@pytest.mark.parametrize("value", ["huge", "one_more"])
@pytest.mark.parametrize("field", ["locations", "user_vocabulary",
                                   "string_length", "edges"])
def test_train_rejects_corrupt_cache_count(tmp_path, synth_cache, capsys, field,
                                           value):
    offset, fmt, count = _cache_counts(synth_cache)[field]
    huge = 2**61 if fmt == "<Q" else 2**32 - 1
    bad = _patched_copy(synth_cache, offset, fmt,
                        huge if value == "huge" else count + 1,
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


def test_train_non_finite_gradients_exit_2(tmp_path, synth_cache, capsys):
    # a learning rate of 1e300 sends the parameters to about +-1e300 in one
    # step, after which scores overflow and the gradients turn non-finite
    with np.errstate(all="ignore"):
        code = run_cli(["train", "--data", synth_cache, "--out",
                        tmp_path / "m.jntm", "--d", 2, "--max-iterations", 3,
                        "--learning-rate", 1e300])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: non-finite gradient in tensor ")


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
        capture_output=True, text=True)
    assert result.returncode == 0
    assert out.exists()
    assert result.stdout.count("\n") == 1
