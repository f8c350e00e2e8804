import struct
from datetime import datetime, timezone

import numpy as np
import pytest

from lbsnrec import data as lbsn_data
from lbsnrec.data import (CheckIn, ParseError, build_dataset, filter_dataset,
                          load_dataset, make_splits, overlap_coefficient,
                          parse_checkins, parse_edges, save_dataset,
                          split_into_subtrajectories, correlation_report,
                          full_train_splits, SIX_HOURS)

from conftest import cache_with_edges, corrupt_cache, make_checkins
from property_checks import (assert_same_edges, edge_keys, edge_pairs,
                             graph_of, write_checkins_tsv, write_edges_tsv)


def test_parse_checkins_epoch_conversion(tmp_path):
    path = tmp_path / "checkins.tsv"
    path.write_text("0\t2010-10-17T01:48:53Z\t39.75\t-104.99\t88c46bf2\n")
    (record,) = parse_checkins(path)
    assert record.user == "0"
    assert record.location == "88c46bf2"
    assert record.timestamp == 1287280133
    # independent conversion through the datetime module
    expected = int(datetime(2010, 10, 17, 1, 48, 53,
                            tzinfo=timezone.utc).timestamp())
    assert record.timestamp == expected


def test_parse_checkins_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert parse_checkins(path) == []


def test_parse_checkins_skips_blank_lines(tmp_path):
    path = tmp_path / "checkins.tsv"
    path.write_text("\n0\t2010-10-17T01:48:53Z\t1.0\t2.0\tloc\n\n")
    assert len(parse_checkins(path)) == 1


def test_parse_checkins_field_count_error(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t2010-10-17T01:48:53Z\t39.75\n")
    with pytest.raises(ParseError) as err:
        parse_checkins(path)
    assert err.value.line_number == 1


def test_parse_checkins_bad_timestamp(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t2010-10-17T01:48:53Z\t1\t2\tloc\n"
                    "0\tnot-a-time\t1\t2\tloc\n")
    with pytest.raises(ParseError) as err:
        parse_checkins(path)
    assert err.value.line_number == 2


def test_parse_edges(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\n0\t1\n")
    assert parse_edges(path) == [("0", "1"), ("0", "1")]


def test_parse_edges_malformed(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\n")
    with pytest.raises(ParseError) as err:
        parse_edges(path)
    assert err.value.line_number == 1


def _checkin(user, loc, t=0):
    return CheckIn(user=user, location=loc, timestamp=t)


def test_filter_dataset_zero_thresholds_identity():
    checkins = [_checkin("a", "x"), _checkin("b", "y")]
    edges = [("a", "b")]
    out_c, out_e = filter_dataset(checkins, edges, 0, 0)
    assert out_c == checkins and out_e == edges


def test_filter_dataset_drops_sparse_user():
    checkins = [_checkin("a", "x", t) for t in range(3)]
    out_c, out_e = filter_dataset(checkins, [("a", "a")], 10, 0)
    assert out_c == [] and out_e == []


def test_filter_dataset_single_pass_semantics():
    # user a: 2 check-ins at popular x, 1 at rare y; user b: 3 at x.
    # The single pass keeps a with 2 check-ins even though 2 < min_user,
    # so a second application is NOT a no-op here; that boundary is the
    # documented cost of not iterating to a fixpoint.
    checkins = ([_checkin("a", "x", 0), _checkin("a", "x", 1), _checkin("a", "y", 2)]
                + [_checkin("b", "x", t) for t in range(3)])
    once_c, _ = filter_dataset(checkins, [], 3, 2)
    assert sorted(c.user for c in once_c) == ["a", "a", "b", "b", "b"]
    twice_c, _ = filter_dataset(once_c, [], 3, 2)
    assert sorted(c.user for c in twice_c) == ["b", "b", "b"]


def test_filter_dataset_idempotent_when_user_threshold_low():
    rng = np.random.default_rng(0)
    for _ in range(20):
        checkins = [_checkin(f"u{rng.integers(6)}", f"l{rng.integers(10)}", int(t))
                    for t in range(60)]
        once = filter_dataset(checkins, [], 1, 3)
        twice = filter_dataset(once[0], once[1], 1, 3)
        assert once == twice


def test_filter_restricts_edges_to_survivors():
    checkins = [_checkin("a", "x", t) for t in range(5)]
    checkins += [_checkin("b", "x", t) for t in range(2)]
    out_c, out_e = filter_dataset(checkins, [("a", "b"), ("a", "a")], 3, 0)
    assert out_e == [("a", "a")]  # b filtered; raw self pair survives here
    assert all(c.user == "a" for c in out_c)


def test_split_into_subtrajectories_rule():
    ts = np.cumsum([0, 3600, 25200, 7200])
    assert split_into_subtrajectories(ts) == [(0, 2), (2, 4)]


def test_split_single_point():
    assert split_into_subtrajectories([5]) == [(0, 1)]


def test_split_exact_gap_does_not_split():
    ts = np.cumsum([0, 21600, 21600])
    assert split_into_subtrajectories(ts) == [(0, 3)]


def test_build_dataset_directed_expansion(two_user_dataset):
    graph = two_user_dataset.graph
    assert graph.num_users == 2
    assert edge_pairs(2, graph.directed_edges) == {(0, 1), (1, 0)}
    assert two_user_dataset.num_locations == 2
    # build_graph: one ascending int64 array per user, edges or none
    assert graph_of(0, set()).adjacency == []
    rng = np.random.default_rng(0)
    for num_users in [1, 1, 2, 3, 7, 20, 50]:
        count = int(rng.integers(0, num_users * num_users // 2 + 1))
        edges = set(map(tuple, rng.integers(0, num_users, (count, 2)).tolist()))
        keys = edge_keys(num_users, edges)
        graph = lbsn_data.build_graph(num_users, keys)
        assert graph.directed_edges is keys
        assert edge_pairs(num_users, graph.directed_edges) == edges
        assert len(graph.adjacency) == num_users
        for u, row in enumerate(graph.adjacency):
            assert row.dtype == np.int64
            assert row.tolist() == sorted(j for i, j in edges if i == u)
    assert [a.tolist() for a in graph_of(4, {(2, 1)}).adjacency] \
        == [[], [], [1], []]


def test_build_dataset_drops_unknown_and_self_edges():
    checkins = make_checkins({"a": [["x"]], "b": [["x"]]})
    ds = build_dataset(checkins, [("a", "ghost"), ("a", "a"), ("a", "b"),
                                  ("b", "a")])
    assert edge_pairs(2, ds.graph.directed_edges) == {(0, 1), (1, 0)}


def test_build_dataset_vocab_sorted_and_bijective(two_user_dataset):
    ds = two_user_dataset
    assert ds.user_vocab.ids == ["a", "b"]
    assert ds.location_vocab.ids == ["x", "y"]
    for vocab in (ds.user_vocab, ds.location_vocab):
        assert all(vocab.index[e] == i for i, e in enumerate(vocab.ids))


def test_build_dataset_stable_tie_break():
    checkins = [_checkin("a", "x", 100), _checkin("a", "y", 100),
                _checkin("a", "x", 100)]
    ds = build_dataset(checkins, [])
    np.testing.assert_array_equal(ds.trajectories[0].locations, [0, 1, 0])


def test_trajectory_invariants(two_user_dataset):
    for traj in two_user_dataset.trajectories:
        assert len(traj.locations) == len(traj.timestamps) >= 1
        assert np.all(np.diff(traj.timestamps) >= 0)
        bounds = traj.subtrajectory_bounds
        assert bounds[0][0] == 0 and bounds[-1][1] == len(traj)
        assert all(b[1] == n[0] for b, n in zip(bounds, bounds[1:]))


def _dataset_with_subtrajectories(n_subs, per_sub=3):
    layout = {"a": [[f"l{s}_{i}" for i in range(per_sub)] for s in range(n_subs)],
            "b": [["l0_0"]]}
    return build_dataset(make_checkins(layout), [("a", "b")])


def test_make_splits_nine_one():
    ds = _dataset_with_subtrajectories(10)
    sp = make_splits(ds, link_train_ratio=0.5, seed=0)
    assert sp.test_start[0] == 9
    assert 1 <= sp.train_end[0] <= 9


def test_make_splits_single_subtrajectory_all_train():
    ds = _dataset_with_subtrajectories(1)
    sp = make_splits(ds, link_train_ratio=0.5, seed=0)
    assert sp.train_end[0] == 1 and sp.test_start[0] == 1


def test_make_splits_deterministic():
    ds = _dataset_with_subtrajectories(10)
    a = make_splits(ds, link_train_ratio=0.5, seed=42)
    b = make_splits(ds, link_train_ratio=0.5, seed=42)
    np.testing.assert_array_equal(a.train_end, b.train_end)
    np.testing.assert_array_equal(a.test_start, b.test_start)
    assert_same_edges(a.train_edges, b.train_edges)
    assert_same_edges(a.test_edges, b.test_edges)


def test_make_splits_links_disjoint_exhaustive_paired():
    layout = {u: [["x", "y", "z"]] for u in "abcde"}
    edges = [("a", "b"), ("a", "c"), ("d", "e"), ("c", "d")]
    ds = build_dataset(make_checkins(layout), edges)
    sp = make_splits(ds, link_train_ratio=0.5, seed=7)
    assert len(sp.train_edges) == 4 and len(sp.test_edges) == 4
    train, test = (edge_pairs(5, keys) for keys in (sp.train_edges,
                                                     sp.test_edges))
    assert train.isdisjoint(test)
    assert train | test == edge_pairs(5, ds.graph.directed_edges)
    for edges_side in (train, test):
        assert all((j, i) in edges_side for i, j in edges_side)


def test_validation_is_tail_of_train_block():
    ds = _dataset_with_subtrajectories(20, per_sub=2)
    sp = make_splits(ds, trajectory_train_frac=0.9, validation_frac_of_train=0.1,
                     link_train_ratio=0.5, seed=0)
    k = int(sp.test_start[0])
    t = int(sp.train_end[0])
    assert k == 18
    assert 1 <= t <= k
    sizes = [e - b for b, e in ds.trajectories[0].subtrajectory_bounds[:k]]
    assert sum(sizes[t:k]) <= 0.1 * sum(sizes)


def test_overlap_coefficient_examples():
    assert overlap_coefficient({1, 2, 3}, {2, 3, 4, 5}) == pytest.approx(2 / 3)
    assert overlap_coefficient({1, 2}, {1, 2}) == 1.0
    assert overlap_coefficient(set(), {1}) == 0.0


def test_overlap_coefficient_symmetric_bounded():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = set(rng.integers(0, 12, size=rng.integers(0, 8)).tolist())
        b = set(rng.integers(0, 12, size=rng.integers(0, 8)).tolist())
        v = overlap_coefficient(a, b)
        assert v == overlap_coefficient(b, a)
        assert 0.0 <= v <= 1.0


def test_correlation_report_identical_friends():
    checkins = make_checkins({"a": [["x", "y"]], "b": [["y", "x"]]})
    ds = build_dataset(checkins, [("a", "b")])
    rep = correlation_report(ds, num_pair_samples=50, seed=0)
    assert rep.mean_overlap_friend_pairs == 1.0
    assert rep.prob_friendship == 1.0
    assert rep.mean_overlap_nonfriend_pairs is None


def test_correlation_report_no_edges_absent():
    checkins = make_checkins({"a": [["x"]], "b": [["y"]]})
    ds = build_dataset(checkins, [])
    rep = correlation_report(ds, num_pair_samples=10, seed=0)
    assert rep.mean_overlap_friend_pairs is None
    assert rep.prob_friendship == 0.0


def test_dataset_cache_round_trip(tmp_path, two_user_dataset):
    path = tmp_path / "cache.bin"
    save_dataset(two_user_dataset, path)
    loaded = load_dataset(path)
    assert loaded.user_vocab.ids == two_user_dataset.user_vocab.ids
    assert loaded.location_vocab.ids == two_user_dataset.location_vocab.ids
    assert_same_edges(loaded.graph.directed_edges,
                      two_user_dataset.graph.directed_edges)
    assert edge_pairs(2, loaded.graph.directed_edges) == {(0, 1), (1, 0)}
    for a, b in zip(loaded.trajectories, two_user_dataset.trajectories):
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        assert a.subtrajectory_bounds == b.subtrajectory_bounds
    # byte-stable re-save
    path2 = tmp_path / "cache2.bin"
    save_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_cache_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(lbsn_data.FormatError):
        load_dataset(path)


@pytest.mark.parametrize("location", [2, 2**64 - 1], ids=["num_locations", "u64_max"])
def test_dataset_cache_rejects_location_id_out_of_range(tmp_path, two_user_dataset,
                                                        location):
    # |L| = 2; 2**64-1 would wrap to -1 once cast to an int64 index
    path = corrupt_cache(two_user_dataset, tmp_path / "bad.bin", location=location)
    with pytest.raises(lbsn_data.FormatError, match="location id"):
        load_dataset(path)


def test_dataset_cache_rejects_edge_endpoint_out_of_range(tmp_path, two_user_dataset):
    path = corrupt_cache(two_user_dataset, tmp_path / "bad.bin", edge=(0, 2))
    with pytest.raises(lbsn_data.FormatError, match="edge"):
        load_dataset(path)


def test_dataset_cache_rejects_a_self_loop(tmp_path, two_user_dataset):
    # make_splits would hold (0, 0) out as a friend event
    path = corrupt_cache(two_user_dataset, tmp_path / "bad.bin", edge=(0, 0))
    with pytest.raises(lbsn_data.FormatError, match=r"edge \(0, 0\)"):
        load_dataset(path)


def test_dataset_cache_rejects_an_edge_without_its_reverse(tmp_path,
                                                          two_user_dataset):
    # make_splits would invent the reverse (1, 0) as a test edge
    two_user_dataset.graph = graph_of(2, {(0, 1)})
    path = tmp_path / "bad.bin"
    save_dataset(two_user_dataset, path)
    with pytest.raises(lbsn_data.FormatError, match=r"edge \(0, 1\)"):
        load_dataset(path)


@pytest.mark.parametrize("edges, named", [
    ([(0, 1), (1, 0), (2, 2), (0, 2)], (2, 2)),
    ([(0, 1), (0, 2), (1, 0), (1, 1)], (0, 2)),
    ([(1, 1), (0, 2), (0, 1), (1, 0)], (1, 1)),
    ([(2, 0), (1, 1), (1, 0), (0, 1)], (2, 0)),
], ids=["loop_first", "reverse_first", "unsorted_loop", "unsorted_reverse"])
def test_dataset_cache_names_the_first_bad_edge_in_storage_order(
        tmp_path, edges, named):
    # one self-loop and one edge without its reverse in the same file
    dataset = build_dataset(make_checkins({"a": [["x"]], "b": [["y"]],
                                           "c": [["x"]]}), [("a", "b")])
    path = cache_with_edges(dataset, tmp_path / "bad.bin", edges)
    with pytest.raises(lbsn_data.FormatError,
                       match=rf"edge \({named[0]}, {named[1]}\) is a "
                             "self-loop or lacks its reverse"):
        load_dataset(path)


def test_dataset_cache_accepts_unsorted_edges(tmp_path):
    # a repeated edge is refused (tests/test_corrupt_files.py)
    dataset = build_dataset(make_checkins({"a": [["x"]], "b": [["y"]],
                                           "c": [["x"]]}), [("a", "b")])
    path = cache_with_edges(dataset, tmp_path / "ok.bin",
                            [(1, 0), (2, 1), (0, 1), (1, 2)])
    graph = load_dataset(path).graph
    assert graph.directed_edges.tolist() == [1, 3, 5, 7]
    assert edge_pairs(3, graph.directed_edges) == {(0, 1), (1, 0), (1, 2),
                                                   (2, 1)}
    assert [a.tolist() for a in graph.adjacency] == [[1], [0, 2], [1]]


def test_string_table_layout():
    # u64 entry count, u64 byte length, then the ids joined by "\n" as UTF-8
    assert lbsn_data._string_table(["a", "", "\u00fc\u00df"]) == (
        struct.pack("<QQ", 3, 7) + b"a\n\n" + "\u00fc\u00df".encode("utf-8"))


@pytest.mark.parametrize("ids", [[], [""], ["a", ""], ["", "a"],
                                 ["\u00fc\u00df", "\u65e5\u672c", "a b\t\r"]],
                         ids=["empty", "one_empty_id", "empty_last",
                              "empty_first", "non_ascii"])
def test_string_table_round_trip(tmp_path, ids):
    path = tmp_path / "table.bin"
    path.write_bytes(lbsn_data._string_table(ids) + b"next")
    with open(path, "rb") as handle:
        assert lbsn_data._read_string_table(handle) == ids
        assert handle.read() == b"next"


@pytest.mark.parametrize("count, blob", [(0, b"a"), (2, b""), (2, b"a"),
                                         (1, b"a\nb")],
                         ids=["none_with_bytes", "two_in_empty", "two_in_one",
                              "one_in_two"])
def test_string_table_count_must_match(tmp_path, count, blob):
    path = tmp_path / "table.bin"
    path.write_bytes(struct.pack("<QQ", count, len(blob)) + blob)
    with open(path, "rb") as handle, pytest.raises(lbsn_data.FormatError,
                                                   match="vocabulary"):
        lbsn_data._read_string_table(handle)


def test_dataset_cache_rejects_non_utf8_vocabulary(tmp_path, two_user_dataset):
    path = tmp_path / "bad.bin"
    save_dataset(two_user_dataset, path)
    raw = bytearray(path.read_bytes())
    # header (24 bytes), user count and byte length (16), the first byte
    raw[24 + 16] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(lbsn_data.FormatError, match="UTF-8"):
        load_dataset(path)


@pytest.mark.parametrize("vocab", ["user", "location"])
def test_save_dataset_refuses_a_newline_in_an_id(tmp_path, two_user_dataset,
                                                 vocab):
    # the id would load as two; nothing is written, an older cache stays
    path = tmp_path / "cache.bin"
    path.write_bytes(b"older")
    getattr(two_user_dataset, f"{vocab}_vocab").ids[0] = "x\ny"
    with pytest.raises(lbsn_data.FormatError, match="newline"):
        save_dataset(two_user_dataset, path)
    assert path.read_bytes() == b"older"


def _checkin_sections(dataset):
    """Byte offsets of the offsets, locations and timestamps of a cache."""
    offsets = 24 + sum(len(lbsn_data._string_table(v.ids)) for v in (
        dataset.user_vocab, dataset.location_vocab))
    locations = offsets + 8 * (dataset.num_users + 1)
    return offsets, locations, locations + 8 * dataset.num_checkins


def test_dataset_cache_check_in_columns_layout(tmp_path, two_user_dataset):
    # |V| + 1 u64 offsets, every location id (u64), every timestamp (i64)
    path = tmp_path / "cache.bin"
    save_dataset(two_user_dataset, path)
    raw = path.read_bytes()
    offsets, locations, timestamps = _checkin_sections(two_user_dataset)
    trajectories = two_user_dataset.trajectories
    assert raw[offsets:locations] == struct.pack("<3Q", 0, 3, 6)
    assert raw[locations:timestamps] == struct.pack(
        "<6Q", *[l for t in trajectories for l in t.locations.tolist()])
    assert raw[timestamps:timestamps + 48] == struct.pack(
        "<6q", *[s for t in trajectories for s in t.timestamps.tolist()])
    edges = sorted(edge_pairs(2, two_user_dataset.graph.directed_edges))
    assert raw[timestamps + 48:] == struct.pack("<Q", 2) + struct.pack(
        "<4Q", *edges[0], *edges[1])


def test_corrupt_location_ids_are_written_as_u64(tmp_path, two_user_dataset):
    # a location column mixing uint64 and int64 arrays must not turn float
    path = corrupt_cache(two_user_dataset, tmp_path / "bad.bin",
                         location=2**64 - 1)
    _, locations, _ = _checkin_sections(two_user_dataset)
    raw = path.read_bytes()
    assert raw[locations:locations + 8] == struct.pack("<Q", 2**64 - 1)
    assert raw[locations + 8:locations + 16] == struct.pack(
        "<Q", int(two_user_dataset.trajectories[0].locations[1]))


def _patched(path, offset, fmt, value):
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("index, value, match", [
    (0, 1, "offsets"), (1, 7, "offsets"), (1, 2**63, "offsets"),
    (2, 5, None), (2, 7, None), (2, 2**61, "truncated locations")],
    ids=["first_not_zero", "falls", "falls_huge", "short_of_columns",
         "past_columns", "huge_last"])
def test_dataset_cache_rejects_bad_offsets(tmp_path, two_user_dataset, index,
                                           value, match):
    # the true offsets are 0, 3, 6
    path = tmp_path / "bad.bin"
    save_dataset(two_user_dataset, path)
    offsets, _, _ = _checkin_sections(two_user_dataset)
    _patched(path, offsets + 8 * index, "<Q", value)
    with pytest.raises(lbsn_data.FormatError, match=match):
        load_dataset(path)


def test_timestamps_may_fall_only_across_a_user_boundary(tmp_path,
                                                         two_user_dataset):
    # both users' check-ins start at the same second, so the column falls
    # from user "a"'s last to user "b"'s first
    a, b = two_user_dataset.trajectories
    assert a.timestamps[-1] > b.timestamps[0]
    path = tmp_path / "cache.bin"
    save_dataset(two_user_dataset, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.trajectories[1].timestamps,
                                  b.timestamps)
    b.timestamps = b.timestamps[[0, 2, 1]]
    save_dataset(two_user_dataset, path)
    with pytest.raises(lbsn_data.FormatError,
                       match="user 1 has a negative or falling timestamp"):
        load_dataset(path)


def test_dataset_cache_round_trips_empty_users(tmp_path):
    # empty users first, between and last give repeated offsets
    rng = np.random.default_rng(4)
    lengths = [0, 5, 0, 0, 1, 9, 0]
    trajectories = []
    for u, n in enumerate(lengths):
        ts = np.cumsum(rng.choice([0, 100, SIX_HOURS, SIX_HOURS + 1], size=n))
        trajectories.append(lbsn_data.Trajectory(
            user_index=u, locations=rng.integers(0, 3, size=n),
            timestamps=ts + rng.integers(0, 10**6),
            subtrajectory_bounds=split_into_subtrajectories(ts)))
    users = [f"u{u}" for u in range(len(lengths))]
    dataset = lbsn_data.Dataset(
        graph=graph_of(len(users), {(0, 6), (6, 0)}),
        trajectories=trajectories,
        user_vocab=lbsn_data.Vocab.from_sorted_ids(users),
        location_vocab=lbsn_data.Vocab.from_sorted_ids(["x", "y", "z"]))
    path = tmp_path / "cache.bin"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    for a, b in zip(loaded.trajectories, trajectories, strict=True):
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        assert a.subtrajectory_bounds == b.subtrajectory_bounds
    assert edge_pairs(7, loaded.graph.directed_edges) == {(0, 6), (6, 0)}


def test_tsv_round_trip(tmp_path, two_user_dataset):
    checkins = make_checkins({"a": [["x", "y"], ["y"]], "b": [["y", "x", "x"]]})
    cpath, epath = tmp_path / "c.tsv", tmp_path / "e.tsv"
    write_checkins_tsv(checkins, cpath)
    write_edges_tsv([("a", "b")], epath)
    rebuilt = build_dataset(parse_checkins(cpath), parse_edges(epath))
    for a, b in zip(rebuilt.trajectories, two_user_dataset.trajectories):
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)


def test_full_train_splits(two_user_dataset):
    sp = full_train_splits(two_user_dataset)
    assert sp.train_end.tolist() == [2, 1]
    assert sp.test_start.tolist() == [2, 1]
    assert edge_pairs(2, sp.test_edges) == set()
    assert sp.train_edges is two_user_dataset.graph.directed_edges
