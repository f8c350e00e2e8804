import numpy as np
import pytest

from lbsnrec import data as lbsn_data
from lbsnrec import evaluation
from lbsnrec import model as lbsn_model
from lbsnrec.evaluation import (eval_friend_rec, eval_next_location,
                                recall_at_k, write_reports_csv)
from lbsnrec.model import FULL_VARIANT, BASE_VARIANT, ModelParams, VariantMask

from conftest import make_checkins
from property_checks import (random_params, reference_eval_friend_rec,
                             reference_eval_next_location)


def test_recall_at_k_examples():
    ranked = ["c", "b", "a", "e", "d", "f", "g"]
    assert recall_at_k(ranked, {"a"}, 5) == 1.0
    assert recall_at_k(ranked, {"a"}, 2) == 0.0
    assert recall_at_k(ranked, {"c", "g"}, 5) == 0.5


def test_recall_at_k_empty_truth_rejected():
    with pytest.raises(ValueError):
        recall_at_k(["a"], set(), 3)


def _dataset_with_test_events(num_users=3, num_locations=8):
    layout = {}
    for u in range(num_users):
        layout[f"u{u}"] = [[f"l{(u + s + i) % num_locations}" for i in range(3)]
                         for s in range(10)]
    edges = [("u0", "u1"), ("u1", "u2")]
    return lbsn_data.build_dataset(make_checkins(layout), edges)


def test_perfect_model_recall_one():
    # every test check-in is at l1; give l1 the winning logit everywhere
    layout = {"u0": [["a", "b", "c"]] * 8 + [["l1", "l1"], ["l1", "l1"]]}
    ds = lbsn_data.build_dataset(make_checkins(layout), [])
    splits = lbsn_data.Splits(train_end=np.array([8]), test_start=np.array([8]),
                              train_edges=set(), test_edges=set())
    params = ModelParams.zeros(1, ds.num_locations, 2)
    params.U_out[ds.location_vocab.index["l1"]] = 1.0
    params.P[0] = 1.0
    report = eval_next_location(params, FULL_VARIANT, ds, splits, ks=(1,),
                                part="test")
    assert report.recall_at[1] == 1.0
    assert report.num_events == 4


def test_chance_level_recall_with_random_params():
    layout = {"u0": [[f"l{i:03d}" for i in range(100)]] +
                  [[f"l{(7 * s) % 100:03d}" for _ in range(5)] for s in range(10)]}
    ds = lbsn_data.build_dataset(make_checkins(layout), [])
    splits = lbsn_data.Splits(train_end=np.array([1]), test_start=np.array([1]),
                              train_edges=set(), test_edges=set())
    values = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 1, 100, 4, scale=0.02)
        rep = eval_next_location(params, FULL_VARIANT, ds, splits, ks=(5,),
                                 part="test")
        values.append(rep.recall_at[5])
    assert 0.02 <= np.mean(values) <= 0.08


def test_new_only_skips_revisits():
    # test subtrajectory revisits only previously seen locations
    layout = {"u0": [["a", "b", "c"], ["d", "e", "f"], ["a", "b"]]}
    ds = lbsn_data.build_dataset(make_checkins(layout), [])
    splits = lbsn_data.Splits(train_end=np.array([2]), test_start=np.array([2]),
                              train_edges=set(), test_edges=set())
    rng = np.random.default_rng(0)
    params = random_params(rng, 1, ds.num_locations, 3, scale=0.1)
    report = eval_next_location(params, FULL_VARIANT, ds, splits, ks=(1, 5),
                                mode="new-only", part="test")
    assert report.num_events == 0
    assert report.recall_at == {}


def test_new_only_counts_new_locations_and_restricts_candidates():
    layout = {"u0": [["a", "b"], ["c", "a"]]}
    ds = lbsn_data.build_dataset(make_checkins(layout), [])
    splits = lbsn_data.Splits(train_end=np.array([1]), test_start=np.array([1]),
                              train_edges=set(), test_edges=set())
    params = ModelParams.zeros(1, 3, 2)
    # give already-visited locations huge scores: they must be excluded from
    # the candidate set, so the new location "c" still ranks first
    params.U_out[ds.location_vocab.index["a"]] = 5.0
    params.U_out[ds.location_vocab.index["b"]] = 5.0
    params.P[0] = 1.0
    report = eval_next_location(params, FULL_VARIANT, ds, splits, ks=(1,),
                                mode="new-only", part="test")
    assert report.num_events == 1   # "c" is new; the final "a" is skipped
    assert report.recall_at[1] == 1.0


def test_general_event_count_equals_test_checkins():
    ds = _dataset_with_test_events()
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=3)
    rng = np.random.default_rng(1)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.1)
    report = eval_next_location(params, FULL_VARIANT, ds, splits, part="test")
    expected = sum(
        sum(e - b for b, e in t.subtrajectory_bounds[splits.test_start[u]:])
        for u, t in enumerate(ds.trajectories))
    assert report.num_events == expected


def test_cold_start_slice_filters_users():
    layout = {"u0": [[f"l{s}"] for s in range(8)],   # 8 subtrajectories
            "u1": [[f"l{s}"] for s in range(4)]}   # 4 subtrajectories
    ds = lbsn_data.build_dataset(make_checkins(layout), [])
    splits = lbsn_data.Splits(train_end=np.array([6, 3]),
                              test_start=np.array([6, 3]),
                              train_edges=set(), test_edges=set())
    rng = np.random.default_rng(2)
    params = random_params(rng, 2, ds.num_locations, 2, scale=0.1)
    all_users = eval_next_location(params, FULL_VARIANT, ds, splits, part="test")
    cold = eval_next_location(params, FULL_VARIANT, ds, splits, part="test",
                              user_slice="cold-start")
    assert all_users.num_events == 2 + 1
    assert cold.num_events == 1     # only u1 qualifies (4 <= 5)


def test_teacher_forcing_consumes_ground_truth(monkeypatch):
    ds = _dataset_with_test_events(num_users=2)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=1)
    rng = np.random.default_rng(3)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.3)
    consumed = []
    forward = evaluation.forward_trajectory

    def recording_forward(params, mask, users, views):
        trace = forward(params, mask, users, views)
        for b, (locations, bounds) in enumerate(views):
            consumed.extend(locations.tolist())
            # every consumed location advances the recurrences in the trace
            assert bounds[-1][1] == len(locations) == trace.lengths[b]
            assert np.all(trace.long_hidden[b, len(locations) + 1:] == 0.0)
            assert np.any(trace.long_hidden[b, len(locations)] != 0.0)
        return trace

    monkeypatch.setattr(evaluation, "forward_trajectory", recording_forward)
    eval_next_location(params, FULL_VARIANT, ds, splits, part="test")
    expected = []
    for u, traj in enumerate(ds.trajectories):
        hi = len(traj.subtrajectory_bounds)
        end = traj.subtrajectory_bounds[hi - 1][1]
        expected.extend(traj.locations[:end].tolist())
    assert consumed == expected


def test_variant_masks_change_scores_not_protocol():
    ds = _dataset_with_test_events()
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=0)
    rng = np.random.default_rng(4)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.4)
    full = eval_next_location(params, FULL_VARIANT, ds, splits, part="test")
    base = eval_next_location(params, BASE_VARIANT, ds, splits, part="test")
    assert full.num_events == base.num_events


# ---------------------------------------------------------------------------
# batched eval against the per-position reference
# ---------------------------------------------------------------------------

ALL_VARIANTS = [VariantMask(s, g) for s in (True, False) for g in (True, False)]


def _revisiting_dataset(seed, num_users=7, num_locations=15):
    """Users with 2-9 subtrajectories of 1-4 check-ins drawn with revisits."""
    rng = np.random.default_rng(seed)
    layout = {}
    for u in range(num_users):
        layout[f"u{u}"] = [
            [f"l{int(x):02d}" for x in rng.integers(0, num_locations,
                                                    size=int(rng.integers(1, 5)))]
            for _ in range(int(rng.integers(2, 10)))]
    ds = lbsn_data.build_dataset(make_checkins(layout), [])
    # large held-out shares give cold-start users test and validation events
    splits = lbsn_data.make_splits(ds, trajectory_train_frac=0.6,
                                   validation_frac_of_train=0.3, seed=seed)
    return ds, splits


def _assert_matches_reference(params, mask, ds, splits, **kwargs):
    batched_users, reference_users = {}, {}
    batched = eval_next_location(params, mask, ds, splits, ks=(1, 3, 5),
                                 per_user_out=batched_users, **kwargs)
    reference = reference_eval_next_location(params, mask, ds, splits,
                                             ks=(1, 3, 5),
                                             per_user_out=reference_users,
                                             **kwargs)
    assert batched.num_events == reference.num_events
    assert batched.recall_at == reference.recall_at
    assert batched_users == reference_users
    return batched


@pytest.mark.parametrize("mask", ALL_VARIANTS,
                         ids=["full", "short_only", "long_only", "base"])
@pytest.mark.parametrize("part", ["validation", "test"])
@pytest.mark.parametrize("user_slice", ["all", "cold-start"])
@pytest.mark.parametrize("mode", ["general", "new-only"])
def test_batched_eval_matches_reference(mode, user_slice, part, mask):
    events = 0
    for seed in range(3):
        ds, splits = _revisiting_dataset(seed)
        params = random_params(np.random.default_rng(seed), ds.num_users,
                               ds.num_locations, 3, scale=0.8)
        report = _assert_matches_reference(params, mask, ds, splits, mode=mode,
                                           user_slice=user_slice, part=part)
        events += report.num_events
    assert events > 0


@pytest.mark.parametrize("mode", ["general", "new-only"])
def test_batched_eval_matches_reference_all_ties(mode):
    # zero parameters: every score ties, so ranks are pure index order
    ds, splits = _revisiting_dataset(4)
    params = ModelParams.zeros(ds.num_users, ds.num_locations, 3)
    for part in ("validation", "test"):
        report = _assert_matches_reference(params, FULL_VARIANT, ds, splits,
                                           mode=mode, part=part)
        assert report.num_events > 0


@pytest.mark.parametrize("rows_per_block", [1, 2, 3])
@pytest.mark.parametrize("mode", ["general", "new-only"])
def test_batched_eval_rows_straddle_score_blocks(monkeypatch, mode,
                                                 rows_per_block):
    ds, splits = _revisiting_dataset(5, num_users=9)
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES",
                        rows_per_block * ds.num_locations)
    params = random_params(np.random.default_rng(5), ds.num_users,
                           ds.num_locations, 3, scale=0.8)
    per_user = {}
    eval_next_location(params, FULL_VARIANT, ds, splits, mode=mode,
                       part="test", per_user_out=per_user)
    # some user's positions fall into more than one block
    assert max(r["events"] for r in per_user.values()) > rows_per_block
    _assert_matches_reference(params, FULL_VARIANT, ds, splits, mode=mode,
                              part="test")


@pytest.mark.parametrize("rows_per_block", [4, 10])
@pytest.mark.parametrize("mode", ["general", "new-only"])
def test_batched_eval_score_blocks_hold_whole_users(monkeypatch, mode,
                                                    rows_per_block):
    ds, splits = _revisiting_dataset(7, num_users=9)
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES",
                        rows_per_block * ds.num_locations)
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS",
                        2 * max(len(t) for t in ds.trajectories))
    blocks = []
    evaluated_rows = evaluation._evaluated_rows

    def recording_rows(*args):
        for rows in evaluated_rows(*args):
            blocks.append(rows[0])
            yield rows

    monkeypatch.setattr(evaluation, "_evaluated_rows", recording_rows)
    params = random_params(np.random.default_rng(7), ds.num_users,
                           ds.num_locations, 3, scale=0.8)
    _assert_matches_reference(params, FULL_VARIANT, ds, splits, mode=mode,
                              part="test")
    owners = np.concatenate(blocks)
    assert np.all(np.diff(owners) >= 0) and len(blocks) > 1
    for block, after in zip(blocks, blocks[1:] + [None]):
        users = np.unique(block)
        # whole users: at most rows_per_block rows unless one user has more
        assert len(users) == 1 or len(block) <= rows_per_block
        if after is not None:
            assert after[0] > users[-1]
            # full: the next block's first user would not have fitted
            assert len(block) + np.count_nonzero(after == after[0]) > rows_per_block


@pytest.mark.parametrize("users_per_group", [1, 2, 3])
@pytest.mark.parametrize("mode", ["general", "new-only"])
def test_batched_eval_forward_groups_straddle_score_blocks(monkeypatch, mode,
                                                           users_per_group):
    ds, splits = _revisiting_dataset(6, num_users=9)
    bound = users_per_group * max(len(t) for t in ds.trajectories)
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", bound)
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES", 2 * ds.num_locations)
    groups = []
    forward = evaluation.forward_trajectory

    def recording_forward(params, mask, users, views):
        groups.append((list(users), [len(locs) for locs, _ in views]))
        return forward(params, mask, users, views)

    monkeypatch.setattr(evaluation, "forward_trajectory", recording_forward)
    params = random_params(np.random.default_rng(6), ds.num_users,
                           ds.num_locations, 3, scale=0.8)
    for mask in ALL_VARIANTS:
        groups.clear()
        _assert_matches_reference(params, mask, ds, splits, mode=mode,
                                  part="test")
        # groups follow user order; each fits the bound or is one user
        order = [u for users, _ in groups for u in users]
        assert order == sorted(order) and len(groups) > 1
        for users, lengths in groups:
            assert len(users) == 1 or len(users) * max(lengths) <= bound
        assert max(len(users) for users, _ in groups) >= users_per_group


# ---------------------------------------------------------------------------
# friend recommendation
# ---------------------------------------------------------------------------

def _friend_setup(num_users=5):
    layout = {f"u{v}": [["x"]] for v in range(num_users)}
    ds = lbsn_data.build_dataset(make_checkins(layout),
                                 [(f"u{i}", f"u{j}") for i in range(num_users)
                                  for j in range(i + 1, num_users)])
    return ds


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
@pytest.mark.parametrize("zero", [False, True], ids=["random", "all_ties"])
@pytest.mark.parametrize("user_slice", ["all", "low-degree"])
def test_batched_friend_rec_matches_reference(monkeypatch, user_slice, zero,
                                              rows_per_block):
    # 12 users; ~55% of pairs are friends, half of them held out
    rng = np.random.default_rng(11)
    edges = [(f"u{i}", f"u{j}") for i in range(12) for j in range(i + 1, 12)
             if rng.random() < 0.55]
    ds = lbsn_data.build_dataset(
        make_checkins({f"u{v}": [["x"]] for v in range(12)}), edges)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=11)
    if rows_per_block is not None:
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES",
                            rows_per_block * ds.num_users)
    params = (ModelParams.zeros(ds.num_users, ds.num_locations, 3) if zero
              else random_params(rng, ds.num_users, ds.num_locations, 3,
                                 scale=0.8))
    batched_users, reference_users = {}, {}
    batched = eval_friend_rec(params, ds, splits, ks=(1, 5, 10),
                              user_slice=user_slice,
                              per_user_out=batched_users)
    reference = reference_eval_friend_rec(params, ds, splits, ks=(1, 5, 10),
                                          user_slice=user_slice,
                                          per_user_out=reference_users)
    assert batched.num_events == reference.num_events > 0
    assert batched.recall_at == reference.recall_at
    assert batched_users == reference_users
    # some user's held-out friends fall into more than one block
    if rows_per_block is not None:
        assert max(r["events"] for r in batched_users.values()) > rows_per_block


def test_friend_rec_planted_winner():
    ds = _friend_setup(3)
    splits = lbsn_data.Splits(train_end=np.ones(3, dtype=int),
                              test_start=np.ones(3, dtype=int),
                              train_edges=set(),
                              test_edges={(0, 1), (1, 0)})
    params = ModelParams.zeros(3, 1, 2)
    params.F[0] = [3.0, 0.0]
    params.F_ctx[1] = [3.0, 0.0]
    params.F[1] = [3.0, 0.0]
    params.F_ctx[0] = [3.0, 0.0]
    report = eval_friend_rec(params, ds, splits, ks=(5,))
    assert report.recall_at[5] == 1.0
    assert report.num_events == 2


def test_friend_rec_zero_params_index_tie_break():
    # all scores equal: candidates rank by ascending index
    ds = _friend_setup(5)
    test_edges = {(0, 3), (3, 0), (1, 4), (4, 1)}
    train_edges = {(0, 1), (1, 0)}
    splits = lbsn_data.Splits(train_end=np.ones(5, dtype=int),
                              test_start=np.ones(5, dtype=int),
                              train_edges=train_edges, test_edges=test_edges)
    params = ModelParams.zeros(5, 1, 2)
    # hand enumeration: candidates of 0 are {2,3,4} (1 is a train friend);
    # truth 3 ranks 2nd. candidates of 3 are {0,1,2,4}; truth 0 ranks 1st.
    # candidates of 1 are {2,3,4}; truth 4 ranks 3rd. candidates of 4 are
    # {0,1,2,3}; truth 1 ranks 2nd.
    r2 = eval_friend_rec(params, ds, splits, ks=(2,))
    assert r2.recall_at[2] == pytest.approx(3 / 4)
    r1 = eval_friend_rec(params, ds, splits, ks=(1,))
    assert r1.recall_at[1] == pytest.approx(1 / 4)


def test_friend_rec_two_block_structure():
    ds = _friend_setup(6)
    test_edges = {(0, 1), (1, 0), (3, 4), (4, 3)}
    splits = lbsn_data.Splits(train_end=np.ones(6, dtype=int),
                              test_start=np.ones(6, dtype=int),
                              train_edges=set(), test_edges=test_edges)
    params = ModelParams.zeros(6, 1, 2)
    for v in range(6):
        block = 0 if v < 3 else 1
        params.F[v] = params.F_ctx[v] = [4.0 * (1 - block), 4.0 * block]
    report = eval_friend_rec(params, ds, splits, ks=(2,))
    # within-block candidates outrank cross-block ones, so both held-out
    # friends land in the top 2 of their block
    assert report.recall_at[2] == 1.0


def test_friend_rec_low_degree_slice():
    ds = _friend_setup(8)
    train_edges = set()
    for j in range(1, 6):
        train_edges |= {(0, j), (j, 0)}   # user 0 has 5 training friends
    test_edges = {(0, 6), (6, 0), (1, 7), (7, 1)}
    splits = lbsn_data.Splits(train_end=np.ones(8, dtype=int),
                              test_start=np.ones(8, dtype=int),
                              train_edges=train_edges, test_edges=test_edges)
    rng = np.random.default_rng(5)
    params = random_params(rng, 8, 1, 2, scale=0.2)
    all_report = eval_friend_rec(params, ds, splits, ks=(5,))
    low = eval_friend_rec(params, ds, splits, ks=(5,), user_slice="low-degree")
    assert all_report.num_events == 4
    assert low.num_events == 3  # user 0 excluded (degree 5 not < 5)


def test_friend_rec_skips_users_without_heldout():
    ds = _friend_setup(4)
    splits = lbsn_data.Splits(train_end=np.ones(4, dtype=int),
                              test_start=np.ones(4, dtype=int),
                              train_edges={(0, 1), (1, 0)}, test_edges=set())
    params = ModelParams.zeros(4, 1, 2)
    report = eval_friend_rec(params, ds, splits)
    assert report.num_events == 0 and report.recall_at == {}


def test_reports_csv(tmp_path):
    rep = evaluation.EvalReport(task="friend", mode="-", user_slice="all",
                                recall_at={5: 0.25, 10: 0.5}, num_events=8)
    empty = evaluation.EvalReport(task="next-location", mode="new-only",
                                  user_slice="all", recall_at={}, num_events=0)
    path = tmp_path / "r.csv"
    write_reports_csv([rep, empty], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "task,mode,slice,K,recall,num_events"
    assert lines[1] == "friend,-,all,5,0.25,8"
    assert lines[3] == "next-location,new-only,all,,,0"
