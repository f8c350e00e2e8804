import itertools
import tracemalloc

import numpy as np
import pytest

from lbsnrec import data as lbsn_data
from lbsnrec import evaluation, synth, training
from lbsnrec import model as lbsn_model
from lbsnrec.evaluation import (eval_friend_rec, eval_next_location,
                                recall_at_k, write_reports_csv)
from lbsnrec.model import FULL_VARIANT, BASE_VARIANT, ModelParams, VariantMask

from conftest import make_checkins
from property_checks import (edge_keys, edge_pairs, planted_instance,
                             random_params, reference_eval_friend_rec,
                             reference_eval_next_location, unpack_trace)

NO_EDGES = np.zeros(0, dtype=np.int64)


def test_recall_at_k_examples():
    ranked = ["c", "b", "a", "e", "d", "f", "g"]
    assert recall_at_k(ranked, {"a"}, 5) == 1.0
    assert recall_at_k(ranked, {"a"}, 2) == 0.0
    assert recall_at_k(ranked, {"c", "g"}, 5) == 0.5


def test_recall_at_k_empty_truth_rejected():
    with pytest.raises(ValueError):
        recall_at_k(["a"], set(), 3)


@pytest.mark.parametrize("ks", [(0,), (-3, 5)])
def test_reports_reject_k_below_one(ks):
    # as recall_at_k does: a K < 1 row would read recall 0.0 for any model
    layout = {"u0": [["a", "b"]] * 3, "u1": [["b", "a"]] * 3}
    ds = lbsn_data.build_dataset(make_checkins(layout), [("u0", "u1")])
    splits = lbsn_data.Splits(train_end=np.array([2, 2]),
                              test_start=np.array([2, 2]), train_edges=NO_EDGES,
                              test_edges=edge_keys(2, {(0, 1), (1, 0)}))
    params = ModelParams.zeros(2, ds.num_locations, 2)
    assert eval_next_location(params, FULL_VARIANT, ds, splits, ks=(1,),
                              part="test").num_events == 4
    assert eval_friend_rec(params, ds, splits, ks=(1,)).num_events == 2
    with pytest.raises(ValueError, match="k must be >= 1"):
        eval_next_location(params, FULL_VARIANT, ds, splits, ks=ks, part="test")
    with pytest.raises(ValueError, match="k must be >= 1"):
        eval_friend_rec(params, ds, splits, ks=ks)


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
                              train_edges=NO_EDGES, test_edges=NO_EDGES)
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
                              train_edges=NO_EDGES, test_edges=NO_EDGES)
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
                              train_edges=NO_EDGES, test_edges=NO_EDGES)
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
                              train_edges=NO_EDGES, test_edges=NO_EDGES)
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
                              train_edges=NO_EDGES, test_edges=NO_EDGES)
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
    chains, forwards = [], []
    chain_fn = evaluation.long_term_chain
    forward = evaluation.forward_trajectory

    def recording_chain(params, views, caches=True):
        # ranking asks for no cells; the cached chain shows the states
        assert caches is False
        cached = chain_fn(params, views)
        for b, (locations, bounds) in enumerate(views):
            # the chain stops at the last consulted boundary, with gates in
            # (0, 1) before it
            last = bounds[-1][0]
            assert cached.steps.lengths[b] == last > 0
            split = [(locations, [(0, last), (last, len(locations))])]
            states = unpack_trace(params, FULL_VARIANT, forward(
                params, FULL_VARIANT, [b], split), split)
            assert len(states.long_hidden[0]) == last + 1
            assert np.any(states.long_hidden[0][last] != 0.0)
            assert np.all(states.gates[0][:, :2 * params.dim] > 0.0)
        chain = chain_fn(params, views, caches)
        np.testing.assert_array_equal(chain.hidden, cached.hidden)
        chains.append(chain)
        return chain

    def recording_forward(params, mask, users, views, long_states):
        forwards.append((views, long_states))
        return forward(params, mask, users, views, long_states)

    monkeypatch.setattr(evaluation, "long_term_chain", recording_chain)
    monkeypatch.setattr(evaluation, "forward_trajectory", recording_forward)
    eval_next_location(params, FULL_VARIANT, ds, splits, part="test")
    # one chain over every user's history up to their last consulted
    # boundary; the forwards take each test position, their subtrajectories
    # consulting the chain's hidden states in order
    chained, forwarded = [], []
    for u, traj in enumerate(ds.trajectories):
        bounds = traj.subtrajectory_bounds
        first = bounds[int(splits.test_start[u])][0]
        chained.extend(traj.locations[:bounds[-1][0]].tolist())
        forwarded.extend(traj.locations[first:bounds[-1][1]].tolist())
    assert len(chains) == 1 and chains[0].locations.tolist() == chained
    assert [loc for views, _ in forwards for locs, _ in views
            for loc in locs.tolist()] == forwarded
    np.testing.assert_array_equal(
        np.concatenate([states for _, states in forwards]), chains[0].hidden)


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


@pytest.mark.parametrize("users_per_group", [1, 2, 3])
@pytest.mark.parametrize("mode", ["general", "new-only"])
def test_batched_eval_forward_groups_straddle_score_blocks(monkeypatch, mode,
                                                           users_per_group):
    ds, splits = _revisiting_dataset(6, num_users=9)
    # a forward takes the part's positions of each user
    bound = users_per_group * max(len(locs) - start for _, locs, _, start in
                                  evaluation._evaluated_users(ds, splits,
                                                              "test"))
    # a rank-only forward takes groups of twice FORWARD_GROUP_POSITIONS
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS", bound / 2)
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES", 2 * ds.num_locations)
    groups, yielded = [], []
    forward = evaluation.forward_trajectory
    evaluated_rows = evaluation._evaluated_rows

    def recording_forward(params, mask, users, views, *long_states):
        groups.append((list(users), [len(locs) for locs, _ in views]))
        return forward(params, mask, users, views, *long_states)

    def recording_rows(*args):
        for rows in evaluated_rows(*args):
            yielded.append(rows[0])
            yield rows

    monkeypatch.setattr(evaluation, "forward_trajectory", recording_forward)
    monkeypatch.setattr(evaluation, "_evaluated_rows", recording_rows)
    params = random_params(np.random.default_rng(6), ds.num_users,
                           ds.num_locations, 3, scale=0.8)
    for mask in ALL_VARIANTS:
        groups.clear()
        yielded.clear()
        _assert_matches_reference(params, mask, ds, splits, mode=mode,
                                  part="test")
        # groups follow user order; each fits the bound or is one user
        order = [u for users, _ in groups for u in users]
        assert order == sorted(order) and len(groups) > 1
        for users, lengths in groups:
            assert len(users) == 1 or sum(lengths) <= bound
        assert max(len(users) for users, _ in groups) >= users_per_group
        # each yield holds one forward group's rows, its users in order
        assert len(yielded) == len(groups)
        for owners, (users, lengths) in zip(yielded, groups):
            np.testing.assert_array_equal(owners, np.repeat(users, lengths))


REPORTS = [(mode, user_slice) for mode in ("general", "new-only")
           for user_slice in ("all", "cold-start")]


@pytest.mark.parametrize("straddle", [False, True],
                         ids=["default_blocks", "straddling_blocks"])
@pytest.mark.parametrize("zero", [False, True], ids=["random", "all_ties"])
def test_shared_ranks_match_reference_for_every_report_subset(
        monkeypatch, zero, straddle):
    # 9 users with 2-9 subtrajectories: some are cold-start users
    ds, splits = _revisiting_dataset(8, num_users=9)
    assert any(t.num_subtrajectories <= evaluation.COLD_START_MAX_SUBTRAJECTORIES
               for t in ds.trajectories)
    if straddle:
        # two-user forward groups, three-row score blocks
        monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS",
                            max(len(t) for t in ds.trajectories))
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES",
                            3 * ds.num_locations)
    params = (ModelParams.zeros(ds.num_users, ds.num_locations, 3) if zero
              else random_params(np.random.default_rng(8), ds.num_users,
                                 ds.num_locations, 3, scale=0.8))
    for part in ("validation", "test"):
        reference = {}
        for mode, user_slice in REPORTS:
            users = {}
            report = reference_eval_next_location(
                params, FULL_VARIANT, ds, splits, ks=(1, 3, 5), mode=mode,
                user_slice=user_slice, part=part, per_user_out=users)
            assert report.num_events > 0
            reference[mode, user_slice] = report, users
        for size in range(1, len(REPORTS) + 1):
            for subset in itertools.combinations(REPORTS, size):
                ranks = evaluation.rank_next_locations(
                    params, FULL_VARIANT, ds, splits, part,
                    new_only=any(mode == "new-only" for mode, _ in subset),
                    cap=5)
                for mode, user_slice in subset:
                    users = {}
                    report = eval_next_location(
                        params, FULL_VARIANT, ds, splits, ks=(1, 3, 5),
                        mode=mode, user_slice=user_slice, part=part,
                        per_user_out=users, ranks=ranks)
                    expected, expected_users = reference[mode, user_slice]
                    assert report.num_events == expected.num_events
                    assert report.recall_at == expected.recall_at
                    assert users == expected_users


def test_shared_ranks_reject_reports_they_do_not_hold():
    ds, splits = _revisiting_dataset(8, num_users=9)
    params = ModelParams.zeros(ds.num_users, ds.num_locations, 3)
    ranks = evaluation.rank_next_locations(params, FULL_VARIANT, ds, splits,
                                           "test", cap=10)
    eval_next_location(params, FULL_VARIANT, ds, splits, mode="general",
                       user_slice="cold-start", ranks=ranks)
    for kwargs in ({"mode": "new-only", "user_slice": "cold-start"},
                   {"mode": "general", "user_slice": "cold-start",
                    "part": "validation"},
                   {"mode": "general", "ks": (1, 5, 11)}):
        with pytest.raises(ValueError):
            eval_next_location(params, FULL_VARIANT, ds, splits, ranks=ranks,
                               **kwargs)


@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
@pytest.mark.parametrize("kwargs", [{"mode": "old-only"},
                                    {"user_slice": "warm"}],
                         ids=["mode", "slice"])
def test_eval_next_location_rejects_unknown_mode_or_slice(kwargs, shared):
    ds, splits = _revisiting_dataset(8, num_users=9)
    params = ModelParams.zeros(ds.num_users, ds.num_locations, 3)
    ranks = (evaluation.rank_next_locations(params, FULL_VARIANT, ds, splits,
                                            "test", new_only=True, cap=10)
             if shared else None)
    with pytest.raises(ValueError, match="unknown"):
        eval_next_location(params, FULL_VARIANT, ds, splits, ranks=ranks,
                           **kwargs)


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
                              train_edges=NO_EDGES,
                              test_edges=edge_keys(3, {(0, 1), (1, 0)}))
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
    test_edges = edge_keys(5, {(0, 3), (3, 0), (1, 4), (4, 1)})
    train_edges = edge_keys(5, {(0, 1), (1, 0)})
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
    test_edges = edge_keys(6, {(0, 1), (1, 0), (3, 4), (4, 3)})
    splits = lbsn_data.Splits(train_end=np.ones(6, dtype=int),
                              test_start=np.ones(6, dtype=int),
                              train_edges=NO_EDGES, test_edges=test_edges)
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
    train_edges = edge_keys(8, train_edges)
    test_edges = edge_keys(8, {(0, 6), (6, 0), (1, 7), (7, 1)})
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
                              train_edges=edge_keys(4, {(0, 1), (1, 0)}),
                              test_edges=NO_EDGES)
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


def test_planted_validation_ranking_memory_below_the_padded_trace_peak():
    # with 512-position groups and the trace kept padded, BPTT caches
    # included, this ranking peaked at 1.57 MiB
    dataset, splits, params = planted_instance(5)
    tracemalloc.start()
    try:
        evaluation.rank_next_locations(params, FULL_VARIANT, dataset, splits,
                                       "validation", cap=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.57 * 2**20


# ---------------------------------------------------------------------------
# the counting ranker
# ---------------------------------------------------------------------------

def brute_force_ranks(scores, targets, ex_rows, ex_cols):
    """Per row: 1 + the candidates that score higher than the target, or
    the same with a smaller index; all columns, then less the excluded."""
    ranks, fewer = [], []
    for i, target in enumerate(targets):
        t = scores[i, target]
        beats = (scores[i] > t) | ((scores[i] == t)
                                   & (np.arange(scores.shape[1]) < target))
        ranks.append(1 + np.count_nonzero(beats))
        fewer.append(ranks[-1] - np.count_nonzero(beats[ex_cols[ex_rows == i]]))
    return np.array(ranks), np.array(fewer)


def tied_scores(rng, num_rows, num_columns):
    """Scores drawn from a few values, so that ties are common; the first
    row scores all columns the same."""
    scores = rng.integers(-2, 3, size=(num_rows, num_columns)) * 0.75
    scores[0] = 1.5
    return scores


def excluded_pairs(rng, scores, targets):
    """For each row, a random set of its non-target columns, which always
    holds the columns tied with its target just before and after it."""
    rows, cols = [], []
    for i, target in enumerate(targets):
        ties = np.flatnonzero(scores[i] == scores[i, target])
        before, after = ties[ties < target], ties[ties > target]
        pick = rng.random(scores.shape[1]) < 0.3
        pick[before[-1:]] = pick[after[:1]] = True
        pick[target] = False
        cols.append(np.flatnonzero(pick))
        rows.append(np.full(len(cols[-1]), i))
    return np.concatenate(rows), np.concatenate(cols)


def block_edge_targets(rng, num_rows, num_columns, width):
    """Targets in the first and last columns, on both sides of every block
    edge, and at random."""
    edges = np.arange(0, num_columns, width)
    special = np.concatenate(([0, num_columns - 1], edges, edges - 1))
    special = special[(special >= 0) & (special < num_columns)]
    return np.where(np.arange(num_rows) < len(special),
                    np.resize(special, num_rows),
                    rng.integers(num_columns, size=num_rows))


def recorded(scores, width, shift=lambda s: s):
    """A scores(rows, a, b) callback over the matrix scores that asserts
    every call, pre-pass and walk alike, asks for one block of width
    columns (the last may end past the matrix), and the list of its walk's
    calls as (a, rows). The calls before the first with slice(None) are the
    target pre-pass; their scores pass through shift."""
    walk = []

    def blocks(rows, a, b):
        assert a % width == 0
        assert b - a == width or b >= scores.shape[1]
        if isinstance(rows, slice) or walk:
            walk.append((a, rows))
            return scores[rows, a:b]
        return shift(scores[rows, a:b])

    return blocks, walk


def live_rows(scores, targets, ex_rows, cap, a):
    """The rows a single walk scores in the block from column a: all but
    those with targets before a whose columns before a scoring above the
    target, plus 1, exceed cap plus their excluded columns."""
    t = scores[np.arange(len(targets)), targets][:, None]
    beats = 1 + np.count_nonzero(scores[:, :a] > t, axis=1)
    limit = cap + np.bincount(ex_rows, minlength=len(targets))
    return np.flatnonzero((targets >= a) | (beats <= limit))


def check_capped_walk(scores, targets, ex_rows, ex_cols, cap, width):
    """Rank with rank_columns at this cap: ranks are the brute-force ranks
    up to cap and cap + 1 beyond it, and the walk scores each column block
    once, with every row until one is decided and the live rows after.
    The number of walk calls that left a row out."""
    num_rows, num_columns = scores.shape
    blocks, walk = recorded(scores, width)
    ranks, fewer = evaluation.rank_columns(blocks, targets, num_columns,
                                           ex_rows, ex_cols, cap)
    want, want_fewer = brute_force_ranks(scores, targets, ex_rows, ex_cols)
    np.testing.assert_array_equal(ranks, np.minimum(want, cap + 1))
    np.testing.assert_array_equal(fewer, np.minimum(want_fewer, cap + 1))
    assert [a for a, _ in walk] == list(range(0, num_columns, width))
    for a, rows in walk:
        live = live_rows(scores, targets, ex_rows, cap, a)
        if isinstance(rows, slice):
            assert rows == slice(None) and len(live) == num_rows
        else:
            np.testing.assert_array_equal(rows, live)
    return sum(not isinstance(rows, slice) for _, rows in walk)


@pytest.mark.parametrize("num_rows, num_columns", [(1, 1), (1, 9), (6, 1),
                                                   (13, 16), (30, 7)])
def test_rank_columns_matches_the_brute_force_rule(monkeypatch, num_rows,
                                                   num_columns):
    rng = np.random.default_rng(num_rows * 100 + num_columns)
    compacted = 0
    for width in range(1, num_columns + 1):
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES",
                            width * num_rows)
        for _ in range(4):
            scores = tied_scores(rng, num_rows, num_columns)
            targets = block_edge_targets(rng, num_rows, num_columns, width)
            ex_rows, ex_cols = excluded_pairs(rng, scores, targets)
            for cap in range(1, num_columns + 1):
                compacted += check_capped_walk(scores, targets, ex_rows,
                                               ex_cols, cap, width)
    # the first row ties every column, so a lone row is never decided
    assert compacted or num_rows == 1 or num_columns == 1


def test_rank_columns_counts_ties_at_the_cap(monkeypatch):
    # row 0's target (column 6) is beaten by 3 columns above it and 2 ties
    # before it: rank 6, and 5 without its excluded tie (column 4). Its 4
    # sure beaters decide it only at caps 1 and 2; at caps 3-5 its ranks
    # reach the cap through ties alone. Row 1 ranks first.
    scores = np.array([[1, 1, 0, 1, 0, -1, 0, -1, -1, 0, -1, -1],
                       [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]]) * 0.5
    targets, ex_rows, ex_cols = np.array([6, 11]), np.array([0]), np.array([4])
    for width in range(1, 13):
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES", 2 * width)
        for cap in range(1, 13):
            left_out = check_capped_walk(scores, targets, ex_rows, ex_cols,
                                         cap, width)
            assert bool(left_out) == (cap <= 2 and (6 // width + 1) * width
                                      < 12)


def test_rank_columns_keeps_rows_their_excluded_columns_bring_under_the_cap(
        monkeypatch):
    # 8 of 10 columns beat row 0's target (column 5), 6 of them excluded:
    # rank 9 among all columns, 3 among the new ones. At caps 3-8 the row
    # must stay in the walk for its new-only rank, although its rank
    # among all columns already exceeds the cap.
    scores = np.array([[9, 8, 7, 6, 0, 1, 5, 4, 3, 2, 10]]) + 0.5
    targets, ex_rows = np.array([5]), np.zeros(6, dtype=np.int64)
    ex_cols = np.array([0, 2, 3, 6, 8, 10])
    for width in range(1, 12):
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES", width)
        for cap in range(1, 12):
            left_out = check_capped_walk(scores, targets, ex_rows, ex_cols,
                                         cap, width)
            assert cap <= 2 or not left_out


def test_rank_columns_counts_a_lone_tie(monkeypatch):
    # distinct scores but for one column tied with the target, in every
    # place against every block width
    scores = np.random.default_rng(9).permutation(10)[None, :] + 0.5
    for width in range(1, 11):
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES", width)
        for target, tie in itertools.permutations(range(10), 2):
            tied = scores.copy()
            tied[0, tie] = tied[0, target]
            ranks, fewer = evaluation.rank_columns(
                lambda rows, a, b: tied[rows, a:b], np.array([target]), 10,
                np.array([0]), np.array([tie]), 10)
            want = 1 + np.count_nonzero(tied[0] > tied[0, target])
            assert ranks[0] == want + (tie < target)
            assert fewer[0] == want


@pytest.mark.parametrize("offset", ["one_ulp_up", "one_ulp_down", "far"])
def test_rank_columns_judges_ties_by_the_block_score(monkeypatch, offset):
    # the GEMM over the rows with targets in a later block may round
    # differently from the block's own: ties with the block's target score
    # still count by index, and a score far off walks the blocks again; a
    # row that passes the cap before its target's block stays in the walk
    # until that block
    rng = np.random.default_rng(7)
    num_rows, num_columns, width = 12, 20, 3
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES", width * num_rows)
    scores = tied_scores(rng, num_rows, num_columns) + 0.25   # none zero
    targets = block_edge_targets(rng, num_rows, num_columns, width)
    ex_rows, ex_cols = excluded_pairs(rng, scores, targets)
    shift = {"one_ulp_up": lambda s: np.nextafter(s, np.inf),
             "one_ulp_down": lambda s: np.nextafter(s, -np.inf),
             "far": lambda s: s + 1.0}[offset]
    want, want_fewer = brute_force_ranks(scores, targets, ex_rows, ex_cols)
    owns = targets // width * width     # each target block's first column
    passed_early = 0
    for cap in range(1, num_columns + 1):
        blocks, walk = recorded(scores, width, shift)
        ranks, fewer = evaluation.rank_columns(blocks, targets, num_columns,
                                               ex_rows, ex_cols, cap)
        np.testing.assert_array_equal(ranks, np.minimum(want, cap + 1))
        np.testing.assert_array_equal(fewer, np.minimum(want_fewer, cap + 1))
        assert [a for a, _ in walk] == list(range(0, num_columns, width)) * (
            2 if offset == "far" else 1)
        for a, rows in walk:    # no row leaves before its target's block
            assert np.isin(np.flatnonzero(owns == a),
                           np.arange(num_rows)[rows]).all()
        # rows whose sure beaters exceed the cap before their target's block
        t = scores[np.arange(num_rows), targets][:, None]
        beats = 1 + np.count_nonzero(
            (scores > t) & (np.arange(num_columns) < owns[:, None]), axis=1)
        passed_early += np.count_nonzero(
            beats > cap + np.bincount(ex_rows, minlength=num_rows))
    assert passed_early


def test_rank_columns_of_one_block_reads_targets_from_it():
    # one block holds every column: no GEMM before the walk
    rng = np.random.default_rng(8)
    scores = tied_scores(rng, 9, 11)
    targets = rng.integers(11, size=9)
    calls = []

    def blocks(rows, a, b):
        calls.append((rows, a, b))
        return scores[rows, a:b]

    ranks, _ = evaluation.rank_columns(blocks, targets, 11, targets[:0],
                                       targets[:0], 11)
    assert calls == [(slice(None), 0, evaluation.SCORE_BLOCK_ENTRIES // 9)]
    np.testing.assert_array_equal(
        ranks, brute_force_ranks(scores, targets, targets[:0], targets[:0])[0])


@pytest.mark.parametrize("users_per_group", [1, 2, 5])
def test_friend_rec_groups_match_reference(monkeypatch, users_per_group):
    # friend events are ranked in the groups of a rank-only forward pass
    rng = np.random.default_rng(12)
    edges = [(f"u{i}", f"u{j}") for i in range(12) for j in range(i + 1, 12)
             if rng.random() < 0.55]
    ds = lbsn_data.build_dataset(
        make_checkins({f"u{v}": [["x"]] for v in range(12)}), edges)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=12)
    most = max(sum(i == v for i, _ in edge_pairs(ds.num_users,
                                                 splits.test_edges))
               for v in range(ds.num_users))
    monkeypatch.setattr(lbsn_model, "FORWARD_GROUP_POSITIONS",
                        users_per_group * most / 2)
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_ENTRIES", 2 * ds.num_users)
    groups = []
    rank_columns = evaluation.rank_columns

    def recording(scores, targets, *rest):
        groups.append(len(targets))
        return rank_columns(scores, targets, *rest)

    monkeypatch.setattr(evaluation, "rank_columns", recording)
    params = random_params(rng, ds.num_users, ds.num_locations, 3, scale=0.8)
    for user_slice in ("all", "low-degree"):
        groups.clear()
        users, reference_users = {}, {}
        report = eval_friend_rec(params, ds, splits, ks=(1, 3, 5),
                                 user_slice=user_slice, per_user_out=users)
        reference = reference_eval_friend_rec(
            params, ds, splits, ks=(1, 3, 5), user_slice=user_slice,
            per_user_out=reference_users)
        assert report.num_events == reference.num_events > 0
        assert report.recall_at == reference.recall_at
        assert users == reference_users
        assert sum(groups) == report.num_events
        assert len(groups) > 1 and max(groups) <= max(users_per_group * most,
                                                      most)


# Peaks of rank_next_locations at the parent of the column-block ranker
# (row blocks of 2^20 scores, new-only rows ranked on a -inf-masked copy),
# measured on this part: 450 rows x 20,000 locations, d = 50.
ROW_BLOCK_PEAKS = {False: 17_470_926, True: 12_632_269}


@pytest.mark.parametrize("new_only", [False, True], ids=["general", "both"])
def test_bk_shape_ranking_memory_below_row_blocks(new_only):
    config = synth.SynthConfig(
        num_communities=5, users_per_community=10, locations_per_community=50,
        shared_locations=19750, intra_edge_prob=0.8, inter_edge_prob=0.005,
        subtrajectories_per_user=30, locations_per_subtrajectory=3, seed=11)
    dataset = synth.generate(config)
    splits = lbsn_data.make_splits(dataset, seed=11)
    params = training.init_params(training.TrainConfig(d=50, seed=3),
                                  dataset.num_users, dataset.num_locations)
    tracemalloc.start()
    try:
        ranks = evaluation.rank_next_locations(params, FULL_VARIANT, dataset,
                                               splits, "test", new_only,
                                               cap=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ranks.rows["general"][1]) == 450
    # whole-row score blocks of the 450 rows would take 72 MB
    assert peak <= ROW_BLOCK_PEAKS[new_only]
    assert peak < params.U_out.nbytes / 2
