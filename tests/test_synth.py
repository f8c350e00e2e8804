import io
from collections import defaultdict
from itertools import permutations

import numpy as np
import pytest

from lbsnrec import data as lbsn_data
from lbsnrec import synth
from lbsnrec.synth import (SynthConfig, chance_baselines, community_block,
                           community_of_user, generate, generate_raw,
                           planted_chains, shared_block)

from property_checks import (assert_same_edges, community_oracle_recall,
                             edge_pairs, write_checkins_tsv, write_edges_tsv)


def small_config(**kwargs):
    defaults = dict(num_communities=2, users_per_community=5,
                    locations_per_community=8, shared_locations=3,
                    intra_edge_prob=0.5, inter_edge_prob=0.05,
                    subtrajectories_per_user=4, locations_per_subtrajectory=5,
                    markov_stickiness=0.6, seed=0)
    defaults.update(kwargs)
    return SynthConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(intra_edge_prob=0.05, inter_edge_prob=0.05)
    with pytest.raises(ValueError):
        small_config(markov_stickiness=1.5)
    with pytest.raises(ValueError):
        small_config(users_per_community=0)


def test_disconnected_blocks_without_inter_edges():
    cfg = small_config(inter_edge_prob=0.0, intra_edge_prob=0.6, seed=3)
    ds = generate(cfg)
    for i, j in edge_pairs(cfg.num_users, ds.graph.directed_edges):
        assert community_of_user(cfg, i) == community_of_user(cfg, j)


@pytest.mark.parametrize("seed", [0, 7])
def test_edges_match_the_scalar_pair_loop(seed):
    # one uniform draw per pair (i, j > i) in row-major order, as a scalar
    # edge_rng.random() per pair drew them
    cfg = small_config(num_communities=3, users_per_community=4,
                       intra_edge_prob=0.6, inter_edge_prob=0.2, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0,)))
    want = []
    for i in range(cfg.num_users):
        for j in range(i + 1, cfg.num_users):
            same = community_of_user(cfg, i) == community_of_user(cfg, j)
            p = cfg.intra_edge_prob if same else cfg.inter_edge_prob
            if rng.random() < p:
                want.append((synth.user_name(i), synth.user_name(j)))
    _, edges = generate_raw(cfg)
    assert edges == want
    assert any(community_of_user(cfg, int(u[1:])) != community_of_user(
        cfg, int(v[1:])) for u, v in edges)


def test_full_stickiness_follows_planted_chain():
    cfg = small_config(markov_stickiness=1.0, seed=5)
    ds = generate(cfg)
    chains = planted_chains(cfg)
    for u, traj in enumerate(ds.trajectories):
        succ = chains[community_of_user(cfg, u)]["successor"]
        entry = chains[community_of_user(cfg, u)]["entry"]
        for b, e in traj.subtrajectory_bounds:
            for p in range(b + 1, e):
                prev = int(traj.locations[p - 1])
                expected = succ.get(prev, entry)
                assert int(traj.locations[p]) == expected


def test_generate_deterministic_bytes(tmp_path):
    cfg = small_config(seed=9)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    lbsn_data.save_dataset(generate(cfg), p1)
    lbsn_data.save_dataset(generate(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generated_dataset_satisfies_invariants():
    cfg = small_config(seed=1)
    ds = generate(cfg)
    assert ds.num_users == cfg.num_users
    assert ds.num_locations == cfg.num_locations
    for traj in ds.trajectories:
        assert len(traj.subtrajectory_bounds) == cfg.subtrajectories_per_user
        for b, e in traj.subtrajectory_bounds:
            assert e - b == cfg.locations_per_subtrajectory
        ts = traj.timestamps
        rebuilt = lbsn_data.split_into_subtrajectories(ts)
        assert rebuilt == traj.subtrajectory_bounds
    edges = edge_pairs(cfg.num_users, ds.graph.directed_edges)
    for i, j in edges:
        assert (j, i) in edges
        assert i != j


def test_round_trip_through_tsv_pipeline(tmp_path):
    cfg = small_config(seed=7)
    checkins, edges = generate_raw(cfg)
    cpath, epath = tmp_path / "c.tsv", tmp_path / "e.tsv"
    write_checkins_tsv(checkins, cpath)
    write_edges_tsv(edges, epath)
    rebuilt = lbsn_data.build_dataset(lbsn_data.parse_checkins(cpath),
                                      lbsn_data.parse_edges(epath))
    direct = generate(cfg)
    assert_same_edges(rebuilt.graph.directed_edges, direct.graph.directed_edges)
    for a, b in zip(rebuilt.trajectories, direct.trajectories):
        # vocab may be padded in `direct`; compare by external name
        names_a = [rebuilt.location_vocab.ids[l] for l in a.locations]
        names_b = [direct.location_vocab.ids[l] for l in b.locations]
        assert names_a == names_b
        np.testing.assert_array_equal(a.timestamps, b.timestamps)


def test_friend_overlap_exceeds_nonfriend_overlap():
    for seed in range(3):
        cfg = small_config(intra_edge_prob=0.4, inter_edge_prob=0.03,
                           seed=seed, subtrajectories_per_user=6)
        ds = generate(cfg)
        rep = lbsn_data.correlation_report(ds, num_pair_samples=2000, seed=seed)
        assert rep.mean_overlap_friend_pairs is not None
        assert rep.mean_overlap_friend_pairs > rep.mean_overlap_nonfriend_pairs


def test_chance_baselines_next_location():
    cfg = small_config()
    floors = chance_baselines(cfg, ks=(5, 100))
    assert floors["next_location"][5] == pytest.approx(5 / cfg.num_locations)
    assert floors["next_location"][100] == 1.0


def test_chance_baselines_friend_enumeration():
    cfg = small_config(seed=2)
    ds = generate(cfg)
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=11)
    floors = chance_baselines(cfg, link_train_ratio=0.5, split_seed=11, ks=(3,))
    # independent enumeration of the candidate structure
    train_deg = defaultdict(int)
    truths = defaultdict(int)
    for i, _ in edge_pairs(ds.num_users, splits.train_edges):
        train_deg[i] += 1
    for i, _ in edge_pairs(ds.num_users, splits.test_edges):
        truths[i] += 1
    num = sum(t * min(1.0, 3 / (ds.num_users - 1 - train_deg[v]))
              for v, t in truths.items())
    den = sum(truths.values())
    assert floors["friend"][3] == pytest.approx(num / den)


def test_community_oracle_recall_identities():
    # one community: knowing it tells a ranker nothing, so the ceiling is chance
    cfg = small_config(num_communities=1, users_per_community=10, seed=2)
    splits = lbsn_data.make_splits(generate(cfg), link_train_ratio=0.5, seed=11)
    floors = chance_baselines(cfg, link_train_ratio=0.5, split_seed=11, ks=(3,))
    assert floors["friend"][3] < 1.0
    assert community_oracle_recall(cfg, splits, 3) == pytest.approx(
        floors["friend"][3])
    # no cross-community friends and k covers every same-community candidate set
    cfg = small_config(inter_edge_prob=0.0, seed=2)
    splits = lbsn_data.make_splits(generate(cfg), link_train_ratio=0.5, seed=11)
    assert community_oracle_recall(cfg, splits, cfg.users_per_community) == 1.0
    # cross-community friends: average over every within-block ordering
    cfg = small_config(intra_edge_prob=0.6, inter_edge_prob=0.3, seed=4)
    splits = lbsn_data.make_splits(generate(cfg), link_train_ratio=0.5, seed=11)
    k = 6
    train_adj, test_adj = defaultdict(set), defaultdict(set)
    for i, j in edge_pairs(cfg.num_users, splits.train_edges):
        train_adj[i].add(j)
    for i, j in edge_pairs(cfg.num_users, splits.test_edges):
        test_adj[i].add(j)
    hits = events = cross = 0
    for v, truth in test_adj.items():
        candidates = [u for u in range(cfg.num_users)
                      if u != v and u not in train_adj[v]]
        same = [u for u in candidates
                if community_of_user(cfg, u) == community_of_user(cfg, v)]
        other = [u for u in candidates if u not in same]
        orders = [a + b for a in permutations(same) for b in permutations(other)]
        hits += sum(len(truth.intersection(o[:k])) for o in orders) / len(orders)
        events += len(truth)
        cross += len(truth.intersection(other))
    assert cross > 0
    assert community_oracle_recall(cfg, splits, k) == pytest.approx(hits / events)


def test_community_helpers():
    cfg = small_config()
    assert community_of_user(cfg, 0) == 0
    assert community_of_user(cfg, 5) == 1
    assert community_block(cfg, 1) == (8, 16)
    assert shared_block(cfg) == (16, 19)


def _assert_same_dataset(loaded, built):
    assert loaded.user_vocab == built.user_vocab
    assert loaded.location_vocab == built.location_vocab
    assert_same_edges(loaded.graph.directed_edges, built.graph.directed_edges)
    for a, b in zip(loaded.graph.adjacency, built.graph.adjacency, strict=True):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(loaded.trajectories, built.trajectories, strict=True):
        assert a.user_index == b.user_index
        assert a.locations.dtype == b.locations.dtype == np.int64
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        assert a.subtrajectory_bounds == b.subtrajectory_bounds


@pytest.mark.parametrize("cfg", [
    SynthConfig(seed=3), small_config(seed=2),
    small_config(seed=4, subtrajectories_per_user=1,
                 locations_per_subtrajectory=1),
    small_config(seed=5, num_communities=3, shared_locations=400)],
    ids=["planted", "small", "one_checkin_each", "long_tail"])
def test_synth_cache_loads_equal_to_generated_dataset(tmp_path, cfg):
    path = tmp_path / "d.bin"
    lbsn_data.save_dataset(generate(cfg), path)
    _assert_same_dataset(lbsn_data.load_dataset(path), generate(cfg))


def test_ragged_cache_loads_equal_to_built_dataset(tmp_path):
    # gaps on both sides of six hours, equal timestamps and users of 1-40
    # check-ins starting at unrelated times
    rng = np.random.default_rng(8)
    checkins = []
    for u in range(30):
        n = int(rng.integers(1, 41))
        gaps = rng.choice([0, 60, lbsn_data.SIX_HOURS, lbsn_data.SIX_HOURS + 1,
                           10**6], size=n)
        stamps = np.cumsum(gaps) + int(rng.integers(0, 10**7))
        checkins += [lbsn_data.CheckIn(f"user{u:02d}", f"loc{int(l)}", int(t))
                     for l, t in zip(rng.integers(0, 50, size=n), stamps)]
    built = lbsn_data.build_dataset(checkins, [("user00", "user07")])
    path = tmp_path / "d.bin"
    lbsn_data.save_dataset(built, path)
    _assert_same_dataset(lbsn_data.load_dataset(path), built)
