"""Seeded synthetic LBSN generator with planted structure.

Users are partitioned into communities; edges follow a two-level block
model, each community owns a preferred location block plus a planted cyclic
transition chain over it, and check-ins either follow the chain or draw from
the community preference (90% own block, 10% shared pool). Timestamps are
exact: one-hour gaps inside a subtrajectory, seven hours between, so the
six-hour splitter reproduces the configured segmentation bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as lbsn_data

INTRA_GAP_SECONDS = 3600
INTER_GAP_SECONDS = 25200
BASE_TIMESTAMP = 1_500_000_000
OWN_BLOCK_PROB = 0.9


@dataclass
class SynthConfig:
    num_communities: int = 2
    users_per_community: int = 20
    locations_per_community: int = 30
    shared_locations: int = 6
    intra_edge_prob: float = 0.3
    inter_edge_prob: float = 0.02
    subtrajectories_per_user: int = 20
    locations_per_subtrajectory: int = 6
    markov_stickiness: float = 0.7
    seed: int = 0

    def __post_init__(self):
        counts = (self.num_communities, self.users_per_community,
                  self.locations_per_community, self.subtrajectories_per_user,
                  self.locations_per_subtrajectory)
        if any(c <= 0 for c in counts) or self.shared_locations < 0:
            raise ValueError("counts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        probs = (self.intra_edge_prob, self.inter_edge_prob,
                 self.markov_stickiness)
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.intra_edge_prob <= self.inter_edge_prob:
            raise ValueError("intra_edge_prob must exceed inter_edge_prob")

    @property
    def num_users(self):
        return self.num_communities * self.users_per_community

    @property
    def num_locations(self):
        return (self.num_communities * self.locations_per_community
                + self.shared_locations)


def user_name(index):
    return f"u{index:05d}"


def location_name(index):
    return f"l{index:05d}"


def community_of_user(config, user_index):
    return user_index // config.users_per_community


def community_block(config, community):
    start = community * config.locations_per_community
    return start, start + config.locations_per_community


def shared_block(config):
    start = config.num_communities * config.locations_per_community
    return start, start + config.shared_locations


def planted_chains(config):
    """Per-community successor map of the planted cyclic transition chain."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed,
                                                       spawn_key=(1,)))
    chains = []
    for c in range(config.num_communities):
        lo, hi = community_block(config, c)
        cycle = rng.permutation(np.arange(lo, hi))
        succ = {int(cycle[i]): int(cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))}
        chains.append({"cycle": cycle, "successor": succ,
                       "entry": int(cycle[0])})
    return chains


def generate_raw(config):
    """Synthesize (check-ins, undirected edge pairs) with external ids.

    External ids are zero-padded so the vocabulary's sorted order equals the
    generation order: internal index i names user_name(i)/location_name(i).
    """
    edge_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(0,)))
    chains = planted_chains(config)
    traj_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(2,)))

    num_users = config.num_users
    community = community_of_user(config, np.arange(num_users))
    edges = []
    for i in range(num_users):      # one draw per pair (i, j > i), in order
        p = np.where(community[i + 1:] == community[i],
                     config.intra_edge_prob, config.inter_edge_prob)
        hits = np.flatnonzero(edge_rng.random(len(p)) < p) + i + 1
        edges += [(user_name(i), user_name(j)) for j in hits.tolist()]

    sh_lo, sh_hi = shared_block(config)
    checkins = []
    for u in range(num_users):
        c = community_of_user(config, u)
        own_lo, own_hi = community_block(config, c)
        succ = chains[c]["successor"]
        entry = chains[c]["entry"]

        def draw_preference():
            if config.shared_locations and traj_rng.random() >= OWN_BLOCK_PROB:
                return int(traj_rng.integers(sh_lo, sh_hi))
            return int(traj_rng.integers(own_lo, own_hi))

        t = BASE_TIMESTAMP
        for _ in range(config.subtrajectories_per_user):
            prev = None
            for k in range(config.locations_per_subtrajectory):
                if k > 0 and traj_rng.random() < config.markov_stickiness:
                    loc = succ.get(prev, entry)
                else:
                    loc = draw_preference()
                checkins.append(lbsn_data.CheckIn(
                    user=user_name(u), location=location_name(loc), timestamp=t))
                prev = loc
                t += INTRA_GAP_SECONDS
            t += INTER_GAP_SECONDS - INTRA_GAP_SECONDS
    return checkins, edges


def generate(config):
    """Deterministic Dataset built through the standard ingestion pipeline."""
    checkins, edges = generate_raw(config)
    dataset = lbsn_data.build_dataset(checkins, edges)
    if dataset.num_locations != config.num_locations:
        # Some location was never drawn; pad the vocabulary with every planted
        # name so internal indices keep matching generation indices.
        full_names = [location_name(i) for i in range(config.num_locations)]
        full_vocab = lbsn_data.Vocab(
            ids=full_names, index={s: i for i, s in enumerate(full_names)})
        remap = np.array([full_vocab.index[name]
                          for name in dataset.location_vocab.ids],
                         dtype=np.int64)
        for traj in dataset.trajectories:
            traj.locations = remap[traj.locations]
        dataset.location_vocab = full_vocab
    return dataset


def chance_baselines(config, link_train_ratio=0.5, split_seed=0, ks=(5, 10)):
    """Expected Recall@K of a uniform random ranking on the generated instance.

    Next-location chance is K / |L| (every location is a candidate). Friend
    recommendation chance is the event-weighted mean of K / (candidate count)
    over users with held-out friends, enumerated exactly on the instance.
    """
    dataset = generate(config)
    splits = lbsn_data.make_splits(dataset, link_train_ratio=link_train_ratio,
                                   seed=split_seed)
    num_locations, n = dataset.num_locations, dataset.num_users
    next_location = {k: min(1.0, k / num_locations) for k in ks}

    train_deg, test_truths = (np.bincount(edges // n, minlength=n).tolist()
                              for edges in (splits.train_edges, splits.test_edges))
    events = len(splits.test_edges)
    friend = {}
    for k in ks:
        num = 0.0
        for v in np.flatnonzero(test_truths).tolist():
            num += test_truths[v] * min(1.0, k / (n - 1 - train_deg[v]))
        friend[k] = num / events if events else None
    return {"next_location": next_location, "friend": friend}
