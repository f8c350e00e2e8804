"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see every line as it
completes. Criterion 8 needs the real Brightkite dumps and is skipped unless
LBSNREC_BRIGHTKITE_DIR points at them.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lbsnrec import data as lbsn_data
from lbsnrec import evaluation, gradcheck, synth, training
from lbsnrec.model import (BASE_VARIANT, FULL_VARIANT, ModelParams,
                           load_checkpoint, location_log_prob_full)
from lbsnrec.training import TrainConfig, sampled_location_loss

from conftest import make_checkins
from property_checks import ALL_CHECKS, community_oracle_recall, random_params

PLANTED_SEEDS = (5, 6, 7, 8, 9)


def report(criterion, ok, detail):
    status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
    print(f"ACCEPTANCE {criterion} [{status}] {detail}")


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    failures = []
    for seed in range(10):
        rep = gradcheck.check_all(gradcheck.make_toy_dataset(seed=seed),
                                  gradcheck.default_toy_config(seed=seed),
                                  tolerance_rel=1e-5, tolerance_abs=1e-8)
        if not rep.passed:
            failures.append((seed, rep.failing_tensors()))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    report(1, ok, f"gradient oracle, 10 seeds, {elapsed:.1f}s "
                  f"(failures: {failures})")
    assert not failures
    assert elapsed < 60


def test_criterion_2_softmax_oracle_equivalence():
    rng = np.random.default_rng(123)
    num_locations = 50
    params = random_params(rng, 3, num_locations, 4, scale=0.5)
    worst = 0.0
    for _ in range(100):
        context = rng.normal(size=16)
        target = int(rng.integers(num_locations))
        negatives = np.array([l for l in range(num_locations) if l != target])
        loss, _, _, _ = sampled_location_loss(params, context, target, negatives)
        full = -location_log_prob_full(params, context, target)
        worst = max(worst, abs(loss - full))
    ok = worst <= 1e-12
    report(2, ok, f"sampled softmax vs full log-prob, worst |diff| = {worst:.2e}")
    assert ok


def test_criterion_3_joint_likelihood_oracle():
    checkins = make_checkins({"a": [["x", "y"]], "b": [["y"]]})
    ds = lbsn_data.build_dataset(checkins, [("a", "b")])
    params = ModelParams.zeros(2, 2, 3)
    from lbsnrec.model import joint_log_likelihood_full
    value = joint_log_likelihood_full(params, FULL_VARIANT, ds)
    # independent brute-force enumerator: 2 ordered user pairs and 3
    # check-ins, each a fair coin under zero parameters
    pair_terms = sum(1 for i in range(2) for j in range(2) if i != j)
    expected = -(pair_terms + ds.num_checkins) * math.log(2)
    ok = abs(value - expected) <= 1e-12
    report(3, ok, f"joint log-likelihood {value:.12f} vs enumerator "
                  f"{expected:.12f}")
    assert ok


def test_criterion_4_overfit(tmp_path):
    start = time.perf_counter()
    cfg = synth.SynthConfig(num_communities=1, users_per_community=4,
                            locations_per_community=10, shared_locations=0,
                            intra_edge_prob=0.5, inter_edge_prob=0.0,
                            subtrajectories_per_user=3,
                            locations_per_subtrajectory=5,
                            markov_stickiness=0.5, seed=11)
    ds = synth.generate(cfg)
    assert ds.num_users == 4 and ds.num_locations == 10
    splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=11)
    tc = TrainConfig(d=16, learning_rate=0.1, max_iterations=500, seed=7)
    path = tmp_path / "overfit.jntm"
    records = training.train(ds, splits, tc, path)
    params, mask, _, _ = load_checkpoint(path)
    rep = evaluation.eval_next_location(params, mask, ds, splits, ks=(1,),
                                        part="train")
    elapsed = time.perf_counter() - start
    recall = rep.recall_at.get(1, 0.0)
    ok = recall >= 0.9 and len(records) <= 500 and elapsed < 120
    report(4, ok, f"overfit train Recall@1 = {recall:.3f} after "
                  f"{len(records)} epochs, {elapsed:.1f}s")
    assert recall >= 0.9
    assert elapsed < 120


@pytest.fixture(scope="module")
def planted_runs(tmp_path_factory):
    """Train full and base variants on the pinned planted configuration."""
    tmp = tmp_path_factory.mktemp("planted")
    start = time.perf_counter()
    runs = {}
    for seed in PLANTED_SEEDS:
        cfg = synth.SynthConfig(num_communities=2, users_per_community=20,
                                locations_per_community=30, shared_locations=6,
                                intra_edge_prob=0.3, inter_edge_prob=0.02,
                                subtrajectories_per_user=20,
                                locations_per_subtrajectory=6,
                                markov_stickiness=0.7, seed=seed)
        ds = synth.generate(cfg)
        splits = lbsn_data.make_splits(ds, link_train_ratio=0.5, seed=seed)
        floors = synth.chance_baselines(cfg, link_train_ratio=0.5,
                                        split_seed=seed, ks=(5, 10))
        models = {}
        for name, variant in (("full", FULL_VARIANT), ("base", BASE_VARIANT)):
            tc = TrainConfig(d=16, learning_rate=0.1, max_iterations=50,
                             seed=seed, patience=10, variant=variant)
            path = tmp / f"{name}-{seed}.jntm"
            training.train(ds, splits, tc, path)
            params, mask, _, _ = load_checkpoint(path)
            models[name] = (params, mask)
        runs[seed] = {"config": cfg, "dataset": ds, "splits": splits,
                      "floors": floors, "models": models}
    runs["seconds"] = time.perf_counter() - start
    return runs


# The planted instance is a two-block model: synth draws every edge
# independently given the communities and make_splits shuffles undirected
# pairs uniformly, so for a user v all same-community candidates that are not
# training friends are exchangeable, and so are all cross-community ones. No
# ranker beats "own community first", and on these instances that ranker's
# expected Recall@10 is only about 2.1x chance. 5a therefore asks the model to
# close most of the gap between the chance floor and that exact ceiling.
MIN_FRIEND_LIFT = 0.8


def test_criterion_5a_friend_recall_vs_chance_floor(planted_runs):
    recalls, floors, ceilings = [], [], []
    for seed in PLANTED_SEEDS:
        run = planted_runs[seed]
        params, _ = run["models"]["full"]
        rep = evaluation.eval_friend_rec(params, run["dataset"], run["splits"],
                                         ks=(10,))
        recalls.append(rep.recall_at[10])
        floors.append(run["floors"]["friend"][10])
        ceilings.append(community_oracle_recall(run["config"], run["splits"],
                                                10))
    recalls, floors, ceilings = map(np.array, (recalls, floors, ceilings))
    gained = float(np.mean(recalls - floors))
    attainable = float(np.mean(ceilings - floors))
    per_seed = "; ".join(
        f"seed {seed}: recall {r:.3f} floor {f:.3f} ceiling {c:.3f} "
        f"lift {(r - f) / (c - f):.2f}"
        for seed, r, f, c in zip(PLANTED_SEEDS, recalls, floors, ceilings))
    ok = gained >= MIN_FRIEND_LIFT * attainable
    report("5a", ok,
           f"friend Recall@10 mean lift {gained / attainable:.2f} vs "
           f"{MIN_FRIEND_LIFT} of the chance-to-community-oracle gap "
           f"({per_seed})")
    assert ok, (f"mean lift {gained / attainable:.2f} < {MIN_FRIEND_LIFT} of "
                f"the gap between chance and the exact community-oracle "
                f"ceiling ({per_seed})")


def test_criterion_5b_variant_ordering(planted_runs):
    full_vals, base_vals = [], []
    for seed in PLANTED_SEEDS:
        run = planted_runs[seed]
        for name, sink in (("full", full_vals), ("base", base_vals)):
            params, mask = run["models"][name]
            rep = evaluation.eval_next_location(params, mask, run["dataset"],
                                                run["splits"], ks=(5,),
                                                part="test")
            sink.append(rep.recall_at[5])
    mean_full = float(np.mean(full_vals))
    mean_base = float(np.mean(base_vals))
    elapsed = planted_runs["seconds"]
    ok = mean_full >= mean_base and elapsed < 600
    report("5b", ok,
           f"next-location Recall@5 full = {mean_full:.3f} >= base = "
           f"{mean_base:.3f} over {len(PLANTED_SEEDS)} seeds "
           f"(training {elapsed:.0f}s)")
    assert mean_full >= mean_base
    assert elapsed < 600


def test_criterion_6_train_determinism(tmp_path):
    data_path = tmp_path / "d.bin"
    cfg = synth.SynthConfig(num_communities=2, users_per_community=5,
                            locations_per_community=8, shared_locations=2,
                            intra_edge_prob=0.5, inter_edge_prob=0.05,
                            subtrajectories_per_user=6,
                            locations_per_subtrajectory=4,
                            markov_stickiness=0.6, seed=21)
    lbsn_data.save_dataset(synth.generate(cfg), data_path)
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"d": 6, "max_iterations": 2, "seed": 3,
                                       "n1_per_user": 10, "n2": 10}))
    outputs = []
    env = {**os.environ, "PYTHONPATH": str(Path(training.__file__).parents[1])}
    for tag in ("a", "b"):
        model = tmp_path / f"{tag}.jntm"
        log = tmp_path / f"{tag}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "lbsnrec.cli", "--threads", "1", "train",
             "--data", str(data_path), "--config", str(config_path),
             "--out", str(model), "--log", str(log)],
            env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append((model.read_bytes(), log.read_text()))
    checkpoints_equal = outputs[0][0] == outputs[1][0]
    # the seconds column is wall time and cannot be bit-reproducible;
    # compare every other field
    strip = lambda text: [line.rsplit(",", 1)[0]
                          for line in text.strip().split("\n")]
    logs_equal = strip(outputs[0][1]) == strip(outputs[1][1])
    ok = checkpoints_equal and logs_equal
    report(6, ok, f"checkpoints byte-identical: {checkpoints_equal}, "
                  f"logs identical modulo wall-time column: {logs_equal}")
    assert checkpoints_equal and logs_equal


def test_criterion_7_linear_scaling(tmp_path):
    from lbsnrec import cli

    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"d": 16, "seed": 1,
                                       "n1_per_user": 50, "n2": 50}))
    data_paths = {}
    for factor, subs in ((1, 40), (2, 80)):
        cfg = synth.SynthConfig(num_communities=2, users_per_community=10,
                                locations_per_community=30, shared_locations=6,
                                intra_edge_prob=0.3, inter_edge_prob=0.02,
                                subtrajectories_per_user=subs,
                                locations_per_subtrajectory=8,
                                markov_stickiness=0.7, seed=31)
        data_paths[factor] = tmp_path / f"d{factor}.bin"
        lbsn_data.save_dataset(synth.generate(cfg), data_paths[factor])
    # the sandbox CPU budget wobbles over seconds-long phases, so interleave
    # the two sizes across rounds and keep per-size minima
    per_checkin = {1: np.inf, 2: np.inf}
    for round_index in range(3):
        for factor in (1, 2):
            out = tmp_path / f"bench{factor}-{round_index}.csv"
            code = cli.main(["bench", "--data", str(data_paths[factor]),
                             "--config", str(config_path), "--out", str(out),
                             "--reps", "2"])
            assert code == 0
            row = out.read_text().strip().split("\n")[1].split(",")
            per_checkin[factor] = min(per_checkin[factor], float(row[3]))
    drift = abs(per_checkin[2] - per_checkin[1]) / per_checkin[1]
    ok = drift < 0.30
    report(7, ok, f"time/check-in {per_checkin[1]:.2e}s vs {per_checkin[2]:.2e}s "
                  f"at 2x data ({drift:.1%} drift)")
    assert drift < 0.30


def test_criterion_8_brightkite_counts():
    root = os.environ.get("LBSNREC_BRIGHTKITE_DIR")
    if not root:
        report(8, None, "optional real-data check; set LBSNREC_BRIGHTKITE_DIR "
                        "to the directory holding the Brightkite dumps")
        pytest.skip("Brightkite dumps not available")
    root = Path(root)
    checkin_path = next(p for p in root.iterdir()
                        if "totalCheckins" in p.name and p.suffix == ".txt")
    edges_path = next(p for p in root.iterdir()
                      if "edges" in p.name and p.suffix == ".txt")
    checkins = lbsn_data.parse_checkins(checkin_path)
    edges = lbsn_data.parse_edges(edges_path)
    checkins, edges = lbsn_data.filter_dataset(checkins, edges, 10, 5)
    ds = lbsn_data.build_dataset(checkins, edges)
    expected = {"V": 11498, "D": 1029959, "L": 51866, "subs": 503037}
    actual = {"V": ds.num_users, "D": ds.num_checkins, "L": ds.num_locations,
              "subs": ds.num_subtrajectories}
    ok = all(abs(actual[k] - expected[k]) / expected[k] <= 0.02 for k in expected)
    report(8, ok, f"Brightkite counts {actual} vs reference {expected}")
    for key in expected:
        assert abs(actual[key] - expected[key]) / expected[key] <= 0.02, key


def test_criterion_9_property_suites():
    failures = {name: check(cases=100) for name, check in ALL_CHECKS}
    ok = all(v == 0 for v in failures.values())
    report(9, ok, f"property suites, failures per 100 cases: {failures}")
    assert all(v == 0 for v in failures.values()), failures
