"""Command-line pipeline: preprocess, synth, stats, train, gradcheck, eval, bench.

Commands read a JSON config (flags override individual keys), write their
data to files, and print a one-line summary. Exit codes: 0 success, 1 check
failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time

import numpy as np

from . import data as lbsn_data
from . import evaluation, gradcheck, synth, training
from .model import CheckpointError, VariantMask, load_checkpoint

TRAIN_CONFIG_KEYS = {
    "d", "learning_rate", "n1_per_user", "n2", "max_iterations", "batch_users",
    "seed", "init_range", "adagrad_epsilon", "patience", "validation_k",
    "use_short", "use_long",
    "trajectory_train_frac", "validation_frac_of_train", "link_train_ratio",
}

SPLIT_DEFAULTS = {
    "trajectory_train_frac": 0.9,
    "validation_frac_of_train": 0.1,
    "link_train_ratio": 0.5,
}


class ConfigError(ValueError):
    pass


def _load_json_config(path, allowed_keys):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"config root must be an object: {path}")
    for key in loaded:
        if key not in allowed_keys:
            raise ConfigError(f"unknown config key: {key}")
    return loaded


def _train_setup(args):
    """Build (TrainConfig, split kwargs) from config file plus flag overrides."""
    raw = _load_json_config(getattr(args, "config", None), TRAIN_CONFIG_KEYS)
    for key in TRAIN_CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    split_kwargs = dict(SPLIT_DEFAULTS)
    for key in SPLIT_DEFAULTS:
        if key in raw:
            split_kwargs[key] = raw.pop(key)
    use_short = raw.pop("use_short", True)
    use_long = raw.pop("use_long", True)
    try:
        config = training.TrainConfig(variant=VariantMask(bool(use_short),
                                                          bool(use_long)), **raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    return config, split_kwargs


def _make_splits(dataset, config, split_kwargs):
    return lbsn_data.make_splits(dataset, seed=config.seed, **split_kwargs)


def cmd_preprocess(args):
    try:
        checkins = lbsn_data.parse_checkins(args.checkins)
        edges = lbsn_data.parse_edges(args.edges)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except lbsn_data.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checkins, edges = lbsn_data.filter_dataset(
        checkins, edges, args.min_user_checkins, args.min_loc_checkins)
    dataset = lbsn_data.build_dataset(checkins, edges)
    lbsn_data.save_dataset(dataset, args.out)
    pairs = dataset.graph.num_directed_edges // 2
    print(f"|V|={dataset.num_users} |E|={pairs} |D|={dataset.num_checkins} "
          f"|L|={dataset.num_locations} "
          f"subtrajectories={dataset.num_subtrajectories}")
    return 0


SYNTH_CONFIG_KEYS = {f.name for f in dataclasses.fields(synth.SynthConfig)}


def cmd_synth(args):
    raw = _load_json_config(args.config, SYNTH_CONFIG_KEYS)
    for key in SYNTH_CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    try:
        config = synth.SynthConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    dataset = synth.generate(config)
    lbsn_data.save_dataset(dataset, args.out)
    print(f"synthesized |V|={dataset.num_users} |L|={dataset.num_locations} "
          f"|D|={dataset.num_checkins} -> {args.out}")
    return 0


def cmd_stats(args):
    dataset = lbsn_data.load_dataset(args.data)
    report = lbsn_data.correlation_report(dataset, args.samples, args.seed)
    payload = dataclasses.asdict(report)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    friends = report.mean_overlap_friend_pairs
    others = report.mean_overlap_nonfriend_pairs
    print(f"overlap: friends={friends if friends is not None else 'n/a'} "
          f"non-friends={others if others is not None else 'n/a'} -> {args.out}")
    return 0


def cmd_train(args):
    config, split_kwargs = _train_setup(args)
    dataset = lbsn_data.load_dataset(args.data)
    splits = _make_splits(dataset, config, split_kwargs)
    records = training.train(dataset, splits, config, args.out,
                             log_path=args.log)
    final = records[-1].val_recall if records else None
    print(f"trained {len(records)} epochs, final val recall="
          f"{final if final is not None else 'n/a'} -> {args.out}")
    return 0


def cmd_eval(args):
    config, split_kwargs = _train_setup(args)
    dataset = lbsn_data.load_dataset(args.data)
    splits = _make_splits(dataset, config, split_kwargs)
    params, mask, user_ids, location_ids = load_checkpoint(args.model)
    if user_ids != dataset.user_vocab.ids or location_ids != dataset.location_vocab.ids:
        raise ConfigError("checkpoint vocabulary does not match the dataset")
    ks_next = tuple(int(k) for k in args.ks.split(","))
    reports = []
    dumps = [] if args.per_user_json else None
    if args.task in ("next", "both"):
        for mode in ("general", "new-only"):
            for user_slice in ("all", "cold-start"):
                per_user = {} if dumps is not None else None
                reports.append(evaluation.eval_next_location(
                    params, mask, dataset, splits, ks=ks_next, mode=mode,
                    user_slice=user_slice, per_user_out=per_user))
                if dumps is not None:
                    dumps.append({"task": "next-location", "mode": mode,
                                  "slice": user_slice, "per_user": per_user})
    if args.task in ("friend", "both"):
        for user_slice in ("all", "low-degree"):
            per_user = {} if dumps is not None else None
            reports.append(evaluation.eval_friend_rec(
                params, dataset, splits, ks=(5, 10), user_slice=user_slice,
                per_user_out=per_user))
            if dumps is not None:
                dumps.append({"task": "friend", "mode": "-",
                              "slice": user_slice, "per_user": per_user})
    evaluation.write_reports_csv(reports, args.out)
    if dumps is not None:
        with open(args.per_user_json, "w", encoding="utf-8") as handle:
            json.dump(dumps, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"wrote {len(reports)} evaluation reports -> {args.out}")
    return 0


def cmd_gradcheck(args):
    config = gradcheck.default_toy_config(seed=args.seed)
    toy = gradcheck.make_toy_dataset(seed=args.seed)
    report = gradcheck.check_all(toy, config,
                                 tolerance_rel=args.tolerance_rel,
                                 tolerance_abs=args.tolerance_abs,
                                 sample_entries_per_tensor=args.entries)
    if args.out:
        gradcheck.write_report_csv(report, args.out)
    status = "pass" if report.passed else f"FAIL {report.failing_tensors()}"
    print(f"gradcheck seed={args.seed}: {status}")
    return 0 if report.passed else 1


def cmd_bench(args):
    config, _ = _train_setup(args)
    dataset = lbsn_data.load_dataset(args.data)
    splits = lbsn_data.full_train_splits(dataset)
    num_checkins = dataset.num_checkins
    params = training.init_params(config, dataset.num_users,
                                  dataset.num_locations)
    streams = training.rng_streams(config.seed)

    def timed(fn):
        best = None
        for _ in range(args.reps):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best if best is not None else 0.0

    users = np.arange(dataset.num_users, dtype=np.int64)
    net_seconds = timed(lambda: training.network_loss_and_grads(
        params, dataset.graph, training.draw_network_batch(
            dataset.graph, users, config.n1_per_user, streams.link_negatives)))
    traj_seconds = timed(lambda: training.trajectory_loss_and_grads(
        params, config.variant, training.draw_trajectory_batch(
            dataset, splits, users, config.n2, streams.location_negatives)))
    per_checkin = traj_seconds / num_checkins if num_checkins else 0.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("num_checkins,net_iter_seconds,traj_iter_seconds,"
                     "seconds_per_checkin,peak_rss_mb\n")
        if num_checkins:
            handle.write(f"{num_checkins},{repr(net_seconds)},"
                         f"{repr(traj_seconds)},{repr(per_checkin)},"
                         f"{repr(peak_mb)}\n")
    print(f"bench |D|={num_checkins}: net={net_seconds:.3f}s "
          f"traj={traj_seconds:.3f}s per-checkin={per_checkin:.2e}s -> {args.out}")
    return 0


def _add_train_config_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--learning-rate", dest="learning_rate", type=float,
                        default=None)
    parser.add_argument("--max-iterations", dest="max_iterations", type=int,
                        default=None)
    parser.add_argument("--batch-users", dest="batch_users", type=int,
                        default=None)
    parser.add_argument("--n1-per-user", dest="n1_per_user", type=int,
                        default=None)
    parser.add_argument("--n2", type=int, default=None)
    parser.add_argument("--patience", type=int, default=None)
    parser.add_argument("--link-train-ratio", dest="link_train_ratio",
                        type=float, default=None)
    parser.add_argument("--use-short", dest="use_short", default=None,
                        action="store_true")
    parser.add_argument("--no-short", dest="use_short", action="store_false")
    parser.add_argument("--use-long", dest="use_long", default=None,
                        action="store_true")
    parser.add_argument("--no-long", dest="use_long", action="store_false")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lbsnrec",
        description="Joint social-network / trajectory model pipeline")
    parser.add_argument("--threads", type=int, default=1,
                        help="reserved; computation is deterministic and "
                             "single-threaded")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="parse, filter, and cache raw dumps")
    p.add_argument("checkins")
    p.add_argument("edges")
    p.add_argument("--out", required=True)
    p.add_argument("--min-user-checkins", type=int, default=10)
    p.add_argument("--min-loc-checkins", type=int, default=5)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("synth", help="generate a synthetic dataset cache")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True)
    for name in sorted(SYNTH_CONFIG_KEYS):
        flag = "--" + name.replace("_", "-")
        kind = float if name in ("intra_edge_prob", "inter_edge_prob",
                                 "markov_stickiness") else int
        p.add_argument(flag, dest=name, type=kind, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="friendship/trajectory correlation report")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model on a dataset cache")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="training-log CSV path")
    _add_train_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", choices=("next", "friend", "both"), default="both")
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--per-user-json", dest="per_user_json",
                   help="debug dump of per-user event/hit counts")
    _add_train_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient oracle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV report path")
    p.add_argument("--tolerance-rel", type=float, default=1e-5)
    p.add_argument("--tolerance-abs", type=float, default=1e-8)
    p.add_argument("--entries", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="time one network/trajectory iteration")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reps", type=int, default=1)
    _add_train_config_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (lbsn_data.ParseError, lbsn_data.FormatError, CheckpointError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
