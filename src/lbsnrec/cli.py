"""Command-line pipeline: preprocess, synth, stats, train, gradcheck, eval, bench.

Commands read a JSON config (flags override individual keys), write their
data to files, and print a one-line summary. Exit codes: 0 success, 1 check
failure, 2 usage, config, input, file or memory error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import tempfile

from . import data as lbsn_data
from . import evaluation, gradcheck, synth, training
from .model import CheckpointError, VariantMask, load_checkpoint

SPLIT_DEFAULTS = {
    "trajectory_train_frac": 0.9,
    "validation_frac_of_train": 0.1,
    "link_train_ratio": 0.5,
}

TRAIN_CONFIG_KEYS = ({f.name for f in dataclasses.fields(training.TrainConfig)}
                     - {"variant"} | {"use_short", "use_long"}
                     | set(SPLIT_DEFAULTS))


class ConfigError(ValueError):
    pass


def _load_json_config(args, allowed_keys):
    """The --config file's keys, each overridden by its flag when given."""
    path, loaded = getattr(args, "config", None), {}
    try:
        if path is not None:
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
    for key in allowed_keys:
        if getattr(args, key, None) is not None:
            loaded[key] = getattr(args, key)
    return loaded


def _train_setup(args):
    """Build (TrainConfig, split kwargs) from config file plus flag overrides."""
    raw = _load_json_config(args, TRAIN_CONFIG_KEYS)
    split_kwargs = dict(SPLIT_DEFAULTS)
    for key in SPLIT_DEFAULTS:
        if key in raw:
            value = raw.pop(key)
            if not training.is_number(value):
                raise ConfigError(f"{key} must be a finite number, "
                                  f"got {value!r}")
            split_kwargs[key] = value
    use_short = raw.pop("use_short", True)
    use_long = raw.pop("use_long", True)
    if not isinstance(use_short, bool) or not isinstance(use_long, bool):
        raise ConfigError("use_short and use_long must be true or false")
    try:
        config = training.TrainConfig(variant=VariantMask(use_short, use_long),
                                      **raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    return config, split_kwargs


def _make_splits(dataset, config, split_kwargs):
    try:
        return lbsn_data.make_splits(dataset, seed=config.seed, **split_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_preprocess(args):
    checkins, edges = lbsn_data.filter_dataset(
        lbsn_data.parse_checkins(args.checkins),
        lbsn_data.parse_edges(args.edges), args.min_user_checkins,
        args.min_loc_checkins)
    dataset = lbsn_data.build_dataset(checkins, edges)
    lbsn_data.save_dataset(dataset, args.out)
    pairs = len(dataset.graph.directed_edges) // 2
    print(f"|V|={dataset.num_users} |E|={pairs} |D|={dataset.num_checkins} "
          f"|L|={dataset.num_locations} "
          f"subtrajectories={dataset.num_subtrajectories}")
    return 0


SYNTH_CONFIG_KEYS = {f.name for f in dataclasses.fields(synth.SynthConfig)}


def cmd_synth(args):
    raw = _load_json_config(args, SYNTH_CONFIG_KEYS)
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
    try:
        ks_next = tuple(int(k) for k in args.ks.split(","))
    except ValueError:
        ks_next = (0,)
    if min(ks_next) < 1:
        raise ConfigError(f"--ks needs positive integers, got {args.ks!r}")
    config, split_kwargs = _train_setup(args)
    dataset = lbsn_data.load_dataset(args.data)
    splits = _make_splits(dataset, config, split_kwargs)
    params, mask, user_ids, location_ids = load_checkpoint(args.model)
    if user_ids != dataset.user_vocab.ids or location_ids != dataset.location_vocab.ids:
        raise ConfigError("checkpoint vocabulary does not match the dataset")
    reports, per_users = [], []
    if args.task in ("next", "both"):
        # One forward and score pass, to the largest K, serves all four.
        ranks = evaluation.rank_next_locations(
            params, mask, dataset, splits, "test", True, cap=max(ks_next))
        for mode in ("general", "new-only"):
            for user_slice in ("all", "cold-start"):
                per_users.append({} if args.per_user_json else None)
                reports.append(evaluation.eval_next_location(
                    params, mask, dataset, splits, ks=ks_next, mode=mode,
                    user_slice=user_slice, per_user_out=per_users[-1],
                    ranks=ranks))
    if args.task in ("friend", "both"):
        for user_slice in ("all", "low-degree"):
            per_users.append({} if args.per_user_json else None)
            reports.append(evaluation.eval_friend_rec(
                params, dataset, splits, ks=(5, 10), user_slice=user_slice,
                per_user_out=per_users[-1]))
    if args.per_user_json:      # first, so a failed dump leaves --out alone
        dumps = [{"task": r.task, "mode": r.mode, "slice": r.user_slice,
                  "per_user": per_user}
                 for r, per_user in zip(reports, per_users)]
        with open(args.per_user_json, "w", encoding="utf-8") as handle:
            json.dump(dumps, handle, indent=2, sort_keys=True)
            handle.write("\n")
    evaluation.write_reports_csv(reports, args.out)
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
    """Train --reps epochs on every check-in; time the fastest pass of each."""
    config, _ = _train_setup(args)
    dataset = lbsn_data.load_dataset(args.data)
    splits = lbsn_data.full_train_splits(dataset)
    # No validation events: no early stop, and every epoch checkpoints.
    with tempfile.TemporaryDirectory() as work:
        records = training.train(
            dataset, splits, dataclasses.replace(config, max_iterations=args.reps),
            os.path.join(work, "bench.jntm"))
    num_checkins = dataset.num_checkins
    fastest = {f.name: min(getattr(r, f.name) for r in records)
               for f in dataclasses.fields(training.EpochRecord)
               if f.name.endswith(("_seconds", "_steps"))}
    traj_seconds = fastest["traj_seconds"]
    per_checkin = traj_seconds / num_checkins if num_checkins else 0.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("num_checkins,net_iter_seconds,traj_iter_seconds,"
                     "seconds_per_checkin,peak_rss_mb\n")
        if num_checkins:
            handle.write(f"{num_checkins},{fastest['net_seconds']!r},"
                         f"{repr(traj_seconds)},{repr(per_checkin)},"
                         f"{repr(peak_mb)}\n")
    phases = " ".join(f"{name[:-len('_seconds')]}={value:.3f}s"
                      for name, value in fastest.items()
                      if name.endswith("_seconds"))
    print(f"bench |D|={num_checkins}: {phases} "
          f"steps={fastest['lockstep_steps']} per-checkin={per_checkin:.2e}s "
          f"-> {args.out}")
    return 0


def _count(minimum):
    """argparse type: an integer of at least minimum."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


def _tolerance(text):
    """argparse type: a finite number of at least 0."""
    value = float(text)
    if not (training.is_number(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}")
    return value


def _add_train_config_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    for name, kind in (("seed", int), ("d", int), ("learning_rate", float),
                       ("max_iterations", int), ("batch_users", int),
                       ("n1_per_user", int), ("n2", int), ("patience", int),
                       ("link_train_ratio", float)):
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            type=kind, default=None)
    for name in ("short", "long"):
        parser.add_argument(f"--use-{name}", dest=f"use_{name}", default=None,
                            action="store_true")
        parser.add_argument(f"--no-{name}", dest=f"use_{name}",
                            action="store_false")


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
    p.add_argument("--min-user-checkins", type=_count(0), default=10)
    p.add_argument("--min-loc-checkins", type=_count(0), default=5)
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
    p.add_argument("--samples", type=_count(0), default=10000)
    p.add_argument("--seed", type=_count(0), default=0)
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
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--out", help="CSV report path")
    p.add_argument("--tolerance-rel", type=_tolerance, default=1e-5)
    p.add_argument("--tolerance-abs", type=_tolerance, default=1e-8)
    p.add_argument("--entries", type=_count(1), default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="time the passes of real training epochs")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reps", type=_count(1), default=1)
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
    except (lbsn_data.ParseError, lbsn_data.FormatError, CheckpointError,
            FloatingPointError, OSError, MemoryError) as exc:
        print("error:", str(exc) or ("out of memory" if isinstance(
            exc, MemoryError) else type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
