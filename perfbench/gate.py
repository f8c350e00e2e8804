"""Correctness gate applied to every train and eval operation of a run.

Each check returns a list of problems; an empty list means the operation
passed. A failing operation counts against the number attempted.
"""

from __future__ import annotations

import csv
import math

K = 10


def check_records(records, epochs):
    """Every epoch's losses are finite and the requested epochs all ran."""
    problems = []
    if len(records) != epochs:
        problems.append(f"ran {len(records)} epochs, expected {epochs}")
    for record in records:
        for name in ("net_loss", "traj_loss"):
            value = getattr(record, name, None)
            if value is None or not math.isfinite(value):
                problems.append(f"epoch {getattr(record, 'epoch', '?')}: "
                                f"{name}={value!r} is not finite")
    return problems


def check_checkpoint(load_checkpoint, path, dataset):
    """The checkpoint reloads and carries the dataset's vocabularies."""
    try:
        params, _, user_ids, location_ids = load_checkpoint(path)
    except Exception as exc:  # any failure to reload is a gate failure
        return [f"checkpoint does not reload: {exc!r}"]
    problems = []
    if list(user_ids) != list(dataset.user_vocab.ids):
        problems.append("checkpoint user vocabulary differs from the dataset's")
    if list(location_ids) != list(dataset.location_vocab.ids):
        problems.append("checkpoint location vocabulary differs from the dataset's")
    if (params.num_users, params.num_locations) != (dataset.num_users,
                                                    dataset.num_locations):
        problems.append("checkpoint tensor shapes do not match the dataset")
    return problems


def read_recalls(report_csv):
    """{metric: (recall, events)} read from an eval CSV.

    next_recall10 is general mode, all users; friend_recall10 is all users.
    A report with no events has an empty recall cell and is absent, not 0.
    """
    found = {}
    with open(report_csv, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            if row["K"] != str(K) or row["slice"] != "all" or not row["recall"]:
                continue
            value = (float(row["recall"]), int(row["num_events"]))
            if row["task"] == "next-location" and row["mode"] == "general":
                found["next_recall10"] = value
            elif row["task"] == "friend":
                found["friend_recall10"] = value
    return found


def check_recalls(recalls, floors):
    """Each present recall lies strictly above its uniform-chance floor."""
    problems = []
    for name, (value, _) in recalls.items():
        floor = floors.get(name)
        if floor is not None and not value > floor:
            problems.append(f"{name}={value!r} is not above chance {floor!r}")
    return problems
