"""Output check for one benchmark repetition.

A repetition passes when every ``.rfj`` artifact under its output directory
reloads through ``persistence_io.load_artifact`` (which re-validates the
artifact's invariants) and every ``rounds*.csv`` has a non-decreasing ``fv``
column. Its digest covers every output file except ``config_snapshot.json``,
which records the output path and so differs between repetitions.
"""

from __future__ import annotations

import csv
import hashlib
import os

EXCLUDED = frozenset({"config_snapshot.json"})
FV_TOLERANCE = 1e-9  # the allocator's own tolerance for its monotone-FV assertion


def output_files(root: str) -> list[str]:
    """Output files under ``root`` as sorted relative paths, snapshots excluded."""
    found = []
    for directory, _, files in os.walk(root):
        for name in files:
            if name not in EXCLUDED:
                found.append(os.path.relpath(os.path.join(directory, name), root))
    return sorted(found)


def digest(root: str) -> str:
    h = hashlib.sha256()
    for rel in output_files(root):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def fv_column(path: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row["fv"]) for row in csv.DictReader(fh)]


def check_outputs(root: str) -> list[str]:
    """Problems found under ``root``; an empty list means the outputs pass."""
    from recovery_forge import persistence_io

    problems = []
    for rel in output_files(root):
        path = os.path.join(root, rel)
        name = os.path.basename(rel)
        if name.endswith(".rfj"):
            try:
                persistence_io.load_artifact(path)
            except Exception as exc:  # any load error fails the check, whatever its type
                problems.append(f"{rel}: does not reload: {type(exc).__name__}: {exc}")
        elif name.startswith("rounds") and name.endswith(".csv"):
            fv = fv_column(path)
            if not fv:
                problems.append(f"{rel}: no rounds")
            drops = [r for r in range(1, len(fv)) if fv[r] < fv[r - 1] - FV_TOLERANCE]
            if drops:
                problems.append(f"{rel}: fv decreases at round {drops[0]}")
    return problems
