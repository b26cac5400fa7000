#!/usr/bin/env python3
"""Per-seed sha256 digests of every pipeline output, for byte-identity checks.

    python3 scripts/pipeline_digests.py --src src --seeds 0-23 > digests.txt

Runs synth-alloc, then chain-preconds -> discover -> train -> evaluate, on
each pipeline seed at the pinned config below, each stage in a fresh
interpreter that imports the package from ``--src``. For each seed it prints
one ``<seed> <path> <sha256>`` line per output file the seed wrote, then, if
a stage exited non-zero, that stage as ``<seed> <stage> exit <code>``.
synth-alloc reads no other stage's output, so it runs first, and a seed that
discover rejects still hashes it. A config snapshot records
the run's temporary work directory, so it is hashed with that directory
replaced by ``<work>``. Running it on two source trees and diffing the two
listings shows whether a change moved any output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

STAGES = ("synth-alloc", "chain-preconds", "discover", "train", "evaluate")
# One config serves every stage: chain-preconds at the package defaults,
# pessimistic discovery over 500 episodes, value-UCL training at budget 60 with
# REPS 2 x 30 and 10 evaluation rollouts, 50 evaluation episodes, and
# synth-alloc at the same budget.
CONFIG = {
    "discovery_strategy": "pessimistic",
    "discovery_episodes": 500,
    "allocation_strategy": "ucl",
    "budget": 60,
    "reps_updates": 2,
    "reps_samples": 30,
    "n_eval_rollouts": 10,
    "eval_episodes": 50,
}
SNAPSHOT = "config_snapshot.json"
WORK_TOKEN = b"<work>"


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or a comma-separated list."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def seed_config(seed: int, out: str) -> dict:
    """``CONFIG`` for one pipeline seed, writing under ``out``, with each
    stage's input path set to the previous stage's output."""
    return {
        **CONFIG,
        "out_dir": out,
        "seed": seed,
        "seeds": [seed],
        "preconds_path": os.path.join(out, "chain-preconds", str(seed), "preconds.rfj"),
        "modes_path": os.path.join(out, "discover", str(seed), "modes.rfj"),
        "library_dir": os.path.join(out, "train"),
    }


def has_package(src: str) -> bool:
    return os.path.isfile(os.path.join(src, "recovery_forge", "harness_cli.py"))


def run_seed(src: str, seed: int, work: str) -> tuple[str, int] | None:
    """Run the ``STAGES`` of one pipeline seed, writing under ``<work>/runs``, each
    in a fresh interpreter that imports the package from ``src``. Returns the
    first stage that exits non-zero with its exit code, or None."""
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(seed_config(seed, os.path.join(work, "runs")), fh)
    env = dict(
        os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"
    )
    for stage in STAGES:
        done = subprocess.run(
            [sys.executable, "-m", "recovery_forge.harness_cli", stage, "--config", config_path],
            env=env, capture_output=True,
        )
        if done.returncode != 0:
            return stage, done.returncode
    return None


def seed_digests(src: str, seed: int, work: str) -> list[str]:
    """The digest of every file the seed wrote, the stages before a failing
    one and its partial outputs included, then the failing stage, if any."""
    failed = run_seed(src, seed, work)
    out = os.path.join(work, "runs")
    lines = []
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == SNAPSHOT:
                data = data.replace(work.encode(), WORK_TOKEN)
            digest = hashlib.sha256(data).hexdigest()
            lines.append(f"{seed} {os.path.relpath(path, out)} {digest}")
    if failed is not None:
        lines.append(f"{seed} {failed[0]} exit {failed[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the recovery_forge package")
    parser.add_argument("--seeds", required=True, help="pipeline seeds: A-B or A,B,...")
    args = parser.parse_args(argv)
    if not has_package(args.src):
        parser.error(f"no recovery_forge package under {args.src}")
    for seed in parse_seeds(args.seeds):
        with tempfile.TemporaryDirectory() as work:
            for line in seed_digests(args.src, seed, work):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
