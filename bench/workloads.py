"""The benchmark's workloads: which stages each one runs, with which config.

Every workload is a closed loop with one caller: one process, one thread,
stages run one after another in process through ``harness_cli.main``. Each
config below is made from the workload seed alone.

A workload has three parts, all run by ``run.py``:

* ``prepare`` makes the inputs from the seed (untimed, run once),
* ``setup`` runs the untimed stages that make the timed stages' inputs
  (repeated, its median is part of ``setup_s``),
* ``timed`` runs the timed stages (repeated, its median is ``wall_s``).
"""

from __future__ import annotations

import csv
import os
from statistics import fmean

# Candidate pipeline seeds tried per workload seed. For roughly one pipeline
# seed in eight, pessimistic discovery finds fewer failure states than failure
# modes at the default config, and the pipeline cannot go on past `discover`.
# The input generator skips such seeds; every run prints each skipped seed's
# failure as a problem and reports how many it skipped.
CANDIDATES_PER_SEED = 64

CHAIN = {}  # `chain-preconds` runs at the package defaults
# `train` workload: the timed REPS-heavy stage, on three pipeline seeds per
# repetition, because the cost of the set-up `discover` depends on the learned
# preconditions: with one seed (and 1000 discovery episodes), the set-up time
# of one workload seed was up to 1.8 times that of another. Budget 60 leaves
# 12 value-UCL selections after the 2 x 6 x 4 initialization rounds.
TRAIN_SEEDS = 3
TRAIN = {
    "budget": 60,
    "allocation_strategy": "ucl",
    "reps_updates": 2,
    "reps_samples": 30,
    "n_eval_rollouts": 10,
}
# `rollouts` workload: three pipeline seeds per repetition, because the work of
# `discover` and `evaluate` depends on the learned preconditions: one seed can
# find three times the failure records of another.
ROLLOUT_SEEDS = 3
# The library `evaluate` needs, from a small training run.
TRAIN_SMALL = {
    "budget": 48,
    "allocation_strategy": "ucl",
    "reps_updates": 1,
    "reps_samples": 10,
    "n_eval_rollouts": 5,
}
# 500 episodes, not 1000, keeps a `train` run near a minute on a loaded host.
DISCOVER = {"discovery_strategy": "pessimistic", "discovery_episodes": 500}
ROLLOUT_DISCOVER = {**DISCOVER, "discovery_episodes": 300}
EVALUATE = {"eval_episodes": 50}
# `synth-alloc` workload: several synthetic task sets per repetition, so the
# per-run numbers do not hang on one task set. Budget 150 keeps a repetition
# near 2 s; at budget 600 one task set takes about 7 s.
SYNTH = {"budget": 150}
SYNTH_TASK_SETS = 2


class InputError(Exception):
    """No usable input could be made from the workload seed."""


def _path(out: str, *parts) -> str:
    return os.path.join(out, *map(str, parts))


def _final_fv(path: str) -> float:
    with open(path, newline="") as fh:
        return float(list(csv.DictReader(fh))[-1]["fv"])


class PipelineWorkload:
    """Inputs: the preconditions and failure modes of ``n_seeds`` pipeline seeds.

    Each pipeline seed writes under its own ``<out>/<pipeline seed>/``.
    """

    name = ""
    n_seeds = 1
    discover = DISCOVER

    def __init__(self, seed: int):
        self.seed = seed
        self.pipeline_seeds: list[int] = []
        self.rejected_seeds = 0

    def _config(self, out: str, p: int, extra: dict) -> dict:
        return {"out_dir": _path(out, p), "seed": p, "seeds": [p], **extra}

    def _preconds(self, out, p):
        return _path(out, p, "chain-preconds", p, "preconds.rfj")

    def _modes(self, out, p):
        return _path(out, p, "discover", p, "modes.rfj")

    def chain_and_discover(self, stages, out, p) -> None:
        stages.call("chain-preconds", self._config(out, p, CHAIN))
        discover = {**self.discover, "preconds_path": self._preconds(out, p)}
        stages.call("discover", self._config(out, p, discover))

    def _probe(self, stages, out, p) -> None:
        self.chain_and_discover(stages, out, p)
        if not os.path.exists(self._modes(out, p)):
            stages.fail(f"discover returned 0 but wrote no {self._modes(out, p)}")

    def prepare(self, stages, scratch) -> str:
        """The first ``n_seeds`` candidate pipeline seeds whose discovery yields
        failure modes."""
        out = _path(scratch, "inputs")
        for k in range(CANDIDATES_PER_SEED):
            p = self.seed * CANDIDATES_PER_SEED + k
            if stages.probe(lambda: self._probe(stages, out, p), f"pipeline seed {p}"):
                self.pipeline_seeds.append(p)
                if len(self.pipeline_seeds) == self.n_seeds:
                    return out
            else:
                self.rejected_seeds += 1
        raise InputError(
            f"{len(self.pipeline_seeds)} of {self.n_seeds} usable pipeline seeds "
            f"among {CANDIDATES_PER_SEED} candidates"
        )


class Train(PipelineWorkload):
    """Set-up: chain-preconds and discover. Timed: train."""

    name = "train"
    n_seeds = TRAIN_SEEDS

    def setup(self, stages, inputs, out) -> None:
        for p in self.pipeline_seeds:
            self.chain_and_discover(stages, out, p)

    def timed(self, stages, inputs, setup_out, out) -> None:
        for p in self.pipeline_seeds:
            train = {
                **TRAIN,
                "preconds_path": self._preconds(setup_out, p),
                "modes_path": self._modes(setup_out, p),
            }
            stages.call("train", self._config(out, p, train))

    def outcome(self, setup_out, out) -> dict:
        return {
            "final_fv": fmean(
                _final_fv(_path(out, p, "train", p, "rounds.csv")) for p in self.pipeline_seeds
            )
        }


class Rollouts(PipelineWorkload):
    """Set-up: a small train run. Timed: chain-preconds, discover, evaluate."""

    name = "rollouts"
    n_seeds = ROLLOUT_SEEDS
    discover = ROLLOUT_DISCOVER

    def setup(self, stages, inputs, out) -> None:
        for p in self.pipeline_seeds:
            train = {
                **TRAIN_SMALL,
                "preconds_path": self._preconds(inputs, p),
                "modes_path": self._modes(inputs, p),
            }
            stages.call("train", self._config(out, p, train))

    def timed(self, stages, inputs, setup_out, out) -> None:
        for p in self.pipeline_seeds:
            self.chain_and_discover(stages, out, p)
            evaluate = {
                **EVALUATE,
                "preconds_path": self._preconds(out, p),
                "modes_path": self._modes(out, p),
                "library_dir": _path(setup_out, p, "train"),
            }
            stages.call("evaluate", self._config(out, p, evaluate))

    def outcome(self, setup_out, out) -> dict:
        rates = []
        for p in self.pipeline_seeds:
            with open(_path(out, p, "evaluate", "all", "evaluation.csv"), newline="") as fh:
                rows = {row["policy"]: float(row["success_rate"]) for row in csv.DictReader(fh)}
            rates.append(rows["learned-recovery"])
        return {
            "final_fv": fmean(
                _final_fv(_path(setup_out, p, "train", p, "rounds.csv"))
                for p in self.pipeline_seeds
            ),
            "success_rate": fmean(rates),
        }


class SynthAlloc:
    """No set-up stage. Timed: synth-alloc, one call per task set, both strategies."""

    name = "synth-alloc"

    def __init__(self, seed: int):
        self.seed = seed
        self.pipeline_seeds = [seed * CANDIDATES_PER_SEED + k for k in range(SYNTH_TASK_SETS)]
        self.rejected_seeds = 0

    def prepare(self, stages, scratch) -> str:
        return scratch

    def setup(self, stages, inputs, out) -> None:
        pass

    def timed(self, stages, inputs, setup_out, out) -> None:
        for p in self.pipeline_seeds:
            stages.call("synth-alloc", {"out_dir": _path(out, p), "seed": p, "seeds": [p], **SYNTH})

    def outcome(self, setup_out, out) -> dict:
        rows = []
        for p in self.pipeline_seeds:
            with open(_path(out, p, "synth-alloc", "summary", "synth_fv.csv"), newline="") as fh:
                rows.extend(csv.DictReader(fh))
        # A task set on which UCL never reaches round-robin's best (``inf`` in
        # the CSV) counts as needing the whole budget.
        parity = [min(float(r["ucl_budget_to_rr_best"]), 1.0) for r in rows]
        return {
            "final_fv": fmean(float(r["ucl_final_fv"]) for r in rows),
            "budget_to_parity": fmean(parity),
        }


WORKLOADS = {w.name: w for w in (Train, SynthAlloc, Rollouts)}
