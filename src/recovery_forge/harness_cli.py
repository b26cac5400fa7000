"""End-to-end experiment pipelines and their command-line interface.

Five subcommands wire the library together:

  chain-preconds  learn the nominal skills' preconditions in the latch world
  discover        induce failures under noise and cluster them into modes
  train           allocate a training budget across recovery skills
  evaluate        compare recovery policies under a simulated state estimator
  synth-alloc     allocator comparison on synthetic learning curves (no REPS)

Every command is deterministic given (config, seed); outputs are CSV files for
metrics and versioned JSON artifacts for models, written under
``<out>/<pipeline>/<seed>/`` next to a snapshot of the effective config.

The config (``ExperimentConfig``) is one flat JSON object; each setting is
typed, checked and defaulted there. It holds only what a run varies: the
seeds, the estimator's noise ``sigma_ref``, discovery's noise inflation
``pessimistic_sigma_factor``, the learner's ``knn_state_scale``, the two
strategies, the stage sizes and budgets, and the input and output paths.
Every other value is fixed and written once: the latch world in the
``latch_env`` constants; REPS's KL bound in ``RepsConfig`` and its initial
spread in ``recovery_skills.INIT_COVARIANCE_SCALE``; value-UCL's confidence,
window, initial rounds and t quantile in the ``allocator`` constants
``UCL_ALPHA``, ``UCL_WINDOW``, ``INIT_ROUNDS`` and ``UCL_T``; the recovery
graph's failure cost in ``RecoveryGraph.chain``; the mode counts in
``failure_discovery``'s ``DEFAULT_MODES_*``; and the chaining neighbourhood
and evaluation skill cap in ``NEIGHBORHOOD_SCALE`` and ``SKILL_CAP`` below.
Each subcommand takes one option, ``--config``, the path of that JSON
object; without it every setting keeps its default. A config value of the
wrong type, not finite or out of its range, an unknown field, or an unknown
``RECOVERY_FORGE_LOG`` level, exits 2 before any stage starts.

Exit codes: 0 on success, 2 on a ``ConfigError`` (a setting, input file or
output directory that no stage can run with), 1 on any other
``RecoveryForgeError``; either prints one ``error:`` line on stderr.

The stages own no allocation rule: ``train`` and ``synth-alloc`` pass
``AllocatorConfig``, with its one budget, to ``run_allocation_loop``, each of
whose selections trains one episode, and ``evaluate``'s learned policy reads
each mode's best target from ``RecoveryGraph.recovery_values``. The synthetic
testbed is fixed (the ``SYNTH_*`` constants); each seed draws one task set
that both strategies train on.

Randomness has one owner: role r of stage s in ``SEED_ROLES`` is child (s, r)
of the pipeline seed's ``SeedSequence`` (``stage_seeds``), so an appended role
moves no other stream. No function below the stages derives a seed.

``evaluate`` runs a seed's closed-loop episodes in lockstep, each on its own
copy of its episode's generator: one accept call per step decides every live
loop's state, each row as that state alone, as a run of one episode would.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import persistence_io
from .allocator import (
    AllocatorConfig,
    RecoveryGraph,
    run_allocation_loop,
)
from .errors import ConfigError, RecoveryForgeError
from .errors import at_least, check_fields, config_from_json, one_of
from .failure_discovery import (
    DEFAULT_MODES_EARLY_TERMINATION,
    DEFAULT_MODES_PESSIMISTIC,
    DISCOVERY_BLOCK_EPISODES,
    EARLY_TERMINATION,
    PESSIMISTIC,
    FailureModeSet,
    classify_failure,
    cluster_failures,
    discover_early_termination,
    discover_pessimistic,
    save_failures_csv,
)
from .latch_env import NOMINAL_COSTS, STATE_DIM, LatchEnv, WorldState
from .precondition_chaining import (
    PreconditionSet,
    chain_preconditions,
    collect_success_trajectories,
    self_positive_rate,
)
from .recovery_skills import (
    RecoveryLibrary,
    estimate_success_rate,
    knn_predict,
    train_recovery_datapoint,
)
from .reps import RepsConfig

LOGGER = logging.getLogger("recovery_forge")

# Precondition chaining draws a skill's sample starts from the Gaussian of its
# successful starts with the covariance widened by this factor.
NEIGHBORHOOD_SCALE = 4.0
# An evaluation episode ends after this many executed skills.
SKILL_CAP = 10

# Synthetic allocation testbed: 5 modes on a chain of 3 safe states, each mode
# with one strong recovery among weak ones. Curve (i, j) is
# q_max * (1 - exp(-t / tau)) after t selections, estimated with uniform noise.
SYNTH_MODES = 5
SYNTH_COSTS = (0.25, 0.12, 0.08)
SYNTH_C_FAIL = 10.0
SYNTH_NOISE = 0.01
SYNTH_STRONG_Q = (0.55, 0.9)
SYNTH_WEAK_Q = (0.02, 0.2)
SYNTH_TAU = (2.0, 10.0)

SEED_ROLES = {
    "chain-preconds": ("env", "trajectories", "chaining"),
    "discover": ("env", "episodes", "gmm"),
    "train": ("env", "rounds"),
    "evaluate": ("env", "episodes"),
    "synth-alloc": ("task_set", "noise"),
}

EVAL_POLICIES = (
    "open-loop",
    "no-recovery",
    "retry",
    "recover-to-prev",
    "recover-to-start",
    "learned-recovery",
)


# The ranges of the settings; each one's type is its annotation, and a None
# skips the range check.
_LIMITS = {
    "seed": at_least(0),
    "seeds": (lambda seeds: len(set(seeds)) == len(seeds) >= 1 and min(seeds) >= 0,
              "a non-empty list of distinct integers >= 0"),
    "sigma_ref": at_least(0),
    "pessimistic_sigma_factor": at_least(0),
    "knn_state_scale": (
        lambda scale: len(scale) == STATE_DIM and min(scale) > 0,
        f"a list of {STATE_DIM} numbers > 0",
    ),
    "n_trajectories": at_least(1),
    "samples_per_skill": at_least(1),
    "discovery_strategy": one_of(PESSIMISTIC, EARLY_TERMINATION),
    "discovery_episodes": at_least(1),
    "allocation_strategy": one_of("rr", "ucl"),
    "budget": at_least(1),
    "n_eval_rollouts": at_least(1),
    "reps_updates": at_least(1),
    "reps_samples": at_least(2),
    "eval_episodes": at_least(1),
}


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: str = "runs"
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    # state estimation noise (meters) and the learner's kNN metric
    sigma_ref: float = 0.02  # the estimator's noise at an episode's start
    pessimistic_sigma_factor: float = 1.5  # pessimistic discovery's noise inflation
    knn_state_scale: tuple[float, ...] = (0.06, 0.06, 1.0, 0.02, 0.02, 0.5, 0.5)

    # precondition chaining
    n_trajectories: int = 60
    samples_per_skill: int = 250

    # failure discovery
    discovery_strategy: str = PESSIMISTIC
    discovery_episodes: int = 1000

    # recovery training / allocation
    allocation_strategy: str = "ucl"
    budget: int = 150
    n_eval_rollouts: int = 50
    reps_updates: int = RepsConfig.n_updates
    reps_samples: int = RepsConfig.n_samples_per_update

    # evaluation
    eval_episodes: int = 200

    # artifact inputs for later pipeline stages
    preconds_path: str | None = None
    modes_path: str | None = None
    library_dir: str | None = None

    def __post_init__(self):
        """Reject values no stage can run with, before any stage starts."""
        check_fields(self, _LIMITS)

    def reps_config(self) -> RepsConfig:
        return RepsConfig(n_updates=self.reps_updates, n_samples_per_update=self.reps_samples)

    def allocator_config(self) -> AllocatorConfig:
        return AllocatorConfig(budget=self.budget)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or text that is not UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return config_from_json(cls, doc)


# -- shared plumbing -----------------------------------------------------------------


def stage_seeds(stage: str, seed: int) -> dict[str, np.random.SeedSequence]:
    """The named random streams of ``stage`` at pipeline seed ``seed``."""
    s, roles = list(SEED_ROLES).index(stage), SEED_ROLES[stage]
    return {role: np.random.SeedSequence(seed, spawn_key=(s, r)) for r, role in enumerate(roles)}


def _prepare_out(config: ExperimentConfig, pipeline: str, subdir: int | str | None = None) -> str:
    subdir = config.seed if subdir is None else subdir
    out = os.path.join(config.out_dir, pipeline, str(subdir))
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # out_dir, or a directory on its path, is a file
        raise ConfigError(f"cannot make the output directory {out}: {exc.strerror}") from exc
    with open(os.path.join(out, "config_snapshot.json"), "w") as fh:
        json.dump(dataclasses.asdict(config), fh, sort_keys=True, indent=2)
    return out


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _em_report(gmm) -> tuple[int, int]:
    """A fresh ``fit_gmm`` fit's EM iterations and whether it converged (1/0)."""
    return len(gmm.loglik_trace), int(gmm.converged)


def _write_allocation_csvs(out: str, result, suffix: str = "") -> None:
    """An allocation run's ``rounds`` and ``counts`` tables."""
    _write_csv(
        os.path.join(out, f"rounds{suffix}.csv"),
        ["round", "strategy", "i", "j", "q_new", "q_ucl", "fv"],
        [(r.round, r.strategy, r.i, r.j, r.q_new, r.q_ucl, r.fv) for r in result.rounds],
    )
    counts = result.state.train_counts
    _write_csv(
        os.path.join(out, f"counts{suffix}.csv"),
        ["i"] + [f"target_{j}" for j in range(counts.shape[1])],
        [(i, *[int(c) for c in row]) for i, row in enumerate(counts)],
    )


def _recovery_graph(modes) -> RecoveryGraph:
    return RecoveryGraph.chain(list(NOMINAL_COSTS), modes.n_modes, modes.sizes)


# What each input path of the config names, and the artifact kind it holds.
_INPUTS = {
    "preconds_path": ("precondition set", PreconditionSet),
    "modes_path": ("failure modes", FailureModeSet),
    "library_dir": ("trained library", RecoveryLibrary),
}


def _load_input(config: ExperimentConfig, flag: str, *parts: str):
    """The artifact a stage reads from the config path ``flag`` (``parts``
    joined under it)."""
    what, kind = _INPUTS[flag]
    path = getattr(config, flag)
    if path is None:
        raise ConfigError(f"{what} required: set {flag} in the config")
    path = os.path.join(path, *parts)
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found at {path}: a file is required")
    artifact = persistence_io.load_artifact(path)
    if not isinstance(artifact, kind):
        raise ConfigError(
            f"{flag}: {path} holds a {type(artifact).__name__}, not a {kind.__name__}"
        )
    return artifact


# -- chain-preconds ----------------------------------------------------------------


def cmd_chain_preconds(config: ExperimentConfig) -> str:
    out = _prepare_out(config, "chain-preconds")
    seeds = stage_seeds("chain-preconds", config.seed)
    env = LatchEnv(seed=seeds["env"])
    LOGGER.info("collecting %d zero-noise trajectories", config.n_trajectories)
    trajectories = collect_success_trajectories(env, config.n_trajectories, seeds["trajectories"])
    preconds = chain_preconditions(
        env, trajectories, m=config.samples_per_skill, scale=NEIGHBORHOOD_SCALE,
        seed=seeds["chaining"],
    )
    path = os.path.join(out, "preconds.rfj")
    persistence_io.save_artifact(preconds, path, created_with_seed=config.seed)

    rows = []
    for i in range(preconds.n_skills):
        positives = [r.start_state for r in preconds.records if r.skill_index == i and r.label]
        negatives = [r.start_state for r in preconds.records if r.skill_index == i and not r.label]
        rho = preconds.preconditions[i]
        rows.append((
            i, len(positives), len(negatives), self_positive_rate(rho, positives),
            *_em_report(rho.negative),
        ))
    _write_csv(
        os.path.join(out, "chain_summary.csv"),
        ["skill", "n_positive", "n_negative", "self_positive_rate", "em_iters", "em_converged"],
        rows,
    )
    LOGGER.info("preconditions written to %s", path)
    return path


# -- discover ------------------------------------------------------------------------


def cmd_discover(config: ExperimentConfig) -> str:
    out = _prepare_out(config, "discover")
    seeds = stage_seeds("discover", config.seed)
    env = LatchEnv(seed=seeds["env"])
    preconds = _load_input(config, "preconds_path")
    counts = {"states_decided": 0}
    if config.discovery_strategy == PESSIMISTIC:
        records = discover_pessimistic(
            env, preconds, n_episodes=config.discovery_episodes,
            noise_sigma=config.sigma_ref * config.pessimistic_sigma_factor,
            seed=seeds["episodes"], counts=counts,
        )
        n_modes = DEFAULT_MODES_PESSIMISTIC
    else:
        records = discover_early_termination(
            env, preconds, n_episodes=config.discovery_episodes,
            noise_sigma=config.sigma_ref, seed=seeds["episodes"], counts=counts,
        )
        n_modes = DEFAULT_MODES_EARLY_TERMINATION
    LOGGER.info(
        "%s discovery: %d episodes, %d post-skill states decided, "
        "%.4f failure records per episode",
        config.discovery_strategy, config.discovery_episodes, counts["states_decided"],
        len(records) / max(config.discovery_episodes, 1),
    )

    save_failures_csv(records, os.path.join(out, "failures.csv"))
    modes = cluster_failures(records, n_modes, seed=seeds["gmm"])
    _write_csv(
        os.path.join(out, "cluster_summary.csv"),
        ["n_records", "n_modes", "em_iters", "em_converged"],
        [(len(records), n_modes, *_em_report(modes.gmm))],
    )
    path = os.path.join(out, "modes.rfj")
    persistence_io.save_artifact(modes, path, created_with_seed=config.seed)
    LOGGER.info("%d failure records -> %d modes at %s", len(records), n_modes, path)
    return path


# -- train ---------------------------------------------------------------------------


class _RealTrainer:
    """Allocation-loop trainer backed by the simulator and the search oracle."""

    def __init__(self, config, env, library, modes, preconds, seed: np.random.SeedSequence):
        self.config = config
        self.env = env
        self.library = library
        self.modes = modes
        self.preconds = preconds
        self.reps_config = config.reps_config()
        self.seed_seq = seed
        self.reps_rows: list[tuple] = []

    def __call__(self, i, j, round_index) -> float:
        train_seed, eval_seed = self.seed_seq.spawn(2)
        trace = train_recovery_datapoint(
            self.library, i, j, self.env, self.modes, self.preconds,
            self.reps_config, train_seed,
        )
        for stats in trace:
            self.reps_rows.append(
                (round_index, i, j, stats.update, stats.mean_reward,
                 stats.best_reward, stats.eta, stats.kl)
            )
        return estimate_success_rate(
            self.library.skills[i][j], self.env, self.modes.gmm.components[i],
            self.preconds.target_classifier(j),
            n_eval=self.config.n_eval_rollouts, seed=eval_seed,
        )


def train_one_seed(config: ExperimentConfig, seed: int, preconds, modes):
    """Full allocation run for one seed; returns (library, allocation result, REPS rows)."""
    seeds = stage_seeds("train", seed)
    env = LatchEnv(seed=seeds["env"])
    rgraph = _recovery_graph(modes)
    library = RecoveryLibrary.empty(
        modes.n_modes, rgraph.n_targets, state_scale=np.asarray(config.knn_state_scale, dtype=float)
    )
    trainer = _RealTrainer(config, env, library, modes, preconds, seeds["rounds"])
    result = run_allocation_loop(
        config.allocation_strategy, rgraph, trainer, config.allocator_config()
    )
    library.q = result.state.q.copy()
    return library, result, trainer.reps_rows


def cmd_train(config: ExperimentConfig) -> dict[int, str]:
    preconds = _load_input(config, "preconds_path")
    modes = _load_input(config, "modes_path")
    library_paths: dict[int, str] = {}
    traces: dict[int, list[float]] = {}
    for seed in config.seeds:
        out = _prepare_out(config, "train", seed)
        library, result, reps_rows = train_one_seed(config, seed, preconds, modes)
        path = os.path.join(out, "library.rfj")
        persistence_io.save_artifact(library, path, created_with_seed=seed)
        persistence_io.save_artifact(
            result.state, os.path.join(out, "allocator_state.rfj"), created_with_seed=seed
        )
        _write_allocation_csvs(out, result)
        _write_csv(
            os.path.join(out, "reps_trace.csv"),
            ["round", "i", "j", "update", "mean_reward", "best_reward", "eta", "kl"],
            reps_rows,
        )
        library_paths[seed] = path
        traces[seed] = result.fv_trace
        LOGGER.info("seed %d: final FV %.4f", seed, result.fv_trace[-1])

    summary_out = _prepare_out(config, "train", "summary")
    arr = np.asarray([traces[s] for s in config.seeds])
    _write_csv(
        os.path.join(summary_out, "fv_summary.csv"),
        ["round", "mean_fv", "min_fv", "max_fv"],
        [
            (r, float(arr[:, r].mean()), float(arr[:, r].min()), float(arr[:, r].max()))
            for r in range(arr.shape[1])
        ],
    )
    return library_paths


# -- evaluate ------------------------------------------------------------------------


@dataclass
class EpisodeResult:
    success: bool
    cost: float
    executed: int


def _learned_policy_map(rgraph: RecoveryGraph, library: RecoveryLibrary) -> dict[int, int]:
    """Best recovery target per failure mode under the current estimates; ties go
    to the lowest target index."""
    return {i: row.index(max(row)) for i, row in enumerate(rgraph.recovery_values(library.q))}


def _best_applicable(preconds, mls_rows) -> list[int | None]:
    """Per row of an (N, d) matrix of MLS states, the highest-index accepting
    precondition (the skill closest to the goal), or None where none accepts.
    One ``accepting`` call, which decides each row as that state alone."""
    accepted = preconds.accepting(mls_rows)
    highest = len(accepted) - 1 - np.argmax(accepted[::-1], axis=0)
    return [int(k) if ok else None for k, ok in zip(highest, accepted.any(axis=0))]


@dataclass(frozen=True)
class MoveTo:
    """Single-waypoint heuristic action: go to a pose with a gripper setting."""

    target: tuple[float, float]
    gripper: float

    def plan(self, observation, state):
        return ((*self.target, self.gripper),)


@dataclass
class ClosedLoop:
    """Where one closed-loop evaluation episode, or one policy's branch of it,
    stands under the halving state estimator. ``rng`` is its own env
    generator state: each step restores it and keeps the state after it, so
    loops that step in turn draw what each would draw alone. ``failure`` is
    the MLS vector of the state where no precondition accepted, until the
    loop's next step; else None."""

    state: WorldState
    obs: np.ndarray
    sigma: float
    start_ee: tuple[float, float]
    rng: dict
    cost: float = 0.0
    executed: int = 0
    last_skill: int | None = None
    prev_pose: tuple[tuple[float, float], float] | None = None
    just_recovered: bool = False  # the last action was a recovery action
    failure: np.ndarray | None = None

    def run(self, env: LatchEnv, action) -> None:
        env.restore_rng(self.rng)
        self.state, step_cost = env.execute_skill(self.state, action, self.obs)
        self.cost += step_cost
        self.executed += 1
        self.sigma, self.obs = env.halving_step(self.state, self.sigma)
        self.rng = env.rng_state()
        self.failure = None

    def result(self, env: LatchEnv) -> EpisodeResult:
        return EpisodeResult(bool(env.goal_predicate(self.state)), self.cost, self.executed)


def _advance_lockstep(env: LatchEnv, preconds, loops, counts: Counter) -> None:
    """Run each loop's best applicable nominal skill until it reaches the
    goal, ``SKILL_CAP`` executed skills or a state that no precondition
    accepts (its ``failure``). The loops step in lockstep: one accept call
    per step decides the states of every loop still running, each row as
    that state alone. ``counts`` adds the calls and the rows they decided."""
    skills = env.nominal_skills()
    live = loops
    while live := [x for x in live if x.executed < SKILL_CAP and not env.goal_predicate(x.state)]:
        mls = [env.mls_state_vector(x.state, x.obs) for x in live]
        counts["accept_calls"] += 1
        counts["accept_rows"] += len(mls)
        stepped = []
        for loop, row, applicable in zip(live, mls, _best_applicable(preconds, np.array(mls))):
            if applicable is None:
                loop.failure = row
                continue
            loop.prev_pose = (loop.state.ee_pos, 1.0 if loop.state.gripper_closed else 0.0)
            loop.run(env, skills[applicable])
            loop.last_skill = applicable
            loop.just_recovered = False
            stepped.append(loop)
        live = stepped


def _recovery_action(policy: str, loop: ClosedLoop, mls, env, modes, library, mode_targets):
    """The policy's action at a state no precondition accepts; None ends the episode."""
    if policy == "no-recovery":
        return None
    if policy == "retry":
        if loop.last_skill is None or loop.just_recovered:
            return None
        return env.nominal_skills()[loop.last_skill]
    if policy == "recover-to-prev":
        if loop.prev_pose is None or loop.just_recovered:
            return None
        return MoveTo(*loop.prev_pose)
    if policy == "recover-to-start":
        return MoveTo(loop.start_ee, 0.0)
    if policy == "learned-recovery":
        mode = classify_failure(modes, mls)
        skill = library.skills[mode][mode_targets[mode]]
        return knn_predict(skill, mls) if len(skill) else None
    raise RecoveryForgeError(f"unknown evaluation policy {policy!r}")


def _run_branches(env, preconds, modes, library, mode_targets, branches, counts) -> None:
    """Each (policy, loop) branch from the failure its loop stopped at, in
    lockstep rounds: every branch at a failure takes its policy's recovery
    action or ends, then one ``_advance_lockstep`` runs the acting branches
    to their next failure, the goal or the cap."""
    while branches := [(policy, loop) for policy, loop in branches if loop.failure is not None]:
        acting = []
        for policy, loop in branches:
            action = _recovery_action(policy, loop, loop.failure, env, modes, library, mode_targets)
            if action is not None:
                loop.run(env, action)
                loop.just_recovered = True
                acting.append((policy, loop))
        _advance_lockstep(env, preconds, [loop for _, loop in acting], counts)
        branches = acting


def run_policy_episode(
    policy: str,
    env: LatchEnv,
    prefix: ClosedLoop,
    preconds,
    modes,
    library: RecoveryLibrary | None,
    mode_targets: dict[int, int] | None,
) -> EpisodeResult:
    """One closed-loop policy's evaluation episode, branched from the
    episode's shared prefix (a loop that ``_advance_lockstep`` stopped): the
    one-branch case of ``_run_branches``."""
    loop = replace(prefix)
    _run_branches(env, preconds, modes, library, mode_targets, [(policy, loop)], Counter())
    return loop.result(env)


def evaluate_seed(config: ExperimentConfig, seed: int, preconds, modes, library, mode_targets,
                  counts: Counter | None = None):
    """Every policy on the seed's evaluation episodes: per policy, one result
    per episode; and how many episodes reached a failure before the goal.
    Over blocks of ``DISCOVERY_BLOCK_EPISODES``, the episodes' shared prefixes
    run in lockstep, then one branch per policy from each, on a copy of its
    prefix's generator state. ``counts``, when given, adds the accept calls
    (``"accept_calls"``) and the states they decided (``"accept_rows"``)."""
    seeds = stage_seeds("evaluate", seed)
    env = LatchEnv(seed=seeds["env"])
    results: dict[str, list[EpisodeResult]] = {p: [] for p in EVAL_POLICIES}
    reached_failure = 0
    counts = Counter() if counts is None else counts
    for start in range(0, config.eval_episodes, DISCOVERY_BLOCK_EPISODES):
        prefixes = []
        n_block = min(DISCOVERY_BLOCK_EPISODES, config.eval_episodes - start)
        for episode_seed in seeds["episodes"].spawn(n_block):
            # open-loop runs the nominal chain on the frozen initial estimate and
            # never consults the preconditions.
            record = env.run_chain(config.sigma_ref, seed=episode_seed)
            results["open-loop"].append(
                EpisodeResult(record.success, sum(record.costs), len(record.costs))
            )
            state, obs = env.reset(seed=episode_seed, sigma=config.sigma_ref)
            prefixes.append(ClosedLoop(state, obs, config.sigma_ref, state.ee_pos, env.rng_state()))
        _advance_lockstep(env, preconds, prefixes, counts)
        reached_failure += sum(prefix.failure is not None for prefix in prefixes)
        # a prefix at the goal or the cap is every policy's result: no copy needed
        branches = [
            (policy, p if p.failure is None else replace(p))
            for p in prefixes for policy in EVAL_POLICIES[1:]
        ]
        _run_branches(env, preconds, modes, library, mode_targets, branches, counts)
        for policy, loop in branches:
            results[policy].append(loop.result(env))
    return results, reached_failure


def _outcome_stats(results: list[EpisodeResult]) -> tuple[float, float, float]:
    """Success rate, mean cost and cost standard deviation of some episodes."""
    costs = np.asarray([r.cost for r in results])
    return float(np.mean([r.success for r in results])), float(costs.mean()), float(costs.std())


def cmd_evaluate(config: ExperimentConfig) -> str:
    # Every input, each seed's library and its policy, then the output
    # directory: a bad one fails before the first episode.
    preconds = _load_input(config, "preconds_path")
    modes = _load_input(config, "modes_path")
    rgraph = _recovery_graph(modes)
    libraries = {
        seed: _load_input(config, "library_dir", str(seed), "library.rfj") for seed in config.seeds
    }
    policies = {seed: _learned_policy_map(rgraph, libraries[seed]) for seed in config.seeds}
    out = _prepare_out(config, "evaluate", "all")

    per_seed_rows = []
    totals: dict[str, list[EpisodeResult]] = {p: [] for p in EVAL_POLICIES}
    for seed in config.seeds:
        counts = Counter()
        results, reached_failure = evaluate_seed(
            config, seed, preconds, modes, libraries[seed], policies[seed], counts
        )
        LOGGER.info(
            "seed %d: %d of %d episodes reached the failure branch",
            seed, reached_failure, config.eval_episodes,
        )
        LOGGER.info(
            "seed %d: %d accept calls decided %d closed-loop states",
            seed, counts["accept_calls"], counts["accept_rows"],
        )
        for policy in EVAL_POLICIES:
            totals[policy].extend(results[policy])
            per_seed_rows.append((seed, policy, *_outcome_stats(results[policy])))
            LOGGER.info("seed %d %s: %.3f", seed, policy, per_seed_rows[-1][2])

    _write_csv(
        os.path.join(out, "per_seed_evaluation.csv"),
        ["seed", "policy", "success_rate", "mean_cost", "std_cost"],
        per_seed_rows,
    )
    rows = [(policy, *_outcome_stats(totals[policy])) for policy in EVAL_POLICIES]
    path = os.path.join(out, "evaluation.csv")
    _write_csv(path, ["policy", "success_rate", "mean_cost", "std_cost"], rows)
    return path


# -- synthetic allocation testbed ------------------------------------------------------


class SyntheticTrainer:
    """The testbed's latent learning curves, one per (mode, target), each
    estimated with bounded uniform noise after every selection."""

    def __init__(self, q_max: np.ndarray, tau: np.ndarray, seed):
        self.q_max = q_max.tolist()
        self.tau = tau.tolist()
        self.counts = [[0] * len(row) for row in self.q_max]
        self.rng = np.random.default_rng(seed)

    def __call__(self, i, j, round_index) -> float:
        # np.exp, not math.exp: the two may differ in the last bit. max before
        # min keeps a NaN, as np.clip does.
        self.counts[i][j] += 1
        latent = self.q_max[i][j] * (1.0 - float(np.exp(-self.counts[i][j] / self.tau[i][j])))
        return min(max(latent + self.rng.uniform(-SYNTH_NOISE, SYNTH_NOISE), 0.0), 1.0)


def synthetic_task_set(seed):
    """One seeded task set: the recovery graph and the (n, m) curves' ``q_max``
    and ``tau``, with one strong recovery per mode and weak alternatives."""
    rng = np.random.default_rng(seed)
    n, m = SYNTH_MODES, len(SYNTH_COSTS) + 1
    sizes = rng.integers(50, 400, size=n).astype(float)
    q_max, tau = np.empty((n, m)), np.empty((n, m))
    for i in range(n):
        strong = int(rng.integers(0, m))
        for j in range(m):
            q_max[i, j] = rng.uniform(*(SYNTH_STRONG_Q if j == strong else SYNTH_WEAK_Q))
            tau[i, j] = rng.uniform(*SYNTH_TAU)
    rgraph = RecoveryGraph.chain(list(SYNTH_COSTS), n, sizes, c_fail=SYNTH_C_FAIL)
    return rgraph, q_max, tau


def run_synthetic_allocation(config: ExperimentConfig, seed: int):
    """Both strategies on the seed's one task set and noise; returns their results."""
    seeds = stage_seeds("synth-alloc", seed)
    rgraph, q_max, tau = synthetic_task_set(seeds["task_set"])
    return {
        strategy: run_allocation_loop(
            strategy, rgraph, SyntheticTrainer(q_max, tau, seed=seeds["noise"]),
            config.allocator_config(),
        )
        for strategy in ("rr", "ucl")
    }


def budget_to_parity(ucl_trace, rr_trace) -> float:
    """Fraction of the budget the UCL strategy needed to reach round-robin's best."""
    rr_best = max(rr_trace)
    for r, fv in enumerate(ucl_trace):
        if fv >= rr_best - 1e-12:
            return (r + 1) / len(ucl_trace)
    return np.inf


def cmd_synthetic_allocation(config: ExperimentConfig) -> str:
    rows = []
    for seed in config.seeds:
        out = _prepare_out(config, "synth-alloc", seed)
        results = run_synthetic_allocation(config, seed)
        for strategy, result in results.items():
            _write_allocation_csvs(out, result, f"_{strategy}")
        ucl, rr = results["ucl"].fv_trace, results["rr"].fv_trace
        rows.append((seed, ucl[-1], rr[-1], budget_to_parity(ucl, rr)))
        LOGGER.info("seed %d: ucl %.4f rr %.4f parity %.2f", *rows[-1])
    out = _prepare_out(config, "synth-alloc", "summary")
    path = os.path.join(out, "synth_fv.csv")
    _write_csv(path, ["seed", "ucl_final_fv", "rr_final_fv", "ucl_budget_to_rr_best"], rows)
    return path


# -- CLI -----------------------------------------------------------------------------


def _setup_logging() -> None:
    value = os.environ.get("RECOVERY_FORGE_LOG", "error")
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    known, requirement = one_of(*levels)
    if not known(value.lower()):
        raise ConfigError(f"RECOVERY_FORGE_LOG must be {requirement}, got {value!r}")
    logging.basicConfig(
        level=levels[value.lower()],
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recovery-forge",
        description="Learn and evaluate failure-recovery skills in the latch world.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("chain-preconds", "discover", "train", "evaluate", "synth-alloc"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON experiment config", default=None)
    return parser


def _load_config(args) -> ExperimentConfig:
    return ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()


COMMANDS = {
    "chain-preconds": cmd_chain_preconds,
    "discover": cmd_discover,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "synth-alloc": cmd_synthetic_allocation,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        config = _load_config(args)
        COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecoveryForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
