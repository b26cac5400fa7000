"""Generate failure states under noisy observations and cluster them into modes.

A state is a failure when the goal is unmet and no skill precondition accepts
it, by ``PreconditionSet.accepting`` (the accept decision evaluation uses too).
The pessimistic strategy runs ``LatchEnv.run_chain`` (the open-loop rollout)
under inflated noise and checks the state after every skill, so several
failure states per episode are common. Its rollouts never read a decision, so
the states of a block of ``DISCOVERY_BLOCK_EPISODES`` episodes are decided in
one ``stacked_accepts`` call. That call scores every state with a fast kernel
and re-scores alone only the states that its error margin leaves in doubt, so
each decision equals that of the state alone. Early termination follows the
env's halving estimator and stops at the first failure, one decision per step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .classifiers import GmmModel, _component_logpdfs, fit_gmm
from .errors import RecoveryForgeError
from .latch_env import STATE_DIM, mls_vector

PESSIMISTIC = "pessimistic"
EARLY_TERMINATION = "early_termination"

DEFAULT_MODES_PESSIMISTIC = 6
DEFAULT_MODES_EARLY_TERMINATION = 5

# Pessimistic episodes whose post-skill states are decided in one call: large
# enough to amortise the call, small enough to keep memory flat at any count.
DISCOVERY_BLOCK_EPISODES = 64


@dataclass
class FailureRecord:
    true_state: np.ndarray
    observation_at_failure: np.ndarray  # most-likely state at recording time
    skill_index: int
    strategy: str


@dataclass
class FailureModeSet:
    gmm: GmmModel
    sizes: np.ndarray

    def __post_init__(self):
        self.sizes = np.asarray(self.sizes, dtype=float)

    @property
    def n_modes(self) -> int:
        return len(self.gmm.components)


def is_failure_state(preconds, state_vector) -> bool:
    """No precondition of the ``PreconditionSet`` accepts the state; the
    caller has already ruled out the goal."""
    return not preconds.accepting(state_vector).any()


def discover_pessimistic(
    env, preconds, *, n_episodes: int, noise_sigma: float, seed, counts: dict | None = None
) -> list[FailureRecord]:
    """Open-loop chain rollouts on a frozen noisy estimate; a failure check runs
    after every skill, so one bad episode can contribute several records. The
    goal is absorbing, so a rollout that stops there leaves out no failure.

    Episode e resets from child e of the ``SeedSequence`` ``seed``. Records
    come in episode then skill order. ``counts``, when given, gets the number
    of non-goal post-skill states decided under ``"states_decided"``.
    """
    records: list[FailureRecord] = []
    decided = 0
    for start in range(0, n_episodes, DISCOVERY_BLOCK_EPISODES):
        # (estimate, skill index, true state) of every non-goal post-skill state
        candidates = []
        for episode_seed in seed.spawn(min(DISCOVERY_BLOCK_EPISODES, n_episodes - start)):
            record = env.run_chain(noise_sigma, seed=episode_seed)
            for skill_index, true_vec in enumerate(record.states[1:]):
                if not env.goal_predicate_vector(true_vec):
                    candidates.append((record.estimate, skill_index, true_vec))
        if not candidates:
            continue
        decided += len(candidates)
        accepted = preconds.accepting(np.array([c[2] for c in candidates])).any(axis=0)
        for (estimate, skill_index, true_vec), ok in zip(candidates, accepted):
            if not ok:
                records.append(
                    FailureRecord(
                        true_state=true_vec,
                        observation_at_failure=mls_vector(true_vec, estimate),
                        skill_index=skill_index,
                        strategy=PESSIMISTIC,
                    )
                )
    if counts is not None:
        counts["states_decided"] = decided
    return records


def discover_early_termination(
    env, preconds, *, n_episodes: int, noise_sigma: float, seed, counts: dict | None = None
) -> list[FailureRecord]:
    """Rollouts under the halving estimator (first estimate at ``noise_sigma``)
    that stop at the goal or at the first failure state. ``seed`` and
    ``counts`` as for ``discover_pessimistic``."""
    records: list[FailureRecord] = []
    decided = 0
    for episode_seed in seed.spawn(n_episodes):
        state, obs = env.reset(seed=episode_seed, sigma=noise_sigma)
        sigma = noise_sigma
        for skill_index, skill in enumerate(env.nominal_skills()):
            state, _ = env.execute_skill(state, skill, obs)
            sigma, obs = env.halving_step(state, sigma)
            true_vec = env.state_vector(state)
            if env.goal_predicate_vector(true_vec):
                break
            decided += 1
            if is_failure_state(preconds, true_vec):
                records.append(
                    FailureRecord(
                        true_state=true_vec,
                        observation_at_failure=mls_vector(true_vec, obs),
                        skill_index=skill_index,
                        strategy=EARLY_TERMINATION,
                    )
                )
                break
    if counts is not None:
        counts["states_decided"] = decided
    return records


def cluster_failures(records: list[FailureRecord], n_modes: int, seed) -> FailureModeSet:
    """GMM over the true failure states; sizes are the expected member counts."""
    if len(records) < n_modes:
        raise RecoveryForgeError(f"{len(records)} failure states cannot form {n_modes} modes")
    states = np.asarray([r.true_state for r in records])
    gmm = fit_gmm(states, n_modes, seed=seed)
    sizes = len(records) * gmm.weights
    return FailureModeSet(gmm, sizes)


def classify_failure(modes: FailureModeSet, state) -> int:
    """Most responsible mode for a state: the largest log w_k + log N(x | mu_k,
    Sigma_k), which the responsibilities only re-scale; ties break to the
    lowest index."""
    vec = np.asarray(state, dtype=float)
    if vec.shape != (modes.gmm.dim,):
        raise RecoveryForgeError(f"state has shape {vec.shape}, modes expect ({modes.gmm.dim},)")
    return int(np.argmax(_component_logpdfs(modes.gmm, vec[None, :])[0]))


def save_failures_csv(records: list[FailureRecord], path) -> None:
    dim = len(records[0].true_state) if records else STATE_DIM
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"s{i}" for i in range(dim)]
            + [f"o{i}" for i in range(dim)]
            + ["skill_index", "strategy"]
        )
        for r in records:
            writer.writerow(
                [repr(float(v)) for v in r.true_state]
                + [repr(float(v)) for v in r.observation_at_failure]
                + [r.skill_index, r.strategy]
            )
