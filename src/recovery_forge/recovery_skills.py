"""Parameterized recovery skills: kNN regressors over state -> action-parameter
pairs, held in a ``RecoveryLibrary``, the allocator's grid of failure modes i
by recovery targets j, and trained one datapoint at a time.

Each training call (one budget unit) samples a start state from a failure-mode
component, searches for action parameters that land the system in the target
precondition, and appends the resulting (state, parameters) pair. Prediction
averages the parameters of the k nearest stored states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classifiers import (
    GaussianModel,
    GenerativeClassifier,
    classify,  # noqa: F401 -- bench/selftest.py checks the tracer patches this binding
    density_posteriors,
    gaussian_sample,
    stacked_accepts,
)
from .errors import RecoveryForgeError
from .latch_env import THETA_BOUNDS
from .reps import RepsConfig, SearchPolicy, reps_optimize

DEFAULT_KNN = 3
# The REPS search's initial spread per dimension, as a fraction of each
# parameter's half-range.
INIT_COVARIANCE_SCALE = 0.25

LOGPDF_REWARD_WEIGHT = 0.1
PRECONDITION_REWARD_WEIGHT = 10.0


@dataclass
class ParameterizedSkill:
    k: int = DEFAULT_KNN
    states: list[np.ndarray] = field(default_factory=list)
    thetas: list[np.ndarray] = field(default_factory=list)
    state_scale: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.states)

    def append(self, state, theta) -> None:
        self.states.append(np.asarray(state, dtype=float))
        self.thetas.append(np.asarray(theta, dtype=float))
        self.__dict__.pop("_stacked", None)

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored states and thetas as arrays, rebuilt after an ``append``."""
        return np.asarray(self.states), np.asarray(self.thetas)


def knn_predict(skill: ParameterizedSkill, states) -> np.ndarray:
    """Mean parameter vector of the k nearest stored states (all, if fewer).

    Takes one state vector or an N x d matrix of them, like ``classify``; a
    matrix gives one row of parameters per query row. Distances are scaled by
    ``state_scale`` per dimension, and ties keep the stored order.
    """
    if not skill.states:
        raise RecoveryForgeError("the recovery skill has no data")
    query = np.asarray(states, dtype=float)
    stored, thetas = skill._stacked
    if query.ndim not in (1, 2) or query.shape[-1] != stored.shape[1]:
        raise RecoveryForgeError(f"query shape {query.shape} vs stored dim {stored.shape[1]}")
    rows = np.atleast_2d(query)
    scale = skill.state_scale if skill.state_scale is not None else np.ones(stored.shape[1])
    dists = np.linalg.norm((stored[None] - rows[:, None]) / scale, axis=2)
    k = min(skill.k, len(stored))
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    means = np.mean(thetas[nearest], axis=1)
    return means if query.ndim == 2 else means[0]


def recovery_reward(stack: tuple, states) -> float | np.ndarray:
    """Dense recovery objective: log-density shaping plus the precondition bonus,
    ``LOGPDF_REWARD_WEIGHT * gaussian_logpdf + PRECONDITION_REWARD_WEIGHT *
    classify`` of the target whose ``PreconditionSet.reward_stack`` is
    ``stack``, scored in one kernel call. Takes one state vector or an N x d matrix
    of them, like ``classify``."""
    vec = np.asarray(states, dtype=float)
    single = vec.ndim == 1
    logpdf, posterior = density_posteriors(stack, vec[None, :] if single else vec)
    reward = LOGPDF_REWARD_WEIGHT * logpdf + PRECONDITION_REWARD_WEIGHT * posterior
    return float(reward[0]) if single else reward


@dataclass
class RecoveryLibrary:
    skills: list[list[ParameterizedSkill]]  # skills[i][j] is the skill behind q[i, j]
    q: np.ndarray

    @classmethod
    def empty(cls, n_modes: int, n_targets: int, state_scale=None):
        skills = [
            [ParameterizedSkill(state_scale=state_scale) for _ in range(n_targets)]
            for _ in range(n_modes)
        ]
        return cls(skills=skills, q=np.zeros((n_modes, n_targets)))


def default_recovery_policy() -> SearchPolicy:
    """Search init: zero displacements with an approach-close-hold gripper
    pattern; the spread per dimension is ``INIT_COVARIANCE_SCALE`` of each
    parameter's half-range, so both gripper phases stay explorable."""
    mean = np.array([0.0, 0.0, 0.3, 0.0, 0.0, 0.7, 0.0, 0.0, 0.7])
    half_range = (THETA_BOUNDS[:, 1] - THETA_BOUNDS[:, 0]) / 2.0
    cov = np.diag((INIT_COVARIANCE_SCALE * half_range) ** 2)
    return SearchPolicy(mean, cov)


def train_recovery_datapoint(
    library: RecoveryLibrary,
    i: int,
    j: int,
    env,
    modes,
    preconds,
    reps_config: RepsConfig,
    seed,
):
    """One budget unit: solve one failure start and append the datapoint."""
    rng = np.random.default_rng(seed)
    component = modes.gmm.components[i]
    start = gaussian_sample(component, 1, rng)[0]
    reward_stack = preconds.reward_stack(j)

    state = env.set_state(start)

    def reward_fn(thetas):
        # One rollout per theta in row order, which fixes the env's RNG draw
        # order, then one batched score of the terminal states.
        terminals = env.execute_from([state] * len(thetas), thetas)
        return recovery_reward(reward_stack, terminals)

    init = default_recovery_policy()
    best_theta, _, trace = reps_optimize(reward_fn, init, reps_config, seed=rng, bounds=THETA_BOUNDS)
    library.skills[i][j].append(start, best_theta)
    return trace


def estimate_success_rate(
    skill: ParameterizedSkill,
    env,
    component: GaussianModel,
    target_precond: GenerativeClassifier,
    n_eval: int,
    seed,
) -> float:
    """Fresh seeded rollouts from ``component``, the Gaussian of the skill's
    failure mode; fraction that land in the target precondition. An untrained
    skill scores 0."""
    if len(skill) == 0:
        return 0.0
    # set_state draws nothing, so building every start first and predicting
    # all their parameters in one call keeps the env's draw order.
    states = [env.set_state(start) for start in gaussian_sample(component, n_eval, seed)]
    thetas = knn_predict(skill, np.array([env.state_vector(state) for state in states]))
    accepted = stacked_accepts(target_precond._stacked, env.execute_from(states, thetas))[0]
    return np.count_nonzero(accepted) / n_eval
