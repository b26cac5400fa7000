"""Learn nominal-skill preconditions backwards from the goal.

The chain is the env's: its nominal skills and its goal test. Successful
zero-noise ``run_chain`` trajectories give each skill a positive start-state
distribution. Walking the chain backwards, states sampled around each
distribution are executed and labeled by the next skill's (already learned)
precondition, so label information flows from the goal toward the start.
Random world states pad the negative sets so the classifiers reject far-away
states too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .classifiers import (
    DEFAULT_NEGATIVE_COMPONENTS,
    GaussianModel,
    GenerativeClassifier,
    fit_gaussian,
    fit_gmm,
    sample_neighborhood,
    stack_classifiers,
    stack_with_density,
    stacked_accepts,
)
from .errors import RecoveryForgeError
from .latch_env import ANGLE_MAX, DOOR_MAX, HANDLE_BOX, WORLD_BOX, LatchEnv

MIN_LABELS_PER_CLASS = 5
RANDOM_NEGATIVE_SHARE = 0.25  # of the final negative set

# Per-dimension standard-deviation floor as a fraction of each state dimension's
# world range. Trajectory data is exactly constant in several dimensions
# (gripper bit, handle angle, door angle), and without a physically meaningful
# floor those dimensions dominate the generative density ratio, making the
# classifiers extrapolate arbitrarily at states far from any training data.
STATE_SIGMA_FLOOR_FRACTION = 0.01


@dataclass
class LabelingRecord:
    skill_index: int
    start_state: np.ndarray
    end_state: np.ndarray
    label: int


@dataclass
class PreconditionSet:
    preconditions: list[GenerativeClassifier]
    positive_dists: list[GaussianModel]
    goal_positive: GaussianModel
    goal_classifier: GenerativeClassifier
    records: list[LabelingRecord] = field(default_factory=list, repr=False, compare=False)

    @property
    def n_skills(self) -> int:
        return len(self.preconditions)

    def accepting(self, x) -> np.ndarray:
        """Does each skill's precondition accept the state ``x``: shape (P,) for
        a state, (P, N) for an N x d matrix of states. The accept decision of
        failure discovery and evaluation; one ``stacked_accepts`` call over all
        the preconditions, each decision equal to a one-state ``classify``'s.
        The stack (means, inverse factors, log-determinants, log-weights,
        margin scales) is built once per set."""
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        accepted = stacked_accepts(self._stacked, arr[None, :] if single else arr)
        return accepted[:, 0] if single else accepted

    @cached_property
    def _stacked(self) -> tuple:
        """The preconditions as one ``stack_classifiers`` stack."""
        return stack_classifiers(self.preconditions)

    def target_positive(self, j: int) -> GaussianModel:
        return self.positive_dists[j] if j < self.n_skills else self.goal_positive

    def target_classifier(self, j: int) -> GenerativeClassifier:
        return self.preconditions[j] if j < self.n_skills else self.goal_classifier

    def reward_stack(self, j: int) -> tuple:
        """Recovery target j's positive Gaussian ahead of its classifier, as the
        ``stack_with_density`` stack that ``recovery_reward`` scores."""
        return self._reward_stacks[j]

    @cached_property
    def _reward_stacks(self) -> list[tuple]:
        """``reward_stack`` of every target: each skill precondition, then the goal."""
        return [
            stack_with_density(self.target_positive(j), self.target_classifier(j))
            for j in range(self.n_skills + 1)
        ]


def collect_success_trajectories(env, n: int, seed) -> list[np.ndarray]:
    """Zero-noise rollouts of the env's chain, attempt a reset from child a of
    the ``SeedSequence`` ``seed``; keeps the k+1 per-skill start states (last
    entry is the goal state) of the first n successful episodes."""
    trajectories: list[np.ndarray] = []
    for _ in range(10 * n):
        if len(trajectories) == n:
            break
        record = env.run_chain(0.0, seed=seed.spawn(1)[0])
        if record.success:
            trajectories.append(np.asarray(record.states))
    if len(trajectories) < n:
        raise RecoveryForgeError(
            f"only {len(trajectories)}/{n} successes in {10 * n} zero-noise attempts"
        )
    return trajectories


def random_world_states(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over the latch world's state box."""
    lo, hi = state_bounds()
    return rng.uniform(lo, hi, size=(n, lo.size))


def state_bounds() -> tuple[np.ndarray, np.ndarray]:
    """The latch world's state box: the low and high corner."""
    off_bound = WORLD_BOX + HANDLE_BOX
    lo = np.array([-WORLD_BOX, -WORLD_BOX, 0.0, -off_bound, -off_bound, 0.0, 0.0])
    hi = np.array([WORLD_BOX, WORLD_BOX, 1.0, off_bound, off_bound, ANGLE_MAX, DOOR_MAX])
    return lo, hi


def _state_variance_floor() -> np.ndarray:
    lo, hi = state_bounds()
    return (STATE_SIGMA_FLOOR_FRACTION * (hi - lo)) ** 2


def _floor_model(model: GaussianModel, variance_floor: np.ndarray) -> GaussianModel:
    cov = model.covariance.copy()
    diag = np.diag(cov).copy()
    lift = np.maximum(variance_floor - diag, 0.0)
    return GaussianModel(model.mean, cov + np.diag(lift))


def _floor_classifier(clf: GenerativeClassifier, variance_floor: np.ndarray) -> GenerativeClassifier:
    """The classifier with every Gaussian floored; the negative GMM keeps its
    EM trace and ``converged`` flag."""
    negative = replace(
        clf.negative, components=[_floor_model(c, variance_floor) for c in clf.negative.components]
    )
    return GenerativeClassifier(_floor_model(clf.positive, variance_floor), negative)


def _augment_with_random_negatives(negatives, rng) -> np.ndarray:
    n_random = max(1, int(np.ceil(len(negatives) * RANDOM_NEGATIVE_SHARE / (1 - RANDOM_NEGATIVE_SHARE))))
    extra = random_world_states(n_random, rng)
    return np.concatenate([np.asarray(negatives), extra])


def chain_preconditions(
    env, trajectories, m: int, scale: float, seed: np.random.SeedSequence
) -> PreconditionSet:
    """Backwards pass over the env's chain: sample, execute, label, fit."""
    if not trajectories:
        raise RecoveryForgeError("no trajectories to chain from")
    skills = env.nominal_skills()
    k = len(skills)
    floor = _state_variance_floor()
    columns = [np.asarray([t[i] for t in trajectories]) for i in range(k + 1)]
    positive_dists = [_floor_model(fit_gaussian(columns[i]), floor) for i in range(k)]
    goal_positive = _floor_model(fit_gaussian(columns[k]), floor)

    # One child per skill, one for the goal classifier, and one whose env runs
    # the labelling rollouts, so ``env``'s generator is neither read nor moved.
    seeds = seed.spawn(k + 2)
    rollouts = LatchEnv(seeds[k + 1])
    preconditions: list[GenerativeClassifier | None] = [None] * k
    records: list[LabelingRecord] = []
    # Current goal condition, walking backwards: the end states -> their labels.
    label_fn = _predicate_labels(env.goal_predicate_vector)

    for i in range(k - 1, -1, -1):
        rng = np.random.default_rng(seeds[i])
        samples = sample_neighborhood(positive_dists[i], scale, m, rng)
        # A label never feeds back into the env, so every sample is executed
        # first, in order, and the end states are labelled in one call.
        states = [env.set_state(sample) for sample in samples]
        ends = rollouts.execute_from(states, [skills[i]] * len(states))
        positives, negatives = [], []
        for start_vec, end_vec, label in zip(map(env.state_vector, states), ends, label_fn(ends)):
            records.append(LabelingRecord(i, start_vec, end_vec, label))
            (positives if label else negatives).append(start_vec)
        if len(positives) < MIN_LABELS_PER_CLASS or len(negatives) < MIN_LABELS_PER_CLASS:
            raise RecoveryForgeError(
                f"skill {i}: {len(positives)} positive / {len(negatives)} negative labels "
                f"from {m} samples; raise the sample count (samples_per_skill)"
            )
        pos_set = np.concatenate([columns[i], np.asarray(positives)])
        neg_set = _augment_with_random_negatives(negatives, rng)
        positive_model = fit_gaussian(pos_set)
        negative_model = fit_gmm(neg_set, DEFAULT_NEGATIVE_COMPONENTS, seed=rng)
        rho = _floor_classifier(GenerativeClassifier(positive_model, negative_model), floor)
        preconditions[i] = rho
        label_fn = _classifier_label(rho)

    goal_rng = np.random.default_rng(seeds[k])
    goal_negatives = _goal_negatives(records, goal_rng, k)
    goal_classifier = _floor_classifier(
        GenerativeClassifier(
            fit_gaussian(columns[k]),
            fit_gmm(goal_negatives, DEFAULT_NEGATIVE_COMPONENTS, seed=goal_rng),
        ),
        floor,
    )

    return PreconditionSet(
        preconditions=list(preconditions),
        positive_dists=positive_dists,
        goal_positive=goal_positive,
        goal_classifier=goal_classifier,
        records=records,
    )


def _predicate_labels(predicate):
    return lambda ends: [int(predicate(vec)) for vec in ends]


def _classifier_label(rho: GenerativeClassifier):
    """Each row's label equal to that of a one-state ``classify``."""
    return lambda ends: stacked_accepts(rho._stacked, ends)[0].astype(int).tolist()


def _goal_negatives(records, rng, k) -> np.ndarray:
    """Non-goal states for the goal-region classifier: failed last-skill rollout
    ends plus random world states."""
    fails = [r.end_state for r in records if r.skill_index == k - 1 and r.label == 0]
    extras = random_world_states(max(50, len(fails)), rng)
    if fails:
        return np.concatenate([np.asarray(fails), extras])
    return extras


def self_positive_rate(rho: GenerativeClassifier, positives) -> float:
    """Fraction of ``positives`` a classifier accepts. The chain summary passes a
    skill's labelled positives, not the trajectory states also in its fit."""
    return float(np.mean(stacked_accepts(rho._stacked, np.asarray(positives))[0]))
