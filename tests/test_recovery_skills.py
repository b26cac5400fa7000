"""Recovery skills: batched reward scoring, training rollouts, success estimates,
kNN, and the row-exact accept decision of success and self-positive rates."""

import numpy as np
import pytest

from recovery_forge import precondition_chaining, recovery_skills
from recovery_forge.classifiers import (
    GaussianModel,
    GenerativeClassifier,
    GmmModel,
    fit_gaussian,
    fit_gmm,
    gaussian_sample,
    stacked_accepts,
    stacked_posteriors,
)
from recovery_forge.errors import RecoveryForgeError
from recovery_forge.failure_discovery import FailureModeSet
from recovery_forge.harness_cli import ExperimentConfig
from recovery_forge.latch_env import THETA_BOUNDS, THETA_DIM, LatchEnv
from recovery_forge.persistence_io import from_payload, to_payload
from recovery_forge.precondition_chaining import PreconditionSet, self_positive_rate
from recovery_forge.recovery_skills import (
    ParameterizedSkill,
    RecoveryLibrary,
    estimate_success_rate,
    knn_predict,
    recovery_reward,
    train_recovery_datapoint,
)
from recovery_forge.reps import RepsConfig, reps_optimize

ENV_SEED = 4


def _rollout(env, start, theta) -> np.ndarray:
    """The per-theta reference: one rollout from the start vector."""
    state = env.set_state(start)
    obs = np.asarray(state.handle_pos_true, dtype=float)
    terminal, _ = env.execute_skill(state, theta, obs)
    return env.state_vector(terminal)


@pytest.fixture(scope="module")
def world():
    """One failure mode around a reset state, and a target precondition that
    accepts the terminal states of random recovery actions from that mode that
    end left of their median, and rejects the others."""
    env = LatchEnv(seed=0)
    state, _ = env.reset(seed=1, sigma=ExperimentConfig.sigma_ref)
    spread = np.diag([0.02, 0.02, 1e-3, 0.02, 0.02, 1e-3, 1e-3]) ** 2
    component = GaussianModel(env.state_vector(state), spread)
    modes = FailureModeSet(GmmModel([1.0], [component]), [10.0])

    bounds = THETA_BOUNDS
    thetas = np.random.default_rng(2).uniform(bounds[:, 0], bounds[:, 1], size=(200, THETA_DIM))
    starts = gaussian_sample(component, len(thetas), 3)
    terminals = np.array([_rollout(env, s, theta) for s, theta in zip(starts, thetas)])
    left = terminals[:, 0] < np.median(terminals[:, 0])
    positive = fit_gaussian(terminals[left])
    target = GenerativeClassifier(positive, fit_gmm(terminals[~left], 2, seed=0))
    preconds = PreconditionSet([target], [positive], positive, target)
    return {"modes": modes, "preconds": preconds, "terminals": terminals, "thetas": thetas}


def test_batched_reward_matches_per_row_reward(world):
    stack = world["preconds"].reward_stack(0)
    states = world["terminals"]
    batched = recovery_reward(stack, states)
    per_row = np.array([recovery_reward(stack, s) for s in states])
    assert batched.shape == (len(states),)
    # Not ==: the batch goes through one triangular solve with many right-hand
    # sides, which LAPACK rounds differently from the one-column solve of a
    # single row (last-bit differences in the log-density).
    np.testing.assert_allclose(batched, per_row, rtol=1e-12, atol=0.0)


def test_training_rollouts_keep_the_env_draw_order(world, monkeypatch):
    batches, scored = [], []

    def recording_reps(reward_fn, *args, **kwargs):
        def reward_of_batch(thetas):
            batches.append(thetas.copy())
            return reward_fn(thetas)

        return reps_optimize(reward_of_batch, *args, **kwargs)

    def recording_reward(stack, states):
        scored.append(np.array(states))
        return recovery_reward(stack, states)

    monkeypatch.setattr(recovery_skills, "reps_optimize", recording_reps)
    monkeypatch.setattr(recovery_skills, "recovery_reward", recording_reward)
    env = LatchEnv(seed=ENV_SEED)
    library = RecoveryLibrary.empty(1, 2)
    config = RepsConfig(n_updates=3, n_samples_per_update=8)
    train_recovery_datapoint(library, 0, 0, env, world["modes"], world["preconds"], config, 5)

    start = library.skills[0][0].states[0]
    reference = LatchEnv(seed=ENV_SEED)
    expected = [_rollout(reference, start, theta) for theta in np.concatenate(batches)]
    assert len(scored) == config.n_updates  # one scoring call per update
    np.testing.assert_array_equal(np.concatenate(scored), np.array(expected))
    assert env._rng.bit_generator.state == reference._rng.bit_generator.state


def _trained_skill(world) -> ParameterizedSkill:
    """Data whose last waypoint returns to the start pose, so the terminal
    states straddle the target's left/right split."""
    skill = ParameterizedSkill(state_scale=np.asarray(ExperimentConfig.knn_state_scale))
    rng = np.random.default_rng(6)
    start = world["modes"].gmm.components[0].mean
    for theta in world["thetas"][:12]:
        state = start + rng.normal(0.0, 0.02, size=start.size)
        skill.append(state, np.r_[theta[:6], 0.0, 0.0, 0.0])
    return skill


def _accepted_alone(target, state) -> bool:
    """The accept decision of one state scored alone: a one-row posterior
    against 0.5."""
    return bool(stacked_posteriors(target._stacked, state[None])[0, 0] >= 0.5)


def _near_tie(positive: GaussianModel) -> GenerativeClassifier:
    """A classifier whose one negative component sits a few ulps from its
    positive Gaussian. Every log-odds is then of the size of a rounding error,
    so a state scored inside a matrix can be decided differently from the
    same state scored alone."""
    shifted = positive.mean + 4 * np.spacing(positive.mean)
    negative = GmmModel([1.0], [GaussianModel(shifted, positive.covariance)])
    return GenerativeClassifier(positive, negative)


def _assert_success_rate_equals_the_per_row_loop(world, target):
    skill = _trained_skill(world)
    component = world["modes"].gmm.components[0]
    env = LatchEnv(seed=ENV_SEED)
    q = estimate_success_rate(skill, env, component, target, n_eval=60, seed=8)

    reference = LatchEnv(seed=ENV_SEED)
    successes = 0
    for start in gaussian_sample(component, 60, 8):
        state = reference.set_state(start)
        theta = knn_predict(skill, reference.state_vector(state))
        successes += _accepted_alone(target, _rollout(reference, start, theta))
    assert q == successes / 60
    assert 0.0 < q < 1.0  # both outcomes occur, so the comparison has teeth
    assert env._rng.bit_generator.state == reference._rng.bit_generator.state


def test_success_rate_equals_the_per_row_loop(world):
    _assert_success_rate_equals_the_per_row_loop(world, world["preconds"].target_classifier(0))


def test_success_rate_decides_each_rollout_alone_at_a_near_tie(world):
    target = _near_tie(fit_gaussian(world["terminals"]))
    _assert_success_rate_equals_the_per_row_loop(world, target)


def test_self_positive_rate_decides_each_state_alone_at_a_near_tie(world):
    states = world["terminals"]
    target = _near_tie(fit_gaussian(states))
    accepted = [_accepted_alone(target, state) for state in states]
    assert 0 < sum(accepted) < len(states)
    assert self_positive_rate(target, states) == np.mean(accepted)


def test_success_rate_and_self_positive_rate_decide_through_stacked_accepts(world, monkeypatch):
    calls = []

    def spy(stack, pts):
        calls.append(len(pts))
        return stacked_accepts(stack, pts)

    monkeypatch.setattr(recovery_skills, "stacked_accepts", spy)
    monkeypatch.setattr(precondition_chaining, "stacked_accepts", spy)
    target = world["preconds"].target_classifier(0)
    estimate_success_rate(
        _trained_skill(world), LatchEnv(), world["modes"].gmm.components[0], target,
        n_eval=20, seed=0,
    )
    self_positive_rate(target, world["terminals"])
    assert calls == [20, len(world["terminals"])]


def test_untrained_skill_scores_zero(world):
    skill = ParameterizedSkill()
    target = world["preconds"].target_classifier(0)
    component = world["modes"].gmm.components[0]
    q = estimate_success_rate(skill, LatchEnv(), component, target, n_eval=50, seed=0)
    assert q == 0.0


# -- knn_predict ------------------------------------------------------------------


def _line_skill(k):
    skill = ParameterizedSkill(k=k)
    for x, theta in [(1.0, 10.0), (-1.0, 20.0), (3.0, 30.0), (-1.0, 40.0)]:
        skill.append([x, 0.0], [theta])
    return skill


def test_knn_k_above_the_stored_count_averages_everything():
    np.testing.assert_array_equal(knn_predict(_line_skill(k=9), [0.0, 0.0]), [25.0])


def test_knn_ties_keep_the_stored_order():
    # distances from the origin: 1, 1, 3, 1; the stable sort keeps entries 0, 1, 3
    np.testing.assert_array_equal(knn_predict(_line_skill(k=1), [0.0, 0.0]), [10.0])
    np.testing.assert_array_equal(knn_predict(_line_skill(k=2), [0.0, 0.0]), [15.0])
    np.testing.assert_array_equal(knn_predict(_line_skill(k=3), [0.0, 0.0]), [70.0 / 3.0])
    # per row of a matrix query too; from (2, 0) the distances are 1, 3, 1, 3
    batched = knn_predict(_line_skill(k=2), [[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(batched, [[15.0], [20.0], [15.0]])


def _reference_knn(skill, query):
    """The one-row kNN as it was computed before matrix queries."""
    stored, thetas = np.asarray(skill.states), np.asarray(skill.thetas)
    query = np.asarray(query, dtype=float)
    scale = skill.state_scale if skill.state_scale is not None else np.ones_like(query)
    dists = np.linalg.norm((stored - query) / scale, axis=1)
    nearest = np.argsort(dists, kind="stable")[: min(skill.k, len(dists))]
    return np.mean(thetas[nearest], axis=0)


def test_knn_matrix_query_equals_one_row_calls():
    rng = np.random.default_rng(50)
    for trial in range(500):
        d, m = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        skill = ParameterizedSkill(k=int(rng.integers(1, 15)))  # k above m too
        if trial % 2:
            skill.state_scale = rng.uniform(0.01, 2.0, size=d)
        grid = trial % 3 == 0  # integer coordinates: many tied distances
        for _ in range(m):
            state = rng.integers(-2, 3, size=d) if grid else rng.normal(size=d)
            skill.append(state, rng.normal(size=THETA_DIM))
        n = int(rng.integers(1, 20))
        queries = rng.integers(-2, 3, size=(n, d)).astype(float) if grid else rng.normal(size=(n, d))
        batched = knn_predict(skill, queries)
        assert batched.shape == (n, THETA_DIM)
        for row, query in zip(batched, queries):
            assert np.array_equal(row, _reference_knn(skill, query))
            assert np.array_equal(knn_predict(skill, query), row)


def test_knn_scale_weights_each_dimension():
    skill = ParameterizedSkill(k=1, state_scale=np.array([1.0, 0.01]))
    skill.append([0.0, 0.1], [1.0])
    skill.append([0.5, 0.0], [2.0])
    # unscaled the first state is nearer; scaled, its y offset counts 100-fold
    np.testing.assert_array_equal(knn_predict(skill, [0.0, 0.0]), [2.0])


def test_knn_sees_a_pair_appended_after_a_prediction():
    skill = _line_skill(k=1)
    np.testing.assert_array_equal(knn_predict(skill, [0.0, 0.0]), [10.0])
    skill.append([0.1, 0.0], [50.0])
    np.testing.assert_array_equal(knn_predict(skill, [0.0, 0.0]), [50.0])
    skill.k = 5
    np.testing.assert_array_equal(knn_predict(skill, [0.0, 0.0]), [30.0])


def test_knn_on_a_loaded_skill_equals_the_original():
    skill = _line_skill(k=2)
    loaded = from_payload(ParameterizedSkill, to_payload(skill))
    for query in ([0.0, 0.0], [2.5, 0.3], [-4.0, 1.0]):
        np.testing.assert_array_equal(knn_predict(loaded, query), knn_predict(skill, query))


def test_knn_errors():
    with pytest.raises(RecoveryForgeError, match=r"query shape \(3,\) vs stored dim 2"):
        knn_predict(_line_skill(k=1), [0.0, 0.0, 0.0])
    with pytest.raises(RecoveryForgeError, match=r"query shape \(1, 3\) vs stored dim 2"):
        knn_predict(_line_skill(k=1), [[0.0, 0.0, 0.0]])
    with pytest.raises(RecoveryForgeError, match=r"query shape \(1, 1, 2\) vs stored dim 2"):
        knn_predict(_line_skill(k=1), [[[0.0, 0.0]]])
    with pytest.raises(RecoveryForgeError, match=r"query shape \(\) vs stored dim 2"):
        knn_predict(_line_skill(k=1), 0.0)
    with pytest.raises(RecoveryForgeError, match="the recovery skill has no data"):
        knn_predict(ParameterizedSkill(), [0.0, 0.0])
