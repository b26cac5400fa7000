"""Precondition chaining: success trajectories, the backwards labelling pass,
the variance floor, and the self-positive rate."""

import numpy as np
import pytest

from recovery_forge import precondition_chaining
from recovery_forge.classifiers import (
    DECISION_THRESHOLD,
    GaussianModel,
    classify,
    gaussian_logpdf,
    stacked_posteriors,
)
from recovery_forge.errors import RecoveryForgeError
from recovery_forge.harness_cli import (
    NEIGHBORHOOD_SCALE,
    ExperimentConfig,
    chain_stage,
    stage_seeds,
)
from recovery_forge.latch_env import STATE_DIM, LatchEnv
from recovery_forge.persistence_io import to_payload
from recovery_forge.precondition_chaining import (
    MIN_LABELS_PER_CLASS,
    _floor_model,
    chain_preconditions,
    collect_success_trajectories,
    random_world_states,
    self_positive_rate,
)
from recovery_forge.recovery_skills import recovery_reward

N_TRAJECTORIES = 10
SAMPLES_PER_SKILL = 100
CHAINING = {"m": SAMPLES_PER_SKILL, "scale": 4.0}  # the stage's neighbourhood scale


def _chaining_seed(seed):
    """The stream the chain-preconds stage chains from at pipeline seed ``seed``."""
    return stage_seeds("chain-preconds", seed)["chaining"]


def learn_preconds(pipeline_seed: int, n_trajectories: int, samples_per_skill: int):
    """The chain-preconds stage's calls at ``pipeline_seed``: its env, its
    trajectories and the preconditions it learns, which the tests below
    chain again."""
    seeds = stage_seeds("chain-preconds", pipeline_seed)
    env = LatchEnv(seed=seeds["env"])
    trajectories = collect_success_trajectories(env, n_trajectories, seeds["trajectories"])
    preconds = chain_preconditions(
        env, trajectories, m=samples_per_skill, scale=NEIGHBORHOOD_SCALE, seed=seeds["chaining"]
    )
    return env, trajectories, preconds


@pytest.fixture(scope="module")
def chained():
    return learn_preconds(0, N_TRAJECTORIES, SAMPLES_PER_SKILL)


def test_the_helper_chains_as_the_stage_does(chained):
    config = ExperimentConfig(n_trajectories=N_TRAJECTORIES, samples_per_skill=SAMPLES_PER_SKILL)
    assert to_payload(chain_stage(config, 0)[0]) == to_payload(chained[2])


def test_trajectories_hold_one_state_per_skill_start_plus_the_goal(chained):
    env, trajectories, _ = chained
    assert len(trajectories) == N_TRAJECTORIES
    for trajectory in trajectories:
        assert trajectory.shape == (len(env.nominal_skills()) + 1, STATE_DIM)
        assert env.goal_predicate_vector(trajectory[-1])
        assert not any(env.goal_predicate_vector(state) for state in trajectory[:-1])


def test_chain_preconditions_is_deterministic_given_its_seed(chained):
    env, trajectories, preconds = chained
    _, _, again = learn_preconds(0, N_TRAJECTORIES, SAMPLES_PER_SKILL)
    assert to_payload(again) == to_payload(preconds)
    assert len(again.records) == len(preconds.records) == len(env.nominal_skills()) * SAMPLES_PER_SKILL
    for a, b in zip(again.records, preconds.records):
        assert (a.skill_index, a.label) == (b.skill_index, b.label)
        assert np.array_equal(a.start_state, b.start_state)
        assert np.array_equal(a.end_state, b.end_state)
    # The same env and trajectories, chained from another stream.
    other = chain_preconditions(env, trajectories, **CHAINING, seed=_chaining_seed(1))
    assert to_payload(other) != to_payload(preconds)


def test_batched_labels_equal_per_sample_labelling(chained, monkeypatch):
    env, _, preconds = chained
    k = len(env.nominal_skills())
    for r in preconds.records:
        if r.skill_index < k - 1:  # labelled by the next skill's precondition, one state at a time
            rho = preconds.preconditions[r.skill_index + 1]
            assert r.label == int(classify(rho, r.end_state) >= DECISION_THRESHOLD)
        else:
            assert r.label == env.goal_predicate_vector(r.end_state)
    labels = {(r.skill_index, r.label) for r in preconds.records}
    assert labels == {(i, y) for i in range(k) for y in (0, 1)}

    # The whole chaining with a one-row posterior per sample gives the same result.
    monkeypatch.setattr(
        precondition_chaining,
        "stacked_accepts",
        lambda stack, ends: np.array(
            [stacked_posteriors(stack, vec[None])[:, 0] >= DECISION_THRESHOLD for vec in ends]
        ).T,
    )
    _, _, per_sample = learn_preconds(0, N_TRAJECTORIES, SAMPLES_PER_SKILL)
    assert to_payload(per_sample) == to_payload(preconds)
    for a, b in zip(per_sample.records, preconds.records, strict=True):
        assert (a.skill_index, a.label) == (b.skill_index, b.label)
        assert np.array_equal(a.start_state, b.start_state)
        assert np.array_equal(a.end_state, b.end_state)


def test_chain_preconditions_repeats_on_one_env_given_its_seed(chained):
    # The labelling rollouts draw from a child of the seed, not from the env's
    # generator, which has moved since the fixture's call.
    env, trajectories, preconds = chained
    first = chain_preconditions(env, trajectories, **CHAINING, seed=_chaining_seed(0))
    second = chain_preconditions(env, trajectories, **CHAINING, seed=_chaining_seed(0))
    assert to_payload(first) == to_payload(preconds)
    assert to_payload(second) == to_payload(first)


@pytest.mark.parametrize("n_positive", [0, MIN_LABELS_PER_CLASS - 1])
def test_too_few_labels_of_one_class_raise(chained, monkeypatch, n_positive):
    env, trajectories, _ = chained
    # The goal predicate labels the last skill's samples: n_positive, then negatives.
    labels = iter([1] * n_positive + [0] * SAMPLES_PER_SKILL)
    monkeypatch.setattr(env, "goal_predicate_vector", lambda vec: next(labels))
    message = (
        f"skill 2: {n_positive} positive / {SAMPLES_PER_SKILL - n_positive} negative labels "
        rf"from {SAMPLES_PER_SKILL} samples; raise the sample count \(samples_per_skill\)$"
    )
    with pytest.raises(RecoveryForgeError, match=message):
        chain_preconditions(env, trajectories, **CHAINING, seed=_chaining_seed(0))


def test_floor_model_lifts_only_the_diagonal_entries_below_the_floor():
    cov = np.array([[1e-8, 2e-9, 0.0], [2e-9, 0.5, 0.1], [0.0, 0.1, 1e-3]])
    model = GaussianModel(np.array([1.0, -2.0, 3.0]), cov)
    floor = np.array([1e-4, 1e-4, 1e-3])
    floored = _floor_model(model, floor)
    expected = cov.copy()
    expected[0, 0] = 1e-8 + (1e-4 - 1e-8)  # the only entry below its floor
    assert np.array_equal(floored.covariance, expected)
    assert np.array_equal(floored.mean, model.mean)
    assert np.array_equal(model.covariance, cov)  # the input is left alone


def test_self_positive_rate_is_the_thresholded_mean_of_classify(chained):
    _, _, preconds = chained
    for i, rho in enumerate(preconds.preconditions):
        positives = [r.start_state for r in preconds.records if r.skill_index == i and r.label]
        accepted = [classify(rho, state) >= DECISION_THRESHOLD for state in positives]
        assert self_positive_rate(rho, positives) == np.mean(accepted)
        assert 0.0 < np.mean(accepted) <= 1.0


def test_recovery_reward_of_each_target_is_its_logpdf_plus_classify_exactly(chained):
    # Labelled end states (accepted and rejected) and random world states, so
    # the posterior takes values at both ends and in between.
    _, _, preconds = chained
    ends = np.array([r.end_state for r in preconds.records])
    pool = np.concatenate([ends, random_world_states(len(ends), np.random.default_rng(7))])
    pool = pool[np.random.default_rng(8).permutation(len(pool))]
    for j in range(preconds.n_skills + 1):  # every precondition, then the goal
        positive, target = preconds.target_positive(j), preconds.target_classifier(j)
        assert preconds.reward_stack(j) is preconds.reward_stack(j)  # built once
        for n in (1, 10, 30):
            states = pool[j * 30 : j * 30 + n]
            expected = 0.1 * gaussian_logpdf(positive, states) + 10.0 * classify(target, states)
            got = recovery_reward(preconds.reward_stack(j), states)
            assert got.shape == (n,) and got.tobytes() == expected.tobytes()
        for state in pool[:10]:
            expected = 0.1 * gaussian_logpdf(positive, state) + 10.0 * classify(target, state)
            got = recovery_reward(preconds.reward_stack(j), state)
            assert type(got) is float and got == expected
        scores = classify(target, pool)
        assert scores.min() < 0.01 and scores.max() > 0.99
