"""Failure discovery: the failure predicate, both discovery strategies against
the per-step loops they replace, mode clustering, mode lookup and the CSV."""

import csv

import numpy as np
import pytest

from recovery_forge import failure_discovery
from recovery_forge.classifiers import (
    DECISION_THRESHOLD,
    GaussianModel,
    GenerativeClassifier,
    GmmModel,
    classify,
    stack_classifiers,
    stacked_posteriors,
)
from recovery_forge.errors import RecoveryForgeError
from recovery_forge.failure_discovery import (
    EARLY_TERMINATION,
    PESSIMISTIC,
    FailureModeSet,
    FailureRecord,
    classify_failure,
    cluster_failures,
    discover_early_termination,
    discover_pessimistic,
    is_failure_state,
    save_failures_csv,
)
from recovery_forge.harness_cli import ExperimentConfig, stage_seeds
from recovery_forge.latch_env import LatchEnv
from recovery_forge.precondition_chaining import PreconditionSet, state_bounds

from conftest import PIPELINE_SEEDS, learn_preconds, spawned_child


def _unit_classifier(positive_mean: float) -> GenerativeClassifier:
    """1-D precondition: accepts states near ``positive_mean``, rejects states near 6."""
    pos = GaussianModel(np.array([positive_mean]), np.eye(1))
    neg = GmmModel([1.0], [GaussianModel(np.array([6.0]), np.eye(1))])
    return GenerativeClassifier(pos, neg)


def _unit_set(*positive_means) -> PreconditionSet:
    """1-D precondition set of ``_unit_classifier``s; its goal parts are unused here."""
    rhos = [_unit_classifier(m) for m in positive_means]
    return PreconditionSet(rhos, [r.positive for r in rhos], rhos[-1].positive, rhos[-1])


def _records(states) -> list[FailureRecord]:
    return [FailureRecord(np.asarray(s), np.asarray(s) + 0.1, 0, PESSIMISTIC) for s in states]


# -- is_failure_state ---------------------------------------------------------------


def test_failure_needs_every_precondition_to_reject():
    preconds = _unit_set(0.0, 12.0)
    assert not is_failure_state(preconds, np.array([0.0]))  # first accepts
    assert not is_failure_state(preconds, np.array([12.0]))  # second accepts
    assert is_failure_state(preconds, np.array([6.0]))  # both reject


# -- PreconditionSet.accepting --------------------------------------------------------


def _assert_accepting_equals_classify(preconds, states):
    accepted = np.array([preconds.accepting(x) for x in states])
    expected = np.array(
        [[classify(rho, x) >= DECISION_THRESHOLD for rho in preconds.preconditions] for x in states]
    )
    assert accepted.dtype == bool
    assert np.array_equal(accepted, expected)
    return accepted


def test_accepting_equals_classify_on_unit_preconditions():
    preconds = _unit_set(0.0, 12.0, 3.0)
    rng = np.random.default_rng(7)
    states = np.concatenate(
        [rng.uniform(-10.0, 20.0, size=(300, 1))]
        + [rng.normal(m, 1.5, size=(100, 1)) for m in (0.0, 12.0, 3.0, 6.0)]
    )
    accepted = _assert_accepting_equals_classify(preconds, states)
    assert accepted.any() and not accepted.all()
    # Halfway to the negative mean at 6 the posterior is exactly the threshold: accepted.
    assert preconds.accepting(np.array([3.0])).tolist() == [True, False, True]
    assert preconds.accepting(np.array([9.0])).tolist() == [False, True, False]


def test_accepting_equals_classify_on_chained_preconditions(pipeline):
    env, preconds = pipeline
    rng = np.random.default_rng(8)
    lo, hi = state_bounds()
    near = [
        rng.multivariate_normal(g.mean, g.covariance, size=100) for g in preconds.positive_dists
    ]
    states = np.concatenate([rng.uniform(lo, hi, size=(300, lo.size)), *near])
    accepted = _assert_accepting_equals_classify(preconds, states)
    # every precondition both accepts and rejects some of these states
    assert accepted.any(axis=0).all() and not accepted.all(axis=0).any()


def test_accepting_gives_one_row_per_skill_and_one_column_per_state():
    preconds = _unit_set(0.0, 12.0, 3.0)
    states = np.array([[3.0], [9.0], [6.0], [0.0]])
    accepted = preconds.accepting(states)
    assert accepted.shape == (3, 4) and accepted.dtype == bool
    np.testing.assert_array_equal(accepted, np.array([preconds.accepting(x) for x in states]).T)
    assert preconds.accepting(states[0]).shape == (3,)
    for wrong in (np.zeros(2), np.zeros((4, 2)), np.zeros((1, 0))):
        dim = np.atleast_2d(wrong).shape[1]
        with pytest.raises(RecoveryForgeError, match=f"x has dim {dim}, model has 1"):
            preconds.accepting(wrong)


def test_accepting_rejects_preconditions_with_different_negative_counts():
    preconds = _unit_set(0.0, 12.0)
    wide = GmmModel([0.5, 0.5], [GaussianModel(np.array([c]), np.eye(1)) for c in (6.0, -6.0)])
    preconds.preconditions[1] = GenerativeClassifier(preconds.preconditions[1].positive, wide)
    with pytest.raises(RecoveryForgeError, match=r"\[1, 2\] negative components"):
        preconds.accepting(np.array([0.0]))


# -- cluster_failures -----------------------------------------------------------------


def test_cluster_failures_needs_a_record_per_mode():
    records = _records(np.random.default_rng(0).normal(size=(3, 2)))
    with pytest.raises(RecoveryForgeError, match="3 failure states cannot form 4 modes"):
        cluster_failures(records, 4, seed=0)


def test_cluster_sizes_sum_to_the_record_count():
    rng = np.random.default_rng(1)
    states = np.concatenate([rng.normal(c, 0.2, size=(25, 2)) for c in (-3.0, 0.0, 3.0)])
    modes = cluster_failures(_records(states), 3, seed=2)
    assert modes.n_modes == 3
    assert modes.sizes.sum() == pytest.approx(len(states), rel=1e-12)
    np.testing.assert_allclose(np.sort(modes.sizes), [25.0, 25.0, 25.0], atol=1e-6)


# -- classify_failure -----------------------------------------------------------------


def test_classify_failure_picks_the_responsible_mode():
    comps = [GaussianModel(np.array([m, 0.0]), np.eye(2)) for m in (-5.0, 0.0, 5.0)]
    modes = FailureModeSet(GmmModel(np.full(3, 1.0 / 3.0), comps), [1.0, 1.0, 1.0])
    assert classify_failure(modes, [4.0, 0.3]) == 2
    assert classify_failure(modes, [-6.0, 0.0]) == 0


def test_classify_failure_breaks_ties_to_the_lowest_index():
    twin = [GaussianModel(np.array([1.0, 2.0]), np.eye(2)) for _ in range(2)]
    far = GaussianModel(np.array([50.0, 50.0]), np.eye(2))
    modes = FailureModeSet(GmmModel([0.1, 0.45, 0.45], [far, *twin]), [1.0, 4.5, 4.5])
    assert classify_failure(modes, [1.3, 1.9]) == 1


def test_classify_failure_rejects_a_wrong_shape():
    modes = FailureModeSet(GmmModel([1.0], [GaussianModel(np.zeros(2), np.eye(2))]), [1.0])
    with pytest.raises(RecoveryForgeError, match=r"state has shape \(3,\), modes expect \(2,\)"):
        classify_failure(modes, [0.0, 0.0, 0.0])
    with pytest.raises(RecoveryForgeError, match=r"state has shape \(1, 2\), modes expect"):
        classify_failure(modes, [[0.0, 0.0]])


# -- discovery -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(small_chain):
    return LatchEnv(seed=0), small_chain


def _discover(pipeline, seed):
    env, preconds = pipeline
    sigma = ExperimentConfig.sigma_ref * ExperimentConfig.pessimistic_sigma_factor
    return discover_pessimistic(
        env, preconds, n_episodes=100, noise_sigma=sigma, seed=np.random.SeedSequence(seed)
    )


def test_discover_pessimistic_is_deterministic_given_its_seed(pipeline):
    first = _discover(pipeline, 5)
    second = _discover(pipeline, 5)
    assert first, "the check needs at least one failure record"
    assert len(first) == len(second)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.true_state, b.true_state)
        np.testing.assert_array_equal(a.observation_at_failure, b.observation_at_failure)
        assert (a.skill_index, a.strategy) == (b.skill_index, PESSIMISTIC)


def test_discovered_states_fail_every_precondition(pipeline):
    env, preconds = pipeline
    records = _discover(pipeline, 6)
    assert records
    for record in records:
        assert not env.goal_predicate_vector(record.true_state)
        assert is_failure_state(preconds, record.true_state)
        assert 0 <= record.skill_index < len(env.nominal_skills())


def _oracle_mls(state, obs):
    ex, ey = state.ee_pos
    holding = 1.0 if state.grasp_offset is not None else 0.0
    return np.array(
        [ex, ey, holding, ex - float(obs[0]), ey - float(obs[1]), state.handle_angle,
         state.door_open]
    )


def _one_state_accepts(stack, vec):
    """Each stacked precondition's decision on one state, by one-row posteriors."""
    return stacked_posteriors(stack, np.asarray(vec)[None])[:, 0] >= DECISION_THRESHOLD


def _oracle_failure(env, stack, vec):
    return not env.goal_predicate_vector(vec) and not _one_state_accepts(stack, vec).any()


def _oracle_pessimistic(env, preconds, n_episodes, noise_sigma, seed):
    """Pessimistic discovery as its own per-step loop: episode e resets from
    child e of ``seed``, runs every nominal skill on the reset's frozen
    estimate, the goal never ending it, and decides one state at a time. Also
    returns the number of non-goal states decided."""
    stack = stack_classifiers(preconds.preconditions)
    records, decided = [], 0
    for e in range(n_episodes):
        state, obs = env.reset(seed=spawned_child(seed, e), sigma=noise_sigma)
        for skill_index, skill in enumerate(env.nominal_skills()):
            state, _ = env.execute_skill(state, skill, obs)
            true_vec = env.state_vector(state)
            decided += not env.goal_predicate_vector(true_vec)
            if _oracle_failure(env, stack, true_vec):
                records.append(
                    FailureRecord(true_vec, _oracle_mls(state, obs), skill_index, PESSIMISTIC)
                )
    return records, decided


def _oracle_early_termination(env, preconds, n_episodes, noise_sigma, seed):
    """Early-termination discovery with the halving estimator written out,
    episode e reset from child e of ``seed``."""
    stack = stack_classifiers(preconds.preconditions)
    records = []
    for e in range(n_episodes):
        state, obs = env.reset(seed=spawned_child(seed, e), sigma=noise_sigma)
        sigma = noise_sigma
        for skill_index, skill in enumerate(env.nominal_skills()):
            state, _ = env.execute_skill(state, skill, obs)
            sigma = sigma / 2.0
            obs = env.observe(state, sigma)
            true_vec = env.state_vector(state)
            if env.goal_predicate_vector(true_vec):
                break
            if _oracle_failure(env, stack, true_vec):
                records.append(
                    FailureRecord(
                        true_vec, _oracle_mls(state, obs), skill_index, EARLY_TERMINATION
                    )
                )
                break
    return records


def _rows(records):
    return [
        (r.true_state.tolist(), r.observation_at_failure.tolist(), r.skill_index, r.strategy)
        for r in records
    ]


@pytest.fixture(scope="module")
def stage_preconds():
    """The preconditions the chain-preconds stage learns, at its default
    config, for each of ``PIPELINE_SEEDS``."""
    return {p: learn_preconds(p, 60, 250)[2] for p in PIPELINE_SEEDS}


@pytest.mark.parametrize("pipeline_seed", PIPELINE_SEEDS)
def test_pessimistic_discovery_equals_the_per_step_loop(stage_preconds, pipeline_seed):
    preconds = stage_preconds[pipeline_seed]
    block = failure_discovery.DISCOVERY_BLOCK_EPISODES
    # The stage's count, then counts around one decision block.
    for n_episodes in (500, 1, block - 1, block, block + 1, 0):
        seeds = stage_seeds("discover", pipeline_seed)
        env, oracle_env = LatchEnv(seed=seeds["env"]), LatchEnv(seed=seeds["env"])
        sigma = ExperimentConfig.sigma_ref * ExperimentConfig.pessimistic_sigma_factor
        counts = {}
        records = discover_pessimistic(
            env, preconds, n_episodes=n_episodes, noise_sigma=sigma, seed=seeds["episodes"],
            counts=counts,
        )
        expected, decided = _oracle_pessimistic(
            oracle_env, preconds, n_episodes, sigma, seeds["episodes"]
        )
        assert _rows(records) == _rows(expected), n_episodes
        assert counts == {"states_decided": decided}
        assert env.rng_state() == oracle_env.rng_state()
        if n_episodes == 500:
            assert len({r.skill_index for r in records}) > 1


def test_stacked_decisions_equal_one_state_decisions(stage_preconds):
    # 3000 uniform states plus 1000 near each positive mean, per pipeline seed.
    n_states = 0
    for pipeline_seed, preconds in stage_preconds.items():
        rng = np.random.default_rng(20 + pipeline_seed)
        lo, hi = state_bounds()
        near = [
            rng.multivariate_normal(g.mean, g.covariance, size=1000)
            for g in preconds.positive_dists
        ]
        states = np.concatenate([rng.uniform(lo, hi, size=(3000, lo.size)), *near])
        accepted = preconds.accepting(states)
        one_state = np.array([preconds.accepting(x) for x in states]).T
        np.testing.assert_array_equal(accepted, one_state)
        stack = stack_classifiers(preconds.preconditions)
        posteriors = np.array([_one_state_accepts(stack, x) for x in states]).T
        np.testing.assert_array_equal(accepted, posteriors)
        assert accepted.any(axis=1).all() and not accepted.all(axis=1).any()
        n_states += len(states)
    assert n_states >= 18000


@pytest.mark.parametrize("pipeline_seed", PIPELINE_SEEDS)
def test_early_termination_discovery_equals_the_per_step_loop(stage_preconds, pipeline_seed):
    preconds = stage_preconds[pipeline_seed]
    seeds = stage_seeds("discover", pipeline_seed)
    env, oracle_env = LatchEnv(seed=seeds["env"]), LatchEnv(seed=seeds["env"])
    sigma = ExperimentConfig.sigma_ref
    records = discover_early_termination(
        env, preconds, n_episodes=300, noise_sigma=sigma, seed=seeds["episodes"]
    )
    expected = _oracle_early_termination(oracle_env, preconds, 300, sigma, seeds["episodes"])
    assert records
    assert _rows(records) == _rows(expected)
    assert env.rng_state() == oracle_env.rng_state()


def test_early_termination_is_deterministic_given_its_seed(pipeline):
    env, preconds = pipeline
    runs = [
        discover_early_termination(
            env, preconds, n_episodes=200, noise_sigma=0.02, seed=np.random.SeedSequence(seed)
        )
        for seed in (4, 4, 5)
    ]
    assert runs[0], "the check needs at least one failure record"
    assert _rows(runs[0]) == _rows(runs[1])
    assert _rows(runs[0]) != _rows(runs[2])


def test_early_termination_records_at_most_one_failure_per_episode(pipeline, monkeypatch):
    env, preconds = pipeline
    # One list entry per episode: the failure checks it made, in order.
    episodes = []
    reset, check = env.reset, failure_discovery.is_failure_state

    def spied_reset(*args, **kwargs):
        episodes.append([])
        return reset(*args, **kwargs)

    def spied_check(preconds, state_vector):
        # the episode stops at the goal, so no goal state is ever decided
        assert not env.goal_predicate_vector(state_vector)
        failed = check(preconds, state_vector)
        episodes[-1].append(failed)
        return failed

    monkeypatch.setattr(env, "reset", spied_reset)
    monkeypatch.setattr(failure_discovery, "is_failure_state", spied_check)
    records = discover_early_termination(
        env, preconds, n_episodes=200, noise_sigma=ExperimentConfig.sigma_ref,
        seed=np.random.SeedSequence(7),
    )
    assert len(episodes) == 200
    assert sum(map(sum, episodes)) == len(records) > 0
    for checks in episodes:
        assert sum(checks) <= 1
        assert True not in checks[:-1]  # the episode ended at its failure
    for record in records:
        assert record.strategy == EARLY_TERMINATION
        assert is_failure_state(preconds, record.true_state)
        assert 0 <= record.skill_index < len(env.nominal_skills())


# -- save_failures_csv ----------------------------------------------------------------


def test_failures_csv_reads_back_the_same_floats(tmp_path):
    rng = np.random.default_rng(3)
    scales = 10.0 ** rng.integers(-12, 12, size=(5, 7))
    records = [
        FailureRecord(rng.normal(size=7) * scales[k], rng.normal(size=7), k, PESSIMISTIC)
        for k in range(5)
    ]
    records[0].true_state[0] = 0.1 + 0.2  # a float whose short repr needs 17 digits
    path = tmp_path / "failures.csv"
    save_failures_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        np.testing.assert_array_equal([float(row[f"s{i}"]) for i in range(7)], record.true_state)
        np.testing.assert_array_equal(
            [float(row[f"o{i}"]) for i in range(7)], record.observation_at_failure
        )
        assert int(row["skill_index"]) == record.skill_index
        assert row["strategy"] == record.strategy
