"""Failure discovery: the failure predicate, mode clustering, mode lookup and the CSV."""

import csv

import numpy as np
import pytest

from recovery_forge.classifiers import (
    DECISION_THRESHOLD,
    GaussianModel,
    GenerativeClassifier,
    GmmModel,
    classify,
)
from recovery_forge.errors import DimensionMismatchError, TooFewSamplesError
from recovery_forge.failure_discovery import (
    PESSIMISTIC,
    FailureModeSet,
    FailureRecord,
    classify_failure,
    cluster_failures,
    discover_pessimistic,
    is_failure_state,
    save_failures_csv,
)
from recovery_forge.latch_env import LatchEnv
from recovery_forge.precondition_chaining import (
    NominalChain,
    PreconditionSet,
    chain_preconditions,
    collect_success_trajectories,
    state_bounds,
)


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
    never_goal = lambda v: False  # noqa: E731
    assert not is_failure_state(preconds, np.array([0.0]), never_goal)  # first accepts
    assert not is_failure_state(preconds, np.array([12.0]), never_goal)  # second accepts
    assert is_failure_state(preconds, np.array([6.0]), never_goal)  # both reject


def test_goal_states_are_never_failures():
    preconds = _unit_set(0.0, 12.0)
    assert not is_failure_state(preconds, np.array([6.0]), lambda v: True)


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
    env, _, preconds = pipeline
    rng = np.random.default_rng(8)
    lo, hi = state_bounds(env)
    near = [
        rng.multivariate_normal(g.mean, g.covariance, size=100) for g in preconds.positive_dists
    ]
    states = np.concatenate([rng.uniform(lo, hi, size=(300, lo.size)), *near])
    accepted = _assert_accepting_equals_classify(preconds, states)
    # every precondition both accepts and rejects some of these states
    assert accepted.any(axis=0).all() and not accepted.all(axis=0).any()


def test_accepting_rejects_preconditions_with_different_negative_counts():
    preconds = _unit_set(0.0, 12.0)
    wide = GmmModel([0.5, 0.5], [GaussianModel(np.array([c]), np.eye(1)) for c in (6.0, -6.0)])
    preconds.preconditions[1] = GenerativeClassifier(preconds.preconditions[1].positive, wide)
    with pytest.raises(DimensionMismatchError, match=r"\[1, 2\] negative components"):
        preconds.accepting(np.array([0.0]))


# -- cluster_failures -----------------------------------------------------------------


def test_cluster_failures_needs_a_record_per_mode():
    records = _records(np.random.default_rng(0).normal(size=(3, 2)))
    with pytest.raises(TooFewSamplesError):
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
    with pytest.raises(DimensionMismatchError):
        classify_failure(modes, [0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        classify_failure(modes, [[0.0, 0.0]])


# -- discover_pessimistic ---------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline():
    env = LatchEnv(seed=0)
    chain = NominalChain(env.nominal_skills(), env.goal_predicate_vector)
    trajectories = collect_success_trajectories(chain, env, 20, seed=0)
    preconds = chain_preconditions(chain, env, trajectories, m=150, seed=0)
    return env, chain, preconds


def _discover(pipeline, seed):
    env, chain, preconds = pipeline
    sigma = env.config.sigma_ref * env.config.pessimistic_sigma_factor
    return discover_pessimistic(chain, env, preconds, 100, sigma, seed)


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
    env, chain, preconds = pipeline
    records = _discover(pipeline, 6)
    assert records
    for record in records:
        assert is_failure_state(preconds, record.true_state, chain.goal_predicate)
        assert 0 <= record.skill_index < len(chain)


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
