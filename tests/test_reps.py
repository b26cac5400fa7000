"""REPS dual, weighted refit, and end-to-end optimizer tests."""

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from recovery_forge.classifiers import logsumexp
from recovery_forge import reps
from recovery_forge.errors import OracleFailureError, RecoveryForgeError
from recovery_forge.reps import (
    COV_FLOOR,
    ETA_MAX,
    ETA_MIN,
    MAX_REJECTIONS,
    RepsConfig,
    SearchPolicy,
    _sample_box,
    kl_to_uniform,
    reps_optimize,
    solve_dual,
    update_policy,
)


# -- logsumexp ------------------------------------------------------------------


def _logsumexp_cases(rng):
    """1-D inputs, then N x K matrices for axis=1: random, with tied maxima,
    single elements, and -inf entries (a zero-weight GMM component) beside a
    finite max."""
    for _ in range(300):
        n = int(rng.integers(1, 50))
        a = rng.normal(0.0, rng.uniform(0.01, 100.0), size=n)
        yield a, None
        ties = a.copy()
        ties[rng.integers(n, size=int(rng.integers(1, n + 1)))] = ties.max()
        yield ties, None
        with_inf = a.copy()
        with_inf[rng.integers(n, size=int(rng.integers(0, n)))] = -np.inf
        with_inf[0] = 0.5
        yield with_inf, None
        shape = (int(rng.integers(1, 20)), int(rng.integers(1, 7)))
        m = rng.normal(0.0, rng.uniform(0.01, 100.0), size=shape)
        yield m, 1
        tied_rows = m.copy()
        tied_rows[:, -1] = tied_rows.max(axis=1)
        yield tied_rows, 1
        inf_column = m.copy()
        inf_column[:, 0] = -np.inf
        inf_column[:, -1] = 1.0
        yield inf_column, 1
    yield np.array([2.5]), None
    yield np.array([[2.5]]), 1
    yield np.full(7, -3.0), None


def test_logsumexp_equals_scipy_exactly():
    for a, axis in _logsumexp_cases(np.random.default_rng(20)):
        expected = scipy_logsumexp(a, axis=axis)
        got = logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected), (a, axis)


def test_logsumexp_nonfinite_max_follows_scipy():
    a = np.array([[-np.inf, -np.inf], [0.0, 1.0], [np.inf, 2.0], [np.nan, 0.0]])
    np.testing.assert_array_equal(logsumexp(a, axis=1), scipy_logsumexp(a, axis=1))


# -- solve_dual ------------------------------------------------------------------


_GOLDEN = float((np.sqrt(5.0) - 1.0) / 2.0)


def _dual(eta, shifted, epsilon):
    """The episodic dual g(eta) on scipy's logsumexp: the reference the
    precomputed form in solve_dual must reproduce bit for bit."""
    return eta * epsilon + eta * (scipy_logsumexp(shifted / eta) - np.log(shifted.size))


def _reference_solve_dual(rewards, epsilon):
    """Golden-section search over _dual, as solve_dual does it."""
    shifted = rewards - rewards.max()
    lo, hi = np.log(ETA_MIN), np.log(ETA_MAX)
    a, b = lo + (1 - _GOLDEN) * (hi - lo), lo + _GOLDEN * (hi - lo)
    ga, gb = _dual(np.exp(a), shifted, epsilon), _dual(np.exp(b), shifted, epsilon)
    while (hi - lo) > 1e-10:
        if ga <= gb:
            hi, b, gb = b, a, ga
            a = lo + (1 - _GOLDEN) * (hi - lo)
            ga = _dual(np.exp(a), shifted, epsilon)
        else:
            lo, a, ga = a, b, gb
            b = lo + _GOLDEN * (hi - lo)
            gb = _dual(np.exp(b), shifted, epsilon)
    eta = float(np.exp(0.5 * (lo + hi)))
    logw = shifted / eta
    return eta, np.exp(logw - scipy_logsumexp(logw))


def _reference_solve_duals(rewards, epsilons):
    """``_reference_solve_dual`` of each row of an (m, n) reward matrix with
    its epsilon, the m searches run in lockstep: one scipy call per step scores
    every row (each row summed as a vector alone), and each row takes its own
    golden-section step in elementwise float64 operations, until its bracket
    closes."""
    shifted = rewards - rewards.max(axis=1, keepdims=True)
    log_n = np.log(shifted.shape[1])

    def dual(eta):
        return eta * epsilons + eta * (scipy_logsumexp(shifted / eta[:, None], axis=1) - log_n)

    lo, hi = np.full(len(rewards), np.log(ETA_MIN)), np.full(len(rewards), np.log(ETA_MAX))
    a, b = lo + (1 - _GOLDEN) * (hi - lo), lo + _GOLDEN * (hi - lo)
    ga, gb = dual(np.exp(a)), dual(np.exp(b))
    while ((hi - lo) > 1e-10).any():
        active = (hi - lo) > 1e-10
        left, right = active & (ga <= gb), active & ~(ga <= gb)
        hi, lo = np.where(left, b, hi), np.where(right, a, lo)
        b, gb = np.where(left, a, b), np.where(left, ga, gb)
        a, ga = np.where(right, b, a), np.where(right, gb, ga)
        a = np.where(left, lo + (1 - _GOLDEN) * (hi - lo), a)
        b = np.where(right, lo + _GOLDEN * (hi - lo), b)
        g = dual(np.exp(np.where(left, a, b)))
        ga, gb = np.where(left, g, ga), np.where(right, g, gb)
    eta = np.exp(0.5 * (lo + hi))
    logw = shifted / eta[:, None]
    return eta, np.exp(logw - scipy_logsumexp(logw, axis=1, keepdims=True))


def _dual_cases():
    """2100 (rewards, epsilon) cases: n from 2 to 100, reward spreads
    log-uniform from 1e-6 to 1e6 (both ends included) about a random offset,
    a third of them with tied maxima and a third all equal, each at epsilon
    0.05, 0.5 and 5."""
    rng = np.random.default_rng(21)
    for trial in range(700):
        n = (2, 100)[trial] if trial < 2 else int(rng.integers(2, 101))
        spread = (1e-6, 1e6)[trial % 2] if trial < 4 else 10.0 ** rng.uniform(-6.0, 6.0)
        rewards = rng.normal(0.0, 10.0) + spread * rng.normal(size=n)
        if trial % 3 == 1:  # tied maxima
            rewards[rng.integers(n, size=int(rng.integers(1, n + 1)))] = rewards.max()
        elif trial % 3 == 2:  # all equal
            rewards[:] = rewards[0]
        for epsilon in (0.05, 0.5, 5.0):
            yield rewards, epsilon


def test_lockstep_reference_equals_the_one_search_reference():
    cases = list(_dual_cases())[:12]  # n 2 and 100, spreads 1e-6 and 1e6, ties, all equal
    for n in {len(rewards) for rewards, _ in cases}:
        group = [(rewards, eps) for rewards, eps in cases if len(rewards) == n]
        etas, weights = _reference_solve_duals(
            np.array([rewards for rewards, _ in group]), np.array([eps for _, eps in group])
        )
        for (rewards, eps), eta, w in zip(group, etas, weights):
            ref_eta, ref_w = _reference_solve_dual(rewards, eps)
            assert eta == ref_eta and w.tobytes() == ref_w.tobytes()


def _cannot_bind(rewards, epsilon):
    """The KL budget is at least log(n / #ties at max R), the KL of the
    weights as eta -> 0, so no eta makes it bind."""
    return epsilon >= np.log(rewards.size / np.count_nonzero(rewards == rewards.max()))


def test_solve_dual_meets_the_kl_budget_with_the_weights_formula():
    interior = 0
    for rewards, epsilon in _dual_cases():
        eta, weights = solve_dual(rewards, epsilon)
        assert type(eta) is float and ETA_MIN <= eta <= ETA_MAX
        logw = (rewards - rewards.max()) / eta
        assert weights.tobytes() == np.exp(logw - scipy_logsumexp(logw)).tobytes()
        if ETA_MIN < eta < ETA_MAX:
            interior += 1
            assert abs(kl_to_uniform(weights) - epsilon) <= 1e-12 * epsilon, (rewards, epsilon)
    assert interior > 800


def test_solve_dual_is_no_worse_than_the_golden_section_oracle():
    by_n: dict[int, list] = {}
    for rewards, epsilon in _dual_cases():
        by_n.setdefault(len(rewards), []).append((rewards, epsilon))
    assert min(by_n) == 2 and max(by_n) == 100 and sum(map(len, by_n.values())) == 2100
    for group in by_n.values():
        ref_etas, _ = _reference_solve_duals(
            np.array([rewards for rewards, _ in group]), np.array([eps for _, eps in group])
        )
        for (rewards, epsilon), ref_eta in zip(group, ref_etas):
            eta, _ = solve_dual(rewards, epsilon)
            shifted = rewards - rewards.max()
            g = _dual(eta, shifted, epsilon)
            assert g <= _dual(ref_eta, shifted, epsilon) + 1e-12 * max(1.0, abs(g)), (rewards, epsilon)


def test_eta_is_eta_min_exactly_when_the_budget_cannot_bind():
    kinds = set()
    for rewards, epsilon in _dual_cases():
        eta, _ = solve_dual(rewards, epsilon)
        assert (eta == ETA_MIN) == _cannot_bind(rewards, epsilon), (rewards, epsilon)
        kinds.add((_cannot_bind(rewards, epsilon), bool(np.all(rewards == rewards[0]))))
    assert kinds == {(True, True), (True, False), (False, False)}  # all-equal rewards included


def test_a_root_beyond_eta_max_returns_eta_max():
    # At eta = ETA_MAX the lower reward still weighs exp(-1e4) ~ 0: KL log 2 > eps.
    rewards = np.array([0.0, 1e12])
    eta, weights = solve_dual(rewards, 0.5)
    assert eta == ETA_MAX
    assert kl_to_uniform(weights) == pytest.approx(np.log(2.0)) and not _cannot_bind(rewards, 0.5)


def test_solve_dual_makes_at_most_12_kl_evaluations(monkeypatch):
    calls = []
    kl_and_spread = reps._kl_and_spread

    def counted(*args):
        calls.append(args)
        return kl_and_spread(*args)

    monkeypatch.setattr(reps, "_kl_and_spread", counted)
    most = 0
    for rewards, epsilon in _dual_cases():
        calls.clear()
        solve_dual(rewards, epsilon)
        assert (len(calls) == 0) == _cannot_bind(rewards, epsilon), (rewards, epsilon)
        most = max(most, len(calls))
    assert most <= 12


def test_equal_rewards_give_uniform_weights():
    _, weights = solve_dual(np.full(8, 3.25), epsilon=0.5)
    np.testing.assert_allclose(weights, np.full(8, 1 / 8), atol=1e-12)
    assert kl_to_uniform(weights) == pytest.approx(0.0, abs=1e-12)


def test_kl_constraint_is_active_for_spread_rewards():
    _, weights = solve_dual(np.array([0.0, 100.0]), epsilon=0.5)
    assert kl_to_uniform(weights) == pytest.approx(0.5, abs=1e-4)


def test_huge_epsilon_concentrates_on_argmax():
    rewards = np.array([1.0, 5.0, 2.0, 4.9])
    _, weights = solve_dual(rewards, epsilon=1e6)
    assert weights[1] > 0.99


def test_weights_are_a_simplex_within_kl_budget():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rewards = rng.normal(0, rng.uniform(0.1, 50), size=rng.integers(2, 60))
        eps = float(rng.uniform(0.05, 2.0))
        _, w = solve_dual(rewards, eps)
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert kl_to_uniform(w) <= eps + 1e-6


def test_dual_minimum_beats_random_probes():
    rng = np.random.default_rng(1)
    rewards = rng.normal(0, 5, size=30)
    eps = 0.5
    eta, _ = solve_dual(rewards, eps)
    shifted = rewards - rewards.max()
    g_star = _dual(eta, shifted, eps)
    for _ in range(100):
        probe = float(10 ** rng.uniform(-8, 8))
        assert g_star <= _dual(probe, shifted, eps) + 1e-7 * max(1.0, abs(g_star))


def test_solve_dual_input_validation():
    with pytest.raises(RecoveryForgeError, match="need at least 2 rewards, got 1"):
        solve_dual([1.0], 0.5)
    with pytest.raises(RecoveryForgeError, match="rewards contain non-finite values"):
        solve_dual([1.0, np.nan], 0.5)
    # A range that overflows R - max R, or (R - max R) / ETA_MIN, where the KL
    # would read 0 * -inf.
    for rewards in ([1e308, -1e308], [1e301, -1e301, 0.0]):
        with np.errstate(over="ignore"), pytest.raises(RecoveryForgeError, match="range beyond float64"):
            solve_dual(rewards, 0.5)
    for epsilon in (0.0, -0.5, np.nan):
        with pytest.raises(RecoveryForgeError, match="KL budget must be > 0"):
            solve_dual([1.0, 2.0], epsilon)


# -- update_policy ------------------------------------------------------------------


def test_uniform_weights_reduce_to_ml_fit():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 3))
    policy = update_policy(SearchPolicy(np.zeros(3), np.eye(3)), x, np.full(40, 1 / 40))
    np.testing.assert_allclose(policy.mean, x.mean(axis=0), atol=1e-12)
    expected = np.cov(x, rowvar=False, bias=True) + COV_FLOOR * np.eye(3)
    np.testing.assert_allclose(policy.covariance, expected, atol=1e-10)


def test_single_weight_collapses_to_that_sample():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    w = np.array([0.0, 1.0, 0.0])
    policy = update_policy(SearchPolicy(np.zeros(2), np.eye(2)), x, w)
    np.testing.assert_allclose(policy.mean, [3.0, 4.0])
    np.testing.assert_allclose(policy.covariance, COV_FLOOR * np.eye(2), atol=1e-15)


def test_weighted_refit_matches_direct_moments():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, d = int(rng.integers(5, 30)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        w = rng.uniform(size=n)
        w /= w.sum()
        policy = update_policy(SearchPolicy(np.zeros(d), np.eye(d)), x, w)
        mean = sum(w[i] * x[i] for i in range(n))
        cov = sum(w[i] * np.outer(x[i] - mean, x[i] - mean) for i in range(n))
        np.testing.assert_allclose(policy.mean, mean, atol=1e-10)
        np.testing.assert_allclose(policy.covariance, cov + COV_FLOOR * np.eye(d), atol=1e-10)


# -- _sample_box --------------------------------------------------------------------


def _reference_sample_box(policy, n, rng, bounds):
    """The in-order block rule, one attempt at a time: each pass draws a block
    of ``standard_normal(d)`` rows, one per sample still needed, and takes its
    attempts ``mean + chol @ z`` in order. One inside the box is the next
    sample; after MAX_REJECTIONS rejections in a row the next is clipped.
    A block never holds more attempts than samples still needed, so every
    attempt drawn is taken. Returns the samples and the number of attempts."""
    chol = np.linalg.cholesky(policy.covariance)
    lo, hi = bounds[:, 0], bounds[:, 1]
    out, rejected, taken = [], 0, 0
    while len(out) < n:
        for z in rng.standard_normal((n - len(out), policy.mean.size)):
            taken += 1
            theta = policy.mean + chol @ z
            if np.all(theta >= lo) and np.all(theta <= hi):
                out.append(theta)
                rejected = 0
            elif rejected == MAX_REJECTIONS:
                out.append(np.clip(theta, lo, hi))
                rejected = 0
            else:
                rejected += 1
    return np.array(out).reshape(n, policy.mean.size), taken


def _assert_sampler_keeps_the_stream(policy, n, bounds, seed, calls=3):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(calls):
        got = _sample_box(policy, n, rng, bounds)
        expected, _ = _reference_sample_box(policy, n, ref_rng, bounds)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


_BOX = np.array([[-0.3, 0.3], [-0.3, 0.3], [0.0, 1.0]] * 3)


def _unbounded(d):
    """An infinite box: every draw lies in it, so none is rejected or clipped."""
    return np.array([[-np.inf, np.inf]] * d)


def _box_policy(mean, sd):
    return SearchPolicy(np.asarray(mean, dtype=float), np.diag(np.broadcast_to(sd, 9) ** 2))


@pytest.mark.parametrize(
    "mean, sd, bounds",
    [
        ([0.0, 0.0, 0.5] * 3, 0.02, _BOX),  # well inside: no rejections
        ([0.0, 0.0, 0.3, 0.0, 0.0, 0.7, 0.0, 0.0, 0.7], 0.15, _BOX),  # the search init
        ([0.3, 0.0, 1.0] * 3, 0.1, _BOX),  # straddling six bounds: many rejections
        ([5.0, 0.0, 0.5] * 3, 0.01, _BOX),  # far outside: every sample is clipped
        ([0.3, 0.0, 1.0] * 3, 0.1, _unbounded(9)),  # an infinite box
    ],
    ids=["inside", "search-init", "straddling", "far-outside", "unbounded"],
)
@pytest.mark.parametrize("n", [1, 7, 30])
def test_sample_box_equals_the_per_sample_loop(mean, sd, bounds, n):
    _assert_sampler_keeps_the_stream(_box_policy(mean, sd), n, bounds, seed=n)


def test_sample_box_equals_the_per_sample_loop_on_random_policies():
    rng = np.random.default_rng(30)
    for trial in range(100):
        factor = rng.normal(size=(9, 9)) * rng.uniform(0.01, 0.1)
        cov = factor @ factor.T + 1e-6 * np.eye(9)
        # means inside, on and just beyond the box, so some samples need many attempts
        mean = rng.uniform(_BOX[:, 0] - 0.02, _BOX[:, 1] + 0.02)
        n = int(rng.integers(1, 40))
        _assert_sampler_keeps_the_stream(SearchPolicy(mean, cov), n, _BOX, seed=trial)


def test_the_generator_stands_after_exactly_the_attempts_taken():
    # A call moves the stream by d normals per attempt, and not one more.
    policy = _box_policy([0.3, 0.0, 1.0] * 3, 0.1)
    for seed in range(20):
        n = seed + 1
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        _, taken = _reference_sample_box(policy, n, np.random.default_rng(seed), _BOX)
        assert taken > n  # some samples needed more than one attempt
        _sample_box(policy, n, rng, _BOX)
        twin.standard_normal((taken, 9))
        assert rng.bit_generator.state == twin.bit_generator.state


def test_the_attempt_after_max_rejections_in_a_row_is_clipped():
    # A box that rejects almost every draw: no attempt lands in it, so sample i
    # is attempt (i + 1) * (MAX_REJECTIONS + 1) - 1 clipped, across the many
    # short blocks of each sample's streak.
    policy = SearchPolicy(np.zeros(9), np.eye(9))
    box = np.array([[-0.01, 0.01]] * 9)
    n = 4
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    got = _sample_box(policy, n, rng, box)
    attempts = twin.standard_normal((n * (MAX_REJECTIONS + 1), 9))
    assert not ((attempts >= -0.01) & (attempts <= 0.01)).all(axis=1).any()
    clipped = np.clip(attempts[MAX_REJECTIONS :: MAX_REJECTIONS + 1], -0.01, 0.01)
    assert np.array_equal(got, clipped)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_update_policy_shape_checks():
    policy = SearchPolicy(np.zeros(2), np.eye(2))
    with pytest.raises(RecoveryForgeError, match=r"samples shape \(4, 3\) does not match"):
        update_policy(policy, np.zeros((4, 3)), np.full(4, 0.25))
    with pytest.raises(RecoveryForgeError, match="one weight per sample required"):
        update_policy(policy, np.zeros((4, 2)), np.full(5, 0.2))


# -- reps_optimize ---------------------------------------------------------------


def _bowl_setup(seed):
    rng = np.random.default_rng(seed)
    target = rng.normal(size=3)
    offset = rng.normal(size=3)
    offset *= 1.0 / np.linalg.norm(offset)
    init = SearchPolicy(target + offset, 0.5**2 * np.eye(3))
    return target, init


def test_quadratic_bowl_convergence_across_seeds():
    config = RepsConfig()
    hits = 0
    for seed in range(10):
        target, init = _bowl_setup(seed)
        best_theta, best_reward, _ = reps_optimize(
            lambda th: -np.sum((th - target) ** 2, axis=1), init, config, seed=seed,
            bounds=_unbounded(3),
        )
        if best_reward >= -0.05 and np.linalg.norm(best_theta - target) <= 0.2:
            hits += 1
    assert hits >= 9


def test_every_update_respects_the_kl_budget():
    config = RepsConfig(epsilon=0.5)
    target, init = _bowl_setup(123)
    _, _, trace = reps_optimize(
        lambda th: -np.sum((th - target) ** 2, axis=1), init, config, seed=123,
        bounds=_unbounded(3),
    )
    assert len(trace) == config.n_updates
    for stats in trace:
        assert stats.kl <= 0.5 + 1e-6


def test_trace_mean_reward_mostly_improves_on_the_bowl():
    config = RepsConfig()
    improvements = 0
    target, init = _bowl_setup(7)
    _, _, trace = reps_optimize(
        lambda th: -np.sum((th - target) ** 2, axis=1), init, config, seed=7,
        bounds=_unbounded(3),
    )
    means = [s.mean_reward for s in trace]
    improvements = sum(1 for a, b in zip(means, means[1:]) if b >= a)
    assert improvements >= 8


def test_constant_reward_keeps_mean_near_init():
    init = SearchPolicy(np.array([1.0, -2.0]), 0.25 * np.eye(2))
    batches = []

    def reward(thetas):
        batches.append(thetas.copy())
        return np.zeros(len(thetas))

    reps_optimize(reward, init, RepsConfig(), seed=5, bounds=_unbounded(2))
    # Uniform weights make each refit's mean its batch's mean, so the last
    # batch's mean is the final policy's. Each refit is a sample mean of 40
    # draws, so the total drift per dim has std ~ sqrt(n_updates / 40) * 0.5.
    final_mean = batches[-1].mean(axis=0)
    drift_std = np.sqrt(10 / 40) * 0.5
    assert np.all(np.abs(final_mean - init.mean) <= 3 * drift_std)


@pytest.mark.parametrize("n_updates", [1, 2, 10])
def test_the_policy_is_refit_after_every_update_but_the_last(monkeypatch, n_updates):
    # The last refit would never be sampled, so it is skipped.
    refits = []

    def counted(policy, samples, weights):
        refits.append(len(samples))
        return update_policy(policy, samples, weights)

    monkeypatch.setattr(reps, "update_policy", counted)
    init = SearchPolicy(np.zeros(2), np.eye(2))
    config = RepsConfig(n_updates=n_updates, n_samples_per_update=8)
    _, _, trace = reps_optimize(
        lambda th: -np.sum(th**2, axis=1), init, config, seed=3, bounds=_unbounded(2)
    )
    assert len(trace) == n_updates
    assert refits == [8] * (n_updates - 1)


def test_bounds_are_respected():
    bounds = np.array([[-0.1, 0.1], [-0.1, 0.1]])
    init = SearchPolicy(np.zeros(2), np.eye(2))
    seen = []

    def reward(thetas):
        seen.extend(thetas.copy())
        return np.zeros(len(thetas))

    reps_optimize(reward, init, RepsConfig(n_updates=2, n_samples_per_update=10), 0, bounds=bounds)
    arr = np.asarray(seen)
    assert np.all(arr >= -0.1 - 1e-12) and np.all(arr <= 0.1 + 1e-12)


def test_oracle_failure_carries_theta():
    init = SearchPolicy(np.zeros(2), np.eye(2))

    def bad(thetas):
        raise ValueError("boom")

    with pytest.raises(OracleFailureError) as err:
        reps_optimize(bad, init, RepsConfig(n_updates=1, n_samples_per_update=4), 0, _unbounded(2))
    assert err.value.theta is not None
    assert err.value.theta.shape == (4, 2)


def test_reward_fn_must_return_one_reward_per_sample():
    init = SearchPolicy(np.zeros(2), np.eye(2))
    config = RepsConfig(n_updates=1, n_samples_per_update=4)
    with pytest.raises(RecoveryForgeError, match=r"reward function returned shape \(\) for 4"):
        reps_optimize(lambda th: 0.0, init, config, 0, _unbounded(2))
    with pytest.raises(RecoveryForgeError, match=r"returned shape \(4, 1\) for 4 samples"):
        reps_optimize(lambda th: np.zeros((len(th), 1)), init, config, 0, _unbounded(2))


def test_covariance_floor_after_every_update():
    target = np.zeros(3)
    init = SearchPolicy(np.ones(3), 0.25 * np.eye(3))
    config = RepsConfig(epsilon=1e6)  # maximal concentration stresses the floor
    reps_optimize(
        lambda th: -np.sum((th - target) ** 2, axis=1), init, config, seed=9, bounds=_unbounded(3)
    )
    # direct check on update_policy with a degenerate weight vector
    x = np.tile(np.array([1.0, 2.0, 3.0]), (6, 1))
    policy = update_policy(init, x, np.full(6, 1 / 6))
    assert np.linalg.eigvalsh(policy.covariance)[0] >= COV_FLOOR - 1e-15


def test_reps_deterministic_given_seed():
    target, init = _bowl_setup(11)
    fn = lambda th: -np.sum((th - target) ** 2, axis=1)
    a = reps_optimize(fn, init, RepsConfig(), seed=42, bounds=_unbounded(3))
    b = reps_optimize(fn, init, RepsConfig(), seed=42, bounds=_unbounded(3))
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]
