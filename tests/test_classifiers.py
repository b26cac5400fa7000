"""Density model and generative classifier tests with quadrature / Monte Carlo oracles."""

import numpy as np
import pytest
from scipy import stats

from recovery_forge import classifiers
from recovery_forge.classifiers import (
    GaussianModel,
    GenerativeClassifier,
    GmmModel,
    DECISION_THRESHOLD,
    classify,
    expit,
    fit_gaussian,
    fit_gmm,
    gaussian_logpdf,
    gmm_logpdf,
    logsumexp,
    sample_neighborhood,
    stack_classifiers,
    stacked_accepts,
    stacked_posteriors,
)
from recovery_forge.errors import RecoveryForgeError
from recovery_forge.precondition_chaining import state_bounds

from conftest import calls_of, package_sources, responsibilities


# -- fit_gaussian --------------------------------------------------------------


def test_fit_identical_samples_gives_regularized_identity():
    x0 = np.array([1.5, -2.0, 0.25])
    model = fit_gaussian(np.tile(x0, (10, 1)))
    np.testing.assert_allclose(model.mean, x0)
    eps = model.covariance[0, 0]
    assert eps > 0.0
    np.testing.assert_allclose(model.covariance, eps * np.eye(3))


def test_fit_two_point_variance_is_unbiased():
    model = fit_gaussian(np.array([[-1.0], [1.0]]))
    assert model.mean[0] == pytest.approx(0.0)
    assert model.covariance[0, 0] == pytest.approx(2.0, abs=1e-5)


def test_fit_recovers_moments_of_seeded_draws():
    rng = np.random.default_rng(42)
    samples = rng.normal(3.0, 2.0, size=(10000, 1))
    model = fit_gaussian(samples)
    assert model.mean[0] == pytest.approx(3.0, abs=0.1)
    assert model.covariance[0, 0] == pytest.approx(4.0, abs=0.3)


def test_fit_errors():
    with pytest.raises(RecoveryForgeError, match=r"need at least d\+1=3 samples, got 2"):
        fit_gaussian(np.zeros((2, 2)))
    with pytest.raises(RecoveryForgeError, match="samples contain non-finite entries"):
        fit_gaussian(np.array([[0.0], [np.nan], [1.0]]))


# -- gaussian_logpdf -----------------------------------------------------------


def test_standard_normal_logpdf_at_zero():
    model = GaussianModel(np.zeros(1), np.eye(1))
    assert gaussian_logpdf(model, np.zeros(1)) == pytest.approx(-0.9189385332046727)


def test_logpdf_at_mean_of_identity_gaussian():
    for d in (1, 2, 5):
        model = GaussianModel(np.arange(d, dtype=float), np.eye(d))
        expected = -0.5 * d * np.log(2 * np.pi)
        assert gaussian_logpdf(model, model.mean) == pytest.approx(expected)


def test_logpdf_normalizes_by_quadrature():
    model = GaussianModel(np.array([0.7]), np.array([[2.3]]))
    grid = np.linspace(-15, 16, 20001)[:, None]
    mass = np.trapezoid(np.exp(gaussian_logpdf(model, grid)), grid[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_logpdf_dimension_mismatch():
    model = GaussianModel(np.zeros(2), np.eye(2))
    with pytest.raises(RecoveryForgeError, match="x has dim 3, model has 2"):
        gaussian_logpdf(model, np.zeros(3))


# -- fit_gmm ---------------------------------------------------------------


def test_single_component_gmm_reduces_to_gaussian_fit():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2))
    gmm = fit_gmm(x, 1, seed=3)
    gauss = fit_gaussian(x)
    np.testing.assert_allclose(gmm.components[0].mean, gauss.mean, atol=1e-8)
    np.testing.assert_allclose(gmm.components[0].covariance, gauss.covariance, rtol=0.02)
    assert gmm.weights[0] == pytest.approx(1.0)


def test_gmm_recovers_two_tight_clusters():
    rng = np.random.default_rng(1)
    x = np.concatenate(
        [rng.normal(0.0, 0.1, size=(500, 1)), rng.normal(10.0, 0.1, size=(500, 1))]
    )
    gmm = fit_gmm(x, 2, seed=5)
    means = sorted(c.mean[0] for c in gmm.components)
    assert means[0] == pytest.approx(0.0, abs=0.1)
    assert means[1] == pytest.approx(10.0, abs=0.1)
    np.testing.assert_allclose(np.sort(gmm.weights), [0.5, 0.5], atol=0.05)


def test_gmm_responsibilities_sum_to_one():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(300, 3))
    gmm = fit_gmm(x, 4, seed=7)
    resp = responsibilities(gmm, rng.normal(size=(50, 3)))
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)


def test_gmm_loglik_monotone_over_many_random_fits():
    rng = np.random.default_rng(9)
    for trial in range(50):
        centers = rng.uniform(-4, 4, size=(3, 2))
        x = np.concatenate([rng.normal(c, 0.5, size=(60, 2)) for c in centers])
        gmm = fit_gmm(x, 3, seed=trial)
        trace = np.asarray(gmm.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-8)


def test_gmm_deterministic_given_seed():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2))
    a = fit_gmm(x, 3, seed=11)
    b = fit_gmm(x, 3, seed=11)
    np.testing.assert_array_equal(a.weights, b.weights)
    for ca, cb in zip(a.components, b.components):
        np.testing.assert_array_equal(ca.mean, cb.mean)
        np.testing.assert_array_equal(ca.covariance, cb.covariance)


def test_gmm_too_few_samples():
    with pytest.raises(RecoveryForgeError, match="2 samples cannot support 3 components"):
        fit_gmm(np.zeros((2, 1)), 3)


# -- gmm_logpdf ----------------------------------------------------------------


def test_single_component_logpdf_equals_gaussian():
    model = GaussianModel(np.array([1.0, -1.0]), np.diag([0.5, 2.0]))
    gmm = GmmModel(np.array([1.0]), [model])
    x = np.array([0.3, 0.4])
    assert gmm_logpdf(gmm, x) == pytest.approx(gaussian_logpdf(model, x), abs=1e-12)


def test_mixture_of_identical_components_equals_component():
    model = GaussianModel(np.zeros(2), np.eye(2))
    gmm = GmmModel(
        np.array([0.5, 0.5]),
        [model, GaussianModel(np.zeros(2), np.eye(2))],
    )
    x = np.array([0.2, -1.3])
    assert gmm_logpdf(gmm, x) == pytest.approx(gaussian_logpdf(model, x), abs=1e-12)


def test_gmm_logpdf_quadrature_normalization():
    gmm = GmmModel(
        np.array([0.3, 0.7]),
        [
            GaussianModel(np.array([-2.0]), np.array([[0.5]])),
            GaussianModel(np.array([3.0]), np.array([[1.5]])),
        ],
    )
    grid = np.linspace(-20, 21, 40001)[:, None]
    mass = np.trapezoid(np.exp(gmm_logpdf(gmm, grid)), grid[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_gmm_logpdf_stable_far_in_the_tails():
    gmm = GmmModel(np.array([1.0]), [GaussianModel(np.zeros(1), np.eye(1))])
    val = gmm_logpdf(gmm, np.array([60.0]))
    assert np.isfinite(val) and val < -700.0


def test_logsumexp_shifts_by_the_max_or_by_0_where_it_is_not_finite():
    rng = np.random.default_rng(20)
    a = rng.normal(0.0, 100.0, size=(30, 5))
    a[::3, 1] = a[::3].max(axis=1)  # tied maxima
    a[1::3, 0] = -np.inf  # a zero-weight component
    shift = a.max(axis=1)
    expected = np.log(np.exp(a - shift[:, None]).sum(axis=1)) + shift
    np.testing.assert_array_equal(logsumexp(a, axis=1), expected)
    assert [logsumexp(row) for row in a] == expected.tolist()
    edges = np.array([[-np.inf, -np.inf], [np.inf, 2.0], [np.nan, 0.0], [-np.inf, 2.0]])
    with np.errstate(divide="ignore"):  # log(0) of the all -inf row
        np.testing.assert_array_equal(logsumexp(edges, axis=1), [-np.inf, np.inf, np.nan, 2.0])


# -- classify --------------------------------------------------------------------


def _toy_classifier(neg_mean=6.0):
    pos = GaussianModel(np.zeros(1), np.eye(1))
    neg = GmmModel(np.array([1.0]), [GaussianModel(np.array([neg_mean]), np.eye(1))])
    return GenerativeClassifier(pos, neg)


def test_classify_symmetric_densities_give_half():
    clf = _toy_classifier(neg_mean=0.0)
    assert classify(clf, np.array([0.37])) == pytest.approx(0.5)


def test_classify_at_positive_mean_is_confident():
    clf = _toy_classifier()
    assert classify(clf, np.zeros(1)) > 0.99


def test_classify_bounded_and_finite_on_random_grid():
    rng = np.random.default_rng(8)
    pos = fit_gaussian(rng.normal(size=(100, 3)))
    neg = fit_gmm(rng.normal(3.0, 2.0, size=(200, 3)), 2, seed=0)
    clf = GenerativeClassifier(pos, neg)
    probs = classify(clf, rng.uniform(-50, 50, size=(500, 3)))
    assert np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))


# -- stacked scores against one Gaussian at a time ---------------------------------


def _oracle_gaussian_logpdf(model, pts):
    """The kernel's formula on one Gaussian alone: its own Cholesky factor, its
    own inverse factor inv(L^T), one product and each squared norm."""
    chol = np.linalg.cholesky(model.covariance)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    y = (pts - model.mean) @ np.linalg.inv(chol.T)
    quad = np.sum(y**2, axis=1)
    return -0.5 * (model.dim * np.log(2.0 * np.pi) + logdet + quad)


def _lu_logpdf(model, pts):
    """The log-density by a per-Gaussian LU solve of L y = r (LAPACK
    ``dgesv``), with q = |y|^2: the bounded reference of the kernel."""
    chol = np.linalg.cholesky(model.covariance)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    quad = np.sum(np.linalg.solve(chol, (pts - model.mean).T) ** 2, axis=0)
    return -0.5 * (model.dim * np.log(2.0 * np.pi) + logdet + quad), quad


@pytest.mark.parametrize("d", [1, 2, 5, 7, 9])
@pytest.mark.parametrize("n", [1, 30, 400])
@pytest.mark.parametrize("spread", [0.0, 3.0])
def test_the_kernel_is_within_its_error_bound_of_a_per_gaussian_lu_solve(d, n, spread):
    # The kernel whitens by X r rounded, X = inv(L^T)^T, within 2 d u kappa_F
    # |y| of y = L^-1 r; the LU solve within 3 d u g kappa_F |y| for pivot
    # growth g. The accept margin's form c d u kappa_F (q / 2 + |log p| + 1)
    # holds both for g up to 4. ``spread`` scales the data's axes over
    # 10^spread, so kappa_F grows to about 10^spread.
    rng = np.random.default_rng(5000 + 10 * d + n)
    scales = np.logspace(0.0, -spread, d)
    pos = fit_gaussian(rng.normal(size=(5 * d, d)) * scales)
    neg = fit_gmm(rng.normal(2.0, 3.0, size=(80, d)) * scales, 4, seed=d)
    pts = rng.normal(1.0, 4.0, size=(n, d)) * scales
    worst = 0.0
    for model in (pos, *neg.components):
        got = gaussian_logpdf(model, pts)
        ref, quad = _lu_logpdf(model, pts)
        chol = np.linalg.cholesky(model.covariance)
        kappa = np.linalg.norm(chol) * np.linalg.norm(np.linalg.inv(chol))
        unit = d * np.finfo(float).eps * kappa * (quad / 2.0 + np.abs(ref) + 1.0)
        assert (np.abs(got - ref) <= classifiers.ACCEPT_MARGIN_FACTOR * unit).all()
        worst = max(worst, float(np.max(np.abs(got - ref) / unit)))
    assert worst <= 1.0  # at most 0.3 measured: far inside the factor's 64


def test_no_source_solves_a_linear_system():
    # Every Gaussian is scored through its cached inverse factor; the LU
    # solve lives on only in the tests, as the kernel's bounded reference.
    for module, text in package_sources():
        assert "linalg.solve" not in text, module
        assert calls_of(module, text, "solve") == [], module


def test_each_stack_and_each_em_step_inverts_its_factors_once(monkeypatch):
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a.shape) or inv(a))
    rng = np.random.default_rng(6)
    clfs = [_random_classifier(rng, 7, 4) for _ in range(3)]
    inversions.clear()
    stack = stack_classifiers(clfs)
    assert inversions == [(15, 7, 7)]
    stacked_accepts(stack, rng.normal(size=(20, 7)))
    stacked_posteriors(stack, rng.normal(size=(20, 7)))
    assert inversions == [(15, 7, 7)]  # both read the stack's inverse factors
    inversions.clear()
    fit = fit_gmm(_clustered(rng, 7, 4, 60), 4, seed=0)
    assert inversions == [(4, 7, 7)] * len(fit.loglik_trace)


def _oracle_component_logpdfs(model, pts):
    """N x K matrix of log(w_k) + log N(x | mu_k, Sigma_k), one component at a time."""
    logs = np.empty((pts.shape[0], len(model.components)))
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    for k, comp in enumerate(model.components):
        logs[:, k] = logw[k] + _oracle_gaussian_logpdf(comp, pts)
    return logs


def _random_classifier(rng, d, k):
    pos = fit_gaussian(rng.normal(size=(5 * d, d)))
    neg = fit_gmm(rng.normal(2.0, 3.0, size=(80, d)), k, seed=int(rng.integers(100)))
    return GenerativeClassifier(pos, neg)


@pytest.mark.parametrize("d, k", [(1, 1), (2, 3), (7, 4), (9, 6)])
@pytest.mark.parametrize("n", [1, 40])
def test_stacked_scores_equal_per_gaussian_solves_exactly(d, k, n):
    rng = np.random.default_rng(100 * d + n)
    clf = _random_classifier(rng, d, k)
    pts = rng.normal(1.0, 4.0, size=(n, d))

    gauss = _oracle_gaussian_logpdf(clf.positive, pts)
    comps = _oracle_component_logpdfs(clf.negative, pts)
    # Every log-sum-exp is shifted by the max. The mixture's sums each row of
    # the N x K matrix; the posterior's adds the K columns in order.
    shift = comps.max(axis=1)
    mix = np.log(np.exp(comps - shift[:, None]).sum(axis=1)) + shift
    ln = np.log(sum(np.exp(comps[:, j] - shift) for j in range(k))) + shift
    with np.errstate(over="ignore"):
        posterior = 1.0 / (1.0 + np.exp(-(gauss - ln)))

    np.testing.assert_array_equal(gaussian_logpdf(clf.positive, pts), gauss)
    np.testing.assert_array_equal(gmm_logpdf(clf.negative, pts), mix)
    np.testing.assert_array_equal(classifiers._joint_logpdfs(clf.negative._stacked, pts), comps)
    np.testing.assert_array_equal(
        responsibilities(clf.negative, pts), np.exp(comps - mix[:, None])
    )
    np.testing.assert_array_equal(classify(clf, pts), posterior)
    if n == 1:  # a single state vector gives a float
        assert gaussian_logpdf(clf.positive, pts[0]) == gauss[0]
        assert gmm_logpdf(clf.negative, pts[0]) == mix[0]
        assert classify(clf, pts[0]) == posterior[0]


def test_expit_is_zero_without_a_warning_where_exp_overflows():
    # Tier-1 turns RuntimeWarnings into errors, so an overflow warning fails here.
    edges = np.array([[0.0, np.inf, -np.inf, np.nan], [-709.7, -710.0, -1e308, 800.0]])
    out = expit(edges)
    assert out.shape == edges.shape and out.dtype == float
    np.testing.assert_array_equal(out[:, 1:], [[1.0, 0.0, np.nan], [0.0, 0.0, 1.0]])
    assert out[0, 0] == 0.5 and 0.0 < out[1, 0] < 1e-300


@pytest.mark.parametrize("d, k", [(1, 1), (2, 3), (7, 4), (9, 6)])
@pytest.mark.parametrize("p", [1, 3, 5])
def test_stacked_posteriors_equal_classify_exactly(d, k, p):
    rng = np.random.default_rng(10 * d + p)
    clfs = [_random_classifier(rng, d, k) for _ in range(p)]
    pts = rng.normal(1.0, 4.0, size=(40, d))
    stack = stack_classifiers(clfs)
    expected = np.array([classify(c, pts) for c in clfs])
    np.testing.assert_array_equal(stacked_posteriors(stack, pts), expected)
    none = np.empty((0, d))
    assert stacked_posteriors(stack, none).shape == (p, 0)
    assert classify(clfs[0], none).shape == (0,)
    for x in pts:  # one state at a time: the values stacked_accepts decides on
        np.testing.assert_array_equal(
            stacked_posteriors(stack, x[None])[:, 0], [classify(c, x) for c in clfs]
        )


def _accepts_with_posteriors(clf, pts):
    """``stacked_accepts`` of one classifier, and one-row ``classify`` of each row."""
    accepted = stacked_accepts(clf._stacked, pts)
    assert accepted.shape == (1, len(pts)) and accepted.dtype == bool
    return accepted[0], np.array([classify(clf, x) for x in pts])


@pytest.mark.parametrize("d", [1, 7, 9])
@pytest.mark.parametrize("k", [1, 4, 6])
def test_classify_rows_equal_one_row_classify_exactly(d, k):
    # Rows decided in one stacked_accepts call, against one-row classify.
    # d = 9 sums each squared solution pairwise (numpy does so from 8 terms on).
    rng = np.random.default_rng(1000 + 10 * d + k)
    clf = _random_classifier(rng, d, k)
    near = rng.normal(1.0, 4.0, size=(250, d))
    far = rng.normal(0.0, 200.0, size=(10, d))  # exp(-(lp - ln)) overflows there
    pts = np.concatenate([near, far])
    accepted, one_row = _accepts_with_posteriors(clf, pts)
    assert np.any(one_row == 0.0)  # only an exp(-x) that overflows gives 0.0
    assert np.any((one_row > 0.0) & (one_row < 1.0))
    np.testing.assert_array_equal(accepted, one_row >= DECISION_THRESHOLD)

    # The positive Gaussian is the only weighted negative component: every
    # posterior is exactly one half, the decision threshold, and accepted.
    weights = np.zeros(k)
    weights[0] = 1.0
    negative = GmmModel(weights, clf.negative.components)
    tie = GenerativeClassifier(clf.negative.components[0], negative)
    accepted, half = _accepts_with_posteriors(tie, pts)
    np.testing.assert_array_equal(half, np.full(len(pts), 0.5))
    assert accepted.all()


# -- the accept filter ------------------------------------------------------------


def _one_row_log_odds(stack, pts):
    """P x N log-odds of ``stacked_posteriors`` scoring each row alone."""
    means, inv_ts, logdets, logw = stack[:4]
    cols = []
    for x in pts:
        logs = classifiers._stacked_logpdfs(means, inv_ts, logdets, x[None])
        cols.append(classifiers._log_odds(stack, logs.reshape(len(logw), -1, 1))[:, 0])
    return np.array(cols).T


@pytest.mark.parametrize("d, k", [(1, 1), (7, 4), (9, 6)])
@pytest.mark.parametrize("n", [1, 30, 250])
def test_filtered_log_odds_are_the_fallbacks_formula_on_the_same_matrix(d, k, n):
    # The fast path forms lp and ln as stacked_posteriors does, so on one
    # matrix the two log-odds are the same bits; only the margin is its own.
    rng = np.random.default_rng(5000 + 10 * d + n)
    stack = stack_classifiers([_random_classifier(rng, d, k) for _ in range(3)])
    pts = rng.normal(1.0, 4.0, size=(n, d))
    means, inv_ts, logdets, logw = stack[:4]
    logs = classifiers._stacked_logpdfs(means, inv_ts, logdets, pts).reshape(3, 1 + k, n)
    fast, margin = classifiers._filtered_log_odds(stack, pts)
    np.testing.assert_array_equal(fast, classifiers._log_odds(stack, logs))
    assert margin.shape == (3, n) and (margin > 0.0).all()


@pytest.mark.parametrize("d, k", [(1, 1), (2, 3), (7, 4), (9, 6)])
def test_margin_scales_are_the_cholesky_norm_bound(d, k):
    # sqrt(trace Sigma) is |L|_F in real arithmetic; in floating point the
    # scale stays within a few ulp of the one from the Cholesky factors.
    rng = np.random.default_rng(6000 + 10 * d + k)
    clfs = [_random_classifier(rng, d, k) for _ in range(3)]
    clfs.append(_zero_constant_classifier(rng, d, k)[0])
    u = np.finfo(float).eps
    expected = []
    for c in clfs:
        chols = np.linalg.cholesky([g.covariance for g in (c.positive, *c.negative.components)])
        norms = [np.linalg.norm(m, axis=(1, 2)) for m in (chols, np.linalg.inv(chols))]
        kappa = norms[0] * norms[1]
        expected.append(classifiers.ACCEPT_MARGIN_FACTOR * d * u * kappa.max())
    np.testing.assert_allclose(stack_classifiers(clfs)[4], expected, rtol=4 * u, atol=0.0)


def _one_row_accepts(classifier_list, pts):
    """P x N decisions of one-row ``classify``: the contract. The NaN,
    infinite and overflowing rows of ``_special_rows`` warn as they score."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return np.array(
            [[classify(c, x) >= DECISION_THRESHOLD for x in pts] for c in classifier_list]
        )


def _bisected_boundary(accepts, inside, outside):
    """The two neighbouring doubles of t at which ``accepts(inside + t (outside
    - inside))`` flips, as the two rows there."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return [inside + lo * (outside - inside), inside + hi * (outside - inside)]
        if accepts(inside + mid * (outside - inside)):
            lo = mid
        else:
            hi = mid


def _boundary_rows(clf, candidates, rng, n_segments):
    """Rows bisected onto ``clf``'s decision boundary, each segment from a
    candidate that one-row ``classify`` accepts to one that it rejects."""
    accepts = lambda x: classify(clf, x) >= DECISION_THRESHOLD  # noqa: E731
    decided = np.array([accepts(x) for x in candidates])
    inside = rng.choice(np.flatnonzero(decided), n_segments)
    outside = rng.choice(np.flatnonzero(~decided), n_segments)
    return np.concatenate(
        [_bisected_boundary(accepts, candidates[i], candidates[o]) for i, o in zip(inside, outside)]
    )


def _special_rows(d):
    """NaN, infinite and huge rows, and rows whose squares overflow."""
    rows = [np.full(d, v) for v in (np.nan, np.inf, -np.inf, 1e300, -1e200, 1e155, 1e-300)]
    one_inf, one_nan = np.zeros(d), np.ones(d)
    one_inf[-1], one_nan[0] = np.inf, np.nan
    return np.array([*rows, one_inf, one_nan])


def _assert_calls_of_1_10_and_250_rows_decide(stack, pts, expected):
    assert len(pts) == 250
    np.testing.assert_array_equal(stacked_accepts(stack, pts), expected)
    for size in (10, 1):
        calls = [stacked_accepts(stack, pts[i : i + size]) for i in range(0, 250, size)]
        np.testing.assert_array_equal(np.concatenate(calls, axis=1), expected)


@pytest.mark.parametrize("d", [1, 7, 9])
@pytest.mark.parametrize("k", [1, 4, 6])
def test_boundary_rows_fall_back_and_decide_as_one_row_classify(d, k):
    rng = np.random.default_rng(3000 + 10 * d + k)
    clf = _random_classifier(rng, d, k)
    near = rng.multivariate_normal(clf.positive.mean, 0.1 * clf.positive.covariance, size=40)
    candidates = np.concatenate([near, rng.normal(0.0, 50.0, size=(40, d))])
    boundary = _boundary_rows(clf, candidates, rng, 40)
    stack = clf._stacked
    fast, margin = classifiers._filtered_log_odds(stack, boundary)
    assert (np.abs(fast) <= margin).all()  # every boundary row takes the fallback
    expected = _one_row_accepts([clf], boundary)
    assert expected.any() and not expected.all()
    # The fast sign alone would get some of them wrong: this test can fail.
    # At d = 1 both paths whiten by one exactly rounded product, so only the
    # constants' roundings part them, and they can shift every boundary row
    # alike: at d = 1, k = 4 by a few ulp of 1, with every sign kept.
    assert (d, k) == (1, 4) or ((fast > 0.0) != expected).any()

    special = _special_rows(d)
    far = rng.normal(0.0, 300.0, size=(250 - len(boundary) - len(special), d))
    pts = np.concatenate([boundary, special, far])
    _assert_calls_of_1_10_and_250_rows_decide(stack, pts, _one_row_accepts([clf], pts))


def _zero_constant_classifier(rng, d, k):
    """A classifier whose log-odds at row x is -2 m^T S^-1 x: N(-m, S) against
    N(m, S), any other negative component weighted 0. det S makes each
    Gaussian's log-density constant about 0, so lp and ln are about 0
    around x = 0 and only the margin's +1 floor keeps it above the log-odds
    that round to a posterior of one half."""
    a = rng.normal(size=(d, d))
    s = a @ a.T + d * np.eye(d)
    target = -d * np.log(2.0 * np.pi)
    s *= np.exp((target - np.linalg.slogdet(s)[1]) / d)
    m = 1e-4 * rng.normal(size=d)
    weights = np.zeros(k)
    weights[0] = 1.0
    negative = GmmModel(weights, [GaussianModel(m, s) for _ in range(k)])
    return GenerativeClassifier(GaussianModel(-m, s), negative), m


@pytest.mark.parametrize("d", [1, 7, 9])
@pytest.mark.parametrize("k", [1, 4, 6])
def test_log_odds_decision_equals_the_sigmoid_threshold(d, k):
    # The posterior-exactly-1/2 tie and the log-odds in (-1e-15, 0) that the
    # sigmoid still accepts, through stacked_accepts, as one-row classify.
    rng = np.random.default_rng(4000 + 10 * d + k)
    clf, m = _zero_constant_classifier(rng, d, k)
    stack = clf._stacked
    # Rows t m give log-odds of about -2 t m^T S^-1 m: most of them in
    # (-2e-15, 2e-15), some out to 1e3 on either side; t = 0 is the exact tie.
    slope = 2.0 * m @ np.linalg.solve(clf.positive.covariance, m)
    odds = np.concatenate([np.linspace(-2e-15, 2e-15, 201), np.logspace(-14, 3, 24)])
    t = np.concatenate([odds, -odds[201:], [0.0]]) / slope
    pts = t[:, None] * m
    one_row = _one_row_log_odds(stack, pts)[0]
    expected = _one_row_accepts([clf], pts)
    assert one_row[-1] == 0.0 and classify(clf, pts[-1]) == 0.5 and expected[0, -1]
    band = (one_row > -1e-15) & (one_row < 0.0)
    # Negative log-odds that the sigmoid still accepts, and ones it rejects.
    assert (band & expected[0]).any() and (band & ~expected[0]).any()
    fast, margin = classifiers._filtered_log_odds(stack, pts)
    assert (np.abs(fast[0, band]) <= margin[0, band]).all()
    _assert_calls_of_1_10_and_250_rows_decide(stack, pts, expected)


def test_a_precondition_set_decides_its_boundary_rows_as_one_row_classify(small_chain):
    preconds = small_chain
    rng = np.random.default_rng(11)
    lo, hi = state_bounds()
    dists = preconds.positive_dists
    near = [rng.multivariate_normal(g.mean, 4.0 * g.covariance, size=40) for g in dists]
    candidates = np.concatenate([rng.uniform(lo, hi, size=(80, lo.size)), *near])
    rows, owner = [], []
    for j, rho in enumerate(preconds.preconditions):
        found = _boundary_rows(rho, candidates, rng, 20)
        rows.append(found)
        owner += [j] * len(found)
    boundary = np.concatenate(rows)
    fast, margin = classifiers._filtered_log_odds(preconds._stacked, boundary)
    own = (owner, np.arange(len(boundary)))
    assert (np.abs(fast[own]) <= margin[own]).all()
    expected = _one_row_accepts(preconds.preconditions, boundary)
    assert ((fast[own] > 0.0) != expected[own]).any()

    special = _special_rows(boundary.shape[1])
    far = rng.uniform(lo, hi, size=(250 - len(boundary) - len(special), lo.size))
    pts = np.concatenate([boundary, special, far])
    expected = _one_row_accepts(preconds.preconditions, pts)
    np.testing.assert_array_equal(np.array([preconds.accepting(x) for x in pts]).T, expected)
    _assert_calls_of_1_10_and_250_rows_decide(preconds._stacked, pts, expected)


def test_component_logpdfs_are_c_contiguous():
    rng = np.random.default_rng(4)
    gmm = _random_classifier(rng, 7, 4).negative
    logs = classifiers._joint_logpdfs(gmm._stacked, rng.normal(size=(40, 7)))
    assert logs.shape == (40, 4)
    assert logs.flags.c_contiguous


def _clustered(rng, d, n_clusters, per_cluster):
    centers = rng.uniform(-3.0, 3.0, size=(n_clusters, d))
    return np.concatenate([rng.normal(c, 0.6, size=(per_cluster, d)) for c in centers])


def _oracle_fit_gmm(x, n_components, seed, max_iter=200):
    """EM one component at a time: a GmmModel of K GaussianModels per
    iteration, scored by ``_oracle_component_logpdfs``, and one ``eigvalsh``
    per covariance for the floor. Returns the fit, the number of component
    re-seeds and the number of covariances lifted onto the floor."""
    rng = np.random.default_rng(seed)
    n, d = x.shape
    means = classifiers._kmeans_pp_centers(x, n_components, rng)
    base_cov = np.cov(x, rowvar=False).reshape(d, d)
    base_cov = 0.5 * (base_cov + base_cov.T) + classifiers._regularization(
        np.atleast_2d(base_cov)
    ) * np.eye(d)
    covs = np.array([base_cov.copy() for _ in range(n_components)])
    weights = np.full(n_components, 1.0 / n_components)
    trace, reseeds, lifts, prev_ll = [], 0, 0, -np.inf
    for _ in range(max_iter):
        model = GmmModel(weights, [GaussianModel(means[k], covs[k]) for k in range(n_components)])
        joint = _oracle_component_logpdfs(model, x)
        point_ll = logsumexp(joint, axis=1)
        ll = float(point_ll.sum())
        trace.append(ll)
        if abs(ll - prev_ll) < classifiers.EM_TOL * n:
            break
        prev_ll = ll
        resp = np.exp(joint - point_ll[:, None])
        mass = resp.sum(axis=0)
        empty = np.flatnonzero(mass < 1e-6)
        if empty.size:
            reseeds += len(empty)
            assert reseeds < 3, "the oracle data must not exhaust the re-seeds"
            for k in empty:
                means[k] = x[rng.integers(n)]
                covs[k] = base_cov.copy()
                weights[k] = 1.0 / n_components
            weights = weights / weights.sum()
            prev_ll = -np.inf
            continue
        weights = mass / mass.sum()
        for k in range(n_components):
            w = resp[:, k] / mass[k]
            means[k] = w @ x
            diff = x - means[k]
            cov = (diff * w[:, None]).T @ diff
            cov = 0.5 * (cov + cov.T)
            floor = classifiers._regularization(cov)
            lam_min = float(np.linalg.eigvalsh(cov)[0])
            if lam_min < floor:
                cov = cov + (floor - lam_min) * np.eye(d)
                lifts += 1
            covs[k] = cov
    fitted = GmmModel(weights, [GaussianModel(means[k], covs[k]) for k in range(n_components)])
    fitted.loglik_trace = trace
    return fitted, reseeds, lifts


def _assert_same_fit(fit, reference):
    assert fit.loglik_trace == reference.loglik_trace
    np.testing.assert_array_equal(fit.weights, reference.weights)
    for a, b in zip(fit.components, reference.components):
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.covariance, b.covariance)


@pytest.mark.parametrize("d, k, seed", [(2, 3, 0), (7, 4, 1), (7, 6, 2)])
def test_fit_gmm_equals_em_on_per_gaussian_solves(d, k, seed):
    x = _clustered(np.random.default_rng(seed), d, k, 60)
    stacked = fit_gmm(x, k, seed=seed)
    reference, _, _ = _oracle_fit_gmm(x, k, seed=seed)
    assert len(stacked.loglik_trace) > 3
    _assert_same_fit(stacked, reference)


# Eleven points on a 3 x 3 lattice: with six components and seed 2, the sixth
# component collapses at EM pass 8 and, re-seeded at weight 1/6, again at
# passes 10 and 12.
LATTICE = np.array(
    [[2, 1], [1, 0], [1, 1], [2, 0], [2, 1], [1, 2], [2, 2], [0, 0], [2, 1], [1, 2], [0, 0]],
    dtype=float,
)


@pytest.mark.parametrize("max_iter, n_reseeds", [(8, 1), (10, 2)])
def test_fit_gmm_equals_the_oracle_through_component_reseeds(max_iter, n_reseeds):
    stacked = fit_gmm(LATTICE, 6, seed=2, max_iter=max_iter)
    reference, reseeds, lifts = _oracle_fit_gmm(LATTICE, 6, seed=2, max_iter=max_iter)
    assert reseeds == n_reseeds and lifts > 0
    assert len(stacked.loglik_trace) == max_iter
    _assert_same_fit(stacked, reference)


def test_fit_gmm_raises_on_the_third_reseed():
    with pytest.raises(RecoveryForgeError, match="3 component re-seeds"):
        fit_gmm(LATTICE, 6, seed=2, max_iter=12)


def test_a_reseeded_component_gets_a_non_collapsed_weight():
    # The eighth EM pass re-seeds the sixth component, then the fit stops.
    fit = fit_gmm(LATTICE, 6, seed=2, max_iter=8)
    assert fit.weights[5] > 1e-3


def test_em_stops_at_the_first_step_within_the_per_sample_tolerance():
    rng = np.random.default_rng(16)
    n_converged = 0
    for trial in range(100):
        n, k, d = int(rng.integers(10, 401)), int(rng.integers(1, 7)), int(rng.integers(1, 8))
        centers = rng.uniform(-3.0, 3.0, size=(k, d))
        x = centers[rng.integers(k, size=n)] + rng.normal(0.0, 0.6, size=(n, d))
        max_iter = 200 if trial % 2 else int(rng.integers(2, 12))
        fit = fit_gmm(x, k, max_iter=max_iter, seed=trial)
        steps = np.abs(np.diff(fit.loglik_trace))
        settled = steps < classifiers.EM_TOL * n
        assert not settled[:-1].any()
        if fit.converged:
            assert settled[-1]
            n_converged += 1
        else:
            assert fit.converged is False and not settled[-1]
            assert len(fit.loglik_trace) == max_iter
    assert 0 < n_converged < 100


def test_a_fit_at_max_iter_warns_and_a_converged_one_does_not(caplog):
    x = _clustered(np.random.default_rng(0), 2, 3, 60)
    with caplog.at_level("WARNING", logger="recovery_forge"):
        assert fit_gmm(x, 3, seed=0).converged is True
        assert not caplog.records
        assert fit_gmm(x, 3, max_iter=3, seed=0).converged is False
    (record,) = caplog.records
    assert record.levelname == "WARNING" and "max_iter=3" in record.getMessage()


@pytest.mark.parametrize("d, k, seed", [(3, 2, 0), (7, 4, 1), (9, 6, 2)])
def test_fit_gmm_equals_the_oracle_through_eigenvalue_lifts(d, k, seed):
    # Constant columns give every covariance a zero eigenvalue, below its floor.
    x = _clustered(np.random.default_rng(seed), d, k, 40)
    x[:, ::2] = 0.25
    stacked = fit_gmm(x, k, seed=seed)
    reference, reseeds, lifts = _oracle_fit_gmm(x, k, seed=seed)
    assert lifts >= k and reseeds == 0
    _assert_same_fit(stacked, reference)


def test_stacked_scores_reject_a_wrong_dimension():
    clf = _random_classifier(np.random.default_rng(5), 3, 2)
    for x in (np.zeros(4), np.zeros((5, 2))):
        wrong = f"x has dim {x.shape[-1]}, model has 3"
        with pytest.raises(RecoveryForgeError, match=wrong):
            classify(clf, x)
        with pytest.raises(RecoveryForgeError, match=wrong):
            stacked_accepts(clf._stacked, np.atleast_2d(x))
        with pytest.raises(RecoveryForgeError, match=wrong):
            gmm_logpdf(clf.negative, x)
        with pytest.raises(RecoveryForgeError, match=wrong):
            responsibilities(clf.negative, x)


def test_mixed_dimension_models_raise_dimension_mismatch():
    mixed = [GaussianModel(np.zeros(2), np.eye(2)), GaussianModel(np.zeros(3), np.eye(3))]
    gmm = GmmModel([0.5, 0.5], mixed)
    with pytest.raises(RecoveryForgeError, match=r"cannot stack Gaussians of dims \[2, 3\]"):
        gmm_logpdf(gmm, np.zeros(2))
    neg = GmmModel([1.0], [GaussianModel(np.zeros(3), np.eye(3))])
    clf = GenerativeClassifier(GaussianModel(np.zeros(2), np.eye(2)), neg)
    with pytest.raises(RecoveryForgeError, match=r"cannot stack Gaussians of dims \[2, 3\]"):
        classify(clf, np.zeros(2))


# -- sample_neighborhood ----------------------------------------------------------


def test_neighborhood_scale_one_matches_model_distribution():
    model = GaussianModel(np.array([1.0]), np.array([[4.0]]))
    draws = sample_neighborhood(model, 1.0, 4000, seed=21)[:, 0]
    stat = stats.kstest(draws, "norm", args=(1.0, 2.0))
    assert stat.pvalue > 0.01


def test_neighborhood_variance_scales():
    model = GaussianModel(np.zeros(2), np.diag([1.0, 0.25]))
    draws = sample_neighborhood(model, 3.0, 10000, seed=22)
    np.testing.assert_allclose(np.var(draws, axis=0), [3.0, 0.75], rtol=0.1)


def test_neighborhood_seed_deterministic_and_scale_validated():
    model = GaussianModel(np.zeros(1), np.eye(1))
    np.testing.assert_array_equal(
        sample_neighborhood(model, 2.0, 16, seed=4), sample_neighborhood(model, 2.0, 16, seed=4)
    )
    with pytest.raises(RecoveryForgeError, match="covariance scale must be >= 1, got 0.5"):
        sample_neighborhood(model, 0.5, 4, seed=0)
