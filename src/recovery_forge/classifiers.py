"""Gaussian / Gaussian-mixture density models and the generative precondition classifier.

Preconditions are realized as generative classifiers: a Gaussian over observed
success states, a small GMM over everything else, and a Bayes posterior between
the two at equal class priors, the sigmoid of their log-density difference.
All fits are deterministic given (samples, seed).

``fit_gmm`` runs EM until the mean log-likelihood per sample moves by less
than ``EM_TOL``, the rule of scikit-learn's ``GaussianMixture`` (Pedregosa et
al., JMLR 2011); ``GmmModel.converged`` is False for a fit that ran
``max_iter`` E-steps without meeting it, and such a fit logs a warning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import RecoveryForgeError

# Covariance regularization: eps = REG_SCALE * trace/d, floored so that fully
# degenerate samples still produce an invertible covariance.
REG_SCALE = 1e-6
REG_FLOOR = 1e-9

# Posterior threshold used wherever a yes/no precondition decision is needed.
DECISION_THRESHOLD = 0.5
# Safety factor c of ``stacked_accepts``' error margin
# c * d * u * kappa_F * (max q / 2 + |lp| + |ln| + 1).
ACCEPT_MARGIN_FACTOR = 64.0

DEFAULT_NEGATIVE_COMPONENTS = 4

# EM stops once the mean log-likelihood per sample changes by less than this.
EM_TOL = 1e-3

LOG_2PI = float(np.log(2.0 * np.pi))

LOGGER = logging.getLogger(__name__)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis``, shifted by the max: log(sum(exp(a -
    m))) + m, with m the max, or 0 where the max is not finite (so an all
    -inf slice gives -inf, one holding +inf gives inf, and NaN stays NaN).
    """
    a = np.asarray(a, dtype=float)
    shift = a.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    out = np.log(np.exp(a - shift).sum(axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis=axis)[()]


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))`` elementwise: 0.0 where ``exp(-x)``
    overflows to inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _regularization(cov: np.ndarray) -> float:
    d = cov.shape[0]
    return max(REG_SCALE * float(np.trace(cov)) / d, REG_FLOOR)


def _floor_eigenvalues(covs: np.ndarray) -> None:
    """Lift each spectrum of a (K, d, d) stack onto its regularization floor,
    in place, only where needed.

    Healthy covariances pass through untouched so the EM M-step stays the exact
    maximizer (keeps the log-likelihood monotone); collapsed ones get the floor
    (``_regularization`` of each matrix, here from one stacked trace).
    One stacked ``eigvalsh`` runs LAPACK on each matrix alone, so every
    eigenvalue equals that of a per-matrix call.
    """
    d = covs.shape[1]
    lam_min = np.linalg.eigvalsh(covs)[:, 0]
    floors = np.maximum(REG_SCALE * np.trace(covs, axis1=1, axis2=2) / d, REG_FLOOR)
    for k in np.flatnonzero(lam_min < floors):
        covs[k] = covs[k] + (floors[k] - lam_min[k]) * np.eye(d)


def _factors(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse factors inv(L^T) and log-determinants of a (K, d, d) stack of
    covariances L L^T; the Cholesky factors L stay here. A stacked
    ``cholesky`` or ``inv`` runs LAPACK on each matrix alone, and each
    diagonal's log is summed along a contiguous axis, so every value equals
    that of a stack of one.

    inv(L^T) comes from back substitution on L^T (LU of an upper-triangular
    matrix pivots nowhere), so X = inv(L^T)^T has a small left residual:
    X L = I + F with |F| <= d u |X| |L| to first order (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 8.5, per column).
    """
    chols = np.linalg.cholesky(covs)
    logdets = 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
    return np.linalg.inv(chols.transpose(0, 2, 1)), logdets


@dataclass
class GaussianModel:
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise RecoveryForgeError(
                f"covariance {self.covariance.shape} does not match mean dim {self.mean.size}"
            )

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This Gaussian as a ``_stack_gaussians`` stack of one."""
        return _stack_gaussians([self])


@dataclass
class GmmModel:
    weights: np.ndarray
    components: list[GaussianModel]
    loglik_trace: list[float] | None = field(default=None, repr=False, compare=False)
    converged: bool | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.size != len(self.components):
            raise RecoveryForgeError("one weight per component required")
        # Written so that a NaN weight, which json reads back from a file, fails too.
        if not (np.all(self.weights >= 0.0) and abs(float(self.weights.sum()) - 1.0) <= 1e-9):
            raise RecoveryForgeError("GMM weights must form a simplex")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @cached_property
    def _stacked(self) -> tuple:
        """The components as a ``_stack_gaussians`` stack, then their log-weights."""
        return (*_stack_gaussians(self.components), _log_weights(self.weights))


@dataclass
class GenerativeClassifier:
    """Bayes posterior between a positive Gaussian and a negative GMM, at
    equal class priors."""

    positive: GaussianModel
    negative: GmmModel

    @cached_property
    def _stacked(self) -> tuple:
        """This classifier as a ``stack_classifiers`` stack of one."""
        return stack_classifiers([self])


def _stack_gaussians(models) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(means, inverse factors, log-determinants) of the models, the factors
    from one ``_factors`` call."""
    dims = sorted({m.dim for m in models})
    if len(dims) > 1:
        raise RecoveryForgeError(f"cannot stack Gaussians of dims {dims}")
    return (np.array([m.mean for m in models]), *_factors(np.array([m.covariance for m in models])))


def _log_weights(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights)


def stack_classifiers(classifiers) -> tuple:
    """P classifiers with the same K as one stack: each positive Gaussian then
    its K negative components (as ``_stack_gaussians``), the P x K negative
    log-weights, and each classifier's ``stacked_accepts`` margin scale
    ``ACCEPT_MARGIN_FACTOR`` * d * u * kappa_F, with u the machine epsilon and
    kappa_F = |L|_F |L^-1|_F, |L|_F = sqrt(trace Sigma), the largest of the
    classifier's Gaussians."""
    ks = sorted({len(c.negative.components) for c in classifiers})
    if len(ks) != 1:
        raise RecoveryForgeError(f"cannot stack classifiers with {ks} negative components")
    gaussians = [g for c in classifiers for g in (c.positive, *c.negative.components)]
    means, inv_ts, logdets = _stack_gaussians(gaussians)
    logw = np.array([_log_weights(c.negative.weights) for c in classifiers])
    traces = np.trace([g.covariance for g in gaussians], axis1=1, axis2=2)
    kappa = np.sqrt(traces) * np.linalg.norm(inv_ts, axis=(1, 2))
    scale = ACCEPT_MARGIN_FACTOR * means.shape[1] * np.finfo(float).eps
    return means, inv_ts, logdets, logw, scale * kappa.reshape(len(classifiers), -1).max(axis=1)


def stack_with_density(model: GaussianModel, classifier: GenerativeClassifier) -> tuple:
    """``classifier``'s Gaussians with ``model`` scored ahead of them, then its
    1 x K negative log-weights, for ``density_posteriors``."""
    gaussians = [model, classifier.positive, *classifier.negative.components]
    return (*_stack_gaussians(gaussians), _log_weights(classifier.negative.weights)[None])


# -- fitting -------------------------------------------------------------------


def fit_gaussian(samples) -> GaussianModel:
    """Maximum-likelihood Gaussian with a small isotropic regularizer."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise RecoveryForgeError(f"expected an N x d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise RecoveryForgeError("samples contain non-finite entries")
    n, d = x.shape
    if n < d + 1:
        raise RecoveryForgeError(f"need at least d+1={d + 1} samples, got {n}")
    mean = x.mean(axis=0)
    diff = x - mean
    cov = diff.T @ diff / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return GaussianModel(mean, cov + _regularization(cov) * np.eye(d))


def _quad_forms(means: np.ndarray, inv_ts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """K x N squared norms |L_k^-1 (x_n - mu_k)|^2, the one Gaussian kernel.

    The residuals form one (K, N, d) stack, whitened as y = r inv(L^T) = L^-1 r
    by one batched ``matmul`` with the (K, d, d) inverse factors. That runs the
    same BLAS product on each Gaussian's slice as a stack of one, and each
    squared norm is summed over the contiguous d axis, so every row equals
    scoring that Gaussian alone on the same N points.
    """
    if pts.shape[1] != means.shape[1]:
        raise RecoveryForgeError(f"x has dim {pts.shape[1]}, model has {means.shape[1]}")
    y = (pts[None] - means[:, None, :]) @ inv_ts
    y *= y
    return y.sum(axis=2)


def _stacked_logpdfs(
    means: np.ndarray, inv_ts: np.ndarray, logdets: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """K x N matrix of log N(x_n | mu_k, L_k L_k^T) from ``_quad_forms``."""
    return _logpdfs(means.shape[1], logdets, _quad_forms(means, inv_ts, pts))


def _logpdfs(d: int, logdets: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """The one log-density formula, -(d log 2 pi + log det + q) / 2, of each
    Gaussian's log-determinant and its row of the K x N quadratic forms."""
    return -0.5 * (d * LOG_2PI + logdets[:, None] + quad)


def gaussian_logpdf(model: GaussianModel, x) -> float | np.ndarray:
    """Multivariate normal log-density; accepts a vector or an N x d matrix."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = arr[None, :] if single else arr
    out = _stacked_logpdfs(*model._stacked, pts)[0]
    return float(out[0]) if single else out


def gaussian_sample(model: GaussianModel, n: int, seed) -> np.ndarray:
    """Deterministic draws from the model given a seed (or Generator)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(n), model.dim))
    return model.mean + z @ np.linalg.cholesky(model.covariance).T


def sample_neighborhood(model: GaussianModel, scale: float, n: int, seed) -> np.ndarray:
    """Draws from N(mean, scale * covariance); widens the support for exploration."""
    if scale < 1.0:
        raise RecoveryForgeError(f"covariance scale must be >= 1, got {scale}")
    widened = GaussianModel(model.mean, model.covariance * float(scale))
    return gaussian_sample(widened, n, seed)


def _joint_logpdfs(stack: tuple, pts: np.ndarray) -> np.ndarray:
    """C-contiguous N x K matrix of log(w_k) + log N(x_n | mu_k, Sigma_k) of a
    ``GmmModel._stacked`` stack. The layout matters: ``fit_gmm`` sums the
    responsibilities over axis 0, and an F-ordered matrix would add them in
    another order."""
    means, inv_ts, logdets, logw = stack
    return np.ascontiguousarray((logw[:, None] + _stacked_logpdfs(means, inv_ts, logdets, pts)).T)


def gmm_logpdf(model: GmmModel, x) -> float | np.ndarray:
    """Log-density of the mixture via log-sum-exp over components."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = arr[None, :] if single else arr
    out = logsumexp(_joint_logpdfs(model._stacked, pts), axis=1)
    return float(out[0]) if single else out


def _kmeans_pp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding: spread the initial means across the data."""
    centers = [x[rng.integers(len(x))]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((x - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0.0:
            centers.append(x[rng.integers(len(x))])
            continue
        centers.append(x[rng.choice(len(x), p=d2 / total)])
    return np.asarray(centers)


def fit_gmm(
    samples,
    n_components: int,
    max_iter: int = 200,
    seed=0,
) -> GmmModel:
    """EM fit. The log-likelihood trace is stored on the returned model.

    EM stops at the first E-step whose summed log-likelihood is within
    ``EM_TOL * N`` of the one before: ``converged`` is then True, and False,
    with a logged warning, when ``max_iter`` E-steps ran without that. Neither
    the trace nor the flag is saved with the model.

    Components that collapse (near-zero responsibility mass) are re-seeded from
    a random sample with weight 1/K (then all weights renormalised); three
    re-seeds of the same fit raise RecoveryForgeError.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise RecoveryForgeError(f"expected an N x d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise RecoveryForgeError("samples contain non-finite entries")
    n, d = x.shape
    if n < n_components:
        raise RecoveryForgeError(f"{n} samples cannot support {n_components} components")

    rng = np.random.default_rng(seed)
    means = _kmeans_pp_centers(x, n_components, rng)
    base_cov = np.cov(x, rowvar=False).reshape(d, d)
    base_cov = 0.5 * (base_cov + base_cov.T) + _regularization(np.atleast_2d(base_cov)) * np.eye(d)
    covs = np.array([base_cov.copy() for _ in range(n_components)])
    weights = np.full(n_components, 1.0 / n_components)

    trace: list[float] = []
    converged = False
    reseeds = 0
    prev_ll = -np.inf
    for _ in range(max_iter):
        # One stacked factorisation and inversion per E-step, each factor
        # equal to a GaussianModel's own.
        joint = _joint_logpdfs((means, *_factors(covs), _log_weights(weights)), x)
        point_ll = logsumexp(joint, axis=1)
        ll = float(point_ll.sum())
        trace.append(ll)
        if abs(ll - prev_ll) < EM_TOL * n:
            converged = True
            break
        prev_ll = ll

        resp = np.exp(joint - point_ll[:, None])
        mass = resp.sum(axis=0)
        empty = np.flatnonzero(mass < 1e-6)
        if empty.size:
            reseeds += len(empty)
            if reseeds >= 3:
                raise RecoveryForgeError(
                    f"{reseeds} component re-seeds; data cannot support {n_components} components"
                )
            for k in empty:
                means[k] = x[rng.integers(n)]
                covs[k] = base_cov.copy()
            weights[empty] = 1.0 / n_components
            weights = weights / weights.sum()
            prev_ll = -np.inf  # re-seed restarts the monotone segment
            continue

        # One stacked M-step: each component's slice of the matmuls runs the
        # same gemv/gemm, with the same transpose flags, as a step on that
        # component alone, so every value equals a per-component loop's.
        weights = mass / mass.sum()
        w = np.ascontiguousarray((resp / mass).T)
        means = (w[:, None, :] @ x)[:, 0, :]
        diff = x - means[:, None, :]
        covs = (diff * w[:, :, None]).transpose(0, 2, 1) @ diff
        covs = 0.5 * (covs + covs.transpose(0, 2, 1))
        _floor_eigenvalues(covs)

    fitted = GmmModel(weights, [GaussianModel(means[k], covs[k]) for k in range(n_components)])
    fitted.loglik_trace = trace
    fitted.converged = converged
    if not converged:
        LOGGER.warning(
            "EM on %d x %d samples, K=%d, stopped at max_iter=%d before the mean "
            "log-likelihood per sample settled within %g", n, d, n_components, max_iter, EM_TOL)
    return fitted


def stacked_posteriors(stack: tuple, pts: np.ndarray) -> np.ndarray:
    """P x N positive-class posteriors of the rows of ``pts`` under a
    ``stack_classifiers`` stack, computed in log space.

    One ``_stacked_logpdfs`` call scores all P x (1 + K) Gaussians (each row
    bit-identical to scoring that Gaussian alone), then ``_log_odds`` and one
    ``expit`` serve every classifier, adding the same terms in the same order
    as a stack of one. So a posterior does not depend on the other classifiers
    in the stack. It can depend on N in the last bits: BLAS multiplies one row by another
    routine (gemv) than several (gemm), and a gemm may block rows by their
    number. (With OpenBLAS 0.3.31 on an x86-64 host, calls of 2 to 1000 rows
    gave each row the same bits, and one-row calls differed at d = 7 and 9.)
    ``stacked_accepts`` gives each row the decision of scoring it alone, and
    calls this function on a row alone wherever its error margin leaves the
    decision in doubt.
    """
    means, inv_ts, logdets, logw = stack[:4]
    p, k = logw.shape
    logs = _stacked_logpdfs(means, inv_ts, logdets, pts).reshape(p, 1 + k, -1)
    return expit(_log_odds(stack, logs))


def density_posteriors(stack: tuple, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log-density under the leading Gaussian of a ``stack_with_density``
    stack and the classifier's positive-class posterior, for each row of
    ``pts``.

    One ``_stacked_logpdfs`` call scores all 2 + K Gaussians, each row equal to
    scoring that Gaussian alone, so the pair equals ``gaussian_logpdf`` of the
    model and ``classify`` of the classifier on the same matrix.
    """
    logs = _stacked_logpdfs(*stack[:3], pts)
    return logs[0], expit(_log_odds(stack, logs[None, 1:]))[0]


def stacked_accepts(stack: tuple, pts: np.ndarray) -> np.ndarray:
    """P x N accept decisions (posterior >= ``DECISION_THRESHOLD``) of the rows
    of ``pts`` under a ``stack_classifiers`` stack, each equal to that of
    ``stacked_posteriors`` of the row alone.

    A floating-point filter, as in robust geometric predicates (Shewchuk,
    "Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
    Predicates", DCG 1997): ``_filtered_log_odds`` scores every row at once
    and bounds its error. A log-odds outside its margin decides by its sign.
    A row with any log-odds inside (NaN, infinite or overflowing rows among
    them) is re-scored alone by ``stacked_posteriors``, the contract's own
    definition. Both run under ``np.errstate``: the NaN, infinite and
    overflowing rows' invalid values and overflows are how they reach the
    fallback, so they raise no warning.

    The bound, per row and Gaussian. The two paths differ only by the
    kernel's BLAS path: one row is whitened by gemv, several by gemm, whose
    sums may run in other orders. Let y = L^-1 r, q = |y|^2 and u the machine
    epsilon. With X the inverse factor (``_factors``: X L = I + F), each
    path's y' - y = F y + e, |e| <= d u |X| |L| |y|, and
    || |X| |L| |y| || <= kappa_F |y|. The paths share F y, so their q differ
    by at most 8 d u kappa_F q to first order (kappa_F >= sqrt(d) >= 1), each
    log-density by half that, and the log-odds by at most 8 d u kappa_F max q
    (ln, a log-sum-exp, is 1-Lipschitz in the max norm): inside the margin's
    c d u kappa_F max q / 2 = 32 d u kappa_F max q. The rest of each path
    rounds a few times, each by a few u times |lp|, |ln| or 1, inside the
    margin's c d u kappa_F (|lp| + |ln| + 1) >= 64 u (|lp| + |ln| + 1).

    Outside the margin, then, the one-row log-odds x has the fast sign, and
    |x| is at least the part of the margin's floor c d u kappa_F >= 1.4e-14
    that the error leaves, far above 1e-15. x >= 1e-15 puts exp(-x) at least
    4.5 u below 1, and x <= -1e-15 at least 4.5 u above it. An ``exp`` within
    2 ulp keeps it on that side (numpy's was within 1 ulp of libm's on 4
    million inputs near 0 and in [-50, 50]), so 1 + exp(-x) is at most 2:
    accepted, or at least 2 + 2u: rejected. Only log-odds in (-1e-15, 1e-15)
    could need the sigmoid, and the margin holds them all.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        log_odds, margin = _filtered_log_odds(stack, pts)
        accept = log_odds > 0.0
        for n in np.flatnonzero(~(np.abs(log_odds) > margin).all(axis=0)):
            accept[:, n] = stacked_posteriors(stack, pts[n : n + 1])[:, 0] >= DECISION_THRESHOLD
    return accept


def _filtered_log_odds(stack: tuple, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P x N positive-class log-odds lp - ln, formed as ``stacked_posteriors``
    forms them, and their error margins c d u kappa_F (max q / 2 + |lp| + |ln|
    + 1), for ``stacked_accepts``: one ``_quad_forms`` call, whose q the
    margin keeps."""
    means, inv_ts, logdets, _, scale = stack
    p = scale.size
    quad = _quad_forms(means, inv_ts, pts)
    lp, ln = _class_logpdfs(stack, _logpdfs(means.shape[1], logdets, quad).reshape(p, -1, len(pts)))
    half_q = 0.5 * quad.reshape(p, -1, len(pts)).max(axis=1)
    return lp - ln, scale[:, None] * (half_q + np.abs(lp) + np.abs(ln) + 1.0)


def _log_odds(stack: tuple, logs: np.ndarray) -> np.ndarray:
    """P x N positive-class log-odds lp - ln from the (P, 1 + K, N) Gaussian
    log-densities."""
    lp, ln = _class_logpdfs(stack, logs)
    return lp - ln


def _class_logpdfs(stack: tuple, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The P x N class log-densities lp, of each positive Gaussian, and ln,
    each negative mixture's log-sum-exp with the stack's log-weights, from the
    (P, 1 + K, N) Gaussian log-densities."""
    return logs[:, 0], logsumexp(stack[3][:, :, None] + logs[:, 1:], axis=1)


def classify(classifier: GenerativeClassifier, x) -> float | np.ndarray:
    """Posterior probability of the positive class (``stacked_posteriors`` of a
    one-classifier stack). Accept decisions go through ``stacked_accepts``
    (``PreconditionSet.accepting`` stacks a chain's preconditions)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = arr[None, :] if single else arr
    out = stacked_posteriors(classifier._stacked, pts)[0]
    return float(out[0]) if single else out
