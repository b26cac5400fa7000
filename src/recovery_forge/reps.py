"""Episodic relative-entropy policy search over a Gaussian search distribution.

Used as the oracle that turns a single failure start state into recovery action
parameters: sample parameter vectors, weight them by a softmax whose temperature
is chosen so the re-weighting stays within a KL budget of uniform, and refit the
Gaussian to the weighted samples. The temperature solves KL = budget by
safeguarded Newton steps in log temperature; the KL's slope there is minus a
weighted variance from the KL's own ``exp`` pass, so no second pass is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleFailureError, RecoveryForgeError

COV_FLOOR = 1e-6
ETA_MIN = 1e-8
ETA_MAX = 1e8
_LOG_ETA_MIN, _LOG_ETA_MAX = math.log(ETA_MIN), math.log(ETA_MAX)

MAX_REJECTIONS = 100


@dataclass
class SearchPolicy:
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise RecoveryForgeError("covariance shape does not match mean")


@dataclass(frozen=True)
class RepsConfig:
    epsilon: float = 0.5
    n_updates: int = 10
    n_samples_per_update: int = 40
    init_covariance_scale: float = 0.25


@dataclass(frozen=True)
class RepsUpdateStats:
    update: int
    mean_reward: float
    best_reward: float
    eta: float
    kl: float


def _kl_and_spread(shifted: np.ndarray, eta: float, log_n: float) -> tuple[float, float]:
    """KL(w || uniform) of the weights ``w`` proportional to exp(x), x =
    ``shifted`` / eta, and Var_w(x), its derivative's negative in log eta,
    from one ``exp`` pass: KL = log n + E_w[x] - log sum exp(x)."""
    x = shifted / eta
    e = np.exp(x)
    z = float(np.add.reduce(e))
    ex = e * x
    mean = float(np.add.reduce(ex)) / z
    return log_n + mean - math.log(z), float(np.add.reduce(ex * x)) / z - mean * mean


def solve_dual(rewards, epsilon: float) -> tuple[float, np.ndarray]:
    """Temperature and sample weights for one KL-constrained update.

    Minimizes the episodic dual g(eta) = eta*eps + eta*log(mean exp(s/eta)) +
    max R, s = R - max R, over [``ETA_MIN``, ``ETA_MAX``], and returns the
    weights e / sum(e), e = exp(s / eta*), from one ``exp`` pass. g is convex
    with g'(eta) = eps - KL(w_eta || uniform), and the KL falls from
    log(n / #ties at max R) towards 0 as eta grows. So if
    eps >= log(n / #ties), the budget cannot bind and eta* is
    ``ETA_MIN`` exactly. Otherwise eta* solves KL = eps, by safeguarded Newton
    steps in u = log eta on log KL - log eps, nearly linear in u where the KL
    is small. d KL / du = -Var_w(s / eta), so ``_kl_and_spread``'s one ``exp``
    pass gives value and slope, with no second-derivative pass. The start is
    u0 = log(sd(s) / sqrt(2 eps)), the small-KL approximation, clipped into
    the bracket [lo, hi]. Each step's sign moves one end of it; a step that
    would leave it is replaced by bisection. The search stops when a step
    (tested first, then taken) or the bracket is at most 1e-10 in log eta; a
    root beyond an end of the bracket returns that end.
    """
    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise RecoveryForgeError(f"need at least 2 rewards, got {r.size}")
    shifted = r - r.max()
    # NaN or -inf for a non-finite reward, or a range that overflows at ETA_MIN.
    if not math.isfinite(float(shifted.min()) / ETA_MIN):
        raise RecoveryForgeError("rewards contain non-finite values or a range beyond float64 at ETA_MIN")
    if not epsilon > 0.0:
        raise RecoveryForgeError(f"KL budget must be > 0, got {epsilon}")
    log_n = math.log(r.size)
    eta = ETA_MIN
    if epsilon < log_n - math.log(np.count_nonzero(shifted == 0.0)):
        lo, hi = _LOG_ETA_MIN, _LOG_ETA_MAX
        u = min(max(math.log(float(shifted.std()) / math.sqrt(2.0 * epsilon)), lo), hi)
        while True:
            kl, spread = _kl_and_spread(shifted, math.exp(u), log_n)
            step = (  # with no slope to follow, an infinite step bisects towards the root
                math.log(kl / epsilon) * kl / spread if kl > 0.0 and spread > 0.0
                else math.copysign(math.inf, kl - epsilon)
            )
            lo, hi = (u, hi) if step > 0.0 else (lo, u)
            if abs(step) <= 1e-10:
                u = min(max(u + step, lo), hi)
                break
            if hi - lo <= 1e-10:
                break
            u = u + step if lo < u + step < hi else 0.5 * (lo + hi)
        eta = ETA_MAX if u == _LOG_ETA_MAX else ETA_MIN if u == _LOG_ETA_MIN else math.exp(u)

    e = np.exp(shifted / eta)
    return eta, e / e.sum()


def kl_to_uniform(weights: np.ndarray) -> float:
    w = np.asarray(weights, dtype=float)
    nz = w[w > 0.0]
    return float(np.sum(nz * np.log(nz * w.size)))


def update_policy(policy: SearchPolicy, samples, weights) -> SearchPolicy:
    """Weighted maximum-likelihood Gaussian refit with a covariance floor."""
    x = np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 2 or x.shape[1] != policy.mean.size:
        raise RecoveryForgeError(f"samples shape {x.shape} does not match policy dim")
    if w.shape != (x.shape[0],):
        raise RecoveryForgeError("one weight per sample required")
    mean = w @ x
    diff = x - mean
    cov = (diff * w[:, None]).T @ diff
    cov = 0.5 * (cov + cov.T) + COV_FLOOR * np.eye(policy.mean.size)
    return SearchPolicy(mean, cov)


def _sample_box(
    policy: SearchPolicy, n: int, rng: np.random.Generator, bounds: np.ndarray
) -> np.ndarray:
    """``n`` draws from the policy, each rejection-sampled into the box ``bounds``.

    Attempts ``mean + chol @ z`` are taken in stream order: one inside the box
    is the next sample, and after ``MAX_REJECTIONS`` rejections in a row the
    next attempt is clipped to the box and is the next sample. Each pass draws
    one block of attempts, one per sample still needed, so no pass outlasts
    the samples it needs and the generator stands after exactly the attempts
    taken.
    """
    chol = np.linalg.cholesky(policy.covariance)
    d = policy.mean.size
    lo, hi = bounds[:, 0], bounds[:, 1]
    out = np.empty((n, d))
    i = rejected = 0
    while i < n:
        # One mat-vec per row, the product ``chol @ z`` of a single draw.
        cand = policy.mean + (chol @ rng.standard_normal((n - i, d))[:, :, None])[:, :, 0]
        inside = ((cand >= lo) & (cand <= hi)).all(axis=1).tolist()
        taken = []
        for j, ok in enumerate(inside):
            if ok or rejected == MAX_REJECTIONS:
                if not ok:
                    cand[j] = np.clip(cand[j], lo, hi)
                taken.append(j)
                rejected = 0
            else:
                rejected += 1
        out[i : i + len(taken)] = cand[taken]
        i += len(taken)
    return out


def reps_optimize(
    reward_fn,
    init: SearchPolicy,
    config: RepsConfig,
    seed,
    bounds,
) -> tuple[np.ndarray, float, list[RepsUpdateStats]]:
    """Run the sample/weight/refit loop; returns the best parameters ever seen.

    ``reward_fn`` scores one update's samples in one call: it takes the
    ``(n, d)`` matrix of parameter vectors and returns ``n`` rewards, the i-th
    for row i. Every sample is drawn into the box ``bounds``, one (low, high)
    row per parameter.
    """
    rng = np.random.default_rng(seed)
    box = np.asarray(bounds, dtype=float)
    policy = init
    best_theta, best_reward = None, -np.inf
    trace: list[RepsUpdateStats] = []
    for update in range(config.n_updates):
        thetas = _sample_box(policy, config.n_samples_per_update, rng, box)
        try:
            rewards = np.asarray(reward_fn(thetas), dtype=float)
        except Exception as exc:
            raise OracleFailureError(f"reward function failed: {exc}", theta=thetas) from exc
        if rewards.shape != (len(thetas),):
            raise RecoveryForgeError(
                f"reward function returned shape {rewards.shape} for {len(thetas)} samples"
            )
        top = int(np.argmax(rewards))
        if rewards[top] > best_reward:
            best_theta, best_reward = thetas[top].copy(), float(rewards[top])
        eta, weights = solve_dual(rewards, config.epsilon)
        if update + 1 < config.n_updates:  # the last refit would never be sampled
            policy = update_policy(policy, thetas, weights)
        trace.append(
            RepsUpdateStats(
                update=update,
                mean_reward=float(rewards.mean()),
                best_reward=best_reward,
                eta=eta,
                kl=kl_to_uniform(weights),
            )
        )
    return best_theta, best_reward, trace
