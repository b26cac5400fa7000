"""Training-budget allocation across recovery skills.

Round-robin is the baseline. The upper-confidence-limit strategy keeps a short
window of each recovery's success-rate history, bounds its rate of improvement
with a one-sided Student-t limit, and trains whichever recovery would raise the
expected failure-state value the most if that optimistic improvement came true.

``RecoveryGraph`` owns the failure value and computes it in closed form. On
its chain models, nominal edges form an acyclic chain into the goal and
recovery edges only leave failure modes, so the safe-state values ``V_j``
follow the backward recurrence ``V_i = -c_i + gamma * V_{i+1}``
(``V_goal = 0``) and do not depend on the recovery rates q. Each failure mode
is then worth its best recovery,
``max_j gamma * (q_ij * V_j + (1 - q_ij) * (-c_fail))``, and the failure value
is the size-weighted mean over modes. That is the fixed point value iteration
reaches on the same graph; the tests check the two agree exactly, with
``skill_graph``'s general solver as the oracle. The allocation loop, the
value-UCL selection and the learned recovery policy all read these values
from the graph, and ``AllocatorConfig.budget`` is the one budget a run spends.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RecoveryForgeError

# -- student-t quantile ----------------------------------------------------------


def _t_cdf(x: float, df: int) -> float:
    """Student-t CDF for integer df, in closed form (Abramowitz & Stegun
    26.7.3-4).

    The two-sided tail P(|T| > |x|) is summed from the angle
    ``phi = atan(sqrt(df) / |x|)``, with s = sin(phi) and c = cos(phi): odd df
    gives ``2/pi * (phi - s c (1 + 2/3 s^2 + 2*4/(3*5) s^4 + ...))`` with
    (df - 1) // 2 terms in the sum, even df ``1 - c (1 + 1/2 s^2 +
    1*3/(2*4) s^4 + ...)`` with df // 2. It is not taken as ``1 - A(x | df)``:
    near p = 1 that difference rounds to another double, and the bisection in
    ``t_quantile`` can then stop one step away from the same bisection on
    scipy's incomplete-beta CDF.
    """
    if x == 0.0:
        return 0.5
    phi = math.atan(math.sqrt(df) / abs(x))
    s = math.sin(phi)
    c = math.cos(phi)
    s2 = s * s
    term = total = 1.0
    if df % 2:
        for k in range(1, (df - 1) // 2):
            term *= s2 * (2 * k) / (2 * k + 1)
            total += term
        both_tails = 2.0 * phi / math.pi if df == 1 else 2.0 / math.pi * (phi - s * c * total)
    else:
        for k in range(1, df // 2):
            term *= s2 * (2 * k - 1) / (2 * k)
            total += term
        both_tails = 1.0 - c * total
    tail = 0.5 * both_tails
    return 1.0 - tail if x > 0.0 else tail


@lru_cache(maxsize=256)  # a run asks for one p and df <= window - 2
def t_quantile(p: float, df: int) -> float:
    """Inverse Student-t CDF by bisection on the closed-form ``_t_cdf``
    (|err| <= 1e-8), equal to the same bisection on scipy's incomplete-beta
    CDF. Memoised per (p, df); invalid arguments raise on every call.
    """
    if not (0.0 < p < 1.0):
        raise RecoveryForgeError(f"p must be in (0, 1), got {p}")
    if int(df) != df or df < 1:
        raise RecoveryForgeError(f"df must be a positive integer, got {df}")
    df = int(df)
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while _t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e15:
            break
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if _t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- UCL bookkeeping -----------------------------------------------------------


class UclQueue:
    """Bounded FIFO of success estimates; insertion evicts the oldest."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise RecoveryForgeError("UCL queue needs capacity >= 2")
        self._values: deque[float] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self._values.maxlen

    @property
    def values(self) -> list[float]:
        return list(self._values)

    def insert(self, value: float) -> None:
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)


def compute_ucl(queue: UclQueue, current_q: float, alpha: float) -> float:
    """Optimistic success rate after one more training round.

    Forward differences of the queue estimate the rate of improvement; the
    one-sided t bound is added on top. A single difference gets s = 0 (the t
    quantile is undefined at zero degrees of freedom). The improvement is
    floored at zero and the result capped at 1.
    """
    values = queue.values
    if len(values) < 2:
        raise RecoveryForgeError(f"need >= 2 queue entries, got {len(values)}")
    diffs = np.diff(np.asarray(values, dtype=float))
    n = diffs.size
    s = float(np.std(diffs, ddof=1)) if n >= 2 else 0.0
    t = t_quantile((1.0 + alpha) / 2.0, max(n - 1, 1))
    delta_ucl = float(diffs.mean()) + t * s / np.sqrt(n)
    return min(current_q + max(delta_ucl, 0.0), 1.0)


# -- allocation problem ----------------------------------------------------------


@dataclass(frozen=True)
class AllocatorConfig:
    alpha: float = 0.95
    window: int = 3
    init_rounds: int = 2  # round-robin passes before UCL selection kicks in
    episodes_per_selection: int = 1
    budget: int = 0


class RecoveryGraph:
    """Recovery problem on a nominal chain: n failure modes x m recovery targets.

    Target j is safe state j of the chain (the goal is the last one); recovering
    mode i to it succeeds with probability q_ij and otherwise drops into the fail
    sink. The chain is acyclic and no recovery edge leads back into a failure
    mode, so the target values do not depend on q. The failure value therefore
    has a closed form, the size-weighted mean over modes of
    ``max_j gamma * (q_ij * V_j + (1 - q_ij) * (-c_fail))``, which is what value
    iteration converges to on the same graph, bit for bit.
    """

    def __init__(self, target_values, mode_sizes, c_fail: float, gamma: float):
        self.target_values = np.asarray(target_values, dtype=float)
        self.mode_sizes = np.asarray(mode_sizes, dtype=float)
        if self.target_values.size == 0 or self.mode_sizes.size == 0:
            raise RecoveryForgeError("a recovery graph needs a failure mode and a recovery target")
        if np.any(self.mode_sizes <= 0.0):
            raise RecoveryForgeError("one positive size per failure mode required")
        if not (0.0 < gamma <= 1.0):
            raise RecoveryForgeError(f"gamma must be in (0, 1], got {gamma}")
        if c_fail <= 0.0:
            raise RecoveryForgeError(f"c_fail must be positive, got {c_fail}")
        self.c_fail = float(c_fail)
        self.gamma = float(gamma)

    @classmethod
    def chain(
        cls,
        safe_costs: list[float],
        n_modes: int,
        mode_sizes,
        c_fail: float | None = None,
        gamma: float = 1.0,
    ) -> "RecoveryGraph":
        """Standard shape: a nominal chain of k safe states into the goal, with
        every failure mode connected to all k preconditions plus the goal.

        Safe-state values follow the backward recurrence
        ``V_i = -c_i + gamma * V_{i+1}`` from ``V_goal = 0``.
        """
        if any(cost < 0.0 for cost in safe_costs):
            raise RecoveryForgeError(f"nominal costs must be non-negative, got {safe_costs}")
        if len(mode_sizes) != n_modes:
            raise RecoveryForgeError("one positive size per failure mode required")
        if c_fail is None:
            c_fail = 100.0 * max(safe_costs)
        values = [0.0]
        for cost in reversed(safe_costs):
            values.append(-float(cost) + gamma * values[-1])
        return cls(values[::-1], mode_sizes, c_fail, gamma)

    @property
    def n_modes(self) -> int:
        return self.mode_sizes.size

    @property
    def n_targets(self) -> int:
        return self.target_values.size

    def recovery_values(self, q) -> np.ndarray:
        """Value ``gamma * (q_ij * V_j + (1 - q_ij) * (-c_fail))`` of recovering
        mode i to target j, with q clipped to [0, 1].

        The last two axes of ``q`` are (modes, targets); leading axes are kept.
        The terms are taken in the order value iteration's backup takes them,
        so each entry equals that backup of the zero-cost recovery edge bit for
        bit. A failure mode's value is the max over its row.
        """
        q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        if q.shape[-2:] != (self.n_modes, self.n_targets):
            raise RecoveryForgeError(
                f"q has shape {q.shape}, the graph {self.n_modes} modes x {self.n_targets} targets"
            )
        v = self.target_values
        return self.gamma * (q * v + (1.0 - q) * (-self.c_fail))

    def failure_values(self, q) -> np.ndarray:
        """Size-weighted mean over modes of each mode's best recovery value,
        one per leading index of ``q``."""
        a = self.mode_sizes
        return np.sum(a * self.recovery_values(q).max(axis=-1), axis=-1) / np.sum(a)

    def failure_value_for(self, q) -> float:
        return float(self.failure_values(q))


@dataclass
class AllocatorState:
    q: np.ndarray
    q_ucl: np.ndarray
    queues: list[list[UclQueue]]
    train_counts: np.ndarray
    round: int
    config: AllocatorConfig

    @classmethod
    def fresh(cls, n_modes: int, n_targets: int, config: AllocatorConfig) -> "AllocatorState":
        return cls(
            q=np.zeros((n_modes, n_targets)),
            q_ucl=np.zeros((n_modes, n_targets)),
            queues=[[UclQueue(config.window) for _ in range(n_targets)] for _ in range(n_modes)],
            train_counts=np.zeros((n_modes, n_targets), dtype=int),
            round=0,
            config=config,
        )


def select_value_ucl(state: AllocatorState, graph: RecoveryGraph) -> tuple[int, int]:
    """Least-trained recovery during initialization, then argmax optimistic FV.

    Candidate k = i * m + j is the failure value with q(i, j) swapped for its
    upper confidence limit. All n * m candidates are scored by one
    ``failure_values`` call on an (n * m, n, m) stack, whose values equal one
    ``failure_value_for`` call per candidate; ``argmax`` gives ties to the
    lowest k.
    """
    n, m = state.train_counts.shape
    if np.min(state.train_counts) < state.config.init_rounds:
        flat = int(np.argmin(state.train_counts))  # argmin is lexicographic on ties
        return divmod(flat, m)
    k = np.arange(n * m)
    stack = np.repeat(state.q[None], n * m, axis=0)
    stack[k, k // m, k % m] = state.q_ucl.ravel()
    return divmod(int(np.argmax(graph.failure_values(stack))), m)


@dataclass
class RoundRecord:
    round: int
    strategy: str
    i: int
    j: int
    q_new: float
    q_ucl: float
    fv: float


@dataclass
class AllocationResult:
    state: AllocatorState
    fv_trace: list[float]
    rounds: list[RoundRecord]


def run_allocation_loop(
    strategy: str, graph: RecoveryGraph, trainer, config: AllocatorConfig
) -> AllocationResult:
    """Shared allocation loop: ``config.budget`` rounds, one selection each.

    ``trainer(i, j, round_index)`` performs one selection's worth of training
    (eta episodes) and returns a fresh success-rate estimate for recovery (i, j).
    The q_best rule keeps estimates monotone, which with the monotone Bellman
    operator keeps the failure-value trace non-decreasing; that is asserted on
    every run.
    """
    if strategy not in ("rr", "ucl"):
        raise RecoveryForgeError(f"unknown strategy {strategy!r}")
    n, m = graph.n_modes, graph.n_targets
    budget = config.budget
    if strategy == "ucl" and budget < config.init_rounds * n * m:
        raise RecoveryForgeError(
            f"budget {budget} cannot cover {config.init_rounds} x {n * m} init rounds"
        )
    state = AllocatorState.fresh(n, m, config)
    fv_trace: list[float] = []
    rounds: list[RoundRecord] = []
    prev_fv = -np.inf
    for r in range(budget):
        if strategy == "rr":
            i, j = divmod(r % (n * m), m)
        else:
            i, j = select_value_ucl(state, graph)
        q_new = float(trainer(i, j, r))
        q_best = max(q_new, float(state.q[i, j]))
        state.q[i, j] = q_best
        state.queues[i][j].insert(q_best)
        if len(state.queues[i][j]) >= 2:
            state.q_ucl[i, j] = compute_ucl(state.queues[i][j], q_best, config.alpha)
        else:
            state.q_ucl[i, j] = q_best
        state.train_counts[i, j] += 1
        state.round = r + 1
        fv = graph.failure_value_for(state.q)
        if fv < prev_fv - 1e-9:
            raise RecoveryForgeError(f"failure value decreased at round {r}: {prev_fv} -> {fv}")
        prev_fv = fv
        fv_trace.append(fv)
        rounds.append(
            RoundRecord(r, strategy, i, j, q_new, float(state.q_ucl[i, j]), fv)
        )
    return AllocationResult(state, fv_trace, rounds)
