"""Training-budget allocation across recovery skills.

Round-robin is the baseline. The upper-confidence-limit strategy keeps a short
window of each recovery's success-rate history, bounds its rate of improvement
with a one-sided Student-t limit, and trains whichever recovery would raise the
expected failure-state value the most if that optimistic improvement came true.
Its fixed settings are module constants, not config fields: the confidence
``UCL_ALPHA``, the window ``UCL_WINDOW``, the round-robin passes
``INIT_ROUNDS`` before selection starts, and ``UCL_T``, the one t quantile
these imply. ``AllocatorConfig`` holds the one value a run sets, its budget:
the number of selection rounds, each of which trains one episode.

``RecoveryGraph`` owns the failure value and computes it in closed form. On
its chain models, nominal edges form an acyclic chain into the goal and
recovery edges only leave failure modes, so the safe-state values ``V_j``
follow the backward recurrence ``V_i = -c_i + V_{i+1}`` (``V_goal = 0``)
and do not depend on the recovery rates q. Each failure mode is then worth its
best recovery, ``max_j (q_ij * V_j + (1 - q_ij) * (-c_fail))``, and the
failure value is the size-weighted mean over modes. A round's few dozen
numbers are Python floats, and every sum is ``math.fsum``, correctly rounded,
so no order of the modes changes a value. The allocation loop, the value-UCL
selection and the learned recovery policy all read these values from the
graph.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RecoveryForgeError

# Value-UCL's fixed settings. No run varies them, so they are not config
# fields; an ``AllocatorState`` artifact stores them under its config keys
# ``alpha``, ``w`` and ``K``, and the loader rejects any other value.
UCL_ALPHA = 0.95  # one-sided confidence of the improvement bound
UCL_WINDOW = 3  # success estimates a recovery's queue keeps
INIT_ROUNDS = 2  # round-robin passes before value-UCL selection starts
# The Student-t quantile at p = (1 + UCL_ALPHA) / 2 and df 1 (published:
# 12.706) in closed form: the df-1 t is the Cauchy distribution, whose
# quantile is tan(pi (p - 1/2)) = tan(pi UCL_ALPHA / 2).
UCL_T = math.tan(math.pi * UCL_ALPHA / 2)


def compute_ucl(queue: deque[float], current_q: float) -> float:
    """Optimistic success rate after one more training round.

    Forward differences of the queue estimate the rate of improvement; the
    one-sided t bound is added on top. The queue holds 2 to ``UCL_WINDOW`` = 3
    estimates, so there are n = 1 or 2 differences. Two give df = n - 1 = 1;
    a single difference gets s = 0 and df 1 as well (the t quantile is
    undefined at zero degrees of freedom). So the bound always reads the df-1
    quantile ``UCL_T``. The improvement is floored at zero and the result
    capped at 1.
    """
    if not 2 <= len(queue) <= UCL_WINDOW:
        raise RecoveryForgeError(f"need 2 to {UCL_WINDOW} queue entries, got {len(queue)}")
    values = list(queue)
    diffs = [b - a for a, b in zip(values, values[1:])]
    n = len(diffs)
    mean = math.fsum(diffs) / n
    s = math.sqrt(math.fsum([(d - mean) * (d - mean) for d in diffs]) / (n - 1)) if n >= 2 else 0.0
    delta_ucl = mean + UCL_T * s / math.sqrt(n)
    return min(current_q + max(delta_ucl, 0.0), 1.0)


# -- allocation problem ----------------------------------------------------------


@dataclass(frozen=True)
class AllocatorConfig:
    """The one value a run sets: the number of selection rounds, each of which
    trains one episode."""

    budget: int = 0


class RecoveryGraph:
    """Recovery problem on a nominal chain: n failure modes x m recovery targets.

    Target j is safe state j of the chain (the goal is the last one); recovering
    mode i to it succeeds with probability q_ij and otherwise drops into the fail
    sink. The chain is acyclic and no recovery edge leads back into a failure
    mode, so the target values do not depend on q. The failure value therefore
    has a closed form, the size-weighted mean over modes of
    ``max_j (q_ij * V_j + (1 - q_ij) * (-c_fail))``. Each recovery
    value repeats the operations of value iteration's backup of its zero-cost
    edge at discount 1, so a mode's best is its value iteration value.
    """

    def __init__(self, target_values, mode_sizes, c_fail: float):
        self.target_values = np.asarray(target_values, dtype=float)
        self.mode_sizes = np.asarray(mode_sizes, dtype=float)
        if self.target_values.size == 0 or self.mode_sizes.size == 0:
            raise RecoveryForgeError("a recovery graph needs a failure mode and a recovery target")
        if np.any(self.mode_sizes <= 0.0):
            raise RecoveryForgeError("one positive size per failure mode required")
        if c_fail <= 0.0:
            raise RecoveryForgeError(f"c_fail must be positive, got {c_fail}")
        self.c_fail = float(c_fail)
        self._targets, self._sizes = self.target_values.tolist(), self.mode_sizes.tolist()
        self._size_total = math.fsum(self._sizes)

    @classmethod
    def chain(
        cls,
        safe_costs: list[float],
        n_modes: int,
        mode_sizes,
        c_fail: float | None = None,
    ) -> "RecoveryGraph":
        """Standard shape: a nominal chain of k safe states into the goal, with
        every failure mode connected to all k preconditions plus the goal.

        Safe-state values follow the backward recurrence
        ``V_i = -c_i + V_{i+1}`` from ``V_goal = 0``.
        """
        if any(cost < 0.0 for cost in safe_costs):
            raise RecoveryForgeError(f"nominal costs must be non-negative, got {safe_costs}")
        if len(mode_sizes) != n_modes:
            raise RecoveryForgeError("one positive size per failure mode required")
        if c_fail is None:
            c_fail = 100.0 * max(safe_costs)
        values = [0.0]
        for cost in reversed(safe_costs):
            values.append(-float(cost) + values[-1])
        return cls(values[::-1], mode_sizes, c_fail)

    @property
    def n_modes(self) -> int:
        return self.mode_sizes.size

    @property
    def n_targets(self) -> int:
        return self.target_values.size

    def recovery_values(self, q) -> list[list[float]]:
        """Value ``q_ij * V_j + (1 - q_ij) * (-c_fail)`` of recovering
        mode i to target j, with q clipped to [0, 1]: one list per mode."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n_modes, self.n_targets):
            raise RecoveryForgeError(
                f"q has shape {q.shape}, the graph {self.n_modes} modes x {self.n_targets} targets"
            )
        fail, rows = -self.c_fail, []
        for row in q.tolist():
            values = []
            for p, v in zip(row, self._targets):
                p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p  # as np.clip: NaN stays NaN
                values.append(p * v + (1.0 - p) * fail)
            rows.append(values)
        return rows

    def failure_value_for(self, q) -> float:
        """Size-weighted mean over modes of each mode's best recovery value."""
        terms = [a * max(row) for a, row in zip(self._sizes, self.recovery_values(q))]
        return math.fsum(terms) / self._size_total


@dataclass
class AllocatorState:
    q: np.ndarray
    q_ucl: np.ndarray
    queues: list[list[deque[float]]]  # the last UCL_WINDOW estimates of each q
    train_counts: np.ndarray
    config: AllocatorConfig

    @classmethod
    def fresh(cls, n_modes: int, n_targets: int, config: AllocatorConfig) -> "AllocatorState":
        return cls(
            q=np.zeros((n_modes, n_targets)),
            q_ucl=np.zeros((n_modes, n_targets)),
            queues=[[deque(maxlen=UCL_WINDOW) for _ in range(n_targets)] for _ in range(n_modes)],
            train_counts=np.zeros((n_modes, n_targets), dtype=int),
            config=config,
        )


def select_value_ucl(state: AllocatorState, graph: RecoveryGraph) -> tuple[int, int]:
    """Least-trained recovery during initialization, then argmax optimistic FV.

    Candidate (i, j) is the failure value with q(i, j) swapped for its upper
    confidence limit. That swap moves only mode i's best value, so a candidate
    sums the current per-mode bests with mode i's replaced, as
    ``failure_value_for`` sums them; one that keeps mode i's best scores the
    current value. A strict ``>`` gives ties to the first candidate in flat order.
    """
    m = state.train_counts.shape[1]
    if np.min(state.train_counts) < INIT_ROUNDS:
        return divmod(int(np.argmin(state.train_counts)), m)  # argmin is lexicographic on ties
    rows = graph.recovery_values(state.q)
    optimistic = graph.recovery_values(state.q_ucl)
    bests = [max(row) for row in rows]
    terms = [a * b for a, b in zip(graph._sizes, bests)]
    current = math.fsum(terms) / graph._size_total
    choice, choice_fv = (0, 0), -math.inf
    for i, (row, best) in enumerate(zip(rows, bests)):
        first = row.index(best)
        others = max(row[:first] + row[first + 1:], default=-math.inf)
        for j, value in enumerate(optimistic[i]):
            mode_best = max(value, others if j == first else best)
            if mode_best == best:
                fv = current
            else:
                swapped = terms.copy()
                swapped[i] = graph._sizes[i] * mode_best
                fv = math.fsum(swapped) / graph._size_total
            if fv > choice_fv:
                choice, choice_fv = (i, j), fv
    return choice


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


def check_budget(strategy: str, budget: int, n: int, m: int) -> None:
    """Value-UCL's initialisation rounds fit in the budget of an n x m graph. No
    stage's graph shape depends on the seed, so each stage checks before any seed."""
    if strategy == "ucl" and budget < INIT_ROUNDS * n * m:
        raise ConfigError(f"budget {budget} cannot cover {INIT_ROUNDS} x {n * m} init rounds")


def run_allocation_loop(
    strategy: str, graph: RecoveryGraph, trainer, config: AllocatorConfig
) -> AllocationResult:
    """Shared allocation loop: ``config.budget`` rounds, one selection each.

    ``trainer(i, j, round_index)`` trains recovery (i, j) on one episode and
    returns a fresh estimate of its success rate.
    The q_best rule keeps estimates monotone, which with the monotone Bellman
    operator keeps the failure-value trace non-decreasing; that is asserted on
    every run.
    """
    if strategy not in ("rr", "ucl"):
        raise RecoveryForgeError(f"unknown strategy {strategy!r}")
    n, m = graph.n_modes, graph.n_targets
    budget = config.budget
    check_budget(strategy, budget, n, m)
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
        queue = state.queues[i][j]
        queue.append(q_best)
        state.q_ucl[i, j] = compute_ucl(queue, q_best) if len(queue) >= 2 else q_best
        state.train_counts[i, j] += 1
        fv = graph.failure_value_for(state.q)
        if fv < prev_fv - 1e-9:
            raise RecoveryForgeError(f"failure value decreased at round {r}: {prev_fv} -> {fv}")
        prev_fv = fv
        fv_trace.append(fv)
        rounds.append(RoundRecord(r, strategy, i, j, q_new, float(state.q_ucl[i, j]), fv))
    return AllocationResult(state, fv_trace, rounds)
