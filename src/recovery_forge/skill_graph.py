"""Symbolic skill graph: value iteration and policy extraction, the test oracle.

The graph is a small discrete abstraction of the task. Safe states are chained
toward an absorbing goal by nominal edges; failure modes connect back to safe
states through recovery edges whose success probabilities are learned online.
A failed recovery drops into an absorbing fail sink worth ``-c_fail``.

``value_iteration`` and ``extract_policy`` solve any such graph. No stage runs
them: the allocator works on one shape only, a nominal chain with recovery
edges from every failure mode to every safe state, and ``allocator.RecoveryGraph``
computes its values in closed form. This general solver is the reference the
tests check that closed form against; it stays in the package because the
benchmark's tracer patches it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import NonConvergenceError, RecoveryForgeError

DEFAULT_GAMMA = 0.99
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10000


class SymbolKind(str, Enum):
    SAFE = "SafeState"
    FAILURE_MODE = "FailureMode"
    GOAL = "Goal"
    FAIL_SINK = "FailSink"


class EdgeKind(str, Enum):
    NOMINAL = "Nominal"
    RECOVERY = "Recovery"


@dataclass(frozen=True)
class SymbolId:
    index: int
    kind: SymbolKind


@dataclass(frozen=True)
class SkillEdge:
    """Directed edge; ``success_prob`` is 1.0 for nominal edges, q_ij for recoveries."""

    src: int
    dst: int
    kind: EdgeKind
    cost: float
    success_prob: float = 1.0


@dataclass
class SymbolicGraph:
    symbols: list[SymbolId]
    edges: list[SkillEdge]
    c_fail: float
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        self._validate()

    def _validate(self) -> None:
        kinds = [s.kind for s in self.symbols]
        if kinds.count(SymbolKind.GOAL) != 1 or kinds.count(SymbolKind.FAIL_SINK) != 1:
            raise RecoveryForgeError("graph needs exactly one Goal and one FailSink")
        if not (0.0 < self.gamma <= 1.0):
            raise RecoveryForgeError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.c_fail <= 0.0:
            raise RecoveryForgeError(f"c_fail must be positive, got {self.c_fail}")
        indices = [s.index for s in self.symbols]
        if indices != list(range(len(self.symbols))):
            raise RecoveryForgeError("symbol indices must be 0..n-1 in order")
        for e in self.edges:
            if not (0 <= e.src < len(self.symbols) and 0 <= e.dst < len(self.symbols)):
                raise RecoveryForgeError(f"edge {e} references unknown symbol")
            if not (0.0 <= e.success_prob <= 1.0):
                raise RecoveryForgeError(f"edge {e} success_prob outside [0, 1]")
            if e.cost < 0.0:
                raise RecoveryForgeError(f"edge {e} has negative cost")
            src_kind = self.symbols[e.src].kind
            if src_kind in (SymbolKind.GOAL, SymbolKind.FAIL_SINK):
                raise RecoveryForgeError("absorbing symbols cannot have outgoing edges")
            if e.kind is EdgeKind.RECOVERY and src_kind is not SymbolKind.FAILURE_MODE:
                raise RecoveryForgeError("recovery edges must start at a failure mode")
        self._check_nominal_acyclic()

    def _check_nominal_acyclic(self) -> None:
        adj: dict[int, list[int]] = {}
        for e in self.edges:
            if e.kind is EdgeKind.NOMINAL:
                adj.setdefault(e.src, []).append(e.dst)
        state: dict[int, int] = {}  # 0 visiting, 1 done

        def visit(u: int) -> None:
            state[u] = 0
            for v in adj.get(u, []):
                if state.get(v) == 0:
                    raise RecoveryForgeError("nominal edges must form an acyclic chain")
                if v not in state:
                    visit(v)
            state[u] = 1

        for u in list(adj):
            if u not in state:
                visit(u)

    # -- convenience lookups -------------------------------------------------

    def goal_index(self) -> int:
        return next(s.index for s in self.symbols if s.kind is SymbolKind.GOAL)

    def fail_sink_index(self) -> int:
        return next(s.index for s in self.symbols if s.kind is SymbolKind.FAIL_SINK)

    def outgoing(self) -> list[list[int]]:
        """Edge indices per symbol, in edge-list order (tie-break order)."""
        out: list[list[int]] = [[] for _ in self.symbols]
        for i, e in enumerate(self.edges):
            out[e.src].append(i)
        return out

    def is_absorbing(self, index: int) -> bool:
        return self.symbols[index].kind in (SymbolKind.GOAL, SymbolKind.FAIL_SINK)

    def with_success_probs(self, probs: dict[int, float]) -> "SymbolicGraph":
        """Copy of the graph with ``edges[i].success_prob`` replaced per ``probs``."""
        edges = [
            replace(e, success_prob=float(probs[i])) if i in probs else e
            for i, e in enumerate(self.edges)
        ]
        return SymbolicGraph(list(self.symbols), edges, self.c_fail, self.gamma)


@dataclass(frozen=True)
class ValueTable:
    values: tuple[float, ...]

    def value(self, symbol: SymbolId | int) -> float:
        index = symbol.index if isinstance(symbol, SymbolId) else symbol
        return self.values[index]

    def __getitem__(self, symbol: SymbolId | int) -> float:
        return self.value(symbol)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def _backup(graph: SymbolicGraph, edge: SkillEdge, values: np.ndarray) -> float:
    q = edge.success_prob
    return -edge.cost + graph.gamma * (q * values[edge.dst] + (1.0 - q) * (-graph.c_fail))


def value_iteration(
    graph: SymbolicGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ValueTable:
    """Solve the graph by synchronous Bellman sweeps.

    Fixed boundary values: V(goal) = 0 and V(fail sink) = -c_fail. Every other
    symbol takes the max over its outgoing edges of
    ``-cost + gamma * (q * V(to) + (1 - q) * (-c_fail))``.
    """
    if tol <= 0.0:
        raise RecoveryForgeError(f"tol must be positive, got {tol}")
    n = len(graph.symbols)
    out = graph.outgoing()
    goal, sink = graph.goal_index(), graph.fail_sink_index()
    interior = [i for i in range(n) if i not in (goal, sink)]
    for i in interior:
        if not out[i]:
            raise RecoveryForgeError(f"non-absorbing symbol {i} has no outgoing edge")

    values = np.zeros(n)
    values[goal] = 0.0
    values[sink] = -graph.c_fail
    residual = np.inf
    for _ in range(max_iter):
        new = values.copy()
        for i in interior:
            new[i] = max(_backup(graph, graph.edges[ei], values) for ei in out[i])
        residual = float(np.max(np.abs(new - values)))
        values = new
        if residual <= tol:
            return ValueTable(tuple(float(v) for v in values))
    raise NonConvergenceError(
        f"value iteration residual {residual:.3e} > tol {tol:.3e} after {max_iter} sweeps",
        residual=residual,
    )


def extract_policy(graph: SymbolicGraph, values: ValueTable) -> dict[SymbolId, SkillEdge]:
    """Greedy edge per non-absorbing symbol; ties go to the lowest edge index."""
    out = graph.outgoing()
    arr = values.as_array()
    policy: dict[SymbolId, SkillEdge] = {}
    for symbol in graph.symbols:
        if graph.is_absorbing(symbol.index):
            continue
        if not out[symbol.index]:
            raise RecoveryForgeError(f"non-absorbing symbol {symbol.index} has no outgoing edge")
        best_edge, best_val = None, -np.inf
        for ei in out[symbol.index]:
            val = _backup(graph, graph.edges[ei], arr)
            if val > best_val:
                best_edge, best_val = graph.edges[ei], val
        policy[symbol] = best_edge
    return policy
