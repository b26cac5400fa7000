"""Skill graph tests, including a brute-force policy-enumeration oracle, and the
closed-form recovery and failure values ``RecoveryGraph`` computes on the
chain shape, whose backups the general solver must reproduce."""

import itertools

import numpy as np
import pytest

from recovery_forge.allocator import RecoveryGraph
from recovery_forge.errors import NonConvergenceError, RecoveryForgeError
from recovery_forge.skill_graph import (
    EdgeKind,
    SkillEdge,
    SymbolicGraph,
    SymbolId,
    SymbolKind,
    extract_policy,
    value_iteration,
)


def chain_graph(costs, gamma=1.0, c_fail=10.0):
    """start -> s1 -> ... -> goal plus a fail sink, all nominal edges."""
    k = len(costs)
    symbols = [SymbolId(i, SymbolKind.SAFE) for i in range(k)]
    symbols.append(SymbolId(k, SymbolKind.GOAL))
    symbols.append(SymbolId(k + 1, SymbolKind.FAIL_SINK))
    edges = [SkillEdge(i, i + 1, EdgeKind.NOMINAL, costs[i]) for i in range(k)]
    return SymbolicGraph(symbols, edges, c_fail=c_fail, gamma=gamma)


def policy_enumeration_values(graph):
    """Oracle: enumerate every deterministic symbol->edge policy, solve each
    policy's linear value equations, and take the elementwise max."""
    n = len(graph.symbols)
    out = graph.outgoing()
    goal, sink = graph.goal_index(), graph.fail_sink_index()
    interior = [i for i in range(n) if i not in (goal, sink)]
    fixed = {goal: 0.0, sink: -graph.c_fail}

    best = np.full(n, -np.inf)
    best[goal], best[sink] = 0.0, -graph.c_fail
    for choice in itertools.product(*(out[i] for i in interior)):
        a = np.eye(len(interior))
        b = np.zeros(len(interior))
        pos = {s: r for r, s in enumerate(interior)}
        for row, ei in enumerate(choice):
            e = graph.edges[ei]
            q = e.success_prob
            b[row] = -e.cost - graph.gamma * (1.0 - q) * graph.c_fail
            if e.dst in fixed:
                b[row] += graph.gamma * q * fixed[e.dst]
            else:
                a[row, pos[e.dst]] -= graph.gamma * q
        v = np.linalg.solve(a, b)
        for row, s in enumerate(interior):
            best[s] = max(best[s], v[row])
    return best


def random_graph(rng, max_symbols=8):
    """Random valid graph: a nominal chain plus failure modes with recovery edges."""
    n_safe = int(rng.integers(1, 4))
    n_modes = int(rng.integers(1, max(2, max_symbols - n_safe - 1)))
    symbols = [SymbolId(i, SymbolKind.SAFE) for i in range(n_safe)]
    goal = SymbolId(n_safe, SymbolKind.GOAL)
    sink = SymbolId(n_safe + 1, SymbolKind.FAIL_SINK)
    symbols += [goal, sink]
    mode_start = len(symbols)
    symbols += [SymbolId(mode_start + i, SymbolKind.FAILURE_MODE) for i in range(n_modes)]

    edges = []
    for i in range(n_safe):
        # chain edge plus optional skip edge further along the chain
        edges.append(SkillEdge(i, i + 1, EdgeKind.NOMINAL, float(rng.uniform(0.1, 2.0))))
        if i + 2 <= n_safe and rng.random() < 0.4:
            edges.append(SkillEdge(i, i + 2, EdgeKind.NOMINAL, float(rng.uniform(0.1, 3.0))))
    targets = list(range(n_safe)) + [goal.index]
    for m in range(n_modes):
        for t in rng.choice(targets, size=int(rng.integers(1, 4))):
            edges.append(
                SkillEdge(
                    mode_start + m,
                    int(t),
                    EdgeKind.RECOVERY,
                    cost=float(rng.uniform(0.0, 1.0)),
                    success_prob=float(rng.uniform(0.0, 1.0)),
                )
            )
    return SymbolicGraph(symbols, edges, c_fail=float(rng.uniform(5.0, 30.0)), gamma=0.95)


# -- value iteration ---------------------------------------------------------


def test_deterministic_chain_values_add_costs():
    graph = chain_graph([1.0, 1.0], gamma=1.0, c_fail=10.0)
    table = value_iteration(graph)
    assert table[2] == pytest.approx(0.0)
    assert table[1] == pytest.approx(-1.0)
    assert table[0] == pytest.approx(-2.0)


def test_failure_mode_with_zero_success_is_worth_minus_c_fail():
    symbols = [
        SymbolId(0, SymbolKind.SAFE),
        SymbolId(1, SymbolKind.GOAL),
        SymbolId(2, SymbolKind.FAIL_SINK),
        SymbolId(3, SymbolKind.FAILURE_MODE),
    ]
    edges = [
        SkillEdge(0, 1, EdgeKind.NOMINAL, 1.0),
        SkillEdge(3, 0, EdgeKind.RECOVERY, 0.0, success_prob=0.0),
        SkillEdge(3, 1, EdgeKind.RECOVERY, 0.0, success_prob=0.0),
    ]
    graph = SymbolicGraph(symbols, edges, c_fail=10.0, gamma=1.0)
    table = value_iteration(graph)
    assert table[3] == pytest.approx(-10.0)


def test_value_iteration_matches_policy_enumeration_oracle():
    rng = np.random.default_rng(7)
    for _ in range(120):
        graph = random_graph(rng)
        table = value_iteration(graph, tol=1e-12)
        oracle = policy_enumeration_values(graph)
        np.testing.assert_allclose(table.as_array(), oracle, atol=1e-6)


def test_value_iteration_rejects_dangling_symbol():
    symbols = [
        SymbolId(0, SymbolKind.SAFE),
        SymbolId(1, SymbolKind.GOAL),
        SymbolId(2, SymbolKind.FAIL_SINK),
        SymbolId(3, SymbolKind.FAILURE_MODE),
    ]
    edges = [SkillEdge(0, 1, EdgeKind.NOMINAL, 1.0)]
    graph = SymbolicGraph(symbols, edges, c_fail=10.0)
    with pytest.raises(RecoveryForgeError, match="non-absorbing symbol 3 has no outgoing edge"):
        value_iteration(graph)


def test_value_iteration_reports_non_convergence():
    graph = chain_graph([1.0, 1.0, 1.0], gamma=1.0)
    with pytest.raises(NonConvergenceError) as err:
        value_iteration(graph, tol=1e-12, max_iter=1)
    assert err.value.residual is not None and err.value.residual > 1e-12


def test_contraction_for_discounted_graphs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        graph = random_graph(rng)
        n = len(graph.symbols)
        out = graph.outgoing()
        goal, sink = graph.goal_index(), graph.fail_sink_index()
        interior = [i for i in range(n) if i not in (goal, sink)]
        values = np.zeros(n)
        values[sink] = -graph.c_fail
        prev_resid = None
        for _ in range(30):
            new = values.copy()
            for i in interior:
                new[i] = max(
                    -graph.edges[ei].cost
                    + graph.gamma
                    * (
                        graph.edges[ei].success_prob * values[graph.edges[ei].dst]
                        + (1 - graph.edges[ei].success_prob) * (-graph.c_fail)
                    )
                    for ei in out[i]
                )
            resid = float(np.max(np.abs(new - values)))
            if prev_resid is not None:
                assert resid <= graph.gamma * prev_resid + 1e-12
            prev_resid = resid
            values = new


# -- failure mode / failure value on RecoveryGraph ----------------------------


def recovery_values(q_row, safe_values, c_fail):
    """One failure mode's recovery values on a graph with targets ``safe_values``."""
    graph = RecoveryGraph(safe_values, [1.0], c_fail=c_fail)
    return np.asarray(graph.recovery_values(np.asarray(q_row, dtype=float)[None])[0])


def failure_value(mode_values, cluster_sizes):
    """The failure value of a graph whose mode i recovers with certainty to a
    target worth ``mode_values[i]``; every other target is worth less."""
    v = np.asarray(mode_values, dtype=float)
    graph = RecoveryGraph(v, cluster_sizes, c_fail=1.0 + np.abs(v).sum())
    return graph.failure_value_for(np.eye(v.size))


def test_failure_mode_value_examples():
    # A failure mode's value is the max over its row of recovery values.
    def mode_value(q_row, safe_values):
        return recovery_values(q_row, safe_values, 10.0).max()

    assert mode_value([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == pytest.approx(-10.0)
    assert mode_value([0.5], [-2.0]) == pytest.approx(-6.0)
    assert mode_value([1.0, 0.2], [-3.0, 0.0]) == pytest.approx(-3.0)


def test_failure_mode_value_errors():
    with pytest.raises(RecoveryForgeError, match=r"q has shape \(1, 2\), the graph 1 modes"):
        recovery_values([0.5, 0.5], [-1.0], 10.0)
    with pytest.raises(RecoveryForgeError, match="needs a failure mode and a recovery target"):
        recovery_values([], [], 10.0)


def test_failure_mode_value_monotone_in_q():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        c_fail = float(rng.uniform(1.0, 20.0))
        v = rng.uniform(-c_fail, 5.0, size=m)  # safe_values + c_fail >= 0
        q = rng.uniform(0.0, 1.0, size=m)
        j = int(rng.integers(0, m))
        bumped = q.copy()
        bumped[j] = min(1.0, q[j] + rng.uniform(0.0, 0.5))
        before = recovery_values(q, v, c_fail).max()
        assert recovery_values(bumped, v, c_fail).max() >= before - 1e-12


def test_failure_value_weighted_mean():
    assert failure_value([-10.0, -2.0], [1.0, 3.0]) == pytest.approx(-4.0)
    assert failure_value([-3.7], [42.0]) == pytest.approx(-3.7)
    with pytest.raises(RecoveryForgeError, match=r"q has shape \(1, 1\), the graph 2 modes"):
        failure_value([-1.0], [1.0, 2.0])
    with pytest.raises(RecoveryForgeError, match="needs a failure mode and a recovery target"):
        failure_value([], [])


def test_failure_value_all_zero_q_composes_to_minus_c_fail():
    c_fail = 13.0
    graph = RecoveryGraph([-1.0, -2.0], [1.0, 2.0, 5.0], c_fail)
    assert graph.failure_value_for(np.zeros((3, 2))) == pytest.approx(-c_fail)


def test_failure_value_bounds():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m, t = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c_fail = float(rng.uniform(1.0, 20.0))
        v = rng.uniform(-c_fail, 3.0, size=t)
        q = rng.uniform(0, 1, size=(m, t))
        fv = RecoveryGraph(v, rng.uniform(0.5, 4.0, size=m), c_fail).failure_value_for(q)
        assert -c_fail - 1e-9 <= fv <= max(v) + 1e-9


# -- policy extraction --------------------------------------------------------


def test_policy_prefers_higher_value_target():
    symbols = [
        SymbolId(0, SymbolKind.SAFE),
        SymbolId(1, SymbolKind.SAFE),
        SymbolId(2, SymbolKind.GOAL),
        SymbolId(3, SymbolKind.FAIL_SINK),
        SymbolId(4, SymbolKind.FAILURE_MODE),
    ]
    edges = [
        SkillEdge(0, 2, EdgeKind.NOMINAL, 5.0),
        SkillEdge(1, 2, EdgeKind.NOMINAL, 1.0),
        SkillEdge(4, 0, EdgeKind.RECOVERY, 0.0, success_prob=0.9),
        SkillEdge(4, 1, EdgeKind.RECOVERY, 0.0, success_prob=0.9),
    ]
    graph = SymbolicGraph(symbols, edges, c_fail=10.0, gamma=1.0)
    table = value_iteration(graph)
    assert table[0] == pytest.approx(-5.0)
    assert table[1] == pytest.approx(-1.0)
    policy = extract_policy(graph, table)
    assert policy[symbols[4]].dst == 1  # recover to the higher-value safe state


def test_policy_tie_breaks_to_lowest_edge_index():
    symbols = [
        SymbolId(0, SymbolKind.SAFE),
        SymbolId(1, SymbolKind.SAFE),
        SymbolId(2, SymbolKind.GOAL),
        SymbolId(3, SymbolKind.FAIL_SINK),
        SymbolId(4, SymbolKind.FAILURE_MODE),
    ]
    edges = [
        SkillEdge(0, 2, EdgeKind.NOMINAL, 1.0),
        SkillEdge(1, 2, EdgeKind.NOMINAL, 1.0),
        SkillEdge(4, 0, EdgeKind.RECOVERY, 0.0, success_prob=0.5),
        SkillEdge(4, 1, EdgeKind.RECOVERY, 0.0, success_prob=0.5),
    ]
    graph = SymbolicGraph(symbols, edges, c_fail=10.0, gamma=1.0)
    table = value_iteration(graph)
    for _ in range(5):
        policy = extract_policy(graph, table)
        assert policy[symbols[4]] is edges[2]


def test_policy_matches_oracle_greedy_choice():
    rng = np.random.default_rng(19)
    for _ in range(60):
        graph = random_graph(rng)
        table = value_iteration(graph, tol=1e-12)
        oracle = policy_enumeration_values(graph)
        policy = extract_policy(graph, table)
        for symbol, edge in policy.items():
            # chosen edge must attain the Bellman optimum at that symbol
            q = edge.success_prob
            backed = -edge.cost + graph.gamma * (
                q * oracle[edge.dst] + (1 - q) * (-graph.c_fail)
            )
            assert backed == pytest.approx(oracle[symbol.index], abs=1e-5)


# -- structure and serialization ----------------------------------------------


def test_graph_rejects_bad_structure():
    goal = SymbolId(0, SymbolKind.GOAL)
    sink = SymbolId(1, SymbolKind.FAIL_SINK)
    with pytest.raises(RecoveryForgeError, match="exactly one Goal and one FailSink"):
        SymbolicGraph([goal], [], c_fail=10.0)  # no sink
    with pytest.raises(RecoveryForgeError, match="absorbing symbols cannot have outgoing edges"):
        SymbolicGraph([goal, sink], [SkillEdge(0, 1, EdgeKind.NOMINAL, 1.0)], c_fail=10.0)
    safe = SymbolId(0, SymbolKind.SAFE)
    with pytest.raises(RecoveryForgeError, match="recovery edges must start at a failure mode"):
        SymbolicGraph(
            [safe, SymbolId(1, SymbolKind.GOAL), SymbolId(2, SymbolKind.FAIL_SINK)],
            [SkillEdge(0, 1, EdgeKind.RECOVERY, 1.0, 0.5)],
            c_fail=10.0,
        )
    with pytest.raises(RecoveryForgeError, match="nominal edges must form an acyclic chain"):
        SymbolicGraph(
            [
                SymbolId(0, SymbolKind.SAFE),
                SymbolId(1, SymbolKind.SAFE),
                SymbolId(2, SymbolKind.GOAL),
                SymbolId(3, SymbolKind.FAIL_SINK),
            ],
            [
                SkillEdge(0, 1, EdgeKind.NOMINAL, 1.0),
                SkillEdge(1, 0, EdgeKind.NOMINAL, 1.0),
            ],
            c_fail=10.0,
        )
