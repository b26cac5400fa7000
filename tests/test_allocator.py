"""Allocator tests: the fixed t quantile, UCL arithmetic, selection, and the
loop, with a numpy copy of the allocator as the exact oracle of its float
arithmetic."""

import math
import re
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from recovery_forge.allocator import (
    INIT_ROUNDS,
    UCL_ALPHA,
    UCL_T,
    UCL_WINDOW,
    AllocatorConfig,
    AllocatorState,
    RecoveryGraph,
    RoundRecord,
    compute_ucl,
    run_allocation_loop,
    select_value_ucl,
)
from recovery_forge.errors import RecoveryForgeError
from recovery_forge.harness_cli import (
    SYNTH_NOISE,
    SyntheticTrainer,
    _learned_policy_map,
    stage_seeds,
    synthetic_task_set,
)
from recovery_forge.skill_graph import (
    EdgeKind,
    SkillEdge,
    SymbolicGraph,
    SymbolId,
    SymbolKind,
    extract_policy,
    value_iteration,
)


# -- the t quantile -------------------------------------------------------------


def test_ucl_t_is_the_quantile_of_every_df_a_queue_can_give():
    # A queue of UCL_WINDOW estimates gives n = 1 .. UCL_WINDOW - 1 differences,
    # and compute_ucl's bound reads the quantile at df = max(n - 1, 1).
    dfs = {max(n - 1, 1) for n in range(1, UCL_WINDOW)}
    p = (1.0 + UCL_ALPHA) / 2.0
    for df in dfs:
        # scipy's inverse t CDF, and its CDF at UCL_T, to rounding
        assert UCL_T == pytest.approx(special.stdtrit(df, p), rel=1e-15, abs=0.0), df
        assert special.stdtr(df, UCL_T) == pytest.approx(p, rel=1e-15, abs=0.0), df
    assert UCL_T == math.tan(0.475 * math.pi) == pytest.approx(12.706, abs=1e-3)


# -- compute_ucl ----------------------------------------------------------------


def _queue(values):
    q = deque(maxlen=UCL_WINDOW)
    q.extend(values)
    return q


def test_ucl_zero_variance_diffs_add_mean_exactly():
    assert compute_ucl(_queue([0.2, 0.3, 0.4]), 0.4) == pytest.approx(0.5)


def test_ucl_plateau_keeps_current_estimate():
    assert compute_ucl(_queue([0.5, 0.5]), 0.5) == pytest.approx(0.5)


def test_ucl_single_wide_interval_caps_at_one():
    # diffs [0.3, 0.1]: mean 0.2, s ~ 0.1414, t(0.975, 1) = 12.706 -> far above 1
    assert compute_ucl(_queue([0.1, 0.4, 0.5]), 0.5) == pytest.approx(1.0)


def test_ucl_two_diffs_add_the_t_bound():
    # diffs [0.05, 0.02]: mean 0.035, s = 0.03 / sqrt(2); the bound is below 1
    diffs = np.array([0.05, 0.02])
    expected = 0.17 + diffs.mean() + UCL_T * np.std(diffs, ddof=1) / np.sqrt(2)
    assert compute_ucl(_queue([0.1, 0.15, 0.17]), 0.17) == pytest.approx(expected, abs=1e-12)
    assert expected < 1.0


def test_ucl_negative_trend_is_floored():
    assert compute_ucl(_queue([0.5, 0.4, 0.3]), 0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("values", [[0.5], [0.1, 0.2, 0.3, 0.4]])
def test_ucl_requires_two_to_window_entries(values):
    # A longer queue would give df > 1, which UCL_T does not cover.
    wrong = f"need 2 to {UCL_WINDOW} queue entries, got {len(values)}"
    with pytest.raises(RecoveryForgeError, match=wrong):
        compute_ucl(deque(values), 0.5)


def test_queue_evicts_oldest():
    state = AllocatorState.fresh(2, 3, AllocatorConfig())
    for queue in (queue for row in state.queues for queue in row):
        queue.extend([0.1, 0.2, 0.3, 0.4])
        assert list(queue) == [0.2, 0.3, 0.4]


# -- optimistic failure value ------------------------------------------------------


def optimistic_failure_value(state, graph, i, j):
    """Failure value with q(i, j) swapped for its upper confidence limit: one
    candidate of the value-UCL selection, scored alone."""
    q = state.q.copy()
    q[i, j] = state.q_ucl[i, j]
    return graph.failure_value_for(q)


def loop_select_value_ucl(state, graph):
    """Value-UCL selection as one ``optimistic_failure_value`` per candidate;
    the strict ``>`` gives ties to the lowest flat index."""
    n, m = state.q.shape
    best, best_fv = (0, 0), -np.inf
    for i in range(n):
        for j in range(m):
            fv = optimistic_failure_value(state, graph, i, j)
            if fv > best_fv:
                best, best_fv = (i, j), fv
    return best


def two_mode_two_target_graph():
    """Hand example: two safe targets worth -1 and -3, two modes of size 1."""
    return RecoveryGraph([-1.0, -3.0], [1.0, 1.0], c_fail=10.0)


def test_optimistic_fv_hand_example():
    rgraph = two_mode_two_target_graph()
    state = AllocatorState.fresh(2, 2, AllocatorConfig())
    state.q_ucl[0, 0] = 0.5
    assert optimistic_failure_value(state, rgraph, 0, 0) == pytest.approx(-7.75)


def test_optimistic_fv_equals_current_when_ucl_equals_q():
    rgraph = RecoveryGraph.chain([1.0, 0.5], 3, [2.0, 1.0, 1.0], c_fail=10.0)
    rng = np.random.default_rng(0)
    state = AllocatorState.fresh(3, 3, AllocatorConfig())
    state.q = rng.uniform(0, 1, size=(3, 3))
    state.q_ucl = state.q.copy()
    current = rgraph.failure_value_for(state.q)
    for i in range(3):
        for j in range(3):
            assert optimistic_failure_value(state, rgraph, i, j) == pytest.approx(current)


def test_optimistic_fv_never_below_current():
    rgraph = RecoveryGraph.chain([1.0, 0.5], 2, [1.0, 1.0], c_fail=10.0)
    rng = np.random.default_rng(4)
    for _ in range(25):
        state = AllocatorState.fresh(2, 3, AllocatorConfig())
        state.q = rng.uniform(0, 1, size=(2, 3))
        state.q_ucl = np.minimum(1.0, state.q + rng.uniform(0, 0.5, size=(2, 3)))
        current = rgraph.failure_value_for(state.q)
        for i in range(2):
            for j in range(3):
                assert optimistic_failure_value(state, rgraph, i, j) >= current - 1e-9


# -- selection ----------------------------------------------------------------------


def test_fresh_state_selects_first_recovery():
    rgraph = RecoveryGraph.chain([1.0], 2, [1.0, 1.0])
    state = AllocatorState.fresh(2, 2, AllocatorConfig())
    assert select_value_ucl(state, rgraph) == (0, 0)


def test_selection_prefers_improving_skill_after_init():
    rgraph = two_mode_two_target_graph()
    state = AllocatorState.fresh(2, 2, AllocatorConfig())
    state.train_counts[:] = INIT_ROUNDS
    state.q[:] = 0.1
    state.q_ucl[:] = 0.1  # plateaus everywhere ...
    state.q_ucl[1, 0] = 0.6  # ... except one promising recovery
    assert select_value_ucl(state, rgraph) == (1, 0)


def test_selection_equals_the_per_candidate_loop_exactly():
    # quantised rates make exact ties between candidates, all-zero rates make
    # every candidate but the optimistic ones equal, and q_ucl = q ties them all
    rng = np.random.default_rng(41)
    kinds = ("random", "quantised", "zero", "ucl_is_q")
    for trial in range(800):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 10))
        costs = list(rng.uniform(0.0, 2.0, size=k))
        sizes = rng.uniform(0.5, 400.0, size=n)
        rgraph = RecoveryGraph.chain(costs, n, sizes, c_fail=float(rng.uniform(1, 50)))
        state = AllocatorState.fresh(n, k + 1, AllocatorConfig())
        state.train_counts[:] = INIT_ROUNDS
        kind = kinds[trial % 4]
        state.q = rng.uniform(0.0, 1.0, size=(n, k + 1))
        state.q_ucl = np.minimum(1.0, state.q + rng.uniform(0.0, 0.5, size=(n, k + 1)))
        if kind == "quantised":
            state.q = np.round(state.q * 4) / 4
            state.q_ucl = np.round(state.q_ucl * 4) / 4
        elif kind == "zero":
            state.q[:] = 0.0
        elif kind == "ucl_is_q":
            state.q_ucl = state.q.copy()
        assert select_value_ucl(state, rgraph) == loop_select_value_ucl(state, rgraph), trial


def test_values_need_one_row_per_mode_and_one_column_per_target():
    rgraph = RecoveryGraph.chain([1.0, 0.5], 3, [2.0, 1.0, 5.0], c_fail=10.0)
    for shape in ((3,), (3, 2), (3, 4), (2, 3), (4, 3, 4), (3, 3, 1)):
        wrong = re.escape(f"q has shape {shape}, the graph 3 modes x 3 targets")
        with pytest.raises(RecoveryForgeError, match=wrong):
            rgraph.recovery_values(np.zeros(shape))
        with pytest.raises(RecoveryForgeError, match=wrong):
            rgraph.failure_value_for(np.zeros(shape))


def test_selection_tie_breaks_lexicographically():
    rgraph = two_mode_two_target_graph()
    state = AllocatorState.fresh(2, 2, AllocatorConfig())
    state.train_counts[:] = INIT_ROUNDS
    assert select_value_ucl(state, rgraph) == (0, 0)


# -- allocation loop ------------------------------------------------------------------


class CurveTrainer:
    """Latent saturating learning curves; the loop sees noiseless estimates."""

    def __init__(self, q_max, tau):
        self.q_max = np.asarray(q_max, dtype=float)
        self.tau = np.asarray(tau, dtype=float)
        self.t = np.zeros_like(self.q_max, dtype=int)

    def __call__(self, i, j, round_index):
        self.t[i, j] += 1
        return self.q_max[i, j] * (1.0 - np.exp(-self.t[i, j] / self.tau[i, j]))


def test_round_robin_trains_everything_equally():
    rgraph = RecoveryGraph.chain([1.0, 0.5], 2, [1.0, 1.0], c_fail=10.0)
    trainer = CurveTrainer(np.full((2, 3), 0.5), np.full((2, 3), 3.0))
    result = run_allocation_loop("rr", rgraph, trainer, AllocatorConfig(budget=2 * 3 * 4))
    np.testing.assert_array_equal(result.state.train_counts, np.full((2, 3), 4))
    # the state records the budget the loop spent
    assert result.state.config.budget == len(result.rounds) == 24


def test_fv_trace_is_monotone():
    rgraph = RecoveryGraph.chain([1.0, 0.5], 2, [1.0, 2.0], c_fail=10.0)
    rng = np.random.default_rng(8)
    trainer = CurveTrainer(rng.uniform(0, 1, (2, 3)), rng.uniform(1, 6, (2, 3)))
    for strategy in ("rr", "ucl"):
        result = run_allocation_loop(strategy, rgraph, trainer, AllocatorConfig(budget=30))
        trace = np.asarray(result.fv_trace)
        assert np.all(np.diff(trace) >= -1e-9)


def test_ucl_init_phase_is_round_robin_order():
    rgraph = RecoveryGraph.chain([1.0], 2, [1.0, 1.0], c_fail=10.0)
    trainer = CurveTrainer(np.full((2, 2), 0.3), np.full((2, 2), 2.0))
    config = AllocatorConfig(budget=INIT_ROUNDS * 4)
    result = run_allocation_loop("ucl", rgraph, trainer, config)
    order = [(rec.i, rec.j) for rec in result.rounds]
    assert order == [(0, 0), (0, 1), (1, 0), (1, 1)] * INIT_ROUNDS


def test_ucl_concentrates_on_the_dominant_curve():
    # while the dominant curve is still improving, it should absorb most of the
    # post-init budget; a 60-round run keeps the post-init phase inside that window
    rgraph = RecoveryGraph.chain([1.0, 0.5, 0.25], 5, np.full(5, 1.0), c_fail=10.0)
    q_max = np.full((5, 4), 0.05)
    q_max[2, 1] = 0.9
    trainer = CurveTrainer(q_max, np.full((5, 4), 3.0))
    budget = 60
    config = AllocatorConfig(budget=budget)
    result = run_allocation_loop("ucl", rgraph, trainer, config)
    post_init = budget - INIT_ROUNDS * 20
    extra = result.state.train_counts - INIT_ROUNDS
    assert extra[2, 1] >= 0.6 * post_init


def test_ucl_top3_concentration_over_a_long_run():
    rgraph = RecoveryGraph.chain([1.0, 0.5, 0.25], 5, np.full(5, 1.0), c_fail=10.0)
    rng = np.random.default_rng(13)
    q_max = rng.uniform(0.0, 0.2, size=(5, 4))
    for i in range(5):
        q_max[i, rng.integers(0, 4)] = rng.uniform(0.55, 0.9)
    trainer = CurveTrainer(q_max, rng.uniform(2, 10, size=(5, 4)))
    budget = 100
    config = AllocatorConfig(budget=budget)
    result = run_allocation_loop("ucl", rgraph, trainer, config)
    post_init = budget - INIT_ROUNDS * 20
    extra = result.state.train_counts - INIT_ROUNDS
    top3 = np.sort(extra.ravel())[-3:].sum()
    assert top3 >= 0.5 * post_init
    rr = run_allocation_loop("rr", rgraph, CurveTrainer(q_max, np.full((5, 4), 3.0)), config)
    assert np.ptp(rr.state.train_counts) <= 1  # round-robin stays uniform


def test_allocation_is_reproducible():
    rgraph = RecoveryGraph.chain([1.0, 0.5], 2, [1.0, 1.0], c_fail=10.0)

    def make_trainer():
        rng = np.random.default_rng(17)
        base = CurveTrainer(rng.uniform(0, 1, (2, 3)), rng.uniform(1, 5, (2, 3)))
        noise = np.random.default_rng(99)

        def train(i, j, r):
            return float(np.clip(base(i, j, r) + noise.uniform(-0.02, 0.02), 0, 1))

        return train

    a = run_allocation_loop("ucl", rgraph, make_trainer(), AllocatorConfig(budget=24))
    b = run_allocation_loop("ucl", rgraph, make_trainer(), AllocatorConfig(budget=24))
    assert a.fv_trace == b.fv_trace
    assert [(r.i, r.j) for r in a.rounds] == [(r.i, r.j) for r in b.rounds]


def test_ucl_budget_must_cover_init():
    rgraph = RecoveryGraph.chain([1.0], 3, [1.0, 1.0, 1.0], c_fail=10.0)
    trainer = CurveTrainer(np.full((3, 2), 0.5), np.full((3, 2), 2.0))
    with pytest.raises(RecoveryForgeError, match="budget 5 cannot cover 2 x 6 init rounds"):
        run_allocation_loop("ucl", rgraph, trainer, AllocatorConfig(budget=5))


def test_failure_mode_band_holds_on_recovery_graphs():
    # with zero-cost recovery edges and no discount, every failure-mode value sits
    # between -c_fail and the best safe-state value
    rng = np.random.default_rng(21)

    for _ in range(20):
        rgraph = RecoveryGraph.chain([1.0, 0.5], 3, [1.0, 1.0, 2.0], c_fail=15.0)
        q = rng.uniform(0, 1, size=(3, 3))
        mode_values = np.max(rgraph.recovery_values(q), axis=1)
        safe_best = max(rgraph.target_values)
        for value in mode_values:
            assert -15.0 - 1e-9 <= value <= safe_best + 1e-9


# -- closed form against the general solver -----------------------------------------


def general_chain_graph(safe_costs, n_modes, c_fail):
    """The chain as a general ``SymbolicGraph``: k safe states, goal, fail sink,
    then the failure modes, each with a zero-cost recovery edge to every safe
    state and the goal, undiscounted as the recovery graph is. Returns the
    graph, the mode symbol indices and the recovery edge index of every
    (mode, target) pair."""
    k = len(safe_costs)
    symbols = [SymbolId(i, SymbolKind.SAFE) for i in range(k)]
    symbols.append(SymbolId(k, SymbolKind.GOAL))
    symbols.append(SymbolId(k + 1, SymbolKind.FAIL_SINK))
    modes = [k + 2 + i for i in range(n_modes)]
    symbols += [SymbolId(idx, SymbolKind.FAILURE_MODE) for idx in modes]
    edges = [SkillEdge(i, i + 1, EdgeKind.NOMINAL, float(safe_costs[i])) for i in range(k)]
    edge_index = {}
    for i, mode in enumerate(modes):
        for j in range(k + 1):
            edge_index[(i, j)] = len(edges)
            edges.append(SkillEdge(mode, j, EdgeKind.RECOVERY, 0.0, 0.0))
    return SymbolicGraph(symbols, edges, c_fail=c_fail, gamma=1.0), modes, edge_index


def test_closed_form_matches_value_iteration_exactly():
    # The recovery graph has no discount, so the general solver runs at gamma 1.
    # Exact ties come from rows of zero rates (every target is worth -c_fail)
    # and from a zero-cost last skill, whose precondition is then worth exactly
    # as much as the goal; ties must go to the lowest target.
    rng = np.random.default_rng(31)
    for trial in range(150):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 8))
        costs = list(rng.uniform(0.05, 2.0, size=k))
        c_fail = float(rng.uniform(1.0, 50.0))
        sizes = rng.uniform(0.5, 400.0, size=n)
        q = rng.uniform(0.0, 1.0, size=(n, k + 1))
        q[rng.uniform(size=q.shape) < 0.3] = 0.0
        if trial % 4 == 0:
            q[0] = 0.0
        if trial % 4 == 1:
            costs[-1] = 0.0
            q[:, -1] = q[:, -2]
        rgraph = RecoveryGraph.chain(costs, n, sizes, c_fail=c_fail)
        graph, modes, edge_index = general_chain_graph(costs, n, c_fail)
        solved = graph.with_success_probs(
            {edge: float(q[i, j]) for (i, j), edge in edge_index.items()}
        )
        table = value_iteration(solved)
        mode_values = np.asarray([table[idx] for idx in modes])
        expected = math.fsum(sizes * mode_values) / math.fsum(sizes)
        assert rgraph.failure_value_for(q) == expected
        policy = extract_policy(solved, table)
        best = _learned_policy_map(rgraph, SimpleNamespace(q=q))
        assert best == {i: policy[solved.symbols[idx]].dst for i, idx in enumerate(modes)}
        if trial % 4 == 0:
            assert best[0] == 0


# -- the numpy allocator, frozen as the oracle --------------------------------------
#
# The allocator once ran its arithmetic on numpy arrays: one stacked
# ``failure_values`` call scored all candidates, ``compute_ucl`` used
# ``np.diff`` and ``np.std``, and the synthetic trainer counted in a numpy array.
# These copies keep that shape and sum each failure value with ``math.fsum``,
# as the allocator does. The float code must give the same values bit for bit,
# so they are compared with it under ``==`` (and by ``repr``, which also tells
# -0.0 from 0.0 and a float from an ``np.float64``).


def reference_recovery_values(graph, q):
    q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
    return q * graph.target_values + (1.0 - q) * (-graph.c_fail)


def reference_failure_values(graph, q):
    """Size-weighted mean over modes of each mode's best recovery value, one per
    leading index of ``q``."""
    a = graph.mode_sizes
    weighted = a * reference_recovery_values(graph, q).max(axis=-1)
    sums = np.array([math.fsum(row) for row in weighted.reshape(-1, a.size)])
    return sums.reshape(weighted.shape[:-1]) / math.fsum(a)


def reference_compute_ucl(queue, current_q):
    diffs = np.diff(np.asarray(queue, dtype=float))
    n = diffs.size
    s = float(np.std(diffs, ddof=1)) if n >= 2 else 0.0
    delta_ucl = float(diffs.mean()) + UCL_T * s / np.sqrt(n)
    return min(current_q + max(delta_ucl, 0.0), 1.0)


def reference_select_value_ucl(state, graph):
    """All n * m candidates scored by one call on an (n * m, n, m) stack."""
    n, m = state.train_counts.shape
    if np.min(state.train_counts) < INIT_ROUNDS:
        return divmod(int(np.argmin(state.train_counts)), m)
    k = np.arange(n * m)
    stack = np.repeat(state.q[None], n * m, axis=0)
    stack[k, k // m, k % m] = state.q_ucl.ravel()
    return divmod(int(np.argmax(reference_failure_values(graph, stack))), m)


def reference_allocation_loop(strategy, graph, trainer, budget):
    """``run_allocation_loop`` on the numpy pieces; returns (state, rounds)."""
    n, m = graph.n_modes, graph.n_targets
    state = AllocatorState.fresh(n, m, AllocatorConfig(budget=budget))
    rounds = []
    for r in range(budget):
        if strategy == "rr":
            i, j = divmod(r % (n * m), m)
        else:
            i, j = reference_select_value_ucl(state, graph)
        q_new = float(trainer(i, j, r))
        q_best = max(q_new, float(state.q[i, j]))
        state.q[i, j] = q_best
        state.queues[i][j].append(q_best)
        if len(state.queues[i][j]) >= 2:
            state.q_ucl[i, j] = reference_compute_ucl(state.queues[i][j], q_best)
        else:
            state.q_ucl[i, j] = q_best
        state.train_counts[i, j] += 1
        fv = float(reference_failure_values(graph, state.q))
        rounds.append(RoundRecord(r, strategy, i, j, q_new, float(state.q_ucl[i, j]), fv))
    return state, rounds


class ReferenceSyntheticTrainer:
    """The synthetic trainer on numpy scalars: a numpy count and ``np.clip``."""

    def __init__(self, q_max, tau, seed):
        self.q_max, self.tau = q_max, tau
        self.counts = np.zeros(q_max.shape, dtype=int)
        self.rng = np.random.default_rng(seed)

    def __call__(self, i, j, round_index):
        self.counts[i, j] += 1
        latent = self.q_max[i, j] * (1.0 - np.exp(-self.counts[i, j] / self.tau[i, j]))
        return float(np.clip(latent + self.rng.uniform(-SYNTH_NOISE, SYNTH_NOISE), 0.0, 1.0))


def _random_graph(rng, n, m):
    """A chain with m targets and n modes, or (every third draw) a graph built
    from arbitrary target values."""
    sizes = rng.uniform(0.5, 400.0, size=n)
    if rng.uniform() < 1 / 3:
        sizes = np.round(sizes)
        return RecoveryGraph(rng.uniform(-5.0, 0.0, size=m), sizes, float(rng.uniform(1, 50)))
    costs = list(rng.uniform(0.0, 2.0, size=m - 1))
    return RecoveryGraph.chain(costs, n, sizes, c_fail=float(rng.uniform(1, 50)))


_Q_KINDS = ("random", "outside", "zero", "one", "quantised", "ucl_is_q")


def _random_estimates(rng, kind, n, m):
    """(q, q_ucl) of one kind: uniform; spilling outside [0, 1] (clipped);
    all zero; all one; quantised to quarters (exact ties between candidates);
    or q_ucl equal to q (every candidate ties the current value)."""
    q = rng.uniform(0.0, 1.0, size=(n, m))
    q_ucl = np.minimum(1.0, q + rng.uniform(0.0, 0.5, size=(n, m)))
    if kind == "outside":
        q, q_ucl = q * 1.4 - 0.2, q_ucl * 1.4 - 0.2
    elif kind == "zero":
        q[:] = 0.0
    elif kind == "one":
        q[:] = 1.0
        q_ucl[:] = 1.0
    elif kind == "quantised":
        q, q_ucl = np.round(q * 4) / 4, np.round(q_ucl * 4) / 4
    elif kind == "ucl_is_q":
        q_ucl = q.copy()
    return q, q_ucl


def test_failure_values_and_selection_equal_the_numpy_allocator_exactly():
    rng = np.random.default_rng(53)
    for n in range(1, 21):
        for m in range(1, 6):
            for trial, kind in enumerate(_Q_KINDS * 2):
                rgraph = _random_graph(rng, n, m)
                q, q_ucl = _random_estimates(rng, kind, n, m)
                for estimates in (q, q_ucl):
                    got = rgraph.failure_value_for(estimates)
                    assert type(got) is float
                    assert repr(got) == repr(float(reference_failure_values(rgraph, estimates)))
                values = np.array(rgraph.recovery_values(q))
                assert values.tobytes() == reference_recovery_values(rgraph, q).tobytes()
                state = AllocatorState.fresh(n, m, AllocatorConfig())
                state.train_counts[:] = INIT_ROUNDS
                state.q, state.q_ucl = q, q_ucl
                expected = reference_select_value_ucl(state, rgraph)
                assert select_value_ucl(state, rgraph) == expected, (n, m, trial, kind)


def test_failure_value_and_selection_do_not_depend_on_the_order_of_the_modes():
    # Permuting the modes permutes the terms of each sum; a correctly rounded
    # sum keeps its value, so every candidate keeps its score.
    rng = np.random.default_rng(57)
    for trial in range(300):
        n, m = int(rng.integers(2, 21)), int(rng.integers(1, 6))
        rgraph = _random_graph(rng, n, m)
        q, q_ucl = _random_estimates(rng, _Q_KINDS[trial % len(_Q_KINDS)], n, m)
        order = rng.permutation(n)
        permuted = RecoveryGraph(rgraph.target_values, rgraph.mode_sizes[order], rgraph.c_fail)
        for x in (q, q_ucl):
            assert permuted.failure_value_for(x[order]) == rgraph.failure_value_for(x)
        state, moved = (AllocatorState.fresh(n, m, AllocatorConfig()) for _ in range(2))
        state.train_counts[:] = moved.train_counts[:] = INIT_ROUNDS
        state.q, state.q_ucl = q, q_ucl
        moved.q, moved.q_ucl = q[order], q_ucl[order]
        i, j = select_value_ucl(moved, permuted)
        scores = [optimistic_failure_value(state, rgraph, a, b) for a in range(n) for b in range(m)]
        assert optimistic_failure_value(moved, permuted, i, j) == max(scores), trial
        assert optimistic_failure_value(state, rgraph, int(order[i]), j) == max(scores), trial


def test_compute_ucl_equals_the_numpy_bound_exactly():
    rng = np.random.default_rng(55)
    for trial in range(3000):
        size = 2 + trial % 2
        values = rng.uniform(0.0, 1.0, size=size)
        kind = trial // 2 % 5
        if kind == 1:  # flat
            values[:] = values[0]
        elif kind == 2:  # falling
            values = np.sort(values)[::-1]
        elif kind == 3:  # rising, quantised: equal differences
            values = np.round(np.sort(values) * 8) / 8
        elif kind == 4:  # tiny steps near 1
            values = 1.0 - np.sort(rng.uniform(0.0, 1e-9, size=size))[::-1]
        queue = _queue(values.tolist())
        current = float(values[-1]) if trial % 3 else float(values.max())
        got = compute_ucl(queue, current)
        assert type(got) is float
        assert repr(got) == repr(float(reference_compute_ucl(queue, current))), trial


@pytest.mark.parametrize("budget", [150, 600])
def test_synthetic_allocation_equals_the_numpy_allocator_exactly(budget):
    for seed in range(20):
        seeds = stage_seeds("synth-alloc", seed)
        rgraph, q_max, tau = synthetic_task_set(seeds["task_set"])
        for strategy in ("rr", "ucl"):
            trainer = SyntheticTrainer(q_max, tau, seed=seeds["noise"])
            result = run_allocation_loop(strategy, rgraph, trainer, AllocatorConfig(budget=budget))
            reference = ReferenceSyntheticTrainer(q_max, tau, seed=seeds["noise"])
            state, rounds = reference_allocation_loop(strategy, rgraph, reference, budget)
            assert [repr(r) for r in result.rounds] == [repr(r) for r in rounds], (seed, strategy)
            assert result.fv_trace == [r.fv for r in rounds]
            for got, want in ((result.state.q, state.q), (result.state.q_ucl, state.q_ucl)):
                assert got.tobytes() == want.tobytes()
            np.testing.assert_array_equal(result.state.train_counts, state.train_counts)
            assert result.state.queues == state.queues


def test_synthetic_trainer_equals_the_numpy_scalar_trainer():
    # estimates pushed above 1 and below 0 are clipped, and a NaN curve stays NaN
    q_max = np.array([[1.2, -0.3, 0.5], [np.nan, 0.0, 1.0]])
    tau = np.array([[2.0, 3.0, 0.5], [1.0, 7.0, 1e-3]])
    got, want = SyntheticTrainer(q_max, tau, seed=3), ReferenceSyntheticTrainer(q_max, tau, seed=3)
    for r in range(60):
        i, j = divmod(r % 6, 3)
        value = got(i, j, r)
        assert type(value) is float
        assert repr(value) == repr(want(i, j, r)), r
