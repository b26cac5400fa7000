"""Tooling tests for ``scripts/drift_stats.py``, the gate for changes that move
values. They load the script as a module and start no subprocess."""

import importlib.util
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from recovery_forge.errors import config_from_json
from recovery_forge.harness_cli import (
    EVAL_POLICIES,
    ExperimentConfig,
    _prepare_out,
    _write_allocation_csvs,
    _write_csv,
    cmd_synthetic_allocation,
    run_synthetic_allocation,
)

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "drift_stats.py")


@pytest.fixture(scope="module")
def drift():
    spec = importlib.util.spec_from_file_location("drift_stats", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _success(seeds, **moved):
    """Each seed's success per policy: 0.5 + seed / 100, plus ``moved[policy](seed)``."""
    return {
        s: {p: 0.5 + s / 100 + moved.get(p.replace("-", "_"), lambda s: 0.0)(s) for p in EVAL_POLICIES}
        for s in seeds
    }


def _held(gate):
    return [ok for _, ok in gate]


def test_it_runs_synth_alloc_then_the_pipeline_stages_up_to_evaluate_in_order(drift):
    assert drift.STAGES == ("synth-alloc", "chain-preconds", "discover", "train", "evaluate")


def test_it_reads_the_evaluation_csv_where_evaluate_writes_it(drift, tmp_path):
    work = str(tmp_path)
    doc = drift.pipeline_digests.seed_config(7, os.path.join(work, "runs"))
    config = config_from_json(ExperimentConfig, doc)
    out = _prepare_out(config, "evaluate", "all")
    rows = [(p, 0.25 * i, 1.0, 0.5) for i, p in enumerate(EVAL_POLICIES)]
    _write_csv(os.path.join(out, "evaluation.csv"), ["policy", "success_rate", "mean_cost", "std_cost"], rows)
    success = drift.read_success(os.path.join(work, drift.EVALUATION))
    assert list(success.items()) == [(p, 0.25 * i) for i, p in enumerate(EVAL_POLICIES)]


def test_it_reads_the_final_fv_where_train_writes_it(drift, tmp_path):
    work = str(tmp_path)
    doc = drift.pipeline_digests.seed_config(7, os.path.join(work, "runs"))
    out = _prepare_out(config_from_json(ExperimentConfig, doc), "train", 7)
    rounds = [
        SimpleNamespace(round=r, strategy="ucl", i=0, j=1, q_new=0.5, q_ucl=0.75, fv=-13.0 + r / 4)
        for r in range(5)
    ]
    state = SimpleNamespace(train_counts=np.zeros((2, 3)))
    _write_allocation_csvs(out, SimpleNamespace(rounds=rounds, state=state))
    assert drift.read_final_fv(os.path.join(work, drift.ROUNDS.format(seed=7))) == -12.0


def test_it_reads_the_synthetic_fvs_where_synth_alloc_writes_them(drift, tmp_path):
    work = str(tmp_path)
    doc = drift.pipeline_digests.seed_config(7, os.path.join(work, "runs"))
    config = config_from_json(ExperimentConfig, doc)
    cmd_synthetic_allocation(config)
    results = run_synthetic_allocation(config, 7)
    expected = (results["ucl"].fv_trace[-1], results["rr"].fv_trace[-1])
    assert drift.read_synthetic(os.path.join(work, drift.SYNTHETIC)) == expected


def test_a_seed_rejected_after_synth_alloc_keeps_its_synthetic_result(drift, monkeypatch):
    # Seed 0 passes, seed 1 fails discover, seed 2 fails synth-alloc itself.
    fails = {0: None, 1: ("discover", 1), 2: ("synth-alloc", 1)}

    def run_seed(src, seed, work):
        config = config_from_json(
            ExperimentConfig, drift.pipeline_digests.seed_config(seed, os.path.join(work, "runs"))
        )
        if fails[seed] != ("synth-alloc", 1):
            out = _prepare_out(config, "synth-alloc", "summary")
            _write_csv(
                os.path.join(out, "synth_fv.csv"),
                ["seed", "ucl_final_fv", "rr_final_fv", "ucl_budget_to_rr_best"],
                [(seed, -1.0 - seed, -2.0, 0.5)],
            )
        if fails[seed] is None:
            rows = [(p, 0.5, 1.0, 0.5) for p in EVAL_POLICIES]
            _write_csv(
                os.path.join(_prepare_out(config, "evaluate", "all"), "evaluation.csv"),
                ["policy", "success_rate", "mean_cost", "std_cost"], rows,
            )
            _write_csv(
                os.path.join(_prepare_out(config, "train", seed), "rounds.csv"), ["fv"], [(-3.0,)]
            )
        return fails[seed]

    monkeypatch.setattr(drift.pipeline_digests, "run_seed", run_seed)
    success, final_fv, synthetic, rejected = drift.run_tree("src", [0, 1, 2])
    assert list(success) == list(final_fv) == [0] and final_fv[0] == -3.0
    assert synthetic == {0: (-1.0, -2.0), 1: (-2.0, -2.0)}
    assert rejected == {1: ("discover", 1), 2: ("synth-alloc", 1)}


def test_ucl_against_rr_pairs_the_strategies_and_counts_ucl_wins(drift):
    s = drift.ucl_against_rr({0: (-1.0, -2.0), 1: (-3.0, -2.5), 2: (-1.0, -1.0)})
    assert (s["parent"], s["change"], s["n"], s["moved"], s["wins"]) == (
        pytest.approx(-5.5 / 3), pytest.approx(-5.0 / 3), 3, 2, 1
    )
    assert s["delta"] == pytest.approx(1.0 / 6)
    assert drift.ucl_against_rr({}) is None


def test_final_fv_statistics_cover_only_the_seeds_that_pass_on_both_trees(drift):
    s = drift.compare_final_fv({0: -12.0, 1: -11.0, 2: -10.0}, {1: -10.5, 2: -10.0, 3: 0.0})
    assert (s["parent"], s["change"], s["delta"], s["n"], s["moved"]) == (-10.5, -10.25, 0.25, 2, 1)
    assert drift.compare_final_fv({0: -12.0}, {1: -12.0}) is None


def test_paired_statistics(drift):
    s = drift.paired([0.5, 0.6, 0.7], [0.5, 0.7, 0.9])
    assert s["parent"] == pytest.approx(0.6) and s["change"] == pytest.approx(0.7)
    assert s["delta"] == pytest.approx(0.1)
    assert s["se"] == pytest.approx(0.1 / math.sqrt(3))
    assert (s["n"], s["moved"]) == (3, 2)
    assert math.isnan(drift.paired([0.5], [0.6])["se"])


def test_identical_trees_pass(drift):
    success = _success(range(10))
    stats = drift.compare(success, success)
    assert list(stats) == [*EVAL_POLICIES, drift.GAP_NAME]
    assert all((s["delta"], s["se"], s["moved"], s["n"]) == (0.0, 0.0, 0, 10) for s in stats.values())
    assert _held(drift.checks({3: ("discover", 1)}, {3: ("discover", 1)}, stats)) == [True] * 3


def test_statistics_cover_only_the_seeds_that_pass_on_both_trees(drift):
    parent, change = _success([0, 1, 2, 3]), _success([1, 2, 3, 4])
    change[4]["retry"] = 0.0
    stats = drift.compare(parent, change)
    assert stats["retry"]["n"] == 3 and stats["retry"]["delta"] == 0.0


def test_a_new_rejected_seed_fails_and_a_fixed_one_passes(drift):
    stats = drift.compare(_success(range(5)), _success(range(5)))
    assert _held(drift.checks({}, {2: ("discover", 1)}, stats)) == [False, True, True]
    assert _held(drift.checks({2: ("discover", 1), 4: ("train", 1)}, {4: ("train", 1)}, stats)) == [True] * 3


def test_a_policy_shift_beyond_two_se_fails(drift):
    parent = _success(range(10))
    noisy = _success(range(10), retry=lambda s: 0.02 * (-1) ** s)
    assert _held(drift.checks({}, {}, drift.compare(parent, noisy))) == [True] * 3
    shifted = _success(range(10), retry=lambda s: 0.02)  # every seed up: se 0
    stats = drift.compare(parent, shifted)
    assert stats["retry"]["se"] == pytest.approx(0.0, abs=1e-12) and stats["retry"]["delta"] > 0
    assert _held(drift.checks({}, {}, stats)) == [True, False, True]


def test_a_fall_of_learned_over_no_recovery_beyond_two_se_fails(drift):
    parent = _success(range(10))
    # Both policies swing by 0.05 together, no-recovery 0.01 up and learned
    # 0.01 down: each moves within 2 se, their gap falls on every seed.
    swing = lambda s: 0.05 * (-1) ** s  # noqa: E731
    up = _success(
        range(10), no_recovery=lambda s: swing(s) + 0.01, learned_recovery=lambda s: swing(s) - 0.01
    )
    stats = drift.compare(parent, up)
    for policy in ("no-recovery", "learned-recovery"):
        assert abs(stats[policy]["delta"]) <= 2 * stats[policy]["se"]
    assert stats[drift.GAP_NAME]["delta"] < -2 * stats[drift.GAP_NAME]["se"]
    assert _held(drift.checks({}, {}, stats)) == [True, True, False]
    # A rise of the gap passes.
    assert _held(drift.checks({}, {}, drift.compare(up, parent)))[2]


def test_no_seed_passing_on_both_trees_fails(drift):
    stats = drift.compare(_success([0]), _success([1]))
    assert stats == {}
    assert _held(drift.checks({1: ("discover", 1)}, {0: ("discover", 1)}, stats)) == [False, False, False]


def test_the_report_lists_rejections_statistics_and_checks(drift):
    stats = drift.compare(_success(range(3)), _success(range(3)))
    rejected = {9: ("discover", 1), 4: ("train", 1), 1: ("discover", 1)}
    gate = drift.checks(rejected, {}, stats)
    final_fv = drift.compare_final_fv({0: -12.5, 2: -11.0}, {0: -12.25, 2: -11.0})
    trees = {"parent": ("a/src", rejected), "change": ("b/src", {})}
    synthetic = {"parent": None, "change": drift.ucl_against_rr({0: (-1.0, -2.0), 5: (-2.0, -1.5)})}
    lines = drift.report(trees, stats, final_fv, synthetic, gate)
    assert lines[:4] == [
        "parent a/src: 3 rejected seeds",
        "  discover exit 1: 1 9",
        "  train exit 1: 4",
        "change b/src: 0 rejected seeds",
    ]
    assert lines[4] == "mean success over the 3 seeds that pass on both trees:"
    assert [line.split()[0] for line in lines[6:12]] == list(EVAL_POLICIES)
    assert lines[13:15] == [
        "mean final FV over the 2 seeds that pass on both trees (not gated):",
        f"{'final FV':36} -11.7500 -11.6250   +0.1250   0.1250      1",
    ]
    assert lines[15:18] == [
        "change: synthetic final FV over 2 task sets (not gated):",
        f"{'':36}       rr      ucl  ucl - rr       se   wins",
        f"{'ucl against rr':36}  -1.7500  -1.5000   +0.2500   0.7500      1",
    ]
    assert lines[-3:] == [f"pass: {what}" for what, _ in gate]
    assert len(lines) == 21
    no_synthetic = {"parent": None, "change": None}
    assert drift.report(trees, stats, None, no_synthetic, gate) == lines[:13] + lines[18:]
