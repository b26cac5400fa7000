"""Self-tests for the benchmark's own code.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Stage configs small enough that a whole workload runs in seconds.
TINY_TRAIN = {"budget": 48, "reps_updates": 1, "reps_samples": 4, "n_eval_rollouts": 2}
TINY_DISCOVER = {"discovery_strategy": "pessimistic", "discovery_episodes": 300}
TINY = {
    "CHAIN": {"n_trajectories": 10, "samples_per_skill": 60},
    "TRAIN": {**workloads.TRAIN, **TINY_TRAIN},
    "TRAIN_SMALL": {**workloads.TRAIN_SMALL, **TINY_TRAIN},
    "EVALUATE": {"eval_episodes": 4},
    "SYNTH": {"budget": 48},
}


def test_self_time_on_a_nested_call_tree():
    ticks = itertools.count()
    t = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def inner():
        leaf()
        leaf()

    def outer():
        inner()
        leaf()

    leaf, inner, outer = (t.wrap(fn, i) for i, fn in enumerate((leaf, inner, outer)))
    t.begin_unit()
    outer()
    cols = t.columns()
    # Clock reads, in order: outer 0, inner 1, leaf 2-3, leaf 4-5, inner ends 6,
    # leaf 7-8, outer ends 9.
    assert cols["name"].tolist() == [2, 1, 0, 0, 0]
    assert cols["parent"].tolist() == [-1, 0, 1, 1, 0]
    own = tracing.self_times(cols["parent"], cols["start"], cols["end"])
    assert own.tolist() == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1]
    assert own.sum() == cols["end"][0] - cols["start"][0]


def test_self_times_subtract_only_direct_children():
    parent = np.array([-1, 0, 1, -1])
    start = np.array([0.0, 1.0, 2.0, 10.0])
    end = np.array([10.0, 8.0, 3.0, 12.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 6.0, 1.0, 2.0]


def test_install_patches_every_binding_and_uninstall_restores_them():
    from recovery_forge import classifiers, harness_cli, recovery_skills

    originals = (classifiers.classify, recovery_skills.classify, harness_cli.COMMANDS["train"])
    t = tracing.Tracer()
    with t:
        assert classifiers.classify is not originals[0]
        assert recovery_skills.classify is classifiers.classify
        assert harness_cli.COMMANDS["train"].__wrapped__ is originals[2]
    assert (classifiers.classify, recovery_skills.classify, harness_cli.COMMANDS["train"]) == originals


def _allocator_artifact(path):
    from recovery_forge import persistence_io
    from recovery_forge.allocator import AllocatorConfig, AllocatorState

    persistence_io.save_artifact(AllocatorState.fresh(2, 2, AllocatorConfig()), path)


def test_check_rejects_a_truncated_artifact(tmp_path):
    path = tmp_path / "state.rfj"
    _allocator_artifact(path)
    assert check.check_outputs(str(tmp_path)) == []
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    problems = check.check_outputs(str(tmp_path))
    assert len(problems) == 1 and "state.rfj" in problems[0]


def test_check_rejects_a_decreasing_failure_value(tmp_path):
    (tmp_path / "rounds.csv").write_text("round,fv\n0,-3.0\n1,-2.0\n2,-2.5\n")
    assert check.check_outputs(str(tmp_path)) == ["rounds.csv: fv decreases at round 2"]


def test_digest_ignores_the_config_snapshot_and_sees_every_other_byte(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "out.csv").write_text("x\n1\n")
    (tmp_path / "a" / "config_snapshot.json").write_text('{"out_dir": "one"}')
    first = check.digest(str(tmp_path))
    (tmp_path / "a" / "config_snapshot.json").write_text('{"out_dir": "two"}')
    assert check.digest(str(tmp_path)) == first
    (tmp_path / "a" / "out.csv").write_text("x\n2\n")
    assert check.digest(str(tmp_path)) != first


def test_a_digest_mismatch_fails_the_run(tmp_path):
    stages = run.Stages(str(tmp_path))
    run.agree(["aaa", "aaa", "bbb"], stages, "repetition")
    assert stages.failed == 1 and "repetition 2" in stages.problems[0]


def test_median_total_takes_each_calls_median_across_passes():
    passes = [{"a": 1.0, "b": 9.0}, {"a": 8.0, "b": 2.0}, {"a": 2.0, "b": 3.0}]
    assert run.median_total(passes) == 2.0 + 3.0
    assert run.median_total([{}, {}]) == 0.0


def test_host_speed_averages_the_reference_runs_around_a_step(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_WINDOW", 2)
    speed = run.HostSpeed()
    speed.reference_s = [9.0, 1.0, 2.0, 3.0, 4.0, 9.0]
    # Step 2 ran between reference runs 2 and 3: runs 1-2 before it, 3-4 after.
    assert speed.factor(2) == run.REFERENCE_S / 2.5
    assert speed.factor(0) == run.REFERENCE_S / 4.0  # runs 0 before, 1-2 after


def test_a_rejected_input_is_kept_as_a_problem_but_not_counted(tmp_path):
    stages = run.Stages(str(tmp_path))

    def failing_stage():
        stages.attempted += 1
        stages.fail("discover returned 1")
        raise run.StageFailed("discover")

    assert not stages.probe(failing_stage, "pipeline seed 5")
    assert stages.probe(lambda: None, "pipeline seed 6")
    assert (stages.attempted, stages.failed, stages.problems) == (0, 0, [])
    assert stages.rejections == ["pipeline seed 5: discover returned 1"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["train", "synth-alloc", "rollouts"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["train", "synth-alloc", "rollouts"])
def test_each_workload_completes_at_a_tiny_size(tmp_path, monkeypatch, workload, trace):
    for name, value in (("SETUP_PASSES", 2), ("IMPORT_SAMPLES", 1), ("MIN_REPS", 2), ("MIN_TRACED", 1)):
        monkeypatch.setattr(run, name, value)
    monkeypatch.setattr(run, "OUT_ROOT", str(tmp_path))
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    for cls in (workloads.PipelineWorkload, workloads.Rollouts):
        monkeypatch.setattr(cls, "discover", TINY_DISCOVER)
    record = run.run(workload, 3, seconds=0.0, trace=trace)
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = [n for n, *_ in run.per_layer_units()] if trace else [n for n, _ in run.END_TO_END]
    assert list(result["metrics"]) == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert os.listdir(tmp_path) == [f"{workload}-seed3-trace{int(trace)}"]


def test_without_the_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
