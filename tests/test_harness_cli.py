"""CLI tests: exit codes for budgets and config errors at a tiny config."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import recovery_forge
from recovery_forge import harness_cli
from recovery_forge.classifiers import GaussianModel, GenerativeClassifier, GmmModel
from recovery_forge.harness_cli import main
from recovery_forge.precondition_chaining import PreconditionSet


@pytest.fixture
def config_file(tmp_path):
    def write(**fields):
        doc = {"out_dir": str(tmp_path / "runs"), "n_trajectories": 10, "samples_per_skill": 100}
        doc.update(fields)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_synth_alloc_budget_covers_five_modes_exactly(config_file):
    # 2 init rounds x 5 modes x 4 targets = 40
    assert main(["synth-alloc", "--config", config_file(), "--seed", "0", "--budget", "40"]) == 0


def test_synth_alloc_budget_below_init_rounds_fails(config_file, capsys):
    code = main(["synth-alloc", "--config", config_file(), "--seed", "0", "--budget", "39"])
    assert code == 1
    assert "init rounds" in capsys.readouterr().err


SCIPY_BLOCKED_RUN = """
import sys
sys.modules["scipy"] = None  # every import of scipy now fails
from recovery_forge.harness_cli import main
code = main(["synth-alloc", "--seed", "0", "--budget", "40", "--out", "runs"])
assert code == 0, code
assert sys.modules.pop("scipy") is None
assert "scipy" not in sys.modules
assert not [name for name in sys.modules if name.startswith("scipy.")]
"""


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test dependency only; the package needs numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(recovery_forge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_RUN],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "runs" / "synth-alloc" / "summary" / "synth_fv.csv").exists()


def test_chain_preconds_ignores_the_allocation_budget(config_file, tmp_path):
    assert main(["chain-preconds", "--config", config_file(), "--budget", "10"]) == 0
    assert (tmp_path / "runs" / "chain-preconds" / "0" / "preconds.rfj").exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"failures_path": "failures.csv"}, "unknown config fields: ['failures_path']"),
        ({"env": {"bogus": 1}}, "unknown env config fields: ['bogus']"),
    ],
)
def test_unknown_config_keys_exit_2(config_file, capsys, fields, message):
    assert main(["synth-alloc", "--config", config_file(**fields)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"reps_updates": 0}, "reps_updates must be >= 1, got 0"),
        ({"reps_samples": 1}, "reps_samples must be >= 2, got 1"),
        ({"reps_init_cov_scale": 0}, "reps_init_cov_scale must be > 0, got 0"),
        ({"reps_epsilon": -1}, "reps_epsilon must be > 0, got -1"),
        ({"n_eval_rollouts": 0}, "n_eval_rollouts must be >= 1, got 0"),
        ({"seeds": []}, "seeds must not be empty"),
        ({"alpha": 1.5}, "alpha must be in (0, 1), got 1.5"),
        ({"alpha": 0}, "alpha must be in (0, 1), got 0"),
        ({"window": 0}, "window must be >= 2, got 0"),
        ({"window": 1}, "window must be >= 2, got 1"),
    ],
)
def test_bad_training_config_values_exit_2(config_file, capsys, fields, message):
    # The artifact paths are unset too: the value check must come first.
    assert main(["train", "--config", config_file(**fields)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_discover_without_failure_states_exits_1(config_file, tmp_path, monkeypatch, capsys):
    assert main(["chain-preconds", "--config", config_file()]) == 0
    monkeypatch.setattr(harness_cli, "discover_pessimistic", lambda *args: [])
    preconds = str(tmp_path / "runs" / "chain-preconds" / "0" / "preconds.rfj")
    assert main(["discover", "--config", config_file(preconds_path=preconds)]) == 1
    assert "0 failure states cannot form 6 modes" in capsys.readouterr().err
    out = tmp_path / "runs" / "discover" / "0"
    assert (out / "failures.csv").exists()
    assert not (out / "modes.rfj").exists()


def test_best_applicable_is_the_highest_accepting_skill():
    negative = GmmModel([1.0], [GaussianModel(np.array([6.0]), np.eye(1))])
    rhos = [
        GenerativeClassifier(GaussianModel(np.array([m]), np.eye(1)), negative)
        for m in (0.0, 1.0, 9.0)
    ]
    preconds = PreconditionSet(rhos, [r.positive for r in rhos], rhos[-1].positive, rhos[-1])
    assert harness_cli._best_applicable(preconds, np.array([0.5])) == 1  # skills 0 and 1 accept
    assert harness_cli._best_applicable(preconds, np.array([9.0])) == 2
    assert harness_cli._best_applicable(preconds, np.array([6.0])) is None


def _run_pipeline(root) -> dict[str, bytes]:
    """All five stages at a tiny config (package seed 0); returns every output
    file except the config snapshots, which record the output directory."""
    out = root / "runs"
    base = {
        "out_dir": str(out),
        "seeds": [0],
        "discovery_episodes": 300,
        "budget": 48,
        "reps_updates": 1,
        "reps_samples": 10,
        "n_eval_rollouts": 5,
        "eval_episodes": 20,
        "preconds_path": str(out / "chain-preconds" / "0" / "preconds.rfj"),
        "modes_path": str(out / "discover" / "0" / "modes.rfj"),
        "library_dir": str(out / "train"),
    }
    config = root / "config.json"
    config.write_text(json.dumps(base))
    for stage in ("chain-preconds", "discover", "train", "evaluate", "synth-alloc"):
        assert main([stage, "--config", str(config)]) == 0, stage
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "config_snapshot.json"
    }


def test_pipeline_outputs_are_byte_identical_across_runs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    stages = {"chain-preconds", "discover", "train", "evaluate", "synth-alloc"}
    assert {name.split(os.sep)[0] for name in first} == stages
    assert os.path.join("train", "0", "library.rfj") in first
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
