"""CLI tests: exit codes for budgets, config errors and bad input paths at a
tiny config, and the package's five exception types."""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import recovery_forge
from recovery_forge import (
    classifiers,
    errors,
    failure_discovery,
    harness_cli,
    persistence_io,
    precondition_chaining,
)
from recovery_forge.allocator import INIT_ROUNDS, UCL_ALPHA, UCL_T, UCL_WINDOW
from recovery_forge.classifiers import GaussianModel, GenerativeClassifier, GmmModel
from recovery_forge.errors import ConfigError, RecoveryForgeError
from recovery_forge.failure_discovery import (
    DEFAULT_MODES_EARLY_TERMINATION,
    DEFAULT_MODES_PESSIMISTIC,
    FailureModeSet,
    classify_failure,
)
from recovery_forge.harness_cli import EpisodeResult, ExperimentConfig, MoveTo, main
from recovery_forge.latch_env import NOMINAL_COSTS, LatchEnv
from recovery_forge.precondition_chaining import PreconditionSet
from recovery_forge.recovery_skills import (
    INIT_COVARIANCE_SCALE,
    ParameterizedSkill,
    RecoveryLibrary,
    knn_predict,
)

from conftest import EVAL_SEEDS, PIPELINE_SEED, spawned_child


@pytest.fixture
def config_file(tmp_path):
    def write(**fields):
        doc = {"out_dir": str(tmp_path / "runs"), "n_trajectories": 10, "samples_per_skill": 100}
        doc.update(fields)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_the_package_has_five_exception_types():
    # Each has a reader: the CLI's two exit codes, the loader, and two payloads.
    found = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert found == {
        "RecoveryForgeError", "ConfigError", "SchemaError", "OracleFailureError",
        "NonConvergenceError",
    }


def test_synth_alloc_budget_covers_five_modes_exactly(config_file):
    # 2 init rounds x 5 modes x 4 targets = 40
    assert main(["synth-alloc", "--config", config_file(seeds=[0], budget=40)]) == 0


def test_synth_alloc_budget_below_init_rounds_fails(config_file, capsys):
    code = main(["synth-alloc", "--config", config_file(seeds=[0], budget=39)])
    assert code == 2
    assert "init rounds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--seed", "0"), ("--out", "runs"), ("--strategy", "rr"), ("--budget", "40")]
)
def test_a_removed_override_flag_is_a_usage_error(config_file, capsys, tmp_path, flag, value):
    # Each of these set a config field; the config file is now the one way to.
    with pytest.raises(SystemExit) as exit_info:
        main(["synth-alloc", "--config", config_file(), flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


SCIPY_BLOCKED_RUN = """
import json
import sys
sys.modules["scipy"] = None  # every import of scipy now fails
from recovery_forge.harness_cli import main
with open("config.json", "w") as fh:
    json.dump({"seeds": [0], "budget": 40, "out_dir": "runs"}, fh)
code = main(["synth-alloc", "--config", "config.json"])
assert code == 0, code
assert sys.modules.pop("scipy") is None
assert "scipy" not in sys.modules
assert not [name for name in sys.modules if name.startswith("scipy.")]
"""


SKILL_GRAPH_IMPORT_CHECK = """
import sys
import recovery_forge.harness_cli
assert "recovery_forge.allocator" in sys.modules
assert "recovery_forge.skill_graph" not in sys.modules
"""


def test_no_stage_imports_the_skill_graph_oracle():
    # the general solver is a test oracle; the stages use RecoveryGraph's closed form
    src = os.path.dirname(os.path.dirname(os.path.abspath(recovery_forge.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", SKILL_GRAPH_IMPORT_CHECK],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


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


def test_too_few_chaining_labels_name_the_sample_count(config_file, capsys, tmp_path):
    # Two samples per skill cannot give two labels of each class.
    assert main(["chain-preconds", "--config", config_file(samples_per_skill=2)]) == 1
    assert capsys.readouterr().err.endswith(
        "negative labels from 2 samples; raise the sample count (samples_per_skill)\n"
    )
    assert not (tmp_path / "runs" / "chain-preconds" / "0" / "preconds.rfj").exists()


def test_chain_preconds_ignores_the_allocation_budget(config_file, tmp_path):
    assert main(["chain-preconds", "--config", config_file(budget=10)]) == 0
    assert (tmp_path / "runs" / "chain-preconds" / "0" / "preconds.rfj").exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"failures_path": "failures.csv"}, "unknown config fields: ['failures_path']"),
        ({"env": {"sigma_ref": 0.04}}, "unknown config fields: ['env']"),
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
        ({"n_eval_rollouts": 0}, "n_eval_rollouts must be >= 1, got 0"),
        ({"seeds": []}, "seeds must be a non-empty list of distinct integers >= 0, got []"),
        ({"eval_episodes": 0}, "eval_episodes must be >= 1, got 0"),
        (
            {"allocation_strategy": "bogus"},
            "allocation_strategy must be one of 'rr', 'ucl', got 'bogus'",
        ),
        ({"budget": 0}, "budget must be >= 1, got 0"),
        ({"seeds": 3}, "seeds must be a list of integers, got 3"),
        ({"seeds": [True]}, "seeds must be integers, got [True]"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"knn_state_scale": 5}, "knn_state_scale must be a list of numbers, got 5"),
        ({"budget": "10"}, "budget must be an integer, got '10'"),
        ({"reps_updates": None}, "reps_updates must be an integer, got None"),
        ({"sigma_ref": "x"}, "sigma_ref must be a number, got 'x'"),
        ({"budget": 40.0}, "budget must be an integer, got 40.0"),
        ({"budget": True}, "budget must be an integer, got True"),
        ({"out_dir": 5}, "out_dir must be a string, got 5"),
        ({"eval_episodes": 1.5}, "eval_episodes must be an integer, got 1.5"),
        (
            {"knn_state_scale": [1.0, 1.0, 1.0]},
            "knn_state_scale must be a list of 7 numbers > 0, got [1.0, 1.0, 1.0]",
        ),
        (
            {"knn_state_scale": [0, 1, 1, 1, 1, 1, 1]},
            "knn_state_scale must be a list of 7 numbers > 0, got [0, 1, 1, 1, 1, 1, 1]",
        ),
        (
            {"knn_state_scale": [1, -1, 1, 1, 1, 1, 1]},
            "knn_state_scale must be a list of 7 numbers > 0, got [1, -1, 1, 1, 1, 1, 1]",
        ),
        (
            {"knn_state_scale": [1, 1, float("inf"), 1, 1, 1, 1]},
            "knn_state_scale must be numbers, got [1, 1, inf, 1, 1, 1, 1]",
        ),
        (
            {"knn_state_scale": [1, 1, 1, float("nan"), 1, 1, 1]},
            "knn_state_scale must be numbers, got [1, 1, 1, nan, 1, 1, 1]",
        ),
        # numpy's generators and SeedSequence take no negative seed.
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seeds": [-1]}, "seeds must be a non-empty list of distinct integers >= 0, got [-1]"),
        (
            {"seeds": [0, 3, -2]},
            "seeds must be a non-empty list of distinct integers >= 0, got [0, 3, -2]",
        ),
        # A repeated seed would count its runs twice in every summary.
        ({"seeds": [0, 0]}, "seeds must be a non-empty list of distinct integers >= 0, got [0, 0]"),
    ],
)
def test_bad_training_config_values_exit_2(config_file, capsys, fields, message):
    # The artifact paths are unset too: the value check must come first.
    assert main(["train", "--config", config_file(**fields)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("doc", [3, [1, 2]])
def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["synth-alloc", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: a config must be a JSON object, got {doc!r}\n"


CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]


@pytest.mark.parametrize("value", [True, [None]], ids=["true", "list_of_null"])
@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_a_value_of_the_wrong_json_type_exits_2_naming_its_field(config_file, capsys, name, value):
    # No config field is a boolean or a list of nulls.
    assert main(["synth-alloc", "--config", config_file(**{name: value})]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")


# The settings with no range to check: where outputs go and the three input paths.
UNCHECKED_SETTINGS = {"out_dir", "preconds_path", "modes_path", "library_dir"}


def test_every_other_setting_has_a_range_check():
    fields = set(CONFIG_FIELDS)
    assert UNCHECKED_SETTINGS <= fields
    assert harness_cli._LIMITS.keys() == fields - UNCHECKED_SETTINGS


def test_the_config_snapshot_reads_back_as_the_config(tmp_path):
    # Every kind of field away from its default: a list of numbers, several
    # seeds, a number and artifact paths.
    doc = {
        "out_dir": str(tmp_path / "runs"),
        "seeds": [3, 4],
        "budget": 40,
        "sigma_ref": 0.04,
        "knn_state_scale": [0.1, 0.1, 1.0, 0.05, 0.05, 0.5, 0.5],
        "preconds_path": str(tmp_path / "preconds.rfj"),
        "modes_path": str(tmp_path / "modes.rfj"),
        "library_dir": str(tmp_path / "train"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = ExperimentConfig.from_json_file(str(path))
    assert config.knn_state_scale == (0.1, 0.1, 1.0, 0.05, 0.05, 0.5, 0.5)
    assert config.seeds == (3, 4)
    assert main(["synth-alloc", "--config", str(path)]) == 0
    for run in ("3", "4", "summary"):
        snapshot = tmp_path / "runs" / "synth-alloc" / run / "config_snapshot.json"
        assert ExperimentConfig.from_json_file(str(snapshot)) == config, run


@pytest.mark.parametrize("level", ["verbose", "warning"])
def test_an_unknown_log_level_exits_2(config_file, capsys, monkeypatch, tmp_path, level):
    monkeypatch.setenv("RECOVERY_FORGE_LOG", level)
    assert main(["synth-alloc", "--config", config_file()]) == 2
    assert capsys.readouterr().err == (
        f"error: RECOVERY_FORGE_LOG must be one of 'error', 'info', 'debug', got {level!r}\n"
    )
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"sigma_ref": -0.01}, "sigma_ref must be >= 0, got -0.01"),
        ({"pessimistic_sigma_factor": -1}, "pessimistic_sigma_factor must be >= 0, got -1"),
        # JSON reads Infinity and NaN; discovery would run every episode on them.
        ({"sigma_ref": float("inf")}, "sigma_ref must be a number, got inf"),
        ({"sigma_ref": float("nan")}, "sigma_ref must be a number, got nan"),
        (
            {"pessimistic_sigma_factor": float("inf")},
            "pessimistic_sigma_factor must be a number, got inf",
        ),
        (
            {"discovery_strategy": "bogus"},
            "discovery_strategy must be one of 'pessimistic', 'early_termination', got 'bogus'",
        ),
        ({"discovery_episodes": 0}, "discovery_episodes must be >= 1, got 0"),
        ({"discovery_episodes": -5}, "discovery_episodes must be >= 1, got -5"),
        ({"n_trajectories": 0}, "n_trajectories must be >= 1, got 0"),
        ({"samples_per_skill": 0}, "samples_per_skill must be >= 1, got 0"),
        ({"discovery_episodes": 2.5}, "discovery_episodes must be an integer, got 2.5"),
    ],
)
def test_bad_discovery_config_values_exit_2(config_file, capsys, fields, message):
    # The precondition path is unset too: the value check must come first.
    assert main(["discover", "--config", config_file(**fields)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_early_termination_discover_writes_five_modes(config_file, tmp_path):
    # The stage's default chaining: the tiny one finds no failure this way.
    chaining = {"n_trajectories": 60, "samples_per_skill": 250, "seed": PIPELINE_SEED}
    assert main(["chain-preconds", "--config", config_file(**chaining)]) == 0
    preconds = str(tmp_path / "runs" / "chain-preconds" / str(PIPELINE_SEED) / "preconds.rfj")
    config = config_file(
        **chaining, preconds_path=preconds, discovery_strategy="early_termination",
        discovery_episodes=300,
    )
    assert main(["discover", "--config", config]) == 0
    out = tmp_path / "runs" / "discover" / str(PIPELINE_SEED)
    assert persistence_io.load_artifact(str(out / "modes.rfj")).n_modes == 5
    with open(out / "failures.csv", newline="") as fh:
        strategies = {row["strategy"] for row in csv.DictReader(fh)}
    assert strategies == {"early_termination"}


def test_discover_logs_its_episodes_decided_states_and_records(config_file, tmp_path, caplog):
    chaining = {"n_trajectories": 60, "samples_per_skill": 250, "seed": PIPELINE_SEED}
    assert main(["chain-preconds", "--config", config_file(**chaining)]) == 0
    preconds = str(tmp_path / "runs" / "chain-preconds" / str(PIPELINE_SEED) / "preconds.rfj")
    failures = tmp_path / "runs" / "discover" / str(PIPELINE_SEED) / "failures.csv"
    caplog.set_level("INFO", logger="recovery_forge")
    for strategy in ("pessimistic", "early_termination"):
        caplog.clear()
        config = config_file(
            **chaining, preconds_path=preconds, discovery_strategy=strategy,
            discovery_episodes=200,
        )
        assert main(["discover", "--config", config]) == 0
        with open(failures, newline="") as fh:
            n_records = len(list(csv.DictReader(fh)))
        lines = [r.getMessage() for r in caplog.records if "states decided" in r.getMessage()]
        assert len(lines) == 1
        head, decided, per_episode = lines[0].split(", ")
        assert head == f"{strategy} discovery: 200 episodes"
        assert n_records <= int(decided.split()[0]) <= 3 * 200
        assert per_episode == f"{n_records / 200:.4f} failure records per episode"


@pytest.mark.parametrize("max_iter", [200, 3])
def test_chain_preconds_and_discover_report_each_em_fit(config_file, tmp_path, monkeypatch, caplog, max_iter):
    fits = []

    def recording_fit_gmm(samples, n_components, seed=0):
        fits.append(classifiers.fit_gmm(samples, n_components, max_iter=max_iter, seed=seed))
        return fits[-1]

    monkeypatch.setattr(precondition_chaining, "fit_gmm", recording_fit_gmm)
    monkeypatch.setattr(failure_discovery, "fit_gmm", recording_fit_gmm)
    chaining = {"n_trajectories": 60, "samples_per_skill": 250, "seed": PIPELINE_SEED}
    with caplog.at_level("WARNING", logger="recovery_forge"):
        assert main(["chain-preconds", "--config", config_file(**chaining)]) == 0
        preconds = str(tmp_path / "runs" / "chain-preconds" / str(PIPELINE_SEED) / "preconds.rfj")
        assert main(["discover", "--config", config_file(**chaining, preconds_path=preconds)]) == 0
    *skill_fits, goal_fit, cluster_fit = fits  # chaining walks the skills backwards
    summary = tmp_path / "runs" / "chain-preconds" / str(PIPELINE_SEED) / "chain_summary.csv"
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["skill"], r["em_iters"], r["em_converged"]) for r in rows] == [
        (str(i), str(len(fit.loglik_trace)), str(int(fit.converged)))
        for i, fit in enumerate(reversed(skill_fits))
    ]
    out = tmp_path / "runs" / "discover" / str(PIPELINE_SEED)
    with open(out / "failures.csv", newline="") as fh:
        n_records = len(list(csv.DictReader(fh)))
    with open(out / "cluster_summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {
        "n_records": str(n_records),
        "n_modes": str(DEFAULT_MODES_PESSIMISTIC),
        "em_iters": str(len(cluster_fit.loglik_trace)),
        "em_converged": str(int(cluster_fit.converged)),
    }
    unconverged = [fit for fit in fits if not fit.converged]
    assert len(caplog.records) == len(unconverged)
    if max_iter == 3:  # every fit stops at max_iter: a warning each, and the stages finish
        assert len(unconverged) == len(fits) and {r["em_iters"] for r in rows} == {"3"}
        assert all(r.levelname == "WARNING" and "max_iter=3" in r.getMessage() for r in caplog.records)


def test_discover_without_failure_states_exits_1(config_file, tmp_path, monkeypatch, capsys):
    assert main(["chain-preconds", "--config", config_file()]) == 0
    monkeypatch.setattr(harness_cli, "discover_pessimistic", lambda *args, **kwargs: [])
    preconds = str(tmp_path / "runs" / "chain-preconds" / "0" / "preconds.rfj")
    assert main(["discover", "--config", config_file(preconds_path=preconds)]) == 1
    assert "0 failure states cannot form 6 modes" in capsys.readouterr().err
    out = tmp_path / "runs" / "discover" / "0"
    assert (out / "failures.csv").exists()
    assert not (out / "modes.rfj").exists()
    assert not (out / "cluster_summary.csv").exists()


def test_best_applicable_is_the_highest_accepting_skill():
    negative = GmmModel([1.0], [GaussianModel(np.array([6.0]), np.eye(1))])
    rhos = [
        GenerativeClassifier(GaussianModel(np.array([m]), np.eye(1)), negative)
        for m in (0.0, 1.0, 9.0)
    ]
    preconds = PreconditionSet(rhos, [r.positive for r in rhos], rhos[-1].positive, rhos[-1])
    states = np.array([[0.5], [9.0], [6.0]])  # skills 0 and 1 accept 0.5; skill 2 only 9.0
    assert harness_cli._best_applicable(preconds, states) == [1, 2, None]
    assert [harness_cli._best_applicable(preconds, row[None])[0] for row in states] == [1, 2, None]


def _run_pipeline(root, **overrides) -> dict[str, bytes]:
    """All five stages at a tiny config (``PIPELINE_SEED``) with ``overrides``;
    returns every output file except the config snapshots, which record the
    output directory."""
    out = root / "runs"
    base = {
        "out_dir": str(out),
        "seed": PIPELINE_SEED,
        "seeds": [PIPELINE_SEED],
        "discovery_episodes": 300,
        "budget": 48,
        "reps_updates": 1,
        "reps_samples": 10,
        "n_eval_rollouts": 5,
        "eval_episodes": 20,
        "preconds_path": str(out / "chain-preconds" / str(PIPELINE_SEED) / "preconds.rfj"),
        "modes_path": str(out / "discover" / str(PIPELINE_SEED) / "modes.rfj"),
        "library_dir": str(out / "train"),
        **overrides,
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
    assert os.path.join("train", str(PIPELINE_SEED), "library.rfj") in first
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


# Integer state scales once made ``train`` fail to save its library.
@pytest.mark.parametrize("overrides", [{}, {"knn_state_scale": [1] * 7}])
def test_every_pipeline_artifact_saves_back_to_the_same_bytes(tmp_path, overrides):
    """A load and a save reproduce each artifact of a run byte for byte, so
    no stored field is dropped or rewritten on the way."""
    kinds = set()
    again = tmp_path / "again.rfj"
    for name, data in _run_pipeline(tmp_path, **overrides).items():
        if name.endswith(".rfj"):
            doc = json.loads(data)
            kinds.add(doc["kind"])
            artifact = persistence_io.load_artifact(tmp_path / "runs" / name)
            seed = doc["created_with_seed"]
            persistence_io.save_artifact(artifact, again, created_with_seed=seed)
            assert again.read_bytes() == data, name
    assert kinds == {"PreconditionSet", "FailureModeSet", "RecoveryLibrary", "AllocatorState"}


# -- evaluation: the shared closed-loop prefix against per-policy episodes ------------


def _oracle_episode(policy, env, preconds, modes, library, mode_targets, seed, skill_cap, sigma0):
    """One closed-loop policy's evaluation episode run on its own from the
    episode's reset, one one-state accept decision per step: the per-policy
    loop that the shared prefix and the lockstep steps replace."""
    skills = env.nominal_skills()
    state, obs = env.reset(seed=seed, sigma=sigma0)
    sigma = sigma0
    initial_ee = state.ee_pos
    cost = 0.0
    executed = 0
    last_skill = None
    prev_pose = None
    just_retried = False
    just_reversed = False

    def run(action):
        nonlocal state, cost, executed, sigma, obs
        state, step_cost = env.execute_skill(state, action, obs)
        cost += step_cost
        executed += 1
        sigma = sigma / 2.0
        obs = env.observe(state, sigma)

    while executed < skill_cap:
        if env.goal_predicate(state):
            break
        mls = env.mls_state_vector(state, obs)
        accepted = np.flatnonzero(preconds.accepting(mls))
        if accepted.size:
            prev_pose = (state.ee_pos, 1.0 if state.gripper_closed else 0.0)
            run(skills[accepted[-1]])
            last_skill = int(accepted[-1])
            just_retried = False
            just_reversed = False
            continue
        if policy == "no-recovery":
            break
        if policy == "retry":
            if last_skill is None or just_retried:
                break
            run(skills[last_skill])
            just_retried = True
        elif policy == "recover-to-prev":
            if prev_pose is None or just_reversed:
                break
            run(MoveTo(prev_pose[0], prev_pose[1]))
            just_reversed = True
        elif policy == "recover-to-start":
            run(MoveTo(initial_ee, 0.0))
        else:
            mode = classify_failure(modes, mls)
            skill = library.skills[mode][mode_targets[mode]]
            if len(skill) == 0:
                break
            run(knn_predict(skill, mls))
    return EpisodeResult(bool(env.goal_predicate(state)), cost, executed)


def _oracle_open_loop(env, seed, sigma):
    record = env.run_chain(sigma, seed=seed)
    return EpisodeResult(record.success, sum(record.costs), len(record.costs))


@pytest.fixture(scope="module")
def evaluation_inputs(tmp_path_factory):
    """Preconditions, failure modes and a trained library for each pipeline
    seed of ``EVAL_SEEDS``, at a tiny training config."""
    inputs = {}
    for p in EVAL_SEEDS:
        out = tmp_path_factory.mktemp(f"pipeline{p}")
        config = {
            "out_dir": str(out),
            "seed": p,
            "seeds": [p],
            "discovery_episodes": 300,
            "budget": 48,
            "reps_updates": 1,
            "reps_samples": 10,
            "n_eval_rollouts": 5,
            "preconds_path": str(out / "chain-preconds" / str(p) / "preconds.rfj"),
            "modes_path": str(out / "discover" / str(p) / "modes.rfj"),
            "library_dir": str(out / "train"),
        }
        path = out / "config.json"
        path.write_text(json.dumps(config))
        for stage in ("chain-preconds", "discover", "train"):
            assert main([stage, "--config", str(path)]) == 0, (p, stage)
        inputs[p] = (path, {key: config[key] for key in ("preconds_path", "modes_path")})
    return inputs


def _half_empty(library):
    """The library with every odd mode's recoveries emptied, so that the
    learned policy meets trained and untrained recoveries."""
    skills = [
        [ParameterizedSkill(k=s.k, state_scale=s.state_scale) if i % 2 else s for s in row]
        for i, row in enumerate(library.skills)
    ]
    return RecoveryLibrary(skills=skills, q=library.q)


def _evaluation_case(evaluation_inputs, pipeline_seed):
    """The seed's preconditions, modes, half-emptied library and learned
    policy map."""
    path, paths = evaluation_inputs[pipeline_seed]
    preconds = persistence_io.load_artifact(paths["preconds_path"])
    modes = persistence_io.load_artifact(paths["modes_path"])
    library = persistence_io.load_artifact(
        str(path.parent / "train" / str(pipeline_seed) / "library.rfj")
    )
    library = _half_empty(library)
    mode_targets = harness_cli._learned_policy_map(harness_cli._recovery_graph(modes), library)
    return preconds, modes, library, mode_targets


def _episode_seeds(config):
    seeds = harness_cli.stage_seeds("evaluate", config.seed)
    return [spawned_child(seeds["episodes"], ep) for ep in range(config.eval_episodes)]


def _assert_equals_the_oracle(results, config, preconds, modes, library, mode_targets):
    """Every episode's result of every policy equals the per-policy oracle's,
    and so does ``run_policy_episode``, the one-branch case, on the
    episode's one-loop prefix."""
    env = LatchEnv(seed=harness_cli.stage_seeds("evaluate", config.seed)["env"])
    assert {len(r) for r in results.values()} == {config.eval_episodes}
    for ep, seed in enumerate(_episode_seeds(config)):
        assert results["open-loop"][ep] == _oracle_open_loop(env, seed, config.sigma_ref)
        state, obs = env.reset(seed, config.sigma_ref)
        prefix = harness_cli.ClosedLoop(state, obs, config.sigma_ref, state.ee_pos, env.rng_state())
        harness_cli._advance_lockstep(env, preconds, [prefix], Counter())
        for policy in harness_cli.EVAL_POLICIES[1:]:
            expected = _oracle_episode(
                policy, env, preconds, modes, library, mode_targets, seed,
                harness_cli.SKILL_CAP, config.sigma_ref,
            )
            assert results[policy][ep] == expected, (ep, policy)
            alone = harness_cli.run_policy_episode(
                policy, env, prefix, preconds, modes, library, mode_targets
            )
            assert alone == expected, (ep, policy)


@pytest.mark.parametrize("pipeline_seed", EVAL_SEEDS)
def test_shared_prefix_evaluation_equals_per_policy_episodes(
    evaluation_inputs, monkeypatch, pipeline_seed
):
    preconds, modes, library, mode_targets = _evaluation_case(evaluation_inputs, pipeline_seed)
    config = ExperimentConfig(seed=pipeline_seed, eval_episodes=200)

    # Each episode's start pose names it: (episode, policy) -> did the policy
    # act, one entry per failure the branch met.
    env = LatchEnv()
    episode_of = {
        env.reset(seed, config.sigma_ref)[0].ee_pos: ep
        for ep, seed in enumerate(_episode_seeds(config))
    }
    assert len(episode_of) == config.eval_episodes
    acted: dict[tuple[int, str], list[bool]] = {}
    action = harness_cli._recovery_action

    def spied_action(policy, loop, *args):
        chosen = action(policy, loop, *args)
        acted.setdefault((episode_of[loop.start_ee], policy), []).append(chosen is not None)
        return chosen

    monkeypatch.setattr(harness_cli, "_recovery_action", spied_action)
    results, reached_failure = harness_cli.evaluate_seed(
        config, pipeline_seed, preconds, modes, library, mode_targets
    )
    monkeypatch.undo()
    _assert_equals_the_oracle(results, config, preconds, modes, library, mode_targets)

    no_recovery = results["no-recovery"]
    failed = {
        ep for ep, r in enumerate(no_recovery)
        if not r.success and r.executed < harness_cli.SKILL_CAP
    }
    assert reached_failure == len(failed)
    # every policy branches at each episode that reached a failure, and only there
    assert acted.keys() == {(ep, p) for ep in failed for p in harness_cli.EVAL_POLICIES[1:]}
    outcomes = {(policy, a) for (_, policy), flags in acted.items() for a in flags}
    for policy in ("retry", "recover-to-prev", "recover-to-start", "learned-recovery"):
        assert (policy, True) in outcomes, policy
    assert ("learned-recovery", False) in outcomes  # an untrained recovery ends the episode
    assert any(len(flags) > 1 for flags in acted.values())  # some episodes fail twice
    assert 0 < reached_failure < config.eval_episodes


def _spy_on_accepting(monkeypatch) -> list[int]:
    """The number of states each ``PreconditionSet.accepting`` call decides,
    one entry per call, from now on."""
    rows = []
    accepting = PreconditionSet.accepting

    def spied(self, x):
        rows.append(len(np.asarray(x)))
        return accepting(self, x)

    monkeypatch.setattr(PreconditionSet, "accepting", spied)
    return rows


def test_evaluation_decides_each_lockstep_step_in_one_accept_call(
    evaluation_inputs, monkeypatch
):
    preconds, modes, library, mode_targets = _evaluation_case(evaluation_inputs, EVAL_SEEDS[0])
    config = ExperimentConfig(seed=EVAL_SEEDS[0], eval_episodes=70)
    blocks = -(-config.eval_episodes // failure_discovery.DISCOVERY_BLOCK_EPISODES)
    assert blocks == 2  # the episodes cross a block boundary
    rows = _spy_on_accepting(monkeypatch)
    counts = Counter()
    results, _ = harness_cli.evaluate_seed(
        config, EVAL_SEEDS[0], preconds, modes, library, mode_targets, counts
    )
    monkeypatch.undo()
    # A block runs at most SKILL_CAP + 1 lockstep steps per phase: the prefix,
    # then at most SKILL_CAP recovery rounds, since each branch acts once a round.
    assert len(rows) <= blocks * (harness_cli.SKILL_CAP + 1) ** 2
    assert rows[0] == failure_discovery.DISCOVERY_BLOCK_EPISODES  # the first block's first step
    assert counts == {"accept_calls": len(rows), "accept_rows": sum(rows)}
    _assert_equals_the_oracle(results, config, preconds, modes, library, mode_targets)


def test_evaluate_logs_how_many_episodes_reached_a_failure(evaluation_inputs, caplog):
    path, _ = evaluation_inputs[EVAL_SEEDS[0]]
    config = json.loads(path.read_text())
    config["eval_episodes"] = 20
    path.with_name("evaluate.json").write_text(json.dumps(config))
    caplog.set_level("INFO", logger="recovery_forge")
    assert main(["evaluate", "--config", str(path.with_name("evaluate.json"))]) == 0
    lines = [r.getMessage() for r in caplog.records if "failure branch" in r.getMessage()]
    assert len(lines) == 1
    assert lines[0].startswith(f"seed {EVAL_SEEDS[0]}: ")
    assert lines[0].endswith(" of 20 episodes reached the failure branch")


def test_evaluate_logs_its_accept_calls_and_the_states_they_decided(
    evaluation_inputs, tmp_path, monkeypatch, caplog
):
    path, _ = evaluation_inputs[EVAL_SEEDS[0]]
    config = json.loads(path.read_text())
    config.update(eval_episodes=20, out_dir=str(tmp_path))
    rows = _spy_on_accepting(monkeypatch)
    caplog.set_level("INFO", logger="recovery_forge")
    assert main(["evaluate", "--config", _config_at(tmp_path, config)]) == 0
    lines = [r.getMessage() for r in caplog.records if "accept calls" in r.getMessage()]
    assert lines == [
        f"seed {EVAL_SEEDS[0]}: {len(rows)} accept calls decided {sum(rows)} closed-loop states"
    ]
    assert 0 < len(rows) < sum(rows)


def test_an_unknown_policy_is_no_config_error():
    # EVAL_POLICIES is a constant: no config reaches this branch.
    with pytest.raises(RecoveryForgeError, match="unknown evaluation policy 'bogus'") as err:
        harness_cli._recovery_action("bogus", None, None, None, None, None, None)
    assert not isinstance(err.value, ConfigError)


def test_a_library_that_does_not_match_its_modes_exits_1(evaluation_inputs, tmp_path, capsys):
    path, paths = evaluation_inputs[EVAL_SEEDS[0]]
    config = json.loads(path.read_text())
    library = persistence_io.load_artifact(
        str(path.parent / "train" / str(EVAL_SEEDS[0]) / "library.rfj")
    )
    n = library.q.shape[0]
    short = RecoveryLibrary(
        skills=library.skills[: n - 1],
        q=library.q[: n - 1],
    )
    (tmp_path / "short" / str(EVAL_SEEDS[0])).mkdir(parents=True)
    persistence_io.save_artifact(
        short, str(tmp_path / "short" / str(EVAL_SEEDS[0]) / "library.rfj"), created_with_seed=0
    )
    config.update(library_dir=str(tmp_path / "short"), out_dir=str(tmp_path / "runs"))
    config["eval_episodes"] = 2
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["evaluate", "--config", str(tmp_path / "config.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: q has shape ({n - 1}, ") and f"the graph {n} modes" in err
    assert not (tmp_path / "runs" / "evaluate").exists()


def _config_at(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def _library_dir_without_the_seed(tmp_path, config):
    config["library_dir"] = str(tmp_path)
    return "evaluate", _config_at(tmp_path, config)


def _a_later_seed_without_a_library(tmp_path, config):
    config["seeds"] = [EVAL_SEEDS[0], 99]
    return "evaluate", _config_at(tmp_path, config)


def _a_library_that_is_a_directory(tmp_path, config):
    (tmp_path / "train" / str(EVAL_SEEDS[0]) / "library.rfj").mkdir(parents=True)
    config["library_dir"] = str(tmp_path / "train")
    return "evaluate", _config_at(tmp_path, config)


def _preconditions_that_are_a_directory(tmp_path, config):
    config["preconds_path"] = str(tmp_path)
    return "discover", _config_at(tmp_path, config)


def _preconditions_that_are_not_utf8(tmp_path, config):
    path = tmp_path / "preconds.rfj"
    path.write_bytes(b'{"kind": "\xff"}')
    config["preconds_path"] = str(path)
    return "discover", _config_at(tmp_path, config)


def _a_config_that_is_a_directory(tmp_path, config):
    return "synth-alloc", str(tmp_path)


def _a_config_that_is_not_utf8(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": "\xff"}')
    return "synth-alloc", str(path)


def _preconditions_that_are_failure_modes(tmp_path, config):
    config["preconds_path"] = config["modes_path"]
    return "discover", _config_at(tmp_path, config)


def _an_out_dir_that_is_a_file(tmp_path, config):
    (tmp_path / "runs").write_text("")
    return "synth-alloc", _config_at(tmp_path, config)


BAD_INPUTS = {
    "library_dir_without_the_seed": (
        _library_dir_without_the_seed, 2, "trained library not found at"
    ),
    "a_later_seed_without_a_library": (
        _a_later_seed_without_a_library, 2, f"{os.sep}99{os.sep}library.rfj: a file is required"
    ),
    "a_library_that_is_a_directory": (
        _a_library_that_is_a_directory, 2, "library.rfj: a file is required"
    ),
    "preconditions_that_are_a_directory": (
        _preconditions_that_are_a_directory, 2, "precondition set not found at"
    ),
    "preconditions_that_are_not_utf8": (
        _preconditions_that_are_not_utf8, 1, "preconds.rfj is not a valid artifact document"
    ),
    "preconditions_that_are_failure_modes": (
        _preconditions_that_are_failure_modes, 2, "holds a FailureModeSet, not a PreconditionSet"
    ),
    "a_config_that_is_a_directory": (_a_config_that_is_a_directory, 2, "config file not found"),
    "a_config_that_is_not_utf8": (_a_config_that_is_not_utf8, 2, "is not valid JSON"),
    "an_out_dir_that_is_a_file": (
        _an_out_dir_that_is_a_file, 2, "cannot make the output directory"
    ),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_a_bad_input_exits_with_one_error_line_and_no_traceback(evaluation_inputs, tmp_path, case):
    path, _ = evaluation_inputs[EVAL_SEEDS[0]]
    config = json.loads(path.read_text())
    config.update(out_dir=str(tmp_path / "runs"), eval_episodes=2)
    make, code, message = BAD_INPUTS[case]
    stage, config_path = make(tmp_path, config)
    src = os.path.dirname(os.path.dirname(os.path.abspath(recovery_forge.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "recovery_forge.harness_cli", stage, "--config", config_path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert "Traceback" not in done.stderr
    assert done.returncode == code, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def _no_episode(*args, **kwargs):
    raise AssertionError("an evaluation episode ran")


def test_evaluate_makes_its_output_directory_before_the_first_episode(
    evaluation_inputs, tmp_path, monkeypatch, capsys
):
    path, _ = evaluation_inputs[EVAL_SEEDS[0]]
    config = json.loads(path.read_text())
    (tmp_path / "runs").write_text("")
    config["out_dir"] = str(tmp_path / "runs")
    monkeypatch.setattr(harness_cli, "evaluate_seed", _no_episode)
    assert main(["evaluate", "--config", _config_at(tmp_path, config)]) == 2
    assert "cannot make the output directory" in capsys.readouterr().err


def test_evaluate_checks_a_later_seeds_library_before_the_first_episode(
    evaluation_inputs, tmp_path, monkeypatch, capsys
):
    path, paths = evaluation_inputs[EVAL_SEEDS[0]]
    config = json.loads(path.read_text())
    first, later = (tmp_path / "train" / str(seed) for seed in (EVAL_SEEDS[0], 99))
    first.mkdir(parents=True)
    later.mkdir()
    shutil.copyfile(os.path.join(config["library_dir"], str(EVAL_SEEDS[0]), "library.rfj"),
                    first / "library.rfj")
    shutil.copyfile(paths["modes_path"], later / "library.rfj")  # an artifact of another kind
    config.update(
        seeds=[EVAL_SEEDS[0], 99], library_dir=str(tmp_path / "train"),
        out_dir=str(tmp_path / "runs"),
    )
    monkeypatch.setattr(harness_cli, "evaluate_seed", _no_episode)
    assert main(["evaluate", "--config", _config_at(tmp_path, config)]) == 2
    assert "holds a FailureModeSet, not a RecoveryLibrary" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_each_selection_trains_one_episode(evaluation_inputs):
    _, paths = evaluation_inputs[EVAL_SEEDS[0]]
    config = ExperimentConfig(
        allocation_strategy="rr", budget=3, reps_updates=1, reps_samples=10, n_eval_rollouts=1,
        **paths,
    )
    inputs = [persistence_io.load_artifact(paths[key]) for key in ("preconds_path", "modes_path")]
    library, result, reps_rows = harness_cli.train_one_seed(config, EVAL_SEEDS[0], *inputs)
    counts = result.state.train_counts
    assert [[len(skill) for skill in row] for row in library.skills] == counts.tolist()
    assert [row[0] for row in reps_rows] == [0, 1, 2]  # one REPS update per selection


def test_train_loads_its_inputs_once_and_each_seed_trains_as_alone(
    evaluation_inputs, tmp_path, monkeypatch
):
    _, paths = evaluation_inputs[EVAL_SEEDS[0]]
    base = dict(
        allocation_strategy="rr", budget=2, reps_updates=1, reps_samples=10,
        n_eval_rollouts=1, **paths,
    )
    loaded = []
    load = persistence_io.load_artifact
    monkeypatch.setattr(persistence_io, "load_artifact", lambda path: loaded.append(path) or load(path))
    both = harness_cli.cmd_train(ExperimentConfig(out_dir=str(tmp_path / "both"), seeds=(3, 4), **base))
    assert loaded == [paths["preconds_path"], paths["modes_path"]]
    for seed in (3, 4):
        alone = harness_cli.cmd_train(
            ExperimentConfig(out_dir=str(tmp_path / f"alone{seed}"), seeds=(seed,), **base)
        )
        with open(both[seed], "rb") as a, open(alone[seed], "rb") as b:
            assert a.read() == b.read()


# -- each run setting of the latch world reaches its reader ---------------------------

NOISE = {"sigma_ref": 0.03, "pessimistic_sigma_factor": 2.5}


@pytest.mark.parametrize(
    "strategy, noise", [("pessimistic", 0.03 * 2.5), ("early_termination", 0.03)]
)
def test_discover_draws_its_estimates_at_the_configured_noise(
    evaluation_inputs, tmp_path, monkeypatch, strategy, noise
):
    _, paths = evaluation_inputs[EVAL_SEEDS[0]]
    name = f"discover_{strategy}"
    discover, seen = getattr(harness_cli, name), []

    def spied(*args, **kwargs):
        seen.append(kwargs["noise_sigma"])
        return discover(*args, **kwargs)

    monkeypatch.setattr(harness_cli, name, spied)
    harness_cli.cmd_discover(ExperimentConfig(
        out_dir=str(tmp_path), seed=EVAL_SEEDS[0], discovery_strategy=strategy,
        discovery_episodes=200, **NOISE, **paths,
    ))
    assert seen == [noise]


def test_evaluate_draws_every_first_estimate_at_sigma_ref(evaluation_inputs, monkeypatch):
    _, paths = evaluation_inputs[EVAL_SEEDS[0]]
    preconds, modes = (persistence_io.load_artifact(paths[key]) for key in paths)
    library = RecoveryLibrary.empty(modes.n_modes, preconds.n_skills + 1)
    config = ExperimentConfig(seed=EVAL_SEEDS[0], eval_episodes=5, **NOISE)
    rgraph = harness_cli._recovery_graph(modes)
    mode_targets = harness_cli._learned_policy_map(rgraph, library)
    calls = []
    run_chain, reset = LatchEnv.run_chain, LatchEnv.reset

    def spied_run_chain(env, sigma, seed):
        calls.append(("open-loop", seed.spawn_key, sigma))
        return run_chain(env, sigma, seed=seed)

    def spied_reset(env, seed, sigma):
        calls.append(("reset", seed.spawn_key, sigma))
        return reset(env, seed, sigma)

    monkeypatch.setattr(LatchEnv, "run_chain", spied_run_chain)
    monkeypatch.setattr(LatchEnv, "reset", spied_reset)
    harness_cli.evaluate_seed(config, EVAL_SEEDS[0], preconds, modes, library, mode_targets)
    # per episode, from its own seed: the open-loop chain and its reset, then
    # the shared prefix's reset
    keys = [seed.spawn_key for seed in _episode_seeds(config)]
    assert calls == [
        call for key in keys
        for call in (("open-loop", key, 0.03), ("reset", key, 0.03), ("reset", key, 0.03))
    ]


def test_the_trained_library_measures_states_with_knn_state_scale(evaluation_inputs, tmp_path):
    _, paths = evaluation_inputs[EVAL_SEEDS[0]]
    scale = (0.1, 0.2, 0.5, 0.03, 0.04, 0.6, 0.7)
    library_paths = harness_cli.cmd_train(ExperimentConfig(
        out_dir=str(tmp_path), seeds=(EVAL_SEEDS[0],), allocation_strategy="rr", budget=2,
        reps_updates=1, reps_samples=10, n_eval_rollouts=1, knn_state_scale=scale, **paths,
    ))
    library = persistence_io.load_artifact(library_paths[EVAL_SEEDS[0]])
    assert [skill.state_scale.tolist() for row in library.skills for skill in row] == (
        [list(scale)] * library.q.size
    )


@pytest.mark.parametrize("seed", [0, 44])
def test_synthetic_task_set_keeps_its_draw_order(seed):
    # sizes, then per mode the strong target, then per edge q_max followed by tau
    rng = np.random.default_rng(seed)
    n, m = harness_cli.SYNTH_MODES, len(harness_cli.SYNTH_COSTS) + 1
    sizes = rng.integers(50, 400, size=n).astype(float)
    q_max, tau = [], []
    for _ in range(n):
        strong = int(rng.integers(0, m))
        for j in range(m):
            lo, hi = harness_cli.SYNTH_STRONG_Q if j == strong else harness_cli.SYNTH_WEAK_Q
            q_max.append(float(rng.uniform(lo, hi)))
            tau.append(float(rng.uniform(*harness_cli.SYNTH_TAU)))
    rgraph, got_q_max, got_tau = harness_cli.synthetic_task_set(seed)
    np.testing.assert_array_equal(rgraph.mode_sizes, sizes)
    assert got_q_max.ravel().tolist() == q_max
    assert got_tau.ravel().tolist() == tau


# -- the run's fixed values: each was once a config setting ---------------------------

# Each former setting and its default (None: the stage chose the value). No
# run varied them, so each value now has one home, pinned by
# ``test_each_former_setting_keeps_its_value``.
FORMER_RUN_SETTINGS = {
    "neighborhood_scale": 4.0,
    "n_failure_modes": None,
    "gamma": 1.0,
    "c_fail": None,
    "alpha": 0.95,
    "window": 3,
    "init_rounds": 2,
    "reps_epsilon": 0.5,
    "reps_init_cov_scale": 0.25,
    "skill_cap": 10,
    "episodes_per_selection": 1,
}


# The values the former range checks rejected, and the two wrong JSON types
# every field rejects: a former setting is an unknown field whatever its value,
# so the name is checked before any value.
FORMER_OUT_OF_RANGE = [
    ("reps_init_cov_scale", 0),
    ("reps_epsilon", -1),
    ("alpha", 1.5),
    ("alpha", 0),
    ("window", 0),
    ("window", 1),
    ("skill_cap", 0),
    ("skill_cap", 2.5),
    ("n_failure_modes", 0),
    ("gamma", 0),
    ("gamma", 1.5),
    ("neighborhood_scale", 0.5),
    ("c_fail", 0.0),
    ("init_rounds", -3),
    ("episodes_per_selection", 0),
]
FORMER_SETTING_CASES = [
    *(pytest.param(name, default, id=name) for name, default in FORMER_RUN_SETTINGS.items()),
    *(
        pytest.param(name, value, id=f"{name}={json.dumps(value)}")
        for name, value in FORMER_OUT_OF_RANGE
        + [(name, value) for name in FORMER_RUN_SETTINGS for value in (True, [None])]
    ),
]


@pytest.mark.parametrize(("name", "value"), FORMER_SETTING_CASES)
def test_a_former_run_setting_is_not_a_config_field(tmp_path, capsys, name, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "runs"), name: value}))
    assert main(["synth-alloc", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: unknown config fields: [{name!r}]\n"
    assert not (tmp_path / "runs").exists()


def test_each_former_setting_keeps_its_value():
    # The stages read these values; a value that moves changes every output.
    config = ExperimentConfig()
    reps = config.reps_config()
    assert (reps.epsilon, INIT_COVARIANCE_SCALE) == (0.5, 0.25)
    assert (UCL_ALPHA, UCL_WINDOW, INIT_ROUNDS, UCL_T) == (0.95, 3, 2, 12.706204736174696)
    assert [f.name for f in dataclasses.fields(config.allocator_config())] == ["budget"]
    modes = FailureModeSet(GmmModel([1.0], [GaussianModel(np.zeros(1), np.eye(1))]), [10.0])
    rgraph = harness_cli._recovery_graph(modes)
    values = [0.0]  # undiscounted: each safe state is worth minus the costs to the goal
    for cost in reversed(NOMINAL_COSTS):
        values.insert(0, -cost + values[0])
    assert rgraph.target_values.tolist() == values
    assert rgraph.c_fail == 100.0 * max(NOMINAL_COSTS)
    assert (DEFAULT_MODES_PESSIMISTIC, DEFAULT_MODES_EARLY_TERMINATION) == (6, 5)
    assert harness_cli.NEIGHBORHOOD_SCALE == 4.0
    assert harness_cli.SKILL_CAP == 10
