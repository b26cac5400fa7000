"""Artifact saving and loading: round trips of every artifact kind, file mode,
the rejection of success estimates outside [0, 1], NaN included, of
envelope seeds that are not integers and of documents that are not objects."""

import json
import os

import numpy as np
import pytest

from recovery_forge.allocator import AllocatorConfig, AllocatorState
from recovery_forge.classifiers import (
    GenerativeClassifier,
    classify,
    fit_gaussian,
    fit_gmm,
    gaussian_logpdf,
    responsibilities,
)
from recovery_forge.errors import InvariantViolationError, SchemaError
from recovery_forge.harness_cli import main
from recovery_forge.failure_discovery import FailureModeSet
from recovery_forge.persistence_io import load_artifact, save_artifact
from recovery_forge.precondition_chaining import PreconditionSet
from recovery_forge.recovery_skills import RecoveryLibrary

DIM = 7


def _library(q):
    library = RecoveryLibrary.empty(2, [0, 1, 2])
    library.q[:] = q
    return library


def _allocator_state(q):
    state = AllocatorState.fresh(2, 3, AllocatorConfig())
    state.q[:] = q
    return state


@pytest.mark.parametrize("make", [_library, _allocator_state])
def test_valid_estimates_round_trip(tmp_path, make):
    q = np.array([[0.0, 0.5, 1.0], [0.25, 0.0, 0.75]])
    path = tmp_path / "artifact.rfj"
    save_artifact(make(q), path)
    np.testing.assert_array_equal(load_artifact(path).q, q)


def _classifier(rng, center):
    positive = fit_gaussian(rng.normal(center, 0.1, size=(30, DIM)))
    negative = fit_gmm(rng.normal(0.0, 1.0, size=(60, DIM)), 3, seed=int(rng.integers(2**31)))
    return GenerativeClassifier(positive, negative, prior_positive=0.4)


def _query_batch():
    return np.random.default_rng(11).normal(0.0, 0.8, size=(25, DIM))


def test_precondition_set_round_trip_classifies_identically(tmp_path):
    rng = np.random.default_rng(10)
    preconds = [_classifier(rng, c) for c in (-0.5, 0.0, 0.5)]
    goal = _classifier(rng, 1.0)
    original = PreconditionSet(preconds, [c.positive for c in preconds], goal.positive, goal)
    path = tmp_path / "preconds.rfj"
    save_artifact(original, path, created_with_seed=3)
    loaded = load_artifact(path)
    assert isinstance(loaded, PreconditionSet)
    assert loaded.n_targets == original.n_targets
    batch = _query_batch()
    for j in range(original.n_targets):
        got = classify(loaded.target_classifier(j), batch)
        assert np.array_equal(got, classify(original.target_classifier(j), batch))
        assert np.array_equal(
            gaussian_logpdf(loaded.target_positive(j), batch),
            gaussian_logpdf(original.target_positive(j), batch),
        )


def test_failure_mode_set_round_trip_gives_identical_responsibilities(tmp_path):
    rng = np.random.default_rng(12)
    states = np.concatenate([rng.normal(c, 0.2, size=(40, DIM)) for c in (-1.0, 0.0, 1.0)])
    original = FailureModeSet(fit_gmm(states, 3, seed=4), [40.0, 35.5, 44.0])
    path = tmp_path / "modes.rfj"
    save_artifact(original, path, created_with_seed=3)
    loaded = load_artifact(path)
    assert isinstance(loaded, FailureModeSet)
    assert np.array_equal(loaded.sizes, original.sizes)
    batch = _query_batch()
    assert np.array_equal(responsibilities(loaded.gmm, batch), responsibilities(original.gmm, batch))


@pytest.mark.parametrize("make", [_library, _allocator_state])
@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_estimate_outside_unit_interval_is_rejected(tmp_path, make, bad):
    q = np.array([[0.0, 0.5, 1.0], [0.25, bad, 0.75]])
    path = tmp_path / "artifact.rfj"
    save_artifact(make(q), path)
    with pytest.raises(InvariantViolationError):
        load_artifact(path)


def test_saved_artifact_has_the_mode_of_an_open_created_file(tmp_path):
    plain = tmp_path / "plain.csv"
    with open(plain, "w") as fh:
        fh.write("x\n")
    path = tmp_path / "artifact.rfj"
    save_artifact(_library(np.zeros((2, 3))), path)
    assert os.stat(path).st_mode == os.stat(plain).st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.rfj", "plain.csv"]


def test_save_replaces_an_existing_artifact(tmp_path):
    path = tmp_path / "artifact.rfj"
    save_artifact(_library(np.zeros((2, 3))), path)
    save_artifact(_library(np.full((2, 3), 0.5)), path)
    np.testing.assert_array_equal(load_artifact(path).q, np.full((2, 3), 0.5))


@pytest.mark.parametrize("seed", [0, 3, -1, 2**63 + 5])
def test_integer_seeds_load_unchanged(tmp_path, seed):
    path = tmp_path / "artifact.rfj"
    save_artifact(_library(np.full((2, 3), 0.25)), path, created_with_seed=seed)
    assert json.loads(path.read_text())["created_with_seed"] == seed
    np.testing.assert_array_equal(load_artifact(path).q, np.full((2, 3), 0.25))


def _with_seed(path, seed):
    doc = json.loads(path.read_text())
    doc["created_with_seed"] = seed
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("seed", [True, False, 3.0, 2.5, "3", "x", None])
def test_a_seed_that_is_not_an_integer_is_a_schema_error(tmp_path, seed):
    path = tmp_path / "artifact.rfj"
    save_artifact(_library(np.zeros((2, 3))), path)
    _with_seed(path, seed)
    with pytest.raises(SchemaError, match="created_with_seed"):
        load_artifact(path)


@pytest.mark.parametrize("doc", [3, None, "x", []])
def test_a_document_that_is_not_an_object_is_a_schema_error(tmp_path, doc):
    path = tmp_path / "artifact.rfj"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="is not an artifact object"):
        load_artifact(path)


@pytest.mark.parametrize("seed", [True, 3.0, "3", None])
def test_the_cli_exits_1_on_a_seed_that_is_not_an_integer(tmp_path, capsys, seed):
    rng = np.random.default_rng(13)
    preconds = [_classifier(rng, c) for c in (-0.5, 0.0, 0.5)]
    goal = preconds[0]
    artifact = PreconditionSet(preconds, [c.positive for c in preconds], goal.positive, goal)
    path = tmp_path / "preconds.rfj"
    save_artifact(artifact, path)
    _with_seed(path, seed)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "runs"), "preconds_path": str(path)}))
    assert main(["discover", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "created_with_seed" in err
