"""Artifact saving and loading: file mode, and the rejection of success
estimates outside [0, 1], NaN included."""

import os

import numpy as np
import pytest

from recovery_forge.allocator import AllocatorConfig, AllocatorState
from recovery_forge.errors import InvariantViolationError
from recovery_forge.persistence_io import load_artifact, save_artifact
from recovery_forge.recovery_skills import RecoveryLibrary


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
