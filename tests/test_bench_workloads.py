"""The rest of the benchmark's frozen surface: every config that a workload
(``bench/workloads.py``) hands to a stage still decodes to an
``ExperimentConfig``, and the output check (``bench/check.py``) still reloads
one saved artifact of each kind. A change to the package that would break the
benchmark's runs fails here."""

import importlib.util
import json
import os

import numpy as np
import pytest

from recovery_forge.allocator import AllocatorConfig, AllocatorState
from recovery_forge.classifiers import GaussianModel, GenerativeClassifier, GmmModel
from recovery_forge.errors import config_from_json
from recovery_forge.failure_discovery import FailureModeSet
from recovery_forge.harness_cli import COMMANDS, ExperimentConfig
from recovery_forge.persistence_io import save_artifact, to_payload
from recovery_forge.precondition_chaining import PreconditionSet
from recovery_forge.recovery_skills import RecoveryLibrary

from conftest import SRC

BENCH = os.path.join(os.path.dirname(SRC), "bench")
DIM = 7


def _load(name):
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recorder:
    """A stand-in for ``run.Stages`` that runs nothing: it records each stage
    call and accepts every candidate input."""

    def __init__(self):
        self.calls = []

    def call(self, command, config):
        self.calls.append((command, config))

    def probe(self, stages_fn, what):
        return True


@pytest.mark.parametrize("name", ["train", "rollouts", "synth-alloc"])
def test_every_workload_config_decodes_to_an_experiment_config(tmp_path, name):
    workload = _load("workloads").WORKLOADS[name](3)
    stages = _Recorder()
    inputs = workload.prepare(stages, str(tmp_path))
    workload.setup(stages, inputs, str(tmp_path / "setup"))
    workload.timed(stages, inputs, str(tmp_path / "setup"), str(tmp_path / "timed"))
    assert stages.calls
    for command, config in stages.calls:
        assert command in COMMANDS
        # As run.Stages passes it: through a JSON file, read by the CLI's decoder.
        decoded = config_from_json(ExperimentConfig, json.loads(json.dumps(config)))
        assert decoded.seeds == tuple(config["seeds"])


def _artifacts():
    gauss = GaussianModel(np.zeros(DIM), np.eye(DIM))
    clf = GenerativeClassifier(gauss, GmmModel([1.0], [GaussianModel(np.ones(DIM), np.eye(DIM))]))
    library = RecoveryLibrary.empty(2, 3, state_scale=np.full(DIM, 0.5))
    rng = np.random.default_rng(21)
    for i, j in [(0, 1), (1, 2), (1, 2)]:
        library.skills[i][j].append(rng.normal(size=DIM), rng.normal(size=9))
    library.q[:] = rng.uniform(size=(2, 3))
    return {
        "preconds.rfj": PreconditionSet([clf], [gauss], gauss, clf),
        "modes.rfj": FailureModeSet(GmmModel([1.0], [gauss]), [4.0]),
        "library.rfj": library,
        "allocator.rfj": AllocatorState.fresh(2, 3, AllocatorConfig()),
    }


def test_the_output_check_reloads_one_artifact_of_each_kind(tmp_path):
    check = _load("check")
    for name, artifact in _artifacts().items():
        save_artifact(artifact, tmp_path / name)
    assert check.check_outputs(str(tmp_path)) == []
    # A library in the layout before the grid does not reload.
    library = _artifacts()["library.rfj"]
    doc = json.loads((tmp_path / "library.rfj").read_text())
    doc["payload"]["skills"] = [
        {"i": i, "j": j, "skill": to_payload(skill)}
        for i, row in enumerate(library.skills)
        for j, skill in enumerate(row)
    ]
    (tmp_path / "library.rfj").write_text(json.dumps(doc))
    (problem,) = check.check_outputs(str(tmp_path))
    assert problem.startswith("library.rfj: does not reload: SchemaError: ")
