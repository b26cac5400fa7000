"""Tooling tests for ``scripts/pipeline_digests.py``, the byte-identity proof.

If the script's config stopped decoding, every seed would print the same
``chain-preconds exit 2`` line on both source trees, and the two identical
listings would pass for a proof. These tests load the script as a module and
start no subprocess.
"""

import dataclasses
import hashlib
import importlib.util
import json
import os

import pytest

from recovery_forge.errors import config_from_json
from recovery_forge.harness_cli import ExperimentConfig

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "pipeline_digests.py")


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("pipeline_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 23])
def test_each_seeds_config_decodes_to_the_values_it_sets(digests, tmp_path, seed):
    out = str(tmp_path / "runs")
    doc = json.loads(json.dumps(digests.seed_config(seed, out)))  # as the stages read it
    config = config_from_json(ExperimentConfig, doc)
    decoded = dataclasses.asdict(config)
    assert {name: decoded[name] for name in doc} == {
        name: tuple(value) if isinstance(value, list) else value for name, value in doc.items()
    }
    assert (config.seed, config.seeds, config.out_dir) == (seed, (seed,), out)
    assert config.preconds_path.startswith(os.path.join(out, "chain-preconds", str(seed)))
    assert config.modes_path.startswith(os.path.join(out, "discover", str(seed)))
    assert config.library_dir == os.path.join(out, "train")


@pytest.mark.parametrize(
    "text, seeds",
    [("0-23", list(range(24))), ("5-5", [5]), ("0,3,7", [0, 3, 7]), ("4", [4])],
)
def test_seeds_read_as_a_range_or_a_list(digests, text, seeds):
    assert digests.parse_seeds(text) == seeds


def test_synth_alloc_runs_first_as_it_reads_no_other_stages_output(digests):
    assert digests.STAGES == ("synth-alloc", "chain-preconds", "discover", "train", "evaluate")


SYNTH_FV = os.path.join("synth-alloc", "summary", "synth_fv.csv")
SNAPSHOT = os.path.join("chain-preconds", "2", "config_snapshot.json")
FAILURES = os.path.join("discover", "2", "failures.csv")


def _fake_run_seed(failed):
    """A ``run_seed`` for seed 2 that writes a few outputs, one of them a
    config snapshot naming the work directory, and reports ``failed``."""

    def run_seed(src, seed, work):
        files = {SYNTH_FV: b"ucl,rr", SNAPSHOT: f"out={work}".encode(), FAILURES: b"x"}
        for name, data in files.items():
            path = os.path.join(work, "runs", name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)
        return failed

    return run_seed


@pytest.mark.parametrize("failed", [("discover", 1), None])
def test_a_seed_hashes_what_it_wrote_then_names_its_failing_stage(
    digests, monkeypatch, tmp_path, failed
):
    monkeypatch.setattr(digests, "run_seed", _fake_run_seed(failed))
    lines = digests.seed_digests("src", 2, str(tmp_path))
    hashed = [
        f"2 {name} {hashlib.sha256(data).hexdigest()}"
        for name, data in [(SNAPSHOT, b"out=<work>"), (FAILURES, b"x"), (SYNTH_FV, b"ucl,rr")]
    ]
    assert lines == hashed + (["2 discover exit 1"] if failed else [])
