"""Tooling tests for ``scripts/pipeline_digests.py``, the byte-identity proof.

If the script's config stopped decoding, every seed would print the same
``chain-preconds exit 2`` line on both source trees, and the two identical
listings would pass for a proof. These tests load the script as a module and
start no subprocess.
"""

import dataclasses
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
