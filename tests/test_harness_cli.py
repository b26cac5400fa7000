"""CLI tests: exit codes for budgets and config errors at a tiny config."""

import json

import pytest

from recovery_forge.harness_cli import main


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
