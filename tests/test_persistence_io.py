"""Artifact saving and loading: round trips of every artifact kind, file mode,
the rejection of success estimates outside [0, 1], NaN included, of
envelope seeds that are not integers, of documents that are not objects, of
payload keys that no field reads and of allocator states off their shape."""

import json
import os
import re

import numpy as np
import pytest

from recovery_forge.allocator import AllocatorConfig, AllocatorState
from recovery_forge.classifiers import (
    GaussianModel,
    GenerativeClassifier,
    GmmModel,
    classify,
    fit_gaussian,
    fit_gmm,
    gaussian_logpdf,
    responsibilities,
)
from recovery_forge.errors import SchemaError
from recovery_forge.harness_cli import main
from recovery_forge.failure_discovery import FailureModeSet
from recovery_forge.persistence_io import (
    SCHEMA_VERSION,
    from_payload,
    load_artifact,
    save_artifact,
    to_payload,
)
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
    return GenerativeClassifier(positive, negative)


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
    assert loaded.n_skills == original.n_skills
    batch = _query_batch()
    for j in range(original.n_skills + 1):  # every precondition, then the goal
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


# -- the pinned payload format: one tiny artifact of each kind -------------------------

_GAUSS = {"mean": [0.0], "covariance": [[1.0]]}
_GMM = {"weights": [1.0], "components": [_GAUSS]}
_CLF = {"positive": _GAUSS, "negative": _GMM}


def _tiny_artifacts():
    gauss = GaussianModel([0.0], [[1.0]])
    clf = GenerativeClassifier(gauss, GmmModel([1.0], [gauss]))
    library = RecoveryLibrary.empty(1, [4], state_scale=np.array([2.0]))
    library.skills[(0, 0)].append([1.0], [2.0])
    library.q[:] = 0.5
    state = AllocatorState.fresh(1, 1, AllocatorConfig(budget=5))
    state.queues[0][0].append(0.25)
    state.train_counts[:] = 2
    artifacts = [
        PreconditionSet([clf], [gauss], gauss, clf),
        FailureModeSet(GmmModel([1.0], [gauss]), [3.0]),
        library,
        state,
    ]
    return {type(artifact).__name__: artifact for artifact in artifacts}


_PINNED_PAYLOADS = {
    "PreconditionSet": {
        "preconditions": [_CLF],
        "positive_dists": [_GAUSS],
        "goal_positive": _GAUSS,
        "goal_classifier": _CLF,
    },
    "FailureModeSet": {"gmm": _GMM, "sizes": [3.0]},
    "RecoveryLibrary": {
        "q": [[0.5]],
        "skills": [
            {
                "i": 0,
                "j": 0,
                "skill": {
                    "from_mode": 0,
                    "to_symbol": 4,
                    "k": 3,
                    "states": [[1.0]],
                    "thetas": [[2.0]],
                    "state_scale": [2.0],
                },
            }
        ],
    },
    "AllocatorState": {
        "q": [[0.0]],
        "q_ucl": [[0.0]],
        "queues": [[[0.25]]],
        "train_counts": [[2]],
        "config": {"alpha": 0.95, "w": 3, "K": 2, "B": 5},
    },
}


@pytest.mark.parametrize("kind", _PINNED_PAYLOADS)
def test_each_kind_writes_and_reads_its_pinned_payload(kind):
    """The stored format is pinned, so a field dropped or renamed, or an
    integer written as a float, fails here, and artifacts saved before the
    change still load."""
    artifact, pinned = _tiny_artifacts()[kind], _PINNED_PAYLOADS[kind]
    assert json.dumps(to_payload(artifact), sort_keys=True) == json.dumps(pinned, sort_keys=True)
    loaded = from_payload(type(artifact), pinned)
    assert json.dumps(to_payload(loaded), sort_keys=True) == json.dumps(pinned, sort_keys=True)


def test_an_allocator_state_with_the_former_round_and_eta_keys_still_loads():
    # States written before one selection became one episode carried both.
    pinned = _PINNED_PAYLOADS["AllocatorState"]
    old = {**pinned, "round": 2, "config": {**pinned["config"], "eta": 1}}
    loaded = from_payload(AllocatorState, old)
    assert json.dumps(to_payload(loaded), sort_keys=True) == json.dumps(pinned, sort_keys=True)


def _former_class_prior(payload):
    # Classifiers stored a positive-class prior before the posterior fixed it at 1/2.
    payload["goal_classifier"]["prior_positive"] = 0.25


def _extra_mode_key(payload):
    payload["weights"] = [1.0]


def _extra_component_key(payload):
    payload["gmm"]["components"][0]["precision"] = [[1.0]]


def _extra_skill_key(payload):
    payload["skills"][0]["skill"]["seed"] = 3


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("PreconditionSet", _former_class_prior, "unknown GenerativeClassifier keys: ['prior_positive']"),
        ("FailureModeSet", _extra_mode_key, "unknown FailureModeSet keys: ['weights']"),
        ("FailureModeSet", _extra_component_key, "unknown GaussianModel keys: ['precision']"),
        ("RecoveryLibrary", _extra_skill_key, "unknown ParameterizedSkill keys: ['seed']"),
    ],
    ids=["class_prior", "mode_set", "component", "skill"],
)
def test_a_payload_key_that_no_field_reads_is_a_schema_error(tmp_path, kind, edit, message):
    # As an unknown config field is: an old file must not load as something else.
    path = tmp_path / "artifact.rfj"
    save_artifact(_tiny_artifacts()[kind], path)
    _edit_payload(path, edit)
    with pytest.raises(SchemaError, match=re.escape(f"malformed {kind} payload: {message}") + "$"):
        load_artifact(path)


@pytest.mark.parametrize("make", [_library, _allocator_state])
@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_estimate_outside_unit_interval_is_rejected(tmp_path, make, bad):
    q = np.array([[0.0, 0.5, 1.0], [0.25, bad, 0.75]])
    path = tmp_path / "artifact.rfj"
    save_artifact(make(q), path)
    message = rf"malformed {type(make(q)).__name__} payload: success estimates must lie in \[0, 1\]"
    with pytest.raises(SchemaError, match=message):
        load_artifact(path)


@pytest.mark.parametrize("kind", _PINNED_PAYLOADS)
def test_each_kind_saves_the_bytes_of_its_envelope(tmp_path, kind):
    """The file holds one ``json.dumps`` of the envelope, which is also what the
    pure-Python encoder behind ``json.dump`` writes, shortest float reprs and
    big seeds included."""
    artifact = _tiny_artifacts()[kind]
    if kind == "RecoveryLibrary":
        artifact.q[:] = 0.1 + 0.2
    elif kind == "AllocatorState":
        artifact.q_ucl[:] = 1.0 / 3.0
        artifact.queues[0][0].append(5e-324)
    seed = 2**63 + 5
    path = tmp_path / "artifact.rfj"
    save_artifact(artifact, path, created_with_seed=seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": to_payload(artifact),
        "created_with_seed": seed,
    }
    expected = json.dumps(doc, sort_keys=True)
    assert path.read_bytes() == expected.encode()
    assert "".join(json.JSONEncoder(sort_keys=True).iterencode(doc)) == expected


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


# -- malformed payloads ---------------------------------------------------------------


def _edit_payload(path, edit):
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    path.write_text(json.dumps(doc))


def _trained_library():
    library = RecoveryLibrary.empty(2, [0, 1, 2], state_scale=np.ones(DIM))
    rng = np.random.default_rng(14)
    for _ in range(8):
        library.skills[(1, 2)].append(rng.normal(size=DIM), rng.normal(size=9))
    return library


def _drop_a_theta(payload):
    (entry,) = [e for e in payload["skills"] if (e["i"], e["j"]) == (1, 2)]
    del entry["skill"]["thetas"][-1]


def _drop_the_first_skill(payload):
    del payload["skills"][0]


def _repeat_a_skill(payload):
    payload["skills"].append(payload["skills"][-1])


def _add_a_skill_outside_q(payload):
    payload["skills"].append({**payload["skills"][0], "i": 2})


def _a_float_mode(payload):
    payload["skills"][0]["skill"]["from_mode"] = 0.0


def _states_as_text(payload):
    payload["skills"][0]["skill"]["states"] = "123"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_a_theta, r"skill \(1, 2\) has 8 states and 7 thetas"),
        (_drop_the_first_skill, r"missing \[\(0, 0\)\], extra \[\]"),
        (_repeat_a_skill, r"missing \[\], extra \[\(1, 2\)\]"),
        (_add_a_skill_outside_q, r"missing \[\], extra \[\(2, 0\)\]"),
        (_a_float_mode, "expected int, got 0.0"),
        (_states_as_text, "expected list, got '123'"),
    ],
    ids=[
        "unequal_lengths",
        "missing_skill",
        "repeated_skill",
        "skill_outside_q",
        "float_mode",
        "text_states",
    ],
)
def test_a_malformed_library_is_a_schema_error(tmp_path, edit, message):
    path = tmp_path / "library.rfj"
    save_artifact(_trained_library(), path)
    load_artifact(path)
    _edit_payload(path, edit)
    with pytest.raises(SchemaError, match="malformed RecoveryLibrary payload: .*" + message):
        load_artifact(path)


def test_evaluate_exits_1_on_a_library_without_a_skill(tmp_path, capsys):
    rng = np.random.default_rng(15)
    preconds = [_classifier(rng, c) for c in (-0.5, 0.0, 0.5)]
    goal = preconds[0]
    artifact = PreconditionSet(preconds, [c.positive for c in preconds], goal.positive, goal)
    save_artifact(artifact, tmp_path / "preconds.rfj")
    modes = FailureModeSet(fit_gmm(rng.normal(size=(60, DIM)), 2, seed=1), [30.0, 30.0])
    save_artifact(modes, tmp_path / "modes.rfj")
    (tmp_path / "train" / "0").mkdir(parents=True)
    library = tmp_path / "train" / "0" / "library.rfj"
    save_artifact(RecoveryLibrary.empty(2, [0, 1, 2, 3]), library)
    _edit_payload(library, _drop_the_first_skill)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "runs"),
                "seeds": [0],
                "preconds_path": str(tmp_path / "preconds.rfj"),
                "modes_path": str(tmp_path / "modes.rfj"),
                "library_dir": str(tmp_path / "train"),
            }
        )
    )
    assert main(["evaluate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing [(0, 0)]" in err


@pytest.mark.parametrize("weights", [[0.5, 0.5, 0.5], [1.5, -0.25, -0.25], [np.nan, 0.5, 0.5]])
def test_failure_modes_whose_weights_are_no_simplex_are_rejected(tmp_path, weights):
    rng = np.random.default_rng(16)
    path = tmp_path / "modes.rfj"
    save_artifact(FailureModeSet(fit_gmm(rng.normal(size=(60, DIM)), 3, seed=2), [20.0] * 3), path)
    _edit_payload(path, lambda payload: payload["gmm"].update(weights=weights))
    message = "malformed FailureModeSet payload: GMM weights must form a simplex"
    with pytest.raises(SchemaError, match=message):
        load_artifact(path)


def test_a_library_with_integer_state_scales_saves_and_loads(tmp_path):
    path = tmp_path / "library.rfj"
    save_artifact(RecoveryLibrary.empty(1, [0], state_scale=np.ones(DIM, dtype=int)), path)
    np.testing.assert_array_equal(load_artifact(path).skills[(0, 0)].state_scale, np.ones(DIM))


def _counts(payload, value):
    payload["train_counts"][0][1] = value


def _queue(payload, values):
    payload["queues"][0][0] = values


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda payload: _counts(payload, 2.7), "expected int, got 2.7"),
        (lambda payload: _counts(payload, 2.0), "expected int, got 2.0"),
        (lambda payload: payload.update(q_ucl=[[0.0]]), r"q_ucl has shape \(1, 1\), q \(2, 3\)"),
        (
            lambda payload: payload.update(train_counts=[[1, 1, 1]]),
            r"train_counts has shape \(1, 3\), q \(2, 3\)",
        ),
        (
            lambda payload: payload["queues"].pop(),
            r"queues have rows of \[3\], q \(2, 3\)",
        ),
        (
            lambda payload: payload["queues"][1].pop(),
            r"queues have rows of \[3, 2\], q \(2, 3\)",
        ),
        (
            lambda payload: _queue(payload, [0.1, 0.2, 0.3, 0.4, 0.5]),
            r"queue \(0, 0\) holds 5 values, window 3",
        ),
        (lambda payload: _queue(payload, ["0.5"]), "expected float, got '0.5'"),
    ],
    ids=[
        "fractional_count",
        "float_count",
        "small_q_ucl",
        "short_counts",
        "missing_queue_row",
        "short_queue_row",
        "queue_over_window",
        "text_queue_value",
    ],
)
def test_an_allocator_state_off_its_shape_is_a_schema_error(tmp_path, edit, message):
    path = tmp_path / "allocator_state.rfj"
    state = _allocator_state(np.full((2, 3), 0.5))
    state.queues[0][0].append(0.5)
    state.train_counts[:] = 1
    save_artifact(state, path)
    load_artifact(path)
    _edit_payload(path, edit)
    prefix = re.escape(f"{path}: malformed AllocatorState payload: ")
    with pytest.raises(SchemaError, match=prefix + message):
        load_artifact(path)


def _fixed_key(key, value):
    return lambda payload: payload["config"].update({key: value})


@pytest.mark.parametrize(
    "edit, message",
    [
        (_fixed_key("alpha", 0.9), "config key 'alpha' is 0.9; this build fixes it at 0.95"),
        (_fixed_key("w", 5), "config key 'w' is 5; this build fixes it at 3"),
        (_fixed_key("K", 1), "config key 'K' is 1; this build fixes it at 2"),
        (_fixed_key("w", 3.0), "config key 'w' is 3.0; this build fixes it at 3"),
        (_fixed_key("alpha", "0.95"), "config key 'alpha' is '0.95'; this build fixes it at 0.95"),
        (lambda payload: payload["config"].pop("K"), "'K'"),
    ],
    ids=["other_alpha", "other_window", "other_init_rounds", "float_window", "text_alpha", "no_K"],
)
def test_an_allocator_state_off_the_fixed_settings_is_a_schema_error(tmp_path, edit, message):
    # alpha, w and K are value-UCL's constants, so a state that records other
    # values was not made by this allocator.
    path = tmp_path / "allocator_state.rfj"
    save_artifact(_allocator_state(np.full((2, 3), 0.5)), path)
    assert json.loads(path.read_text())["payload"]["config"] == {
        "alpha": 0.95, "w": 3, "K": 2, "B": 0
    }
    load_artifact(path)
    _edit_payload(path, edit)
    prefix = re.escape(f"{path}: malformed AllocatorState payload: ")
    with pytest.raises(SchemaError, match=prefix + re.escape(message) + "$"):
        load_artifact(path)
