"""Versioned serialization for learned artifacts.

Everything persists as a JSON envelope with a schema version, a kind tag, and
the artifact payload. Saves are atomic (temp file + rename), loads re-validate
the payload invariants, and floats round-trip exactly through repr.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .allocator import AllocatorConfig, AllocatorState, UclQueue
from .errors import InvariantViolationError, SchemaError
from .failure_discovery import FailureModeSet
from .precondition_chaining import PreconditionSet
from .recovery_skills import RecoveryLibrary

SCHEMA_VERSION = 1
FILE_EXTENSION = ".rfj"

KIND_PRECONDITIONS = "PreconditionSet"
KIND_FAILURE_MODES = "FailureModeSet"
KIND_RECOVERY_LIBRARY = "RecoveryLibrary"
KIND_ALLOCATOR_STATE = "AllocatorState"


@dataclass
class ArtifactEnvelope:
    kind: str
    payload: dict
    created_with_seed: int
    schema_version: int = SCHEMA_VERSION


def _allocator_state_to_doc(state: AllocatorState) -> dict:
    return {
        "q": state.q.tolist(),
        "q_ucl": state.q_ucl.tolist(),
        "queues": [[queue.values for queue in row] for row in state.queues],
        "train_counts": state.train_counts.tolist(),
        "round": state.round,
        "config": {
            "alpha": state.config.alpha,
            "w": state.config.window,
            "K": state.config.init_rounds,
            "eta": state.config.episodes_per_selection,
            "B": state.config.budget,
        },
    }


def _allocator_state_from_doc(doc: dict) -> AllocatorState:
    config = AllocatorConfig(
        alpha=float(doc["config"]["alpha"]),
        window=int(doc["config"]["w"]),
        init_rounds=int(doc["config"]["K"]),
        episodes_per_selection=int(doc["config"]["eta"]),
        budget=int(doc["config"]["B"]),
    )
    q = np.asarray(doc["q"], dtype=float)
    state = AllocatorState.fresh(q.shape[0], q.shape[1], config)
    state.q = q
    state.q_ucl = np.asarray(doc["q_ucl"], dtype=float)
    state.train_counts = np.asarray(doc["train_counts"], dtype=int)
    state.round = int(doc["round"])
    for i, row in enumerate(doc["queues"]):
        for j, values in enumerate(row):
            for v in values:
                state.queues[i][j].insert(float(v))
    return state


_TO_DOC = {
    KIND_PRECONDITIONS: lambda art: art.to_json_dict(),
    KIND_FAILURE_MODES: lambda art: art.to_json_dict(),
    KIND_RECOVERY_LIBRARY: lambda art: art.to_json_dict(),
    KIND_ALLOCATOR_STATE: _allocator_state_to_doc,
}

_FROM_DOC = {
    KIND_PRECONDITIONS: PreconditionSet.from_json_dict,
    KIND_FAILURE_MODES: FailureModeSet.from_json_dict,
    KIND_RECOVERY_LIBRARY: RecoveryLibrary.from_json_dict,
    KIND_ALLOCATOR_STATE: _allocator_state_from_doc,
}

_KIND_OF = {
    PreconditionSet: KIND_PRECONDITIONS,
    FailureModeSet: KIND_FAILURE_MODES,
    RecoveryLibrary: KIND_RECOVERY_LIBRARY,
    AllocatorState: KIND_ALLOCATOR_STATE,
}


def envelope_for(artifact, created_with_seed: int) -> ArtifactEnvelope:
    kind = _KIND_OF.get(type(artifact))
    if kind is None:
        raise SchemaError(f"cannot persist artifacts of type {type(artifact).__name__}")
    return ArtifactEnvelope(
        kind=kind, payload=_TO_DOC[kind](artifact), created_with_seed=created_with_seed
    )


def save(envelope: ArtifactEnvelope, path) -> None:
    """Atomic write: the target path either keeps its old content or gets the
    complete new document, never a partial file."""
    doc = {
        "schema_version": envelope.schema_version,
        "kind": envelope.kind,
        "payload": envelope.payload,
        "created_with_seed": envelope.created_with_seed,
    }
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    # Created the way open() creates a file (mode 0o666 less the umask), not
    # mkstemp's 0o600, so the artifact gets the same mode as the CSVs beside it.
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def save_artifact(artifact, path, created_with_seed: int = 0) -> None:
    save(envelope_for(artifact, created_with_seed), path)


def load(path) -> ArtifactEnvelope:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not a valid artifact document: {exc}") from exc
    for field in ("schema_version", "kind", "payload", "created_with_seed"):
        if field not in doc:
            raise SchemaError(f"{path} is missing the '{field}' envelope field")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"{path} has schema_version {doc['schema_version']}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    if doc["kind"] not in _FROM_DOC:
        raise SchemaError(f"{path} has unknown artifact kind {doc['kind']!r}")
    return ArtifactEnvelope(
        kind=doc["kind"],
        payload=doc["payload"],
        created_with_seed=int(doc["created_with_seed"]),
        schema_version=int(doc["schema_version"]),
    )


def load_artifact(path):
    """Load and rebuild the artifact, re-checking its invariants."""
    envelope = load(path)
    try:
        artifact = _FROM_DOC[envelope.kind](envelope.payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed {envelope.kind} payload: {exc}") from exc
    _validate(artifact)
    return artifact


def _validate(artifact) -> None:
    if isinstance(artifact, FailureModeSet):
        if np.any(artifact.sizes <= 0):
            raise InvariantViolationError("failure-mode sizes must be positive")
        _check_gmm(artifact.gmm)
    elif isinstance(artifact, PreconditionSet):
        for clf in artifact.preconditions + [artifact.goal_classifier]:
            _check_gmm(clf.negative)
            _check_spd(clf.positive.covariance)
        for dist in artifact.positive_dists + [artifact.goal_positive]:
            _check_spd(dist.covariance)
    elif isinstance(artifact, (RecoveryLibrary, AllocatorState)):
        # Written so that NaN, which json reads back from the file, fails too.
        if not np.all((artifact.q >= 0) & (artifact.q <= 1)):
            raise InvariantViolationError("success estimates must lie in [0, 1]")


def _check_gmm(gmm) -> None:
    total = float(np.sum(gmm.weights))
    if abs(total - 1.0) > 1e-9 or np.any(gmm.weights < 0):
        raise InvariantViolationError(f"GMM weights must form a simplex (sum {total})")
    for comp in gmm.components:
        _check_spd(comp.covariance)


def _check_spd(cov) -> None:
    arr = np.asarray(cov)
    if not np.allclose(arr, arr.T, atol=1e-9):
        raise InvariantViolationError("covariance is not symmetric")
    if np.linalg.eigvalsh(arr)[0] <= 0:
        raise InvariantViolationError("covariance is not positive definite")
