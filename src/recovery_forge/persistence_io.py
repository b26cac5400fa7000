"""Versioned serialization for learned artifacts.

Everything persists as a JSON envelope with a schema version, a kind tag, and
the artifact payload. Saves are atomic (temp file + rename), loads re-validate
the payload invariants, and floats round-trip exactly through repr.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .allocator import AllocatorState
from .errors import InvariantViolationError, SchemaError
from .failure_discovery import FailureModeSet
from .precondition_chaining import PreconditionSet
from .recovery_skills import RecoveryLibrary

SCHEMA_VERSION = 1

# Each artifact class owns its payload (``to_json_dict``/``from_json_dict``);
# its name is the document's kind tag.
_KINDS = {
    cls.__name__: cls for cls in (PreconditionSet, FailureModeSet, RecoveryLibrary, AllocatorState)
}


def save_artifact(artifact, path, created_with_seed: int = 0) -> None:
    """Atomic write: the target path either keeps its old content or gets the
    complete new document, never a partial file."""
    kind = type(artifact).__name__
    if _KINDS.get(kind) is not type(artifact):
        raise SchemaError(f"cannot persist artifacts of type {kind}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": artifact.to_json_dict(),
        "created_with_seed": created_with_seed,
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


def load_artifact(path):
    """Load and rebuild the artifact, re-checking its invariants."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not a valid artifact document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path} is not an artifact object")
    for field in ("schema_version", "kind", "payload", "created_with_seed"):
        if field not in doc:
            raise SchemaError(f"{path} is missing the '{field}' envelope field")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"{path} has schema_version {doc['schema_version']}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    if doc["kind"] not in _KINDS:
        raise SchemaError(f"{path} has unknown artifact kind {doc['kind']!r}")
    seed = doc["created_with_seed"]
    if type(seed) is not int:  # bool is an int subclass; JSON floats and null are not ints
        raise SchemaError(f"{path} has created_with_seed {seed!r}; expected an integer")
    try:
        artifact = _KINDS[doc["kind"]].from_json_dict(doc["payload"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed {doc['kind']} payload: {exc}") from exc
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
