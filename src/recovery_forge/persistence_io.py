"""Versioned serialization for learned artifacts, and the one owner of their
payload format.

A saved artifact is a JSON envelope: schema version, kind tag (the class
name), payload and the seed it was created with. Saves are atomic (temp file +
rename) and floats round-trip exactly through repr. A payload holds its
dataclass's fields, read back through their annotations: a nested dataclass is
an object, ``list[X]`` a list, an ``np.ndarray`` nested lists of floats,
``X | None`` may be null, ``int``/``float`` are scalars. Run-time fields
(``compare=False``: an EM trace, labelling records) are not stored. A
dataclass's object holding a key that is none of its stored fields is a
``SchemaError`` naming the key, as an unknown config field is. One kind
keeps its own shape: an ``AllocatorState`` stores its queues' values (at most
``UCL_WINDOW`` each) and a ``config`` object. That object holds the
run's budget under ``B`` and value-UCL's fixed values, the ``allocator``
constants, under ``alpha``/``w``/``K``; a load requires each fixed key to
hold its constant, of the same JSON type. The state's
``q_ucl``, ``train_counts`` (integers) and queues have ``q``'s shape. A
``RecoveryLibrary``'s ``q`` is 2-D, and its grid of skills has ``q``'s shape.
Loads re-check the invariants no constructor checks. A file that is not UTF-8
JSON, a malformed payload, and a payload that fails a constructor's check or
an invariant are each a ``SchemaError`` that names the file.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import types
import typing

import numpy as np

from .allocator import INIT_ROUNDS, UCL_ALPHA, UCL_WINDOW, AllocatorConfig, AllocatorState
from .errors import RecoveryForgeError, SchemaError, field_hints
from .failure_discovery import FailureModeSet
from .precondition_chaining import PreconditionSet
from .recovery_skills import RecoveryLibrary

SCHEMA_VERSION = 1

_KINDS = {c.__name__: c for c in (PreconditionSet, FailureModeSet, RecoveryLibrary, AllocatorState)}

# The keys of value-UCL's fixed values in AllocatorState's payload config.
_FIXED_KEYS = {"alpha": UCL_ALPHA, "w": UCL_WINDOW, "K": INIT_ROUNDS}


def to_payload(obj):
    """The JSON payload of an artifact or of a dataclass inside one."""
    if isinstance(obj, AllocatorState):
        return {
            "q": obj.q.tolist(),
            "q_ucl": obj.q_ucl.tolist(),
            "queues": [[list(queue) for queue in row] for row in obj.queues],
            "train_counts": obj.train_counts.tolist(),
            "config": {**_FIXED_KEYS, "B": obj.config.budget},
        }
    return _encode(obj)


def from_payload(cls, payload):
    """The object of the dataclass ``cls`` that ``to_payload`` gave ``payload``."""
    if cls is AllocatorState:
        return _allocator_state(payload)
    return _reader(cls)(payload)


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return {f.name: _encode(getattr(value, f.name)) for f in fields if f.compare}
    return value


@functools.cache
def _reader(hint):
    """The function that reads a payload value of the annotated type ``hint``."""
    if hint is np.ndarray:
        return _array
    if hint in (int, float):
        return lambda value: hint(_typed(value, hint))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        read = _reader(args[0])
        return lambda value: [read(item) for item in _typed(value, list)]
    if origin is types.UnionType:  # X | None
        read = _reader(args[0])
        return lambda value: None if value is None else read(value)
    hints = field_hints(hint)  # a dataclass: a field missing from the payload is a KeyError
    fields = [(f.name, _reader(hints[f.name])) for f in dataclasses.fields(hint) if f.compare]
    names = {name for name, _ in fields}

    def read_dataclass(value):
        unknown = _typed(value, dict).keys() - names
        if unknown:
            raise SchemaError(f"unknown {hint.__name__} keys: {sorted(unknown)}")
        return hint(**{name: read(value[name]) for name, read in fields})

    return read_dataclass


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


# The JSON values a payload type accepts: a bool is no int, a number may be either.
_ACCEPTS = {int: (int,), float: (int, float), list: (list,), dict: (dict,)}


def _typed(value, json_type):
    if type(value) not in _ACCEPTS[json_type]:
        raise SchemaError(f"expected {json_type.__name__}, got {value!r:.40}")
    return value


def _allocator_state(doc) -> AllocatorState:
    for key, fixed in _FIXED_KEYS.items():
        value = doc["config"][key]
        if type(value) is not type(fixed) or value != fixed:
            raise SchemaError(f"config key {key!r} is {value!r}; this build fixes it at {fixed!r}")
    config = AllocatorConfig(budget=_typed(doc["config"]["B"], int))
    q = _array(doc["q"])
    state = AllocatorState.fresh(q.shape[0], q.shape[1], config)
    state.q = q
    state.q_ucl = _array(doc["q_ucl"])
    state.train_counts = np.asarray(_reader(list[list[int]])(doc["train_counts"]), dtype=int)
    for name, value in (("q_ucl", state.q_ucl), ("train_counts", state.train_counts)):
        if value.shape != q.shape:
            raise SchemaError(f"{name} has shape {value.shape}, q {q.shape}")
    queues = _reader(list[list[list[float]]])(doc["queues"])
    if [len(row) for row in queues] != [q.shape[1]] * q.shape[0]:
        raise SchemaError(f"queues have rows of {[len(row) for row in queues]}, q {q.shape}")
    for i, row in enumerate(queues):
        for j, values in enumerate(row):
            if len(values) > UCL_WINDOW:
                raise SchemaError(
                    f"queue ({i}, {j}) holds {len(values)} values, window {UCL_WINDOW}"
                )
            state.queues[i][j].extend(values)
    return state


def save_artifact(artifact, path, created_with_seed: int = 0) -> None:
    """Atomic write: the target path either keeps its old content or gets the
    complete new document, never a partial file."""
    kind = type(artifact).__name__
    if _KINDS.get(kind) is not type(artifact):
        raise SchemaError(f"cannot persist artifacts of type {kind}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": to_payload(artifact),
        "created_with_seed": created_with_seed,
    }
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f"{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    # Created the way open() creates a file (mode 0o666 less the umask), not
    # mkstemp's 0o600, so the artifact gets the same mode as the CSVs beside it.
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True))  # C encoder; json.dump is pure Python
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_artifact(path):
    """Load and rebuild the artifact, re-checking its invariants."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or text that is not UTF-8
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
        artifact = from_payload(_KINDS[doc["kind"]], doc["payload"])
        _validate(artifact)
    except (LookupError, TypeError, ValueError, RecoveryForgeError) as exc:
        raise SchemaError(f"{path}: malformed {doc['kind']} payload: {exc}") from exc
    return artifact


def _validate(artifact) -> None:
    """The invariants no constructor checks. (``GmmModel`` rejects weights
    that do not form a simplex itself.)"""
    if isinstance(artifact, FailureModeSet):
        if np.any(artifact.sizes <= 0):
            raise SchemaError("failure-mode sizes must be positive")
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
            raise SchemaError("success estimates must lie in [0, 1]")
    if isinstance(artifact, RecoveryLibrary):
        q, rows = artifact.q, [len(row) for row in artifact.skills]
        if q.ndim != 2 or rows != [q.shape[1]] * q.shape[0]:
            raise SchemaError(f"skills have rows of {rows}, q has shape {q.shape}: no 2-D grid")
        for i, row in enumerate(artifact.skills):
            for j, skill in enumerate(row):
                _check_skill((i, j), skill)


def _check_skill(key, skill) -> None:
    """What ``knn_predict`` needs: k >= 1, one theta per state, states and
    thetas that each form one finite matrix, and a ``state_scale`` that is
    None or finite, positive and of the states' dimension."""
    if skill.k < 1:
        raise SchemaError(f"skill {key} has k = {skill.k}; kNN needs k >= 1")
    if len(skill.states) != len(skill.thetas):
        raise SchemaError(
            f"skill {key} has {len(skill.states)} states and {len(skill.thetas)} thetas"
        )
    for name, rows in (("states", skill.states), ("thetas", skill.thetas)):
        shapes = {row.shape for row in rows}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise SchemaError(
                f"skill {key}'s {name} form no matrix: rows of shapes {sorted(shapes)}"
            )
        if not np.all(np.isfinite(rows)):
            raise SchemaError(f"skill {key}'s {name} hold a value that is not finite")
    scale = skill.state_scale
    if scale is not None:
        dims = {row.size for row in skill.states} or {scale.size}
        # Written so that NaN fails too.
        if scale.ndim != 1 or dims != {scale.size} or not np.all((scale > 0) & (scale < np.inf)):
            raise SchemaError(
                f"skill {key} has state_scale {scale.tolist()} for states of dim {sorted(dims)}; "
                "it must be finite, positive and one entry per state dimension"
            )


def _check_gmm(gmm) -> None:
    for comp in gmm.components:
        _check_spd(comp.covariance)


def _check_spd(cov) -> None:
    arr = np.asarray(cov)
    if not np.allclose(arr, arr.T, atol=1e-9):
        raise SchemaError("covariance is not symmetric")
    if np.linalg.eigvalsh(arr)[0] <= 0:
        raise SchemaError("covariance is not positive definite")
