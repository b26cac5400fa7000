"""The package's error contract, and its config contract.

The package defines five exception types, and each exists because some code
or payload reads it. The CLI (``harness_cli.main``) prints any of them as one
``error:`` line on stderr, never a traceback.

- ``RecoveryForgeError``: the base class, and the type of every failed check
  that no caller tells apart (a shape, a count, a non-finite value, a fit the
  data cannot support); its message says which check fired. Exit 1.
- ``ConfigError``: a setting the user gave that no stage can run with: a
  config file or value, ``RECOVERY_FORGE_LOG``, an input path that names no
  file or an artifact of another kind, or an output directory that cannot be
  made. ``main`` reads it apart from the base class and exits 2.
- ``SchemaError``: an artifact file that cannot be loaded. ``load_artifact``
  raises it, naming the file, for text that is not UTF-8 JSON, a malformed
  envelope or payload, and a payload that fails a check of its classes'
  constructors or of the loader; ``main`` exits 1.
- ``OracleFailureError``: the reward function failed inside REPS; ``.theta``
  holds the samples it was given. Exit 1.
- ``NonConvergenceError``: ``skill_graph.value_iteration``, the test oracle,
  ran out of iterations; ``.residual`` holds its last residual.

The config contract: the experiment config is one flat JSON object, read by
``config_from_json``; each field is a scalar, an optional scalar or a list of
scalars, and the config checks every field's annotated type (a number must
be finite) and its limits table with ``check_fields``.
"""

from __future__ import annotations

import functools
import math
import types
import typing


class RecoveryForgeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(RecoveryForgeError):
    pass


class SchemaError(RecoveryForgeError):
    pass


class OracleFailureError(RecoveryForgeError):
    def __init__(self, message: str, theta=None):
        super().__init__(message)
        self.theta = theta


class NonConvergenceError(RecoveryForgeError):
    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


# -- the config contract -------------------------------------------------------------

# Per scalar annotation: its type test (an int is not a bool; a number is a
# finite int or float, though JSON reads Infinity and NaN), and the JSON value
# it asks for, alone and as list items.
_SCALARS = {
    int: (lambda v: type(v) is int, "an integer", "integers"),
    float: (lambda v: type(v) in (int, float) and math.isfinite(v), "a number", "numbers"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
}


# A dataclass's resolved field annotations, in field order, once per class.
field_hints = functools.cache(typing.get_type_hints)


def _json_type(hint, value) -> tuple[bool, str]:
    """Is ``value`` of the annotated type, and the JSON value that type asks
    for. Annotations are a scalar, ``X | None`` or ``tuple[X, ...]``."""
    if hint in _SCALARS:
        test, name, _ = _SCALARS[hint]
        return test(value), name
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        ok, name = _json_type(args[0], value)
        return ok or value is None, f"{name} or null"
    test, _, items = _SCALARS[args[0]]  # tuple[X, ...]
    if isinstance(value, tuple):
        return all(map(test, value)), items
    return False, f"a list of {items}"


def _shown(value) -> str:
    return repr(list(value) if isinstance(value, tuple) else value)


def at_least(low):
    """A limits-table entry: the value is at least ``low``."""
    return (lambda value: value >= low, f">= {low}")


def one_of(*options):
    """A limits-table entry: the value is one of ``options``."""
    return (lambda value: value in options, f"one of {', '.join(map(repr, options))}")


def check_fields(config, limits: dict) -> None:
    """Raise ``ConfigError`` at the first field of the dataclass ``config``
    whose value is not of its annotated type or, unless it is None, fails its
    ``(test, requirement)`` entry in ``limits``; the message names the field."""
    for name, hint in field_hints(type(config)).items():
        value = getattr(config, name)
        ok, json_type = _json_type(hint, value)
        if not ok:
            raise ConfigError(f"{name} must be {json_type}, got {_shown(value)}")
        if value is not None and name in limits:
            test, requirement = limits[name]
            if not test(value):
                raise ConfigError(f"{name} must be {requirement}, got {_shown(value)}")


def config_from_json(cls, doc):
    """The config dataclass ``cls`` from a parsed JSON object: unknown fields
    are rejected and arrays become tuples. The instance checks its own
    values."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must be a JSON object, got {doc!r}")
    unknown = doc.keys() - field_hints(cls).keys()
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return cls(**{name: tuple(v) if isinstance(v, list) else v for name, v in doc.items()})
