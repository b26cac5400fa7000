"""In-memory span tracer for the pipeline benchmark.

``Tracer.install()`` replaces the public functions listed in ``TARGETS`` with
thin wrappers, in every ``recovery_forge`` module that bound the name and in
``harness_cli.COMMANDS``; ``uninstall()`` puts the originals back. The package
source is never edited. Each wrapped call appends one span
``[name_id, parent, start, end, a, b]`` to a list kept in memory; ``a`` and
``b`` hold numbers the call yields for layer counters (rows scored, bytes
written, ...).
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np

PACKAGE = "recovery_forge"
MODULES = (
    "allocator",
    "classifiers",
    "failure_discovery",
    "harness_cli",
    "latch_env",
    "persistence_io",
    "precondition_chaining",
    "recovery_skills",
    "reps",
    "skill_graph",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 1, "x"))
    return (1 if len(shape) == 1 else shape[0]), 0.0


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path")), 0.0


def _em_iters(args, kwargs, result):
    return len(result.loglik_trace), 0.0


def _records_and_episodes(args, kwargs, result):
    return len(result), _arg(args, kwargs, 3, "n_episodes")


def _value(args, kwargs, result):
    return float(result), 0.0


def _episode(args, kwargs, result):
    return float(result.success), result.executed


# (module, qualified name, note). ``note(args, kwargs, result)`` returns the
# (a, b) pair a span carries; it runs after the span's end time is taken.
TARGETS = (
    ("reps", "reps_optimize", None),
    ("reps", "solve_dual", None),
    ("reps", "update_policy", None),
    ("recovery_skills", "train_recovery_datapoint", None),
    ("recovery_skills", "recovery_reward", None),
    ("recovery_skills", "estimate_success_rate", _value),
    ("recovery_skills", "knn_predict", None),
    ("latch_env", "LatchEnv.execute_skill", None),
    ("latch_env", "LatchEnv.set_state", None),
    ("latch_env", "LatchEnv.run_chain", None),
    ("classifiers", "classify", _rows),
    ("classifiers", "gaussian_logpdf", _rows),
    ("classifiers", "gmm_logpdf", None),
    ("classifiers", "fit_gaussian", None),
    ("classifiers", "fit_gmm", _em_iters),
    ("allocator", "select_value_ucl", None),
    ("allocator", "RecoveryGraph.failure_value_for", None),
    ("allocator", "compute_ucl", None),
    ("skill_graph", "value_iteration", None),
    ("skill_graph", "SymbolicGraph.with_success_probs", None),
    ("skill_graph", "extract_policy", None),
    ("precondition_chaining", "collect_success_trajectories", None),
    ("precondition_chaining", "chain_preconditions", None),
    ("failure_discovery", "discover_pessimistic", _records_and_episodes),
    ("failure_discovery", "cluster_failures", None),
    ("failure_discovery", "classify_failure", None),
    ("harness_cli", "run_policy_episode", _episode),
    ("persistence_io", "save_artifact", _file_bytes),
    ("persistence_io", "load_artifact", None),
    ("harness_cli", "cmd_chain_preconds", None),
    ("harness_cli", "cmd_discover", None),
    ("harness_cli", "cmd_train", None),
    ("harness_cli", "cmd_evaluate", None),
    ("harness_cli", "cmd_synthetic_allocation", None),
)

NAMES = tuple(f"{module}.{qualname}" for module, qualname, _ in TARGETS)
_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Owns the spans of one benchmark run and the patches that record them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.unit_starts: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_unit(self) -> None:
        """Start the next traced unit; its index is the run id of its spans."""
        self.unit_starts.append(len(self.spans))

    def wrap(self, fn, name_id: int, note=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, clock(), 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4], span[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        commands = modules["harness_cli"].COMMANDS
        for name_id, (module, qualname, note) in enumerate(TARGETS):
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(modules[module], cls_name)
                self._patch(cls, attr, self.wrap(cls.__dict__[attr], name_id, note))
                continue
            original = getattr(modules[module], qualname)
            wrapper = self.wrap(original, name_id, note)
            for mod in modules.values():
                if getattr(mod, qualname, None) is original:
                    self._patch(mod, qualname, wrapper)
            for key, fn in commands.items():
                if fn is original:
                    self._patch(commands, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as arrays; ``unit`` is each span's run id."""
        table = np.asarray(self.spans, dtype=float).reshape(len(self.spans), 6)
        unit = np.zeros(len(self.spans), dtype=np.int64)
        for k, first in enumerate(self.unit_starts):
            unit[first:] = k
        return {
            "name": table[:, 0].astype(np.int64),
            "parent": table[:, 1].astype(np.int64),
            "start": table[:, 2],
            "end": table[:, 3],
            "a": table[:, 4],
            "b": table[:, 5],
            "unit": unit,
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(NAMES), **self.columns())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct child spans cover.

    Spans of one thread nest, so the direct children of a span never overlap
    and their durations add up to the part of the parent they cover.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def unit_stats(cols: dict[str, np.ndarray]) -> list[dict[str, float]]:
    """Raw per-function sums for each traced unit.

    For every traced name: ``calls``, ``self_s``, ``s`` (inclusive time) and the
    sums of the span notes ``a`` and ``b``; plus ``reward_evals``, the
    ``execute_skill`` spans called straight from ``reps_optimize``, and
    ``zero_skill``, the evaluation episodes that executed no skill.
    """
    name, parent = cols["name"], cols["parent"]
    own = self_times(parent, cols["start"], cols["end"])
    inclusive = cols["end"] - cols["start"]
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    reward_eval = (name == _ID["latch_env.LatchEnv.execute_skill"]) & (
        parent_name == _ID["reps.reps_optimize"]
    )
    zero_skill = (name == _ID["harness_cli.run_policy_episode"]) & (cols["b"] == 0)
    n_units = int(cols["unit"].max()) + 1 if len(name) else 0
    out = []
    for k in range(n_units):
        in_unit = cols["unit"] == k
        stats: dict[str, float] = {
            "reward_evals": float(np.sum(reward_eval & in_unit)),
            "zero_skill": float(np.sum(zero_skill & in_unit)),
        }
        for target, name_id in _ID.items():
            hits = in_unit & (name == name_id)
            stats[f"{target}.calls"] = float(hits.sum())
            stats[f"{target}.self_s"] = float(own[hits].sum())
            stats[f"{target}.s"] = float(inclusive[hits].sum())
            stats[f"{target}.a"] = float(cols["a"][hits].sum())
            stats[f"{target}.b"] = float(cols["b"][hits].sum())
        out.append(stats)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(fn):
    return (f"{fn}.calls", "count", "lower", lambda s: s[f"{fn}.calls"])


def _self(fn):
    return (f"{fn}.self_s", "s", "lower", lambda s: s[f"{fn}.self_s"])


def _stage(fn):
    return (f"{fn}.s", "s", "lower", lambda s: s[f"{fn}.s"])


_REPS = "reps.reps_optimize"
_DUAL = "reps.solve_dual"
_DATAPOINT = "recovery_skills.train_recovery_datapoint"
_REWARD = "recovery_skills.recovery_reward"
_ESTIMATE = "recovery_skills.estimate_success_rate"
_KNN = "recovery_skills.knn_predict"
_EXECUTE = "latch_env.LatchEnv.execute_skill"
_SET_STATE = "latch_env.LatchEnv.set_state"
_RUN_CHAIN = "latch_env.LatchEnv.run_chain"
_CLASSIFY = "classifiers.classify"
_GAUSS = "classifiers.gaussian_logpdf"
_GMM = "classifiers.gmm_logpdf"
_FIT_GAUSS = "classifiers.fit_gaussian"
_FIT_GMM = "classifiers.fit_gmm"
_SELECT = "allocator.select_value_ucl"
_FV_FOR = "allocator.RecoveryGraph.failure_value_for"
_UCL = "allocator.compute_ucl"
_VI = "skill_graph.value_iteration"
_WITH_Q = "skill_graph.SymbolicGraph.with_success_probs"
_POLICY = "skill_graph.extract_policy"
_DISCOVER = "failure_discovery.discover_pessimistic"
_CLASSIFY_FAILURE = "failure_discovery.classify_failure"
_EPISODE = "harness_cli.run_policy_episode"
_SAVE = "persistence_io.save_artifact"
_LOAD = "persistence_io.load_artifact"

# (metric name, unit, better, value from one unit's raw stats). The names are
# the ``per_layer`` list of BENCHMARK.json, which the self-tests compare.
SPAN_METRICS = (
    _calls(_REPS), _self(_REPS),
    ("reps.reward_evals", "count", "lower", lambda s: s["reward_evals"]),
    _calls(_DUAL), _self(_DUAL), _self("reps.update_policy"),
    _calls(_DATAPOINT), _self(_DATAPOINT),
    _calls(_REWARD), _self(_REWARD),
    _calls(_ESTIMATE), _self(_ESTIMATE),
    (f"{_ESTIMATE}.mean_q", "ratio", "higher",
     lambda s: _ratio(s[f"{_ESTIMATE}.a"], s[f"{_ESTIMATE}.calls"])),
    _calls(_KNN), _self(_KNN),
    _calls(_EXECUTE), _self(_EXECUTE),
    _calls(_SET_STATE), _self(_SET_STATE),
    _calls(_CLASSIFY), (f"{_CLASSIFY}.rows", "count", "lower", lambda s: s[f"{_CLASSIFY}.a"]),
    _self(_CLASSIFY),
    _calls(_GAUSS), (f"{_GAUSS}.rows", "count", "lower", lambda s: s[f"{_GAUSS}.a"]),
    _self(_GAUSS),
    _calls(_GMM), _self(_GMM),
    _calls(_SELECT), _self(_SELECT),
    _calls(_FV_FOR), _self(_FV_FOR),
    _calls(_UCL), _self(_UCL),
    _calls(_VI), _self(_VI),
    _calls(_WITH_Q), _self(_WITH_Q),
    _calls(_POLICY), _self(_POLICY),
    _calls(_FIT_GAUSS), _self(_FIT_GAUSS),
    _calls(_FIT_GMM), _self(_FIT_GMM),
    (f"{_FIT_GMM}.em_iters", "count", "lower", lambda s: s[f"{_FIT_GMM}.a"]),
    _self("precondition_chaining.collect_success_trajectories"),
    _self("precondition_chaining.chain_preconditions"),
    _self(_DISCOVER),
    (f"{_DISCOVER}.records_per_episode", "ratio", "higher",
     lambda s: _ratio(s[f"{_DISCOVER}.a"], s[f"{_DISCOVER}.b"])),
    _self("failure_discovery.cluster_failures"),
    _calls(_CLASSIFY_FAILURE), _self(_CLASSIFY_FAILURE),
    _calls(_RUN_CHAIN), _self(_RUN_CHAIN),
    _calls(_EPISODE), _self(_EPISODE),
    (f"{_EPISODE}.success_ratio", "ratio", "higher",
     lambda s: _ratio(s[f"{_EPISODE}.a"], s[f"{_EPISODE}.calls"])),
    (f"{_EPISODE}.zero_skill", "count", "lower", lambda s: s["zero_skill"]),
    _calls(_SAVE), _self(_SAVE),
    (f"{_SAVE}.bytes", "B", "lower", lambda s: s[f"{_SAVE}.a"]),
    _calls(_LOAD), _self(_LOAD),
    _stage("harness_cli.cmd_chain_preconds"),
    _stage("harness_cli.cmd_discover"),
    _stage("harness_cli.cmd_train"),
    _stage("harness_cli.cmd_evaluate"),
    _stage("harness_cli.cmd_synthetic_allocation"),
)


def span_metrics(stats: dict[str, float]) -> dict[str, float]:
    """The per-layer span metrics of one traced unit."""
    return {name: float(value(stats)) for name, _, _, value in SPAN_METRICS}
