"""The benchmark's tracer (``bench/tracer.py``) still finds every package
name it wraps, so a change to the package that would break the benchmark's
traced runs fails here."""

import importlib
import importlib.util
import os

from conftest import SRC

TRACER = os.path.join(os.path.dirname(SRC), "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(package, module, qualname):
    """What the tracer patches for a target: a module's function, or a
    class's own attribute."""
    owner = importlib.import_module(f"{package}.{module}")
    for name in qualname.split(".")[:-1]:
        owner = getattr(owner, name)
    return vars(owner)[qualname.split(".")[-1]]


def test_the_tracer_wraps_every_target_and_uninstall_restores_it():
    tracing = _load_tracer()
    targets = [(module, qualname) for module, qualname, _ in tracing.TARGETS]
    originals = [_bound(tracing.PACKAGE, *target) for target in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a target that the package renamed or removed raises here
        wrapped = [_bound(tracing.PACKAGE, *target) for target in targets]
    finally:
        tracer.uninstall()  # install rolls nothing back, so a partial patch is undone here
    assert [getattr(fn, "__wrapped__", None) for fn in wrapped] == originals
    assert [_bound(tracing.PACKAGE, *target) for target in targets] == originals
