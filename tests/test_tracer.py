"""The benchmark tracer names its subjects by string; each must still name a
function of the package, or a traced benchmark run fails only when it runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(subject: str):
    """The object the tracer wraps under ``subject``: ``layer.name`` for a
    public function or a private one listed in PRIVATE (leading underscore
    dropped), ``layer.Class.method`` for a method listed in METHODS."""
    layer, _, rest = subject.partition(".")
    module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
    if "." in rest:
        cls, meth = rest.split(".")
        assert (cls, meth) in tracer.METHODS.get(layer, ()), subject
        return getattr(module, cls).__dict__[meth]
    if "_" + rest in tracer.PRIVATE.get(layer, ()):
        return getattr(module, "_" + rest)
    return getattr(module, rest)


_SUBJECTS = [
    (name, kind, subject)
    for name, _, _, kind, subject in tracer.METRICS
    if kind in ("calls", "time", "useful", "hits")
]


@pytest.mark.parametrize("name, kind, subject", _SUBJECTS, ids=[m[0] for m in _SUBJECTS])
def test_metric_subject_resolves(name, kind, subject):
    target = _resolve(subject)
    assert callable(target), subject
    if kind == "hits":
        assert hasattr(target, "cache_info"), subject


def test_private_and_method_subjects_exist():
    for layer, names in tracer.PRIVATE.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), (layer, name)
    for layer, methods in tracer.METHODS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for cls, meth in methods:
            assert callable(getattr(module, cls).__dict__.get(meth)), (layer, cls, meth)


def test_self_subjects_are_layers():
    for name, _, _, kind, subject in tracer.METRICS:
        if kind == "self":
            assert subject in tracer.LAYERS, name
