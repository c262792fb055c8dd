"""The benchmark's layer wrappers still find every name they wrap.

``perfbench/layers.py`` times the program's layers by replacing
functions of ``repro`` at the attributes listed in ``LAYER_TARGETS``
and every ``MODEL_REGISTRY`` factory.  Renaming or deleting one of those
names breaks only the benchmark's traced runs, which nothing else
exercises, so this test installs the wrappers, checks each is in place
and checks that uninstalling puts every original back.
"""

import sys
from pathlib import Path

import pytest

from repro.models import MODEL_REGISTRY

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    import layers as module

    yield module
    sys.modules.pop("layers", None)


def _current(owner, attr):
    """The attribute as ``layers.install`` reads and replaces it."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_every_target_is_wrapped_and_restored(layers):
    originals = []
    for _layer, target, _skip_under in layers.LAYER_TARGETS:
        owner, attr = layers._resolve(target)
        assert attr in vars(owner), f"{target} is not defined there"
        originals.append((target, owner, attr, _current(owner, attr)))
    factories = dict(MODEL_REGISTRY)
    assert factories

    undo = layers.install(layers.Tracer())
    try:
        for target, owner, attr, original in originals:
            wrapper = _current(owner, attr)
            assert wrapper is not original, target
            assert wrapper.__wrapped__ is original, target
        assert MODEL_REGISTRY.keys() == factories.keys()
        for name, factory in factories.items():
            assert MODEL_REGISTRY[name] is not factory, name
            assert MODEL_REGISTRY[name].__wrapped__ is factory, name
    finally:
        layers.uninstall(undo)
        for target, owner, attr, original in originals:
            assert _current(owner, attr) is original, target
        for name, factory in factories.items():
            assert MODEL_REGISTRY[name] is factory, name
