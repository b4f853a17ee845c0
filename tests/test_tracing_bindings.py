"""The benchmark tracer patches detkit functions by module and name; each must exist and come back."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores_every_name(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    points = [(module, attr) for module, attr, _, _ in tracing.SPAN_POINTS]
    points += [(module, attr) for module, attr, _ in tracing.COUNT_POINTS]
    originals = [getattr(module, attr) for module, attr in points]
    assert len({(module.__name__, attr) for module, attr in points}) == 13
    tracer = tracing.Tracer()
    tracer.install()  # an AttributeError here names a binding the tracer can no longer find
    try:
        assert all(getattr(module, attr) is not original for (module, attr), original in zip(points, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original for (module, attr), original in zip(points, originals))
