"""The benchmark tracer wraps names that qsphere modules import from each
other; each must stay importable where the tracer looks for it."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_boundary_resolves():
    boundaries = _tracing_module().BOUNDARIES
    assert boundaries
    for module_name, attr, span in boundaries:
        module = importlib.import_module(f"qsphere.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr, span)
