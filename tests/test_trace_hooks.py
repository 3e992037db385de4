"""Every function the benchmark's tracer wraps still exists where it looks.

The tracer (`benchmark/tracing.py`) replaces module attributes by name, so
a refactor that renames or drops one of them would otherwise fail only in
a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmark", "tracing.py")


def test_every_layer_hook_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("argtree_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    hooks = tracing.LAYER_HOOKS
    assert hooks
    missing = [
        f"{hook.module}.{hook.attr}"
        for hook in hooks
        if not callable(getattr(importlib.import_module(hook.module), hook.attr, None))
    ]
    assert missing == []
