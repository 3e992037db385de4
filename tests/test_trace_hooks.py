"""Every function the benchmark and the scripts take from argtree still exists where they look.

The tracer (`benchmark/tracing.py`) replaces module attributes by name,
and the benchmark and the scripts import argtree names, some of them
inside functions. A refactor that renames or drops one of them would
otherwise fail only in a benchmark run or in the slow self-test.
"""

from __future__ import annotations

import ast
import glob
import importlib
import importlib.util
import math
import os
import sys

import pytest

from argtree.models.config import EncoderConfig, neural_train_config
from argtree.models.neural import train_neural
from argtree.pairs import StanceExample, StanceLabel
from argtree.trees import StanceEdge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "benchmark", "tracing.py")


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("argtree_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_layer_hook_resolves_to_a_callable(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    hooks = tracing.LAYER_HOOKS
    assert hooks
    missing = [
        f"{hook.module}.{hook.attr}"
        for hook in hooks
        if not callable(getattr(importlib.import_module(hook.module), hook.attr, None))
    ]
    assert missing == []


def _argtree_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of each argtree import in benchmark/*.py and scripts/*.py.

    `from argtree.x import name` gives (file, "argtree.x", name), and
    `import argtree.x` gives (file, "argtree.x", ""). Imports inside
    functions count too.
    """
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "benchmark", "*.py")) +
                       glob.glob(os.path.join(ROOT, "scripts", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        where = os.path.relpath(path, ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                found += [(where, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(where, alias.name, "") for alias in node.names]
    return [entry for entry in found if entry[1].split(".")[0] == "argtree"]


def _resolves(module: str, name: str) -> bool:
    try:
        imported = importlib.import_module(module)
        if name and not hasattr(imported, name):
            importlib.import_module(f"{module}.{name}")  # a submodule not imported yet
    except ImportError:
        return False
    return True


def test_every_argtree_import_of_the_benchmark_and_scripts_resolves():
    imports = _argtree_imports()
    names = {name for _, _, name in imports}
    # the scan sees the imports made inside functions, too
    assert {"pack_dataset", "batch_loss_and_grads", "read_pairs_file", "load_model", "main"} <= names
    missing = [
        f"{where}: {module}{'.' + name if name else ''}"
        for where, module, name in imports
        if not _resolves(module, name)
    ]
    assert missing == []


def _paths(count: int) -> list[StanceExample]:
    """Paths of 1-3 edges over a few words; every fifth path repeats an edge."""
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    examples = []
    for i in range(count):
        texts = [f"{words[(i + j) % 7]} {words[(i * j) % 7]}" for j in range(i % 3 + 2)]
        if i % 5 == 0:
            texts[:2] = ["alpha beta", "gamma delta"]
        edges = [StanceEdge.CON if i % 2 else StanceEdge.PRO] + [StanceEdge.PRO] * (len(texts) - 2)
        examples.append(StanceExample(
            topic_id=f"t{i}", a_id="a", b_id="b", distance=len(texts) - 1, path_texts=texts,
            path_edges=edges, label=StanceLabel.OPPOSES if i % 2 else StanceLabel.SUPPORTS,
            same_stance=None,
        ))
    return examples


@pytest.mark.parametrize("kind", ["pair", "path-flat", "path-hier"])
def test_training_runs_through_the_traced_neural_spans(monkeypatch, kind):
    """train_neural calls the traced step, epoch-loss and predict functions.

    neural.train_step, neural.epoch_loss and neural.predict time the
    module attributes batch_loss_and_grads, dataset_loss and predict_packed;
    a loop that bypassed them would read 0 s there while doing the work.
    """
    tracing = _load_tracing(monkeypatch)
    train, dev = _paths(37), _paths(150)[-11:]
    config = neural_train_config(learning_rate=0.1, batch_size=8, max_epochs=3, patience=0)
    tracer = tracing.Tracer(tracing.LAYER_HOOKS)
    tracer.install()
    try:
        model = train_neural(
            kind, "stance", train, dev, EncoderConfig(dim=4, hidden=3, min_count=1), config
        )
    finally:
        tracer.uninstall()
    epochs = len(model.history)
    assert epochs == 3
    assert tracer.get("neural.train_step").calls == epochs * math.ceil(len(train) / 8)
    assert tracer.get("neural.epoch_loss").calls == epochs
    assert tracer.get("neural.predict").calls == epochs
    assert tracer.get("encoder.encode").calls > 0
    assert tracer.get("encoder.encode_backward").calls > 0
    assert tracer.get("encoder.pack").calls > 0
    if kind == "path-hier":
        assert tracer.get("gru.forward").calls > 0
        assert tracer.get("gru.backward").calls > 0
