"""Per-layer timing from outside the program.

A Tracer replaces functions with timing wrappers at the place where
their caller looks them up (a module attribute), and puts the originals
back on uninstall. Spans are aggregated in memory per name: call count,
inclusive seconds and self seconds. Self time is a span's duration minus
the time covered by the spans that ran inside it, kept exactly with a
stack of open spans (the pipeline is single-threaded).

Generator functions are timed over their whole consumption: each
`next()` on the wrapped generator is one timed slice of the same span,
so the consumer's own work between items is not charged to it.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    units: float = 0.0


@dataclass(frozen=True)
class Hook:
    """One function to time: `module.attr`, reported under `name`."""

    module: str
    attr: str
    name: str
    generator: bool = False
    units: Optional[Callable[..., float]] = None


class Tracer:
    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def _open(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[float], elapsed: float, calls: int) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        record = self.stats.setdefault(name, SpanStats())
        record.calls += calls
        record.seconds += elapsed
        record.self_seconds += elapsed - frame[0]

    def timed(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call fn inside a span named `name` (used for the CLI commands)."""
        frame = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, time.perf_counter() - start, 1)

    def add_units(self, name: str, amount: float) -> None:
        self.stats.setdefault(name, SpanStats()).units += amount

    # -- wrapping ------------------------------------------------------
    def _wrap(self, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        if hook.generator:
            def wrapper(*args: Any, **kwargs: Any):
                inner = fn(*args, **kwargs)
                calls = 1
                while True:
                    frame = tracer._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(hook.name, frame, time.perf_counter() - start, calls)
                        calls = 0
                    yield item
        else:
            def wrapper(*args: Any, **kwargs: Any):
                if hook.units is not None:
                    tracer.add_units(hook.name, hook.units(*args, **kwargs))
                frame = tracer._open()
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(hook.name, frame, time.perf_counter() - start, 1)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for hook in self.hooks:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr)
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.stats.clear()
        self._stack.clear()

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())


def _sequence_steps(params: Any, xs: Any) -> float:
    return float(len(xs))


# Each hook sits where the pipeline's caller looks the function up: names
# that `argtree.cli` or `argtree.models.neural` import with `from ... import`
# are wrapped in the importing module, names called as `module.func` in the
# defining module.
LAYER_HOOKS: list[Hook] = [
    Hook("argtree.cli", "generate_corpus", "synth.generate_corpus"),
    Hook("argtree.corpus_io", "parse_corpus", "corpus_io.parse_corpus", generator=True),
    Hook("argtree.cli", "validate_tree", "trees.validate_tree"),
    Hook("argtree.stats", "corpus_stats", "stats.corpus_stats"),
    Hook("argtree.cli", "derive_specificity_examples", "pairs.derive", generator=True),
    Hook("argtree.cli", "derive_stance_examples", "pairs.derive", generator=True),
    Hook("argtree.cli", "write_pairs", "pairs.write_pairs"),
    Hook("argtree.cli", "read_pairs_file", "pairs.read_pairs"),
    Hook("argtree.features", "tokenize", "text.tokenize"),
    Hook("argtree.stats", "tokenize", "text.tokenize"),
    Hook("argtree.models.baselines", "tokenize", "text.tokenize"),
    Hook("argtree.models.encoder", "tokenize", "text.tokenize"),
    Hook("argtree.cli", "build_vocabulary", "features.build_vocabulary"),
    Hook("argtree.cli", "featurize_specificity", "features.featurize"),
    Hook("argtree.cli", "featurize_stance", "features.featurize"),
    Hook("argtree.cli", "write_features", "features.write_features"),
    Hook("argtree.cli", "read_features_file", "features.read_features"),
    Hook("argtree.models.logreg", "design_matrix", "logreg.design_matrix"),
    Hook("argtree.models.logreg", "loss_and_grad", "logreg.loss_and_grad"),
    Hook("argtree.models.neural", "pack_pair", "encoder.pack"),
    Hook("argtree.models.neural", "pack_path_flat", "encoder.pack"),
    Hook("argtree.models.neural", "pack_path_pairs", "encoder.pack"),
    Hook("argtree.models.neural", "encode", "encoder.encode"),
    Hook("argtree.models.neural", "encode_backward", "encoder.encode_backward"),
    Hook("argtree.models.neural", "bigru_forward", "gru.forward", units=_sequence_steps),
    Hook("argtree.models.neural", "bigru_backward", "gru.backward"),
    Hook("argtree.models.neural", "batch_loss_and_grads", "neural.train_step"),
    Hook("argtree.models.neural", "dataset_loss", "neural.epoch_loss"),
    Hook("argtree.models.neural", "predict_packed", "neural.predict"),
    Hook("argtree.cli", "train_neural", "neural.train"),
    Hook("argtree.cli", "dump_checkpoint", "checkpoint.write"),
    Hook("argtree.models", "read_checkpoint", "checkpoint.read"),
    Hook("argtree.cli", "stratified_eval", "evaluation.stratified_eval"),
    Hook("argtree.cli", "paired_t_test", "evaluation.paired_t_test"),
]
