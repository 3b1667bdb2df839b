"""Per-layer timing by wrapping functions where their callers bind them.

`Tracer.wrap(owner, attr, layer)` replaces ``owner.attr`` (a module global or a
class attribute) with a wrapper that adds each call's wall time to `layer`.
Calls nest: a wrapped call made inside another one is that call's child, and
a layer's self time is its wall time minus the wall time of its wrapped
children.  An optional ``on_return(args, kwargs, result, elapsed_ns)`` hook
sees every call that returns.  Exceptions are counted per layer and re-raised
unchanged.

The package code is not modified: a caller that looks the name up in its own
module at call time reaches the wrapper, and `restore` puts every original
back, in reverse order, when the tracer's ``with`` block ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0


class Tracer:
    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self._stack: list[list[int]] = []      # per open call: [wall ns of its children]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, on_return=None) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        traced = self._traced(raw.__func__ if is_classmethod else raw, layer, on_return)
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self) -> dict[str, LayerStats]:
        """Return the statistics gathered so far and start from zero."""
        layers, self.layers = self.layers, {}
        return layers

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _traced(self, fn, layer: str, on_return):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = self.layers.get(layer)
            if stats is None:
                stats = self.layers[layer] = LayerStats()
            children = [0]
            stack.append(children)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                elapsed = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children[0]
            if on_return is not None:
                on_return(args, kwargs, result, elapsed)
            return result

        return traced
