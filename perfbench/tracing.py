"""In-memory span recording around calls into the serving stack.

The benchmark traces from its own files only: :class:`Tracer` wraps the
public methods a workload calls, or replaces them on the objects it builds
(for calls the library makes internally, on their class for the duration
of a run), so that each call records one span — name, start, end and the
enclosing span on the same thread.  Spans stay in memory and are written
out when the run ends.

A span's *self time* is its duration minus the time its child spans cover,
which is how the per-layer network profile attributes a residual block's
own work apart from the convolution, recurrent and normalization layers it
calls.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One traced call; ``parent`` is the enclosing span on the same thread."""

    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, start: float, parent: Optional["Span"], thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped callables; undoes every patch on close."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[tuple] = []

    def wrap(
        self,
        name: str,
        function: Callable,
        on_result: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> Callable:
        """Return ``function`` wrapped to record a span named ``name``.

        ``on_result(span, args, result)`` runs after the call returns, for
        counters that need the call's input or output (batch sizes).
        """
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, clock(), stack[-1] if stack else None, threading.get_ident())
            spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def patch(self, owner: Any, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` with its traced wrapper until :meth:`close`.

        Patching an instance shadows the class method for that object only;
        patching a class (for calls the library makes internally) affects
        every caller until the patch is undone.
        """
        had_own = attribute in vars(owner)
        original = vars(owner)[attribute] if had_own else None
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), on_result))
        self._patches.append((owner, attribute, had_own, original))

    def close(self) -> None:
        """Undo every patch, most recent first."""
        while self._patches:
            owner, attribute, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------ #
    def since(self, start: float) -> List[Span]:
        """Spans that started at or after ``start``."""
        return [span for span in self.spans if span.start >= start]

    def write(self, path: Path, host: Dict[str, Any]) -> None:
        """Write every span as one JSON line: name, start, end, parent, thread.

        Span ids are positions in the file; ``parent`` is the parent's id
        (or -1).  The first line holds the host block.
        """
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps({"host": host}) + "\n")
            for span in self.spans:
                parent = ids.get(id(span.parent), -1) if span.parent else -1
                handle.write(
                    json.dumps([span.name, span.start, span.end, parent, span.thread])
                    + "\n"
                )


def instrument_network(tracer: Tracer, network) -> None:
    """Trace ``Model.predict`` as ``nn.forward`` and every sublayer's
    ``fast_call`` as ``nn.layer.<class>`` (instance patches)."""
    tracer.patch(network, "predict", "nn.forward")

    def visit(layer) -> None:
        for sublayer in layer.sublayers:
            tracer.patch(sublayer, "fast_call", f"nn.layer.{type(sublayer).__name__}")
            visit(sublayer)

    visit(network)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time (seconds) per span name."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.duration
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration - child_time[id(span)]
    return dict(totals)


def durations(spans: List[Span], name: str) -> List[float]:
    """Durations (seconds) of the spans called ``name``."""
    return [span.duration for span in spans if span.name == name]
