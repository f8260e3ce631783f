"""In-memory spans around the library's coarse public calls.

A ``Tracer`` replaces a public function, in every module namespace that binds
it, by a wrapper that records a span: name, start, end and parent.  Calls
from inside the library see the wrapper too, because Python looks module
globals up at call time, so spans nest ``cli.main`` -> ``serialize.*`` ->
``core.*`` exactly as the calls do.  Only coarse calls are wrapped; per-cell
helpers stay untouched so the tracing cost stays small.

Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tag: str = ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, tag: str = "") -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent=parent, tag=tag)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, note=None, tag_of=None):
        """``fn`` recording one span per call.

        ``note(args, kwargs, result)`` returns work counts read off the call;
        it runs in a ``trace.note`` span of its own, so its cost is not
        charged to any library span.  ``tag_of(args, kwargs)`` labels the span.
        """

        def traced(*args, **kwargs):
            span = self.open(name, tag_of(args, kwargs) if tag_of else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                noting = self.open("trace.note")
                for key, value in note(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
                self.close(noting)
            return result

        return traced

    def install(self, modules, attr: str, name: str, **options) -> None:
        """Wrap ``attr`` wherever one of ``modules`` binds the same function."""
        original = getattr(modules[0], attr)
        wrapper = self.wrap(original, name, **options)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._installed.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- reading -------------------------------------------------------------

    def self_times(self, scale) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans.

        ``scale(start, end, seconds)`` converts each span's share to the
        reference speed (see ``speed.SpeedProbe.scaled``).
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span in self.spans:
            mine = scale(span.start, span.end, span.end - span.start - child_time[span.id])
            out[span.name] = out.get(span.name, 0.0) + mine
        return out

    def durations(self, name: str, scale, leave_out: str) -> list[tuple[str, float]]:
        """(tag, seconds) of every span with this name, in call order, less
        the time of the ``leave_out`` spans nested anywhere inside it."""
        inside = [0.0] * len(self.spans)
        for span in self.spans:
            if span.name == leave_out:
                parent = span.parent
                while parent is not None:
                    inside[parent] += span.end - span.start
                    parent = self.spans[parent].parent
        return [
            (s.tag, scale(s.start, s.end, s.end - s.start - inside[s.id]))
            for s in self.spans
            if s.name == name
        ]

def write_spans(path: str, passes: list[list[Span]]) -> None:
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({
                    "pass": number, "id": s.id, "name": s.name, "tag": s.tag,
                    "start": s.start, "end": s.end, "parent": s.parent,
                }) + "\n")
