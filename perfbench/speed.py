"""Machine-speed probe: a fixed reference workload sampled during the passes.

On a shared virtual machine the same pure-Python work can take a third more
or less time from one minute to the next, and processor time drifts with
wall time, so neither clock alone compares two runs made at different
moments.  The probe runs a small fixed piece of Python (``reference_work``,
about a millisecond) from a ``SIGALRM`` handler every ``INTERVAL`` seconds,
in the benchmark's own thread, and records when and how long it took.  The
speed factor of a timed interval is the median of the samples taken within
``MARGIN`` seconds of it, divided by ``REFERENCE_SECONDS``; the benchmark
divides each timed call by the factor of its own interval, which reports it in
seconds at a fixed reference speed even when the machine's speed changes
within a pass.  The time spent in the handler is subtracted from every timed
call, and in a traced pass the handler runs in a span of its own, so no
library layer is charged for it.

``reference_work`` and ``REFERENCE_SECONDS`` define the unit of every
reported time: change neither without re-measuring the baseline.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass

REFERENCE_SECONDS = 0.001
INTERVAL = 0.05
MARGIN = 0.25


@dataclass(frozen=True, eq=False)
class _Node:
    edges: tuple[str, ...]
    label: str

    def key(self) -> tuple:
        return (len(self.edges),) + self.edges


_NAMES = tuple(f"x{i}" for i in range(12))


def reference_work() -> int:
    """Tuple-keyed dict lookups, small frozen objects, string joins and a
    sort: the operations the library spends its time on."""
    table = {}
    nodes = []
    for i in range(240):
        edges = (_NAMES[i % 12], _NAMES[(i * 7) % 12], _NAMES[(i * 5) % 12])
        node = _Node(edges, "|".join(edges) + str(i % 3))
        nodes.append(node)
        table[(node.edges[0], i % 4, node.label)] = node
    hits = 0
    for node in nodes:
        for slot in range(4):
            if table.get((node.edges[0], slot, node.label)) is not None:
                hits += 1
        if node.key() == nodes[hits % len(nodes)].key():
            hits += 1
    return hits + len(sorted(n.label for n in nodes[:60]))


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended, ascending
        self.spent = 0.0  # seconds inside the handler, all told
        self.tracer = None  # set during traced passes
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        span = self.tracer.open("speed.probe") if self.tracer is not None else None
        # a collection due to the library's allocations must not land in the sample
        collecting = gc.isenabled()
        gc.disable()
        work_start = time.perf_counter()
        reference_work()
        work_end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(work_end - work_start)
        self.times.append(work_end)
        if span is not None:
            self.tracer.close(span)
        self.spent += time.perf_counter() - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """How much slower than the reference speed the machine ran over
        [start - MARGIN, end + MARGIN], or over the whole run without bounds
        (1.0 before any sample)."""
        if start is None:
            taken = self.samples
        else:
            lo = bisect.bisect_left(self.times, start - MARGIN)
            hi = bisect.bisect_right(self.times, end + MARGIN)
            taken = self.samples[lo:hi] or self.samples
        return statistics.median(taken) / REFERENCE_SECONDS if taken else 1.0

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` measured over [start, end], at the reference speed."""
        return seconds / self.factor(start, end)


class Stopwatch:
    """Times a call with the probe's own time taken out.

    ``seconds`` is the wall time less the handler's; ``start`` and ``end``
    place the interval for ``SpeedProbe.scaled``.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe

    def __enter__(self):
        self._probed = self.probe.spent
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.seconds = self.end - self.start - (self.probe.spent - self._probed)
        return False
