"""Per-layer spans timed from outside the program.

:class:`Tracer` installs timing wrappers on the public methods that form
each layer boundary, records one span per call (name, start, end, parent,
run id) in memory, and restores the original attributes on removal.  The
program itself is not edited: the wrappers are attributes set on its
classes and modules from here, and nothing is recorded once they are gone.

Self time of a span is its duration minus the durations of its direct
children, so per-layer self times plus the step loop's own ``session.step``
self time add up to the wall time of the traced steps.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["LAYER_TARGETS", "Tracer"]

# (span name, "module:attribute path") of every wrapped layer boundary.
LAYER_TARGETS: tuple[tuple[str, str], ...] = (
    ("kernel.detect", "repro.core.hop:HopKernel.detect"),
    ("kernel.localize", "repro.core.hop:HopKernel.localize"),
    ("kernel.track", "repro.core.hop:HopKernel.track"),
    ("kernel.prime", "repro.ssl.gcc:SpectraCache.prime_dense"),
    ("ingest.pull", "repro.stream.engine:NodeIngest.pull"),
    ("ingest.pop", "repro.stream.engine:NodeIngest.pop_frames"),
    ("fusion.step", "repro.fleet.fusion:FusionEngine.step"),
    ("fusion.mlat", "repro.fleet.fusion:localize_position"),
    ("render", "repro.fleet.corridor:CorridorBlockRenderer.render_next"),
    ("pool.send", "repro.stream.pool:ShardWorkerPool.step_send"),
    ("pool.collect", "repro.stream.pool:ShardWorkerPool.step_collect"),
)

SESSION_STEP = "session.step"


def _resolve(target: str):
    """``(owner, attribute name)`` of a ``module:Class.attr`` target."""
    import importlib

    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder with installable layer wrappers.

    Spans are ``(name, start_s, end_s, parent, run_id)`` tuples; ``parent``
    is the index of the enclosing span or -1.  The recorder assumes one
    thread drives the traced calls (the session step loop).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []
        self._summary: tuple[int, dict[str, dict[str, float]], dict[str, dict[str, int]]] | None = None

    # ------------------------------------------------------------ recording

    def _begin(self) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _end(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.run_id)

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        index, parent = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(name, index, parent, start)

    def _wrap(self, name: str, fn):
        begin, end, clock = self._begin, self._end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = begin()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end(name, index, parent, start)

        return traced

    # --------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every target; idempotent per tracer."""
        if self._saved:
            return
        for name, target in LAYER_TARGETS:
            owner, attr = _resolve(target)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def remove(self) -> None:
        """Restore every wrapped attribute exactly as it was."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def tracing(self, run_id: str):
        """Install the wrappers for the ``with`` body, tagging spans ``run_id``."""
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # ------------------------------------------------------------- analysis

    def _summarize(self) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, int]]]:
        """Per-run self times (ms) and call counts by span name, in one pass
        over every span (recomputed only when spans were added)."""
        if self._summary is None or self._summary[0] != len(self.spans):
            child = [0.0] * len(self.spans)
            for name, start, end, parent, rid in self.spans:
                if parent >= 0:
                    child[parent] += end - start
            self_ms: dict[str, dict[str, float]] = {}
            counts: dict[str, dict[str, int]] = {}
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                run = self_ms.setdefault(rid, {})
                run[name] = run.get(name, 0.0) + (end - start - child[i]) * 1e3
                calls = counts.setdefault(rid, {})
                calls[name] = calls.get(name, 0) + 1
            self._summary = (len(self.spans), self_ms, counts)
        return self._summary[1], self._summary[2]

    def self_ms(self, run_id: str) -> dict[str, float]:
        """Per-name self time (ms) of one run: duration minus direct children."""
        return dict(self._summarize()[0].get(run_id, {}))

    def counts(self, run_id: str) -> dict[str, int]:
        """Per-name call count of one run."""
        return dict(self._summarize()[1].get(run_id, {}))

    def write(self, path: str | Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, run)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, rid in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": rid}
                    )
                    + "\n"
                )
