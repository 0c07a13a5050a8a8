"""Span tracing at the library's layer boundaries, from outside the library.

:class:`Tracer` replaces public functions and methods of :mod:`repro` with
wrappers that record one span per call (name, start, end, parent span) and
puts the originals back on :meth:`Tracer.restore`.  Spans are kept in
memory in flat arrays and written out once, when the run ends.  A layer's
self time is its spans' duration minus the part covered by child spans; the
traced calls are synchronous, so a span's children nest inside it on the
same thread and the covered part is the sum of their durations.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from array import array

import numpy as np

import repro.core.above_theta
import repro.core.lemp
import repro.core.top_k
import repro.engine.persistence
from repro import Lemp, RetrievalEngine, VectorStore
from repro.core.retrievers import IncrRetriever, LengthRetriever

#: Layer boundaries: (owner, attribute, span name).  Module functions are
#: wrapped where the caller looks them up, so only the solver's calls count.
BOUNDARIES = (
    (RetrievalEngine, "row_top_k", "engine.facade"),
    (RetrievalEngine, "above_theta", "engine.facade"),
    (Lemp, "row_top_k", "core.lemp"),
    (Lemp, "above_theta", "core.lemp"),
    (repro.core.lemp, "solve_row_top_k", "core.solver"),
    (repro.core.lemp, "solve_above_theta", "core.solver"),
    (repro.core.lemp, "tune_mixed", "core.tuner"),
    (repro.core.lemp, "bucketize", "core.bucketize"),
    (repro.core.top_k, "local_threshold", "core.thresholds"),
    (repro.core.above_theta, "local_thresholds", "core.thresholds"),
    (LengthRetriever, "retrieve", "core.retrievers.length"),
    (IncrRetriever, "retrieve", "core.retrievers.incr"),
    (repro.core.top_k, "gather_matvec", "core.kernels.verify"),
    (repro.core.above_theta, "gather_matvec", "core.kernels.verify"),
    (VectorStore, "merge", "core.vector_store.merge"),
    (VectorStore, "delete", "core.vector_store.delete"),
    (repro.engine.persistence, "load_engine", "engine.persistence.load"),
)

clock = time.perf_counter


class Tracer:
    """Records spans of wrapped calls, plus garbage-collector pauses."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.span_id = array("q")
        self.parent = array("q")
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.gc_pauses: list[tuple[float, float]] = []
        self._gc_started = 0.0

    def _name_code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _wrap(self, function, name: str):
        code = self._name_code(name)
        ids, local = self._ids, self._local
        span_ids, parents, codes = self.span_id, self.parent, self.code
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            span = next(ids)
            stack.append(span)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                span_ids.append(span)
                parents.append(parent)
                codes.append(code)
                starts.append(started)
                ends.append(ended)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = clock()
        else:
            self.gc_pauses.append((self._gc_started, clock()))

    def install(self) -> "Tracer":
        """Wrap every boundary in :data:`BOUNDARIES` and time gc pauses."""
        for owner, attribute, name in BOUNDARIES:
            original = vars(owner)[attribute]
            setattr(owner, attribute, self._wrap(original, name))
            self._patches.append((owner, attribute, original))
        gc.callbacks.append(self._on_gc)
        return self

    def restore(self) -> None:
        """Put every wrapped original back and stop timing gc."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def save(self, path) -> None:
        """Write every span (and the name table) to one ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), span_id=np.asarray(self.span_id),
            parent=np.asarray(self.parent), code=np.asarray(self.code),
            start=np.asarray(self.start), end=np.asarray(self.end),
            gc_pauses=np.asarray(self.gc_pauses, dtype=float).reshape(-1, 2),
        )

    def gc_seconds(self, windows) -> float:
        """Garbage-collector pause seconds that began inside ``windows``."""
        if not self.gc_pauses:
            return 0.0
        pauses = np.asarray(self.gc_pauses)
        inside = within(pauses[:, 0], windows)
        return float((pauses[inside, 1] - pauses[inside, 0]).sum())


def within(times: np.ndarray, windows) -> np.ndarray:
    """Mask of ``times`` inside any of the disjoint, ordered ``windows``."""
    if not windows:
        return np.zeros(times.shape, dtype=bool)
    starts = np.array([start for start, _ in windows])
    ends = np.array([end for _, end in windows])
    slot = np.searchsorted(starts, times, side="right") - 1
    return (slot >= 0) & (times < ends[np.maximum(slot, 0)])


class Spans:
    """Array view of a tracer's spans with self times and parent names."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        span_id = np.asarray(tracer.span_id)
        parent = np.asarray(tracer.parent)
        self.code = np.asarray(tracer.code)
        self.start = np.asarray(tracer.start)
        self.end = np.asarray(tracer.end)
        self.duration = self.end - self.start
        position = np.full(int(span_id.max(initial=-1)) + 1, -1, dtype=np.int64)
        position[span_id] = np.arange(span_id.size)
        has_parent = parent >= 0
        self.parent_pos = np.full(span_id.size, -1, dtype=np.int64)
        self.parent_pos[has_parent] = position[parent[has_parent]]
        covered = np.bincount(self.parent_pos[has_parent], weights=self.duration[has_parent],
                              minlength=span_id.size)
        self.self_time = self.duration - covered
        self.parent_code = np.where(self.parent_pos >= 0,
                                    self.code[np.maximum(self.parent_pos, 0)], -1)

    def select(self, name: str, windows, parent: str | None = None):
        """Mask of spans called ``name`` that start inside ``windows``."""
        if name not in self.names:
            return np.zeros(self.code.size, dtype=bool)
        mask = (self.code == self.names.index(name)) & within(self.start, windows)
        if parent is not None:
            parent_code = self.names.index(parent) if parent in self.names else -2
            mask &= self.parent_code == parent_code
        return mask

    def total(self, name: str, windows, parent: str | None = None, own: bool = True) -> float:
        """Summed self time (``own``) or duration of the selected spans."""
        mask = self.select(name, windows, parent)
        return float((self.self_time if own else self.duration)[mask].sum())

    def count(self, name: str, windows, parent: str | None = None) -> int:
        return int(self.select(name, windows, parent).sum())
