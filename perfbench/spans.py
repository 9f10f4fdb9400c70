"""Spans around the calls into each HELIX layer, recorded from outside the program.

The benchmark does not instrument the program: :class:`LayerTracer` replaces
each public entry point of a layer with a wrapper that records a span (name,
start, end, parent, thread, iteration) and, for some layers, a work count,
then restores every original on :meth:`LayerTracer.uninstall`.  The session
binds several layer functions with ``from ... import``, so those are wrapped
in the module where the session looks them up.

Spans stay in memory and are written as JSON lines by :meth:`LayerTracer.dump`
when the benchmark ends.  A span's parent is the innermost open span on the
same thread; spans opened on worker threads (chunk tasks, the background
materializer) have no parent and count as busy time, not wall time.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.session as session_module
import repro.versioning.persistence as persistence_module
from repro.execution.engine import ExecutionEngine
from repro.execution.store import ArtifactStore
from repro.incremental.planner import DeltaPlanner
from repro.introspect.trace import RunTrace
from repro.obs.bridge import PeriodicRegistryFlush
from repro.obs.events import EventLog
from repro.optimizer.cost_model import CostEstimator
from repro.storage.backends import DiskBackend, MemoryBackend
from repro.storage.catalog import CatalogDB

#: One recorded span: (id, name, start, end, parent id or None, thread id, iteration).
Span = Tuple[int, str, float, float, Optional[int], int, int]

#: The store snapshots the session passes to ``CostEstimator.estimate``.
SNAPSHOT_METHODS = (
    "sizes_by_signature",
    "load_costs_by_signature",
    "chunk_inventory",
    "codecs_by_signature",
    "memory_resident_signatures",
)


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _rows(result: Any) -> int:
    """Rows a catalog call returned: a collection's length, 1 for a record or scalar."""
    if result is None:
        return 0
    if isinstance(result, (list, tuple, dict, set, frozenset)):
        return len(result)
    return 1


class LayerTracer:
    """Records spans and work counts for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (iteration, counter name) -> total.
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        #: Iteration id stamped on spans; -1 outside a traced iteration.
        self.iteration = -1
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[(self.iteration, name)] += value

    def _call(self, name: str, original: Callable, args, kwargs,
              on_result: Optional[Callable[["LayerTracer", Any, tuple, dict], None]]):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack and stack[-1][1] == name:
            # A layer calling its own public surface is one call into it.
            return original(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        iteration = self.iteration
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        except BaseException:
            self.count(name + ".failed")
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), iteration)
            )
        self.count(name + ".calls")
        if on_result is not None:
            on_result(self, result, args, kwargs)
        return result

    def wrap(self, owner: Any, attr: str, name: Optional[str],
             on_result: Optional[Callable[["LayerTracer", Any, tuple, dict], None]] = None,
             ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name=None`` records no span, only what ``on_result`` counts.
        """
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if name is None:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result, args, kwargs)
                return result
            return tracer._call(name, original, args, kwargs, on_result)

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, owned))

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics name."""
        # compiler: the session calls both through its own module globals.
        self.wrap(session_module, "compile_workflow", "compiler")
        self.wrap(session_module, "slice_to_outputs", "compiler")
        # incremental delta planning.
        self.wrap(DeltaPlanner, "plan", "incremental")
        # cost model, and the store snapshots the session feeds it.
        self.wrap(CostEstimator, "estimate", "cost_model")
        for method in SNAPSHOT_METHODS:
            self.wrap(ArtifactStore, method, "cost_model.snapshot", _count_entries)
        # recomputation optimizer (min-cut).
        self.wrap(session_module, "optimal_plan_explained", "recomputation")
        # execution: the engine, the store underneath it, the catalog under that.
        self.wrap(ExecutionEngine, "execute", "execution")
        self.wrap(ArtifactStore, "encode", "store.encode")
        self.wrap(ArtifactStore, "put_bytes", "store.put", _count_put_bytes)
        self.wrap(ArtifactStore, "get", "store.get")
        for backend in (DiskBackend, MemoryBackend):
            self.wrap(backend, "get_bytes", None, _count_read_bytes)
        for method, member in sorted(vars(CatalogDB).items()):
            if not method.startswith("_") and inspect.isfunction(member):
                self.wrap(CatalogDB, method, "catalog", _count_rows)
        # run traces and the trace index.
        self.wrap(RunTrace, "save", "trace", _count_file_bytes("trace.bytes"))
        self.wrap(session_module, "register_trace", "trace")
        # persistence of versions, cost history and deferred catalog updates.
        for function in ("save_version_store", "save_cost_history"):
            self.wrap(persistence_module, function, "persistence",
                      _count_file_bytes("persistence.bytes"))
        self.wrap(ArtifactStore, "flush", "persistence")
        # observability plane.
        self.wrap(EventLog, "emit", "obs", _count_event)
        self.wrap(PeriodicRegistryFlush, "__call__", "obs")

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- output ------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one JSON line, ordered by start time."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, thread, iteration in sorted(
                self.spans, key=lambda span: span[2]
            ):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "iteration": iteration,
                }) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children are on the parent's thread and nest inside it, so their
    durations do not overlap and simply subtract.
    """
    own = {span[0]: span[3] - span[2] for span in spans}
    for span_id, _name, start, end, parent, _thread, _iteration in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


def _count_entries(tracer: LayerTracer, result: Any, args, kwargs) -> None:
    tracer.count("cost_model.entries_read", len(result) if result is not None else 0)


def _count_put_bytes(tracer: LayerTracer, result: Any, args, kwargs) -> None:
    payload = kwargs.get("payload", args[3] if len(args) > 3 else b"")
    tracer.count("store.put.bytes", len(payload))


def _count_read_bytes(tracer: LayerTracer, result: Any, args, kwargs) -> None:
    tracer.count("store.get.bytes", len(result))


def _count_rows(tracer: LayerTracer, result: Any, args, kwargs) -> None:
    tracer.count("catalog.rows_returned", _rows(result))


def _count_event(tracer: LayerTracer, result: Any, args, kwargs) -> None:
    tracer.count("obs.events")


def _count_file_bytes(counter: str) -> Callable[[LayerTracer, Any, tuple, dict], None]:
    def on_result(tracer: LayerTracer, result: Any, args, kwargs) -> None:
        tracer.count(counter, _file_size(result))
    return on_result
