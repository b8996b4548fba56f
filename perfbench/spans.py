"""Outside-in layer tracing: spans around calls into each layer of ``repro``.

The tracer wraps public functions and methods of each layer from here,
without editing the package: a method is replaced on its class, and a
module-level function is replaced in the namespace of the module that
calls it (for example ``repro.api.session.compile_plan``, the name
``Session.lower`` resolves).  :meth:`Tracer.installed` restores every
original on exit, so untraced passes run the unmodified code.

A span is recorded only inside a per-query root span (:meth:`Tracer.query`),
so set-up work is not charged to any layer.  Each span keeps its name,
start, end, parent and query id in memory; :meth:`Tracer.chrome_events`
exports them in Chrome trace-event form.  A span's self time is its
duration minus the time its direct children cover, so the layers' self
times plus the root spans' own self time (``other``) add up to the timed
wall exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: (span name, module, class or "" for a module-level name, attribute).
TARGETS: list[tuple[str, str, str, str]] = [
    ("api.plan", "repro.api.session", "Session", "plan"),
    ("adaptive.on_query", "repro.adaptive.repartitioner", "AdaptiveRepartitioner", "on_query"),
    ("adaptive.amoeba_search", "repro.adaptive.amoeba", "AmoebaAdaptor", "candidate_transforms"),
    ("adaptive.smooth_apply", "repro.adaptive.smooth", "SmoothRepartitioner", "apply"),
    ("partitioning.lookup", "repro.storage.table", "StoredTable", "lookup"),
    ("partitioning.route_rows", "repro.partitioning.tree", "PartitioningTree", "route_rows"),
    ("core.plan_query", "repro.core.optimizer", "Optimizer", "plan_query"),
    ("join.overlap", "repro.join.hyperjoin", "", "compute_overlap_matrix"),
    ("join.overlap", "repro.join.hyperjoin", "", "patch_overlap_matrix"),
    ("join.grouping", "repro.join.hyperjoin", "", "group_blocks"),
    ("exec.compile", "repro.api.session", "", "compile_plan"),
    ("exec.schedule", "repro.exec.scheduler", "Scheduler", "schedule"),
    ("exec.execute", "repro.api.backends", "TaskBackend", "execute"),
    ("exec.scan_task", "repro.exec.engine", "", "run_scan_task"),
    ("exec.shuffle_map_task", "repro.exec.engine", "", "run_shuffle_map_task"),
    ("exec.shuffle_reduce_task", "repro.exec.engine", "", "run_shuffle_reduce_task"),
    ("exec.hyper_group_task", "repro.exec.engine", "", "run_hyper_group_task"),
    ("storage.get_blocks", "repro.storage.dfs", "DistributedFileSystem", "get_blocks"),
    ("storage.move_blocks", "repro.storage.table", "StoredTable", "move_blocks"),
    ("storage.spill", "repro.storage.persist.store", "PersistentBlockStore", "spill"),
]

#: ``PersistentBlockStore.loader`` returns the fault closure; the closure is
#: what runs on every buffer fault, so the tracer times the closure.
FAULT_TARGET = ("storage.fault", "repro.storage.persist.store", "PersistentBlockStore", "loader")

ROOT = "query"


class Tracer:
    """Records nested spans and per-name self time while installed."""

    def __init__(self) -> None:
        #: (span id, parent id or -1, name, start, end, query id)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[Any]] = []
        self._query_id = -1

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> None:
        # Every span opened so far is either closed or on the stack.
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, parent, name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_seconds[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, parent, name, start, end, self._query_id))

    @contextmanager
    def query(self, query_id: int) -> Iterator[None]:
        """The root span of one timed query; layer spans nest under it."""
        self._query_id = query_id
        self._open(ROOT)
        try:
            yield
        finally:
            self._close()
            self._query_id = -1

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` recording a ``name`` span whenever a query is open."""

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._stack:
                return function(*args, **kwargs)
            self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close()
            if name == "adaptive.on_query":
                self.counts["blocks_repartitioned"] += result.blocks_repartitioned
                self.counts["rows_repartitioned"] += result.rows_repartitioned
                self.counts["amoeba_transforms"] += result.amoeba_transforms
                self.counts["trees_created"] += result.trees_created
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the ``with`` block."""
        originals: list[tuple[Any, str, Any]] = []

        def replace(owner: Any, attribute: str, replacement: Any) -> None:
            originals.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)

        try:
            for name, module_name, class_name, attribute in TARGETS:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                replace(owner, attribute, self.wrap(name, getattr(owner, attribute)))
            name, module_name, class_name, attribute = FAULT_TARGET
            store_class = getattr(importlib.import_module(module_name), class_name)
            make_loader = getattr(store_class, attribute)

            @functools.wraps(make_loader)
            def traced_loader(store: Any, *args: Any, **kwargs: Any) -> Any:
                return self.wrap(name, make_loader(store, *args, **kwargs))

            replace(store_class, attribute, traced_loader)
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def timed_wall(self) -> float:
        """Total duration of the root spans (the traced queries' latency)."""
        return sum(end - start for _, parent, name, start, end, _ in self.spans if parent == -1)

    def covered(self) -> float:
        """Time the root spans' direct children (the top-level layers) cover."""
        return self.timed_wall() - self.self_seconds[ROOT]

    def chrome_events(self) -> list[dict[str, Any]]:
        """The spans as Chrome trace events (``chrome://tracing``, Perfetto)."""
        origin = min((start for _, _, _, start, _, _ in self.spans), default=0.0)
        return [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent, "query": query_id},
            }
            for span_id, parent, name, start, end, query_id in self.spans
        ]
