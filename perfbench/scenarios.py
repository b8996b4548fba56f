"""The benchmark's workloads: seeded inputs, pinned configs and one pass.

A *pass* is what one closed-loop client does with one fresh ``Session``:
set it up, send the timed query stream one query at a time (the next
query only after the previous result is back, no think time), and, on
``spill``, checkpoint, reopen and run one cold pass.  Every answer of every
query a pass runs is compared with the raw-table oracle.

Why these three workloads:

* ``switching`` -- the paper's Fig. 13(a) stream (each evaluated template
  back to back).  Small blocks make adaptation and planning the work, so an
  adapt / plan / join optimisation shows here.
* ``frozen`` -- a layout adapted during set-up, then repeated templates
  interleaved with adaptation off.  After the first round plans come from
  the plan cache and execution is the work; adaptation and the storage tier
  do nothing, so an optimisation of either must show no change here.
* ``spill`` -- the ``switching`` stream shape on the mmap tier with a block
  buffer far smaller than the data, then checkpoint and restart.  Faults
  (reads) and eviction write-back (writes) dominate; ``switching`` is its
  in-memory counterpart.  ``BENCHMARK.json`` does not list it: its time
  metrics, most of it kernel file and mmap work, moved by 20-29% (quartile
  spread over ten seeds) between runs on a shared 2-CPU host, more than a
  regression bound may allow.  Run it by name to measure the storage tier.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from oracle import expected_answer, multiway_count

from repro.api import Session
from repro.common.query import Query
from repro.common.rng import make_rng
from repro.core.config import AdaptDBConfig
from repro.exec.result import QueryResult
from repro.storage.table import ColumnTable
from repro.workloads.generators import switching_workload
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.tpch_queries import EVALUATED_TEMPLATES, tables_for_templates, tpch_query

TEMPLATES = list(EVALUATED_TEMPLATES)


@dataclass(frozen=True)
class Workload:
    """Sizes and engine settings of one workload.

    With ``adapt`` the stream is the switching stream: ``per_template``
    consecutive queries per template, ``cycles`` times over the templates
    with fresh parameters.  Without it, the stream is ``rounds`` rounds of
    ``per_template`` distinct queries per template, interleaved, with
    adaptation off; set-up first runs the round's leading ``warmup`` queries
    with adaptation on, so the layout is adapted to every template.
    """

    name: str
    scale: float
    rows_per_block: int
    adapt: bool
    per_template: int
    persistence: str = "memory"
    buffer_bytes: int | None = None
    cycles: int = 1
    warmup: int = 0
    rounds: int = 0
    restart: bool = False
    plan_cache_size: int = 64


WORKLOADS = {
    "switching": Workload(
        "switching", scale=0.2, rows_per_block=64, adapt=True, per_template=20,
    ),
    "frozen": Workload(
        "frozen", scale=2.0, rows_per_block=2048, adapt=False, per_template=16,
        warmup=16, rounds=3, plan_cache_size=256,
    ),
    "spill": Workload(
        "spill", scale=0.1, rows_per_block=320, adapt=True, per_template=2, cycles=2,
        persistence="mmap", buffer_bytes=256_000, restart=True,
    ),
}

#: The same workloads at sizes that run in a fraction of a second (self-test).
TINY = {
    "switching": Workload(
        "switching", scale=0.02, rows_per_block=64, adapt=True, per_template=2,
    ),
    "frozen": Workload(
        "frozen", scale=0.1, rows_per_block=512, adapt=False, per_template=1,
        warmup=8, rounds=2,
    ),
    "spill": Workload(
        "spill", scale=0.01, rows_per_block=64, adapt=True, per_template=1,
        persistence="mmap", buffer_bytes=24_000, restart=True,
    ),
}


@dataclass
class Inputs:
    """Everything a pass needs, generated from the workload seed."""

    tables: dict[str, ColumnTable]
    warmup: list[Query]
    stream: list[Query]
    repeated: list[Query]
    expected: dict[int, int]
    multiway: dict[int, int]
    user_bytes: int

    @property
    def pairwise_only(self) -> int:
        """Stream queries whose documented answer differs from the multi-way join."""
        return sum(
            query.query_id in self.multiway
            and self.multiway[query.query_id] != self.expected[query.query_id]
            for query in self.stream
        )


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate tables, query lists and oracle answers (input preparation)."""
    rng = make_rng(seed)
    tables = TPCHGenerator(scale=workload.scale, seed=seed).generate(
        tables_for_templates(TEMPLATES)
    )
    if workload.adapt:
        stream = [
            query
            for _ in range(workload.cycles)
            for query in switching_workload(TEMPLATES, workload.per_template, rng)
        ]
        repeated = stream[: len(TEMPLATES) * workload.per_template : workload.per_template]
        warmup: list[Query] = []
    else:
        repeated = [
            tpch_query(template, rng)
            for _ in range(workload.per_template)
            for template in TEMPLATES
        ]
        warmup = repeated[: workload.warmup]
        stream = repeated * workload.rounds
    distinct = {query.query_id: query for query in warmup + stream + repeated}
    return Inputs(
        tables=tables,
        warmup=warmup,
        stream=stream,
        repeated=repeated,
        expected={qid: expected_answer(q, tables) for qid, q in distinct.items()},
        multiway={
            qid: multiway_count(q, tables) for qid, q in distinct.items() if len(q.joins) > 1
        },
        user_bytes=sum(
            column.nbytes for table in tables.values() for column in table.columns.values()
        ),
    )


def session_config(workload: Workload, seed: int, storage_root: Path | None) -> AdaptDBConfig:
    """The workload's config with every field the numbers depend on pinned.

    ``AdaptDBConfig`` fills unset persistence fields from ``REPRO_PERSISTENCE``
    / ``REPRO_BUFFER_BYTES``; setting them here keeps the environment out.
    """
    mmap = workload.persistence == "mmap"
    return AdaptDBConfig(
        rows_per_block=workload.rows_per_block,
        seed=seed,
        execution_backend="tasks",
        plan_cache_size=workload.plan_cache_size,
        incremental_planning=True,
        persistence=workload.persistence,
        storage_root=str(storage_root) if mmap else None,
        buffer_bytes=workload.buffer_bytes,
    )


def fingerprint(result: QueryResult) -> tuple:
    """The per-query decision fingerprint the benchmark compares across passes."""
    return (
        result.output_rows,
        result.blocks_read,
        result.blocks_repartitioned,
        result.trees_created,
        round(result.cost_units, 9),
    )


@dataclass
class PassResult:
    """Measurements and checked answers of one pass."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    fingerprints: list[tuple] = field(default_factory=list)
    cost_units: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    checkpoint_s: float = 0.0
    reopen_s: float = 0.0
    disk_bytes: int = 0
    peak_rss_mb: float = 0.0


#: Opens the tracer's root span around one timed ``Session.run`` call.
QueryScope = Callable[[int], AbstractContextManager]


def _checked_run(
    session: Session, query: Query, adapt: bool, inputs: Inputs, outcome: PassResult
) -> QueryResult | None:
    """Run one query and compare its answer with the oracle.

    A query that raises or answers wrongly is recorded in ``outcome.failures``
    and the pass goes on, so a run reports how many queries failed.
    """
    outcome.attempted += 1
    try:
        result = session.run(query, adapt=adapt)
    except Exception as error:
        outcome.failures.append(f"{query.template}#{query.query_id}: {error!r}")
        return None
    expected = inputs.expected[query.query_id]
    if result.output_rows != expected:
        outcome.failures.append(
            f"{query.template}#{query.query_id}: answer {result.output_rows}, oracle {expected}"
        )
    return result


def _counters(session: Session) -> dict[str, float]:
    """Cumulative plan-cache, hyper-plan-cache and storage-tier counters."""
    stats = session.cache_stats()
    counters = {
        "plan_lookups": stats["plan_lookups"],
        "plan_hits": stats["plan_hits"],
        "plan_revalidations": stats["plan_revalidations"],
        "hyper_hits": stats["hyper_hits"],
        "hyper_lookups": stats["hyper_hits"] + stats["hyper_misses"],
        "hyper_upgrades": stats["hyper_upgrades"],
    }
    if session.persist is not None:
        counters.update(
            buffer_hits=session.persist.buffer.hits,
            buffer_faults=session.persist.buffer.faults,
            buffer_evictions=session.persist.buffer.evictions,
            spills=session.persist.store.spills,
            spilled_bytes=session.persist.store.spilled_bytes,
        )
    return counters


def _disk_bytes(root: Path) -> int:
    return sum(
        (Path(directory) / name).stat().st_size
        for directory, _, names in os.walk(root)
        for name in names
    )


def run_pass(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    storage_root: Path,
    query_scope: QueryScope | None = None,
) -> PassResult:
    """Set up one fresh session, run the timed stream, then the restart tail.

    ``storage_root`` must not exist yet; it is removed again at the end.
    ``query_scope(query_id)`` (a context manager factory) wraps each timed
    ``Session.run`` call when given.
    """
    outcome = PassResult()
    scope = query_scope or (lambda query_id: nullcontext())
    mmap = workload.persistence == "mmap"
    started = time.perf_counter()
    session = Session(session_config(workload, seed, storage_root if mmap else None))
    try:
        for table in inputs.tables.values():
            session.load_table(table)
        for query in inputs.warmup:
            _checked_run(session, query, True, inputs, outcome)
        outcome.setup_s = time.perf_counter() - started

        before = _counters(session)
        results = []
        started = time.perf_counter()
        for query in inputs.stream:
            sent = time.perf_counter()
            with scope(query.query_id):
                result = _checked_run(session, query, workload.adapt, inputs, outcome)
            if result is not None:
                outcome.latencies.append(time.perf_counter() - sent)
                results.append(result)
        outcome.wall_s = time.perf_counter() - started
        after = _counters(session)
        outcome.counters = {key: after[key] - before[key] for key in after}
        outcome.counters["tasks"] = sum(result.tasks_scheduled for result in results)
        outcome.counters["blocks_read"] = sum(result.blocks_read for result in results)
        outcome.cost_units = sum(result.cost_units for result in results)
        outcome.fingerprints = [fingerprint(result) for result in results]

        if workload.restart:
            started = time.perf_counter()
            spilled = session.checkpoint()
            outcome.checkpoint_s = time.perf_counter() - started
            outcome.counters["checkpoint_blocks_spilled"] = spilled["blocks_spilled"]
            session.close()
            outcome.disk_bytes = _disk_bytes(storage_root)
            started = time.perf_counter()
            session = Session.open(storage_root)
            for query in inputs.repeated:
                result = _checked_run(session, query, False, inputs, outcome)
                if result is not None:
                    outcome.fingerprints.append(fingerprint(result))
            outcome.reopen_s = time.perf_counter() - started
    finally:
        session.close()
        shutil.rmtree(storage_root, ignore_errors=True)
    return outcome
