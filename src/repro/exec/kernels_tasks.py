"""Per-task run functions shared by the in-process and multi-core engines.

:class:`~repro.exec.engine.Executor` used to inline all row-level task work
in ``_run_task``, which made the task logic inseparable from executor state
(catalog, cluster, join accumulators).  This module factors that work into
pure module-level functions:

* the ``run_*`` functions do the row work of one task.  They take only
  block *readers* (anything exposing ``num_rows`` / ``columns`` — a live
  :class:`~repro.storage.block.Block` in the in-process engine, a
  shared-memory :class:`~repro.storage.shared_memory.SharedBlockView` in a
  worker process), plain predicates, column names and integers.  Nothing here
  captures a ``Catalog``, ``Cluster``, or ``DistributedFileSystem``, so the
  functions are picklable and a ``multiprocessing`` worker executes exactly
  the same code path the parent would;
* the ``apply_*`` functions merge a task's outcome into the shared
  per-query accumulators (:class:`~repro.exec.engine.JoinState` /
  :class:`~repro.exec.result.QueryResult`).  The parent applies outcomes in
  deterministic task order whether the values were computed in-process or
  returned by workers, which is what keeps the two backends' results and
  fingerprints bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..common.predicates import Predicate
from ..join.kernels import (
    batch_matching_count,
    gather_filtered_keys,
    hash_partition,
    join_match_count_arrays,
)
from .tasks import Task

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .engine import JoinState
    from .result import QueryResult


# --------------------------------------------------------------------- #
# Run functions (pure row work; shared by parent and worker processes)
# --------------------------------------------------------------------- #
def run_scan_task(blocks: Sequence, predicates: list[Predicate]) -> int:
    """Rows of a scan task's block batch matching all ``predicates``."""
    return batch_matching_count(blocks, predicates)


def run_shuffle_map_task(
    blocks: Sequence,
    key_column: str,
    predicates: list[Predicate],
    num_partitions: int,
) -> list[np.ndarray]:
    """Filter and hash-partition one map task's join keys.

    Returns one key array per shuffle partition (empty arrays for
    partitions that received no keys), so the caller can merge outcomes
    without re-deriving the partitioning.
    """
    keys = gather_filtered_keys(blocks, key_column, predicates)
    parts: list[np.ndarray] = [
        np.empty(0, dtype=np.int64) for _ in range(num_partitions)
    ]
    if len(keys):
        assignment = hash_partition(keys, num_partitions)
        for partition in np.unique(assignment):
            parts[int(partition)] = keys[assignment == partition]
    return parts


def run_shuffle_reduce_task(build_keys: np.ndarray, probe_keys: np.ndarray) -> int:
    """Join cardinality of one shuffle partition's build and probe keys."""
    return join_match_count_arrays(build_keys, probe_keys)


def run_hyper_group_task(
    build_blocks: Sequence,
    probe_blocks: Sequence,
    build_column: str,
    probe_column: str,
    build_predicates: list[Predicate],
    probe_predicates: list[Predicate],
) -> int:
    """One hyper-join group: count the build keys, probe the overlapping blocks."""
    return join_match_count_arrays(
        gather_filtered_keys(build_blocks, build_column, build_predicates),
        gather_filtered_keys(probe_blocks, probe_column, probe_predicates),
    )


# --------------------------------------------------------------------- #
# Apply functions (deterministic merge into the shared accumulators)
# --------------------------------------------------------------------- #
def apply_scan_outcome(result: "QueryResult", task: Task, matched_rows: int) -> None:
    """Merge a scan task's matched-row count into the query result."""
    result.scan_output_rows += matched_rows
    result.blocks_read += len(task.block_ids)


def apply_shuffle_map_outcome(
    state: "JoinState", task: Task, parts: Sequence[np.ndarray]
) -> None:
    """Merge one map task's per-partition key arrays into the join state."""
    partitions = (
        state.build_partitions if task.side == "build" else state.probe_partitions
    )
    for partition, keys in enumerate(parts):
        if len(keys):
            partitions[partition].append(keys)
    if task.side == "build":
        state.build_blocks_read += len(task.block_ids)
    else:
        state.probe_blocks_read += len(task.block_ids)


def apply_shuffle_reduce_outcome(state: "JoinState", output_rows: int) -> None:
    """Merge one reduce task's join cardinality into the join state."""
    state.output_rows += output_rows


def apply_hyper_group_outcome(state: "JoinState", task: Task, output_rows: int) -> None:
    """Merge one hyper-group task's cardinality and read counts."""
    state.output_rows += output_rows
    state.build_blocks_read += len(task.block_ids)
    state.probe_blocks_read += len(task.probe_block_ids)
