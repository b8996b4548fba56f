"""Shuffle join (the baseline distributed join, Section 4.2).

A shuffle join reads every relevant block of both relations, hash-partitions
each record on the join key, writes the partitioned runs, and re-reads them
to join partition-by-partition.  Per the paper's cost model every relevant
block therefore costs roughly ``CSJ = 3`` block accesses (equation (1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.costmodel import CostModel
from ..common.predicates import Predicate
from ..storage.dfs import DistributedFileSystem
from .kernels import hash_partition, join_match_count_arrays


@dataclass
class JoinStats:
    """I/O and output accounting for one join execution."""

    method: str
    build_blocks_read: int = 0
    probe_blocks_read: int = 0
    shuffled_blocks: int = 0
    output_rows: int = 0
    cost_units: float = 0.0
    probe_multiplicity: float = 1.0
    groups: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total_blocks_read(self) -> int:
        """Blocks read from both sides (first pass only)."""
        return self.build_blocks_read + self.probe_blocks_read


def shuffle_join(
    dfs: DistributedFileSystem,
    left_block_ids: list[int],
    right_block_ids: list[int],
    left_column: str,
    right_column: str,
    left_predicates: list[Predicate] | None = None,
    right_predicates: list[Predicate] | None = None,
    cost_model: CostModel | None = None,
    num_partitions: int | None = None,
) -> JoinStats:
    """Execute a shuffle join over the given blocks.

    Both relations' relevant blocks are read once, hash-partitioned on the
    join key, and joined partition-wise; the cost model charges ``CSJ`` per
    block to account for the extra write/read of the shuffled runs.

    Returns:
        A :class:`JoinStats` with ``method="shuffle"``.
    """
    cost_model = cost_model or CostModel()
    left_predicates = left_predicates or []
    right_predicates = right_predicates or []
    if num_partitions is None:
        num_partitions = max(1, dfs.cluster.num_machines)

    left_partitions: list[list[np.ndarray]] = [[] for _ in range(num_partitions)]
    right_partitions: list[list[np.ndarray]] = [[] for _ in range(num_partitions)]

    def read_side(block_ids: list[int], column: str, predicates: list[Predicate],
                  partitions: list[list[np.ndarray]]) -> int:
        blocks_read = 0
        for block_id in block_ids:
            block = dfs.get_block(block_id)
            if block.num_rows == 0:
                continue
            blocks_read += 1
            rows = block.filtered(predicates)
            keys = rows[column]
            if len(keys) == 0:
                continue
            assignment = hash_partition(keys, num_partitions)
            for partition in np.unique(assignment):
                partitions[int(partition)].append(keys[assignment == partition])
        return blocks_read

    left_read = read_side(left_block_ids, left_column, left_predicates, left_partitions)
    right_read = read_side(right_block_ids, right_column, right_predicates, right_partitions)

    output_rows = 0
    for partition in range(num_partitions):
        left_keys = (
            np.concatenate(left_partitions[partition])
            if left_partitions[partition]
            else np.empty(0, dtype=np.int64)
        )
        right_keys = (
            np.concatenate(right_partitions[partition])
            if right_partitions[partition]
            else np.empty(0, dtype=np.int64)
        )
        output_rows += join_match_count_arrays(left_keys, right_keys)

    cost = cost_model.shuffle_join_cost(left_read, right_read)
    return JoinStats(
        method="shuffle",
        build_blocks_read=left_read,
        probe_blocks_read=right_read,
        shuffled_blocks=left_read + right_read,
        output_rows=output_rows,
        cost_units=cost,
    )
