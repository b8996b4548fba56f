"""Ground-truth answers computed on the raw, unpartitioned TPC-H tables.

The engine documents its answer as follows: a query without joins returns
the number of rows matching its predicates, and a query with joins returns
the cardinality of its *final* join clause, evaluated pairwise with that
clause's two tables' predicates.  :func:`expected_answer` reproduces exactly
that, independently of the engine's blocks, trees and caches.

For queries with more than one clause (q3, q5, q8, q10) that pairwise count
is not the answer of the full multi-way join.  :func:`multiway_count`
computes the real multi-way cardinality, so the benchmark can report how
many answers are pairwise-only without gating on it.
"""

from __future__ import annotations

import numpy as np

from repro.common.predicates import rows_matching
from repro.common.query import Query
from repro.storage.table import ColumnTable
from repro.testing import reference_join_count


def expected_answer(query: Query, tables: dict[str, ColumnTable]) -> int:
    """The answer the engine must report for ``query`` (its documented semantics)."""
    if not query.joins:
        (name,) = query.tables
        table = tables[name]
        return int(rows_matching(table.columns, query.predicates_on(name)).sum())
    clause = query.joins[-1]
    return reference_join_count(
        tables[clause.left_table],
        tables[clause.right_table],
        clause.left_column,
        clause.right_column,
        query.predicates_on(clause.left_table),
        query.predicates_on(clause.right_table),
    )


def multiway_count(query: Query, tables: dict[str, ColumnTable]) -> int:
    """Cardinality of the full multi-way equi-join of an acyclic query.

    Counts by message passing from the leaves of the join tree to its root
    (the first table): each row's weight is the product, over its child
    tables, of the summed weights of the child rows sharing its join key.
    """
    if not query.joins:
        return expected_answer(query, tables)
    root = query.tables[0]
    children: dict[str, list[tuple[str, str, str]]] = {name: [] for name in query.tables}
    seen = {root}
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for clause in query.joins_involving(parent):
            child = clause.other_table(parent)
            if child in seen:
                continue
            seen.add(child)
            children[parent].append((child, clause.column_for(parent), clause.column_for(child)))
            frontier.append(child)
    if len(seen) != len(query.tables) or len(query.joins) != len(query.tables) - 1:
        raise ValueError(f"query {query.template!r} is not an acyclic connected join")

    def weights(name: str) -> tuple[dict[str, np.ndarray], np.ndarray]:
        table = tables[name]
        mask = rows_matching(table.columns, query.predicates_on(name))
        columns = {column: values[mask] for column, values in table.columns.items()}
        weight = np.ones(int(mask.sum()), dtype=np.int64)
        for child, parent_column, child_column in children[name]:
            child_columns, child_weight = weights(child)
            keys, inverse = np.unique(child_columns[child_column], return_inverse=True)
            sums = np.bincount(inverse, weights=child_weight, minlength=len(keys))
            probe = columns[parent_column]
            position = np.searchsorted(keys, probe)
            position = np.minimum(position, max(len(keys) - 1, 0))
            hit = (keys[position] == probe) if len(keys) else np.zeros(len(probe), dtype=bool)
            matched = np.where(hit, sums[position] if len(keys) else 0, 0)
            weight = weight * matched.astype(np.int64)
        return columns, weight

    _, root_weight = weights(root)
    return int(root_weight.sum())
