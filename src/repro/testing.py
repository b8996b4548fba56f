"""Helpers shared by the test and benchmark suites.

These used to live in the suites' ``conftest.py`` files and were imported as
``from conftest import ...``, which only works while pytest inserts the
collected directory into ``sys.path``.  Under ``--import-mode=importlib``
(required so ``tests/`` and ``benchmarks/`` can be collected together without
their conftest modules shadowing each other) conftest modules are not
importable, so anything tests need by name lives here, inside the installed
package.
"""

from __future__ import annotations

import math

import numpy as np

from .adaptive.amoeba import AmoebaAdaptor
from .adaptive.window import QueryWindow
from .common.predicates import Operator, Predicate, rows_matching
from .partitioning.builders import median_cutpoint
from .partitioning.tree import PartitioningTree, TreeNode
from .storage.table import ColumnTable, StoredTable


def reference_join_count(
    left: ColumnTable,
    right: ColumnTable,
    left_column: str,
    right_column: str,
    left_predicates=None,
    right_predicates=None,
) -> int:
    """Ground-truth equi-join cardinality computed directly on the raw tables."""
    left_mask = rows_matching(left.columns, list(left_predicates or []))
    right_mask = rows_matching(right.columns, list(right_predicates or []))
    left_keys = left.columns[left_column][left_mask]
    right_keys = right.columns[right_column][right_mask]
    if len(left_keys) == 0 or len(right_keys) == 0:
        return 0
    left_unique, left_counts = np.unique(left_keys, return_counts=True)
    right_unique, right_counts = np.unique(right_keys, return_counts=True)
    common, left_idx, right_idx = np.intersect1d(
        left_unique, right_unique, assume_unique=True, return_indices=True
    )
    return int((left_counts[left_idx] * right_counts[right_idx]).sum())


def run_once(benchmark, function, *args, **kwargs):
    """Execute ``function`` exactly once under pytest-benchmark timing.

    The experiment drivers are deterministic simulations, so a single round
    is enough; this keeps the full benchmark suite fast while still recording
    wall-clock timings for every figure.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


# --------------------------------------------------------------------------- #
# Reference implementations of partitioning-tree pruning and Amoeba's benefit
# search: the plain walks the array-backed versions replaced, kept here so
# tests can check the fast paths against them.
# --------------------------------------------------------------------------- #
def reference_lookup(tree: PartitioningTree, predicates: list[Predicate] | None = None) -> list[int]:
    """Block ids ``tree.lookup(predicates)`` must return, in leaf order.

    Walks every root-to-leaf path narrowing one ``(lo, hi)`` interval per
    attribute (a cutpoint narrows only from strictly inside, so NaN never
    narrows) and, at each node, checks the predicates on the node's split
    attribute against each child's interval.  Predicates on attributes a
    path never splits are never checked.
    """
    by_attribute: dict[str, list[Predicate]] = {}
    for predicate in predicates or ():
        by_attribute.setdefault(predicate.column, []).append(predicate)
    matched: list[int] = []
    stack: list[tuple[TreeNode, dict[str, tuple[float, float]]]] = [(tree.root, {})]
    while stack:
        node, bounds = stack.pop()
        if node.is_leaf:
            if node.block_id is not None:
                matched.append(node.block_id)
            continue
        assert node.attribute is not None and node.cutpoint is not None
        assert node.left is not None and node.right is not None
        lo, hi = bounds.get(node.attribute, (-math.inf, math.inf))
        cutpoint = float(node.cutpoint)
        left_hi = cutpoint if cutpoint < hi else hi
        right_lo = cutpoint if cutpoint > lo else lo
        checks = by_attribute.get(node.attribute, [])
        if all(p.may_match_range(right_lo, hi) for p in checks):
            stack.append((node.right, {**bounds, node.attribute: (right_lo, hi)}))
        if all(p.may_match_range(lo, left_hi) for p in checks):
            stack.append((node.left, {**bounds, node.attribute: (lo, left_hi)}))
    return matched


def reference_leaf_bounds(tree: PartitioningTree, attribute: str) -> dict[int, tuple[float, float]]:
    """``tree.leaf_bounds(attribute)`` by recursion over the tree's nodes."""
    result: dict[int, tuple[float, float]] = {}

    def descend(node: TreeNode, lo: float, hi: float) -> None:
        if node.is_leaf:
            if node.block_id is not None:
                result[node.block_id] = (lo, hi)
            return
        assert node.left is not None and node.right is not None
        if node.attribute == attribute:
            assert node.cutpoint is not None
            cutpoint = float(node.cutpoint)
            descend(node.left, lo, min(hi, cutpoint))
            descend(node.right, max(lo, cutpoint), hi)
        else:
            descend(node.left, lo, hi)
            descend(node.right, lo, hi)

    descend(tree.root, -math.inf, math.inf)
    return result


def reference_bottom_nodes(
    tree: PartitioningTree,
) -> list[tuple[TreeNode, dict[str, tuple[float, float]]]]:
    """``tree.bottom_internal_nodes()`` by recursion over the tree's nodes."""
    result: list[tuple[TreeNode, dict[str, tuple[float, float]]]] = []

    def descend(node: TreeNode, bounds: dict[str, tuple[float, float]]) -> None:
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        if node.left.is_leaf and node.right.is_leaf:
            result.append((node, dict(bounds)))
            return
        assert node.attribute is not None and node.cutpoint is not None
        cutpoint = float(node.cutpoint)
        lo, hi = bounds.get(node.attribute, (-math.inf, math.inf))
        descend(node.left, {**bounds, node.attribute: (lo, min(hi, cutpoint))})
        descend(node.right, {**bounds, node.attribute: (max(lo, cutpoint), hi)})

    descend(tree.root, {})
    return result


def reference_touched_sum(
    attribute: str | None,
    cutpoint: float | None,
    window_predicates: list[list[Predicate]],
) -> int:
    """Leaves of one bottom node the window reads if it split on ``(attribute, cutpoint)``.

    Per window entry (one query's predicates on the table): 2 when the
    entry has no predicate on ``attribute``; otherwise one per leaf —
    ``(-inf, cutpoint]`` on the left, ``[cutpoint, inf)`` on the right —
    that all its predicates on ``attribute`` may match.
    """
    total = 0
    for predicates in window_predicates:
        relevant = [predicate for predicate in predicates if predicate.column == attribute]
        if attribute is None or cutpoint is None or not relevant:
            total += 2
            continue
        total += all(p.may_match_range(-math.inf, cutpoint) for p in relevant)
        total += all(p.may_match_range(cutpoint, math.inf) for p in relevant)
    return total


def reference_cutpoint(
    sample: dict[str, np.ndarray], attribute: str, bounds: dict[str, tuple[float, float]]
) -> float | None:
    """Median of ``attribute`` over the sample rows inside ``bounds`` (all rows if < 2)."""
    if attribute not in sample or len(sample[attribute]) == 0:
        return None
    mask = np.ones(len(sample[attribute]), dtype=bool)
    for bounded_attribute, (lo, hi) in bounds.items():
        if bounded_attribute in sample:
            values = sample[bounded_attribute]
            mask &= (values >= lo) & (values <= hi)
    subset = sample[attribute][mask]
    if len(subset) < 2:
        subset = sample[attribute]
    return median_cutpoint(subset)


def reference_candidate_transforms(
    adaptor: AmoebaAdaptor, table: StoredTable, window: QueryWindow
) -> list[tuple[int, TreeNode, str, float, float]]:
    """``adaptor.candidate_transforms(table, window)`` one candidate at a time.

    Returns ``(tree_id, node, attribute, cutpoint, benefit)`` per candidate:
    every bottom node not split on its tree's join attribute, re-split on
    every other hot window attribute at the sample median inside the node's
    path bounds (computed afresh, no memo), kept when the window's
    touched-leaf saving minus the cost of rewriting both blocks exceeds the
    adaptor's threshold, stably sorted by descending benefit.
    """
    counts = window.predicate_attribute_counts(table.name)
    hot = [
        attribute
        for attribute, _ in sorted(counts.items(), key=lambda item: -item[1])
        if attribute in table.sample
    ]
    entries = [
        predicates
        for query in window.queries_on(table.name)
        if (predicates := query.predicates_on(table.name))
    ]
    candidates: list[tuple[int, TreeNode, str, float, float]] = []
    for tree_id, tree in table.trees.items():
        for node, bounds in reference_bottom_nodes(tree):
            if tree.join_attribute is not None and node.attribute == tree.join_attribute:
                continue
            current = reference_touched_sum(node.attribute, node.cutpoint, entries)
            for attribute in hot:
                if attribute == node.attribute:
                    continue
                cutpoint = reference_cutpoint(table.sample, attribute, bounds)
                if cutpoint is None:
                    continue
                proposed = reference_touched_sum(attribute, cutpoint, entries)
                benefit = float(current - proposed) - adaptor.repartition_cost_per_block * 2
                if benefit > adaptor.benefit_threshold:
                    candidates.append((tree_id, node, attribute, cutpoint, benefit))
    candidates.sort(key=lambda candidate: -candidate[4])
    return candidates


def predicate_strategy(columns: tuple[str, ...]):
    """A hypothesis strategy for single-column predicates of every operator.

    Values mix small integers (which collide with small cutpoints), integers
    up to float64's exact edge of ±2**53, any float and the non-finite
    values; ``IN`` lists may be empty or hold NaN, and ``BETWEEN`` bounds
    may be inverted.  Imports hypothesis on call, so the package does not
    depend on it.
    """
    from hypothesis import strategies as st

    values = st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )

    @st.composite
    def predicates(draw):
        column = draw(st.sampled_from(columns))
        op = draw(st.sampled_from(list(Operator)))
        if op is Operator.IN:
            return Predicate(column, op, tuple(draw(st.lists(values, max_size=3))))
        if op is Operator.BETWEEN:
            return Predicate(column, op, draw(values), draw(values))
        return Predicate(column, op, draw(values))

    return predicates()
