"""Amoeba's selection-driven adaptive repartitioning (Section 3.2).

After each query, Amoeba considers alternative partitioning trees obtained by
applying local transformation rules — merge two sibling blocks currently
split on attribute ``A`` and re-split them on attribute ``B`` — and switches
to the alternative that maximizes total benefit over the query window, where
benefit is the estimated reduction in blocks read minus the repartitioning
cost.

AdaptDB keeps this mechanism for the *lower* (selection) levels of its trees;
the join levels at the top are managed by smooth repartitioning instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..common.epochs import epoch_keyed
from ..common.errors import PlanningError
from ..common.predicates import Operator, Predicate
from ..partitioning.builders import median_cutpoint
from ..partitioning.tree import PartitioningTree, TreeNode
from ..storage.table import StoredTable
from .window import QueryWindow


@dataclass
class TransformCandidate:
    """One candidate transformation of a partitioning tree.

    Attributes:
        tree_id: Tree the transformation applies to.
        node: The internal node (parent of two leaves) to re-split.
        new_attribute: Attribute the node would be re-split on.
        new_cutpoint: Cutpoint for the new split.
        benefit: Estimated blocks saved over the window, minus the
            repartitioning cost (in block accesses).
    """

    tree_id: int
    node: TreeNode
    new_attribute: str
    new_cutpoint: float
    benefit: float


@dataclass
class AmoebaAdaptationStats:
    """Work performed by one adaptation step."""

    transforms_applied: int = 0
    blocks_repartitioned: int = 0
    rows_moved: int = 0


@dataclass
class AmoebaAdaptor:
    """Selection-driven refinement of the lower levels of partitioning trees.

    Attributes:
        repartition_cost_per_block: Cost (in block accesses) charged for
            rewriting one block, used in the benefit computation.
        max_transforms_per_query: Upper bound on transformations applied per
            incoming query; keeps adaptation incremental.
        benefit_threshold: Minimum net benefit required to apply a transform.

    Candidate enumeration runs every query over every bottom-level node of
    every tree, so it is array-shaped: per tree, the nodes' current splits
    and each hot attribute's candidate cutpoints are arrays over the bottom
    nodes, and the window's touched-leaf count for a whole array of
    cutpoints is a few ``searchsorted`` calls (:class:`WindowTouches`).  The
    only state kept across calls is the candidate cutpoints, memoized with
    the tree's compiled form until a re-split changes the nodes' bounds.
    """

    repartition_cost_per_block: float = 2.5
    max_transforms_per_query: int = 1
    benefit_threshold: float = 0.0

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def candidate_transforms(
        self, table: StoredTable, window: QueryWindow
    ) -> list[TransformCandidate]:
        """Enumerate bottom-level re-split candidates driven by window predicates.

        Candidates come in (tree, node, attribute) order, then stably sorted
        by descending benefit.
        """
        predicate_counts = window.predicate_attribute_counts(table.name)
        hot_attributes = [
            attribute
            for attribute, _ in sorted(predicate_counts.items(), key=lambda item: -item[1])
            if attribute in table.sample
        ]
        if not hot_attributes:
            return []

        entries = [
            predicates
            for query in window.queries_on(table.name)
            if (predicates := query.predicates_on(table.name))
        ]
        total_entries = len(entries)
        touches = WindowTouches.of_window(entries)

        def touched(attribute: str, cutpoints: np.ndarray) -> np.ndarray:
            """Σ over the window of the leaves read, per cutpoint on ``attribute``."""
            counts = touches.get(attribute)
            if counts is None:
                return np.full(len(cutpoints), 2 * total_entries, dtype=np.int64)
            return 2 * (total_entries - counts.entries) + counts.touched(cutpoints)

        repartition_cost = self.repartition_cost_per_block * 2
        candidates: list[TransformCandidate] = []
        for tree_id, tree in table.trees.items():
            bottom = tree.bottom_node_arrays()
            if not bottom.bottom_nodes:
                continue
            split_attr = bottom.node_attr[bottom.bottom]
            split_cut = bottom.cutpoints[bottom.bottom]
            current = np.empty(len(split_attr), dtype=np.int64)
            for attr_index in np.unique(split_attr).tolist():
                on_attr = split_attr == attr_index
                current[on_attr] = touched(bottom.attributes[attr_index], split_cut[on_attr])
            # Never down-grade a join-attribute split into a selection split:
            # the join levels are managed by smooth repartitioning.
            join_index = (
                -1 if tree.join_attribute is None
                else bottom.attribute_index.get(tree.join_attribute, -1)
            )
            eligible = split_attr != join_index
            cutpoints = []
            keep = np.empty((len(split_attr), len(hot_attributes)), dtype=bool)
            benefits = np.empty(keep.shape, dtype=np.float64)
            for column, attribute in enumerate(hot_attributes):
                node_cutpoints = self._node_cutpoints(table, tree, attribute)
                cutpoints.append(node_cutpoints)
                benefits[:, column] = (
                    current - touched(attribute, node_cutpoints)
                ).astype(np.float64) - repartition_cost
                keep[:, column] = (
                    eligible
                    & (split_attr != bottom.attribute_index.get(attribute, -1))
                    & ~np.isnan(node_cutpoints)
                    & (benefits[:, column] > self.benefit_threshold)
                )
            for node, column in zip(*(axis.tolist() for axis in np.nonzero(keep))):
                candidates.append(
                    TransformCandidate(
                        tree_id=tree_id,
                        node=bottom.bottom_nodes[node],
                        new_attribute=hot_attributes[column],
                        new_cutpoint=float(cutpoints[column][node]),
                        benefit=float(benefits[node, column]),
                    )
                )
        candidates.sort(key=lambda candidate: -candidate.benefit)
        return candidates

    # ------------------------------------------------------------------ #
    # Adaptation
    # ------------------------------------------------------------------ #
    def adapt(self, table: StoredTable, window: QueryWindow) -> AmoebaAdaptationStats:
        """Apply the best beneficial transformations (at most ``max_transforms_per_query``)."""
        stats = AmoebaAdaptationStats()
        candidates = self.candidate_transforms(table, window)
        applied_nodes: set[int] = set()
        for candidate in candidates:
            if stats.transforms_applied >= self.max_transforms_per_query:
                break
            if id(candidate.node) in applied_nodes:
                continue
            moved = self._apply(table, candidate)
            applied_nodes.add(id(candidate.node))
            stats.transforms_applied += 1
            stats.blocks_repartitioned += 2
            stats.rows_moved += moved
        return stats

    def _apply(self, table: StoredTable, candidate: TransformCandidate) -> int:
        """Re-split one bottom-level node and redistribute its two blocks' rows."""
        node = candidate.node
        assert node.left is not None and node.right is not None
        left_id = node.left.block_id
        right_id = node.right.block_id
        if left_id is None or right_id is None:
            return 0
        # The paired resplit_leaf_pair call directly below bumps the table's
        # epoch unconditionally, covering this tree mutation — the epoch
        # checker proves that flow itself, so no suppression is needed.
        table.tree(candidate.tree_id).resplit_node(
            node, candidate.new_attribute, candidate.new_cutpoint
        )
        return table.resplit_leaf_pair(
            left_id, right_id, candidate.new_attribute, candidate.new_cutpoint
        )

    # ------------------------------------------------------------------ #
    # Candidate cutpoints
    # ------------------------------------------------------------------ #
    @epoch_keyed(reads=("sample", "bottom_node_arrays"))
    def _node_cutpoints(
        self, table: StoredTable, tree: PartitioningTree, attribute: str
    ) -> np.ndarray:
        """Candidate cutpoint on ``attribute`` per bottom node of ``tree`` (NaN: none).

        The cutpoint is the median of ``attribute`` over the sample rows
        inside the node's path bounds (the whole sample if fewer than two).
        Memoized in the compiled tree's ``bottom_memo``, which a re-split
        empties whenever it changes the nodes' path bounds.  A tree belongs
        to one table and the table sample is fixed at load time, so the
        table name and attribute complete the key.
        """
        memo = tree.bottom_node_arrays().bottom_memo
        key = (table.name, attribute)
        cutpoints = memo.get(key)
        if cutpoints is None:
            values = table.sample.get(attribute)
            cutpoints = np.full(len(tree.bottom_node_arrays().bottom_nodes), math.nan)
            if values is not None and len(values):
                for node, rows in enumerate(self._node_sample_rows(table, tree)):
                    subset = values[rows] if len(rows) >= 2 else values
                    cutpoint = median_cutpoint(subset)
                    # median_cutpoint never returns NaN, so NaN can stand for "none".
                    if cutpoint is not None:
                        cutpoints[node] = cutpoint
            memo[key] = cutpoints
        return cutpoints

    @epoch_keyed(reads=("sample", "bottom_node_arrays", "bottom_internal_nodes"))
    def _node_sample_rows(self, table: StoredTable, tree: PartitioningTree) -> list[np.ndarray]:
        """Per bottom node of ``tree``, the sample rows inside its path bounds.

        Shared by every attribute's cutpoints, memoized like them.
        """
        memo = tree.bottom_node_arrays().bottom_memo
        key = (table.name,)
        rows = memo.get(key)
        if rows is None:
            sample = table.sample
            size = len(next(iter(sample.values()))) if sample else 0
            rows = []
            for _, bounds in tree.bottom_internal_nodes():
                mask = np.ones(size, dtype=bool)
                for bounded_attribute, (lo, hi) in bounds.items():
                    if bounded_attribute in sample:
                        bounded = sample[bounded_attribute]
                        mask &= (bounded >= lo) & (bounded <= hi)
                rows.append(np.flatnonzero(mask))
            memo[key] = rows
        return rows


# ---------------------------------------------------------------------- #
# Window touch counts
# ---------------------------------------------------------------------- #
#: How one side of a split treats a cutpoint ``c``: a constant, or
#: ``(t, strict)`` — the left leaf is read iff ``c > t`` (strict) or
#: ``c >= t``; the right leaf iff ``c < t`` (strict) or ``c <= t``.
SideTest = bool | tuple[float, bool]


def _side_tests(predicate: Predicate) -> tuple[SideTest, SideTest]:
    """``may_match_range(-inf, c)`` and ``may_match_range(c, inf)`` as tests on ``c``.

    Exact for every non-NaN ``c`` (NaN cutpoints read both leaves and are
    handled by the caller).
    """
    op, value = predicate.op, predicate.value
    if op is Operator.IN:
        assert isinstance(value, tuple)
        members = [member for member in value if not math.isnan(member)]
        if not members:
            return False, False
        return (min(members), False), (max(members), False)
    assert not isinstance(value, tuple)  # only IN carries a tuple
    if op is Operator.BETWEEN:
        assert predicate.high is not None
        high = predicate.high
        return (
            True if math.isnan(value) else (value, False),
            True if math.isnan(high) else (high, False),
        )
    if math.isnan(value):
        # Every comparison with NaN is false: only != still matches.
        return op is Operator.NE, op is Operator.NE
    if op is Operator.EQ:
        return (value, False), (value, False)
    if op is Operator.NE:  # [v, v] is the only interval != v rules out
        return (
            (value, True) if value == -math.inf else True,
            (value, True) if value == math.inf else True,
        )
    if op is Operator.LT:
        return bool(value > -math.inf), (value, True)
    if op is Operator.LE:
        return True, (value, False)
    if op is Operator.GT:
        return (value, True), bool(value < math.inf)
    if op is Operator.GE:
        return (value, False), True
    raise PlanningError(f"unsupported operator {op}")


def _conjoin(tests: list[SideTest], left: bool) -> SideTest:
    """The AND of one side's tests: the tightest threshold, strict on ties."""
    tightest: tuple[float, bool] | None = None
    for test in tests:
        if not isinstance(test, tuple):
            if test:
                continue
            return False
        threshold, strict = test
        if tightest is None or (
            threshold > tightest[0] if left else threshold < tightest[0]
        ):
            tightest = (threshold, strict)
        elif threshold == tightest[0] and strict:
            tightest = (threshold, True)
    return True if tightest is None else tightest


@dataclass
class WindowTouches:
    """Leaves of a bottom node the window reads, per cutpoint on one attribute.

    Covers the window entries (one query's predicates on the table) with a
    predicate on the attribute.  An entry reads the left leaf iff all those
    predicates may match ``(-inf, c]`` and the right leaf iff they may match
    ``[c, inf)``; per entry and side that is a constant or one threshold
    test (:func:`_side_tests`, :func:`_conjoin`).  Summing over the window
    for a whole array of cutpoints is then four ``searchsorted`` calls over
    the sorted thresholds.

    Attributes:
        entries: Window entries with a predicate on the attribute.
        always: Leaf reads that hold whatever the cutpoint.
        left_ge / left_gt: Sorted ``t`` of left tests ``c >= t`` / ``c > t``.
        right_le / right_lt: Sorted ``t`` of right tests ``c <= t`` / ``c < t``.
    """

    entries: int
    always: int
    left_ge: np.ndarray
    left_gt: np.ndarray
    right_le: np.ndarray
    right_lt: np.ndarray

    @classmethod
    def of_window(cls, window_predicates: list[list[Predicate]]) -> dict[str, "WindowTouches"]:
        """One instance per attribute the window's entries constrain."""
        per_attribute: dict[str, list[tuple[SideTest, SideTest]]] = {}
        for predicates in window_predicates:
            tests: dict[str, list[tuple[SideTest, SideTest]]] = {}
            for predicate in predicates:
                tests.setdefault(predicate.column, []).append(_side_tests(predicate))
            for column, pairs in tests.items():
                per_attribute.setdefault(column, []).append(
                    (
                        _conjoin([left for left, _ in pairs], left=True),
                        _conjoin([right for _, right in pairs], left=False),
                    )
                )
        return {column: cls._of_entries(sides) for column, sides in per_attribute.items()}

    @classmethod
    def _of_entries(cls, sides: list[tuple[SideTest, SideTest]]) -> "WindowTouches":
        always = 0
        thresholds: dict[tuple[bool, bool], list[float]] = {
            (left, strict): [] for left in (True, False) for strict in (True, False)
        }
        for entry in sides:
            for left, test in zip((True, False), entry):
                if isinstance(test, tuple):
                    thresholds[(left, test[1])].append(test[0])
                elif test:
                    always += 1
        arrays = {
            key: np.sort(np.array(values, dtype=np.float64)) for key, values in thresholds.items()
        }
        return cls(
            entries=len(sides),
            always=always,
            left_ge=arrays[(True, False)],
            left_gt=arrays[(True, True)],
            right_le=arrays[(False, False)],
            right_lt=arrays[(False, True)],
        )

    def touched(self, cutpoints: np.ndarray) -> np.ndarray:
        """Leaves read, summed over the covered entries, per cutpoint."""
        counts = (
            self.always
            + np.searchsorted(self.left_ge, cutpoints, side="right")
            + np.searchsorted(self.left_gt, cutpoints, side="left")
            + len(self.right_le)
            - np.searchsorted(self.right_le, cutpoints, side="left")
            + len(self.right_lt)
            - np.searchsorted(self.right_lt, cutpoints, side="right")
        )
        return np.where(np.isnan(cutpoints), 2 * self.entries, counts).astype(np.int64)
