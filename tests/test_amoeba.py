"""Tests for repro.adaptive.amoeba (selection-driven refinement)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.adaptive.amoeba import AmoebaAdaptor, WindowTouches
from repro.adaptive.window import QueryWindow
from repro.cluster import Cluster
from repro.common.predicates import Operator, Predicate, le
from repro.common.query import scan_query
from repro.common.rng import make_rng
from repro.common.schema import DataType, Schema
from repro.partitioning.upfront import UpfrontPartitioner
from repro.storage.dfs import DistributedFileSystem
from repro.storage.table import ColumnTable, StoredTable
from repro.testing import reference_candidate_transforms, reference_touched_sum


def make_table(rows: int = 4096, rows_per_block: int = 512, hot_span: int = 10_000) -> StoredTable:
    """A table whose upfront tree splits only on `unqueried`, so adapting towards
    the frequently queried `hot` attribute is clearly beneficial."""
    rng = np.random.default_rng(21)
    schema = Schema.of(
        ("hot", DataType.INT), ("unqueried", DataType.INT), ("noise", DataType.FLOAT)
    )
    table = ColumnTable(
        "facts",
        schema,
        {
            "hot": rng.integers(0, hot_span, size=rows),
            "unqueried": rng.integers(0, 10_000, size=rows),
            "noise": rng.uniform(0, 1, size=rows),
        },
    )
    dfs = DistributedFileSystem(cluster=Cluster(num_machines=4), rng=make_rng(2))
    tree = UpfrontPartitioner(["unqueried"], rows_per_block).build(
        table.sample(), total_rows=rows
    )
    return StoredTable.load(table, dfs, tree, rows_per_block=rows_per_block)


def hot_window(size: int = 10, count: int = 8) -> QueryWindow:
    window = QueryWindow(size=size)
    for _ in range(count):
        window.add(scan_query("facts", [le("hot", 500)], template="hot-scan"))
    return window


class TestCandidateGeneration:
    def test_candidates_target_hot_attribute(self):
        adaptor = AmoebaAdaptor()
        candidates = adaptor.candidate_transforms(make_table(), hot_window())
        assert candidates
        assert all(candidate.new_attribute == "hot" for candidate in candidates)
        assert all(candidate.benefit > 0 for candidate in candidates)

    def test_no_candidates_without_predicates(self):
        adaptor = AmoebaAdaptor()
        window = QueryWindow(size=10)
        window.add(scan_query("facts"))
        assert adaptor.candidate_transforms(make_table(), window) == []

    def test_no_candidates_for_other_tables(self):
        adaptor = AmoebaAdaptor()
        window = QueryWindow(size=10)
        window.add(scan_query("facts", [le("not_a_column", 3)]))
        assert adaptor.candidate_transforms(make_table(), window) == []

    def test_candidates_sorted_by_benefit(self):
        adaptor = AmoebaAdaptor()
        candidates = adaptor.candidate_transforms(make_table(), hot_window())
        benefits = [candidate.benefit for candidate in candidates]
        assert benefits == sorted(benefits, reverse=True)


class TestAdapt:
    def test_adapt_applies_bounded_number_of_transforms(self):
        adaptor = AmoebaAdaptor(max_transforms_per_query=1)
        stats = adaptor.adapt(make_table(), hot_window())
        assert stats.transforms_applied == 1
        assert stats.blocks_repartitioned == 2

    def test_adapt_preserves_rows(self):
        table = make_table()
        before = table.total_rows
        AmoebaAdaptor().adapt(table, hot_window())
        assert table.total_rows == before

    def test_adapt_improves_pruning_over_repeated_queries(self):
        """After several adaptation rounds the hot predicate should prune blocks."""
        table = make_table()
        window = hot_window()
        predicate = le("hot", 500)
        before = len(table.lookup([predicate]))
        adaptor = AmoebaAdaptor(max_transforms_per_query=2)
        for _ in range(4):
            adaptor.adapt(table, window)
        after = len(table.lookup([predicate]))
        assert after < before

    def test_adapted_blocks_respect_new_split(self):
        table = make_table()
        adaptor = AmoebaAdaptor()
        stats = adaptor.adapt(table, hot_window())
        assert stats.rows_moved > 0
        # Every bottom-level node that now splits on `hot` must have its two
        # blocks separated at the cutpoint.
        for tree in table.trees.values():
            for leaf_parent in _bottom_nodes(tree):
                if leaf_parent.attribute != "hot":
                    continue
                left = table.dfs.peek_block(leaf_parent.left.block_id)
                right = table.dfs.peek_block(leaf_parent.right.block_id)
                if left.num_rows and right.num_rows:
                    assert left.column("hot").max() <= leaf_parent.cutpoint
                    assert right.column("hot").min() > leaf_parent.cutpoint

    def test_no_adaptation_when_benefit_below_threshold(self):
        adaptor = AmoebaAdaptor(benefit_threshold=1e9)
        stats = adaptor.adapt(make_table(), hot_window())
        assert stats.transforms_applied == 0

    def test_join_attribute_levels_are_protected(self):
        """Bottom nodes splitting on a tree's join attribute are never re-split."""
        table = make_table()
        from repro.partitioning.two_phase import TwoPhasePartitioner

        tree = TwoPhasePartitioner("unqueried", ["hot"]).build(
            table.sample, total_rows=table.total_rows, num_leaves=4, join_levels=2
        )
        table.replace_with_tree(tree)
        adaptor = AmoebaAdaptor()
        adaptor.adapt(table, hot_window())
        counts = table.trees[next(iter(table.trees))].attribute_counts()
        assert counts.get("unqueried", 0) == 3  # all three internal nodes untouched


# --------------------------------------------------------------------------- #
# The array-shaped search against the one-candidate-at-a-time reference
# --------------------------------------------------------------------------- #
#: Value ranges the random predicates draw from.  `hot` is narrow so that
#: predicate values often equal sample medians (the candidate cutpoints).
COLUMN_SPANS = {"hot": (0, 30), "unqueried": (0, 10_000), "noise": (0.0, 1.0)}


def random_predicate(rng: np.random.Generator, pool: tuple[int, ...] = ()) -> Predicate:
    """Any operator on any column; values mostly inside the column's span.

    Integer values are numpy or Python scalars.  With a ``pool`` the finite values come from it instead, so predicates
    in one entry often share a value.
    """
    column = str(rng.choice(["hot", "hot", "unqueried", "noise"]))
    low, high = COLUMN_SPANS[column]

    def value():
        if rng.random() < 0.1:
            return float(rng.choice([math.nan, math.inf, -math.inf]))
        if pool:
            return int(rng.choice(pool))
        if column == "noise":
            return float(rng.uniform(low - 0.1, high + 0.1))
        drawn = rng.integers(low - 2, high + 2)  # a numpy scalar half the time
        return drawn if rng.random() < 0.5 else int(drawn)

    op = Operator(rng.choice([operator.value for operator in Operator]))
    if op is Operator.IN:
        return Predicate(column, op, tuple(value() for _ in range(rng.integers(0, 4))))
    if op is Operator.BETWEEN:  # inverted bounds included
        return Predicate(column, op, value(), value())
    return Predicate(column, op, value())


def predicate_values(predicates):
    """Every number the predicates compare against."""
    for predicate in predicates:
        yield from predicate.value if predicate.op is Operator.IN else (predicate.value,)
        if predicate.high is not None:
            yield predicate.high


def candidate_records(candidates):
    return [
        (c.tree_id, id(c.node), c.new_attribute, c.new_cutpoint, c.benefit) for c in candidates
    ]


class TestCandidatesMatchReference:
    @pytest.mark.parametrize("join_tree", [False, True])
    @pytest.mark.parametrize("threshold", [0.0, -50.0])
    def test_candidate_list_equals_reference(self, join_tree, threshold):
        """Order, node, attribute, cutpoint and benefit over random windows.

        Entries carry one to three predicates (repeated columns too), and
        the adaptor re-splits between windows so the per-tree cutpoint memo
        is read across changing trees.
        """
        table = make_table(rows_per_block=128, hot_span=COLUMN_SPANS["hot"][1])
        if join_tree:
            from repro.partitioning.two_phase import TwoPhasePartitioner

            table.replace_with_tree(
                TwoPhasePartitioner("unqueried", ["hot", "noise"]).build(
                    table.sample, total_rows=table.total_rows, num_leaves=32, join_levels=2
                )
            )
        rng = np.random.default_rng(5 if join_tree else 6)
        adaptor = AmoebaAdaptor(max_transforms_per_query=2, benefit_threshold=threshold)
        window = QueryWindow(size=6)
        seen = 0
        for _ in range(25):
            predicates = [random_predicate(rng) for _ in range(rng.integers(1, 4))]
            window.add(scan_query("facts", predicates))
            expected = reference_candidate_transforms(adaptor, table, window)
            assert candidate_records(adaptor.candidate_transforms(table, window)) == [
                (tree_id, id(node), attribute, cutpoint, benefit)
                for tree_id, node, attribute, cutpoint, benefit in expected
            ]
            seen += len(expected)
            adaptor.adapt(table, window)
        assert seen > 0

    def test_window_touches_match_reference_sum(self):
        """Threshold counts equal the per-entry touched sum at every cutpoint.

        Half the windows draw values from a three-value pool, so one
        entry's predicates tie on a threshold; probing at the predicates'
        own values hits every tie, and NaN and infinite cutpoints are probed
        too.
        """
        rng = np.random.default_rng(8)
        for round_index in range(300):
            pool = (0, 1, 2) if round_index % 2 else ()
            entries = [
                [random_predicate(rng, pool) for _ in range(rng.integers(1, 4))]
                for _ in range(rng.integers(1, 7))
            ]
            probes = [float(v) for entry in entries for v in predicate_values(entry)]
            probes += [math.nan, math.inf, -math.inf, 0.5, 7.0]
            touches = WindowTouches.of_window(entries)
            for attribute in COLUMN_SPANS:
                counts = touches.get(attribute)
                if counts is None:
                    touched = [2 * len(entries)] * len(probes)
                else:
                    touched = (
                        2 * (len(entries) - counts.entries) + counts.touched(np.array(probes))
                    ).tolist()
                assert touched == [
                    reference_touched_sum(attribute, cutpoint, entries) for cutpoint in probes
                ]


def _bottom_nodes(tree):
    result = []

    def descend(node):
        if node.is_leaf:
            return
        if node.left.is_leaf and node.right.is_leaf:
            result.append(node)
            return
        descend(node.left)
        descend(node.right)

    descend(tree.root)
    return result
