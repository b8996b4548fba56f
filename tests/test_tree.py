"""Tests for repro.partitioning.tree (routing, lookup, structure)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PartitioningError
from repro.common.predicates import Operator, Predicate, between, eq, gt, isin, le, lt
from repro.partitioning.tree import PartitioningTree, TreeNode
from repro.testing import (
    predicate_strategy,
    reference_bottom_nodes,
    reference_leaf_bounds,
    reference_lookup,
)


def two_level_tree() -> PartitioningTree:
    """A 4-leaf tree: split on `a` at 50, then on `b` at 10 / 20."""
    tree = PartitioningTree(
        root=TreeNode(
            attribute="a",
            cutpoint=50.0,
            left=TreeNode(attribute="b", cutpoint=10.0, left=TreeNode(), right=TreeNode()),
            right=TreeNode(attribute="b", cutpoint=20.0, left=TreeNode(), right=TreeNode()),
        )
    )
    tree.assign_block_ids([0, 1, 2, 3])
    return tree


class TestStructure:
    def test_leaves_left_to_right(self):
        assert two_level_tree().block_ids() == [0, 1, 2, 3]

    def test_num_leaves_and_depth(self):
        tree = two_level_tree()
        assert tree.num_leaves == 4
        assert tree.depth() == 2

    def test_single_leaf_tree(self):
        tree = PartitioningTree(root=TreeNode(block_id=7))
        assert tree.num_leaves == 1
        assert tree.depth() == 0
        assert tree.lookup([]) == [7]

    def test_attribute_counts(self):
        assert two_level_tree().attribute_counts() == {"a": 1, "b": 2}

    def test_assign_block_ids_length_mismatch(self):
        tree = two_level_tree()
        with pytest.raises(PartitioningError):
            tree.assign_block_ids([1, 2])

    def test_clone_is_deep(self):
        tree = two_level_tree()
        clone = tree.clone()
        clone.root.cutpoint = 99.0
        clone.leaves()[0].block_id = 42
        assert tree.root.cutpoint == 50.0
        assert tree.leaves()[0].block_id == 0

    def test_describe_mentions_attributes_and_blocks(self):
        text = two_level_tree().describe()
        assert "a <= 50" in text and "leaf block=3" in text


class TestRouting:
    def test_route_rows_to_expected_leaves(self):
        tree = two_level_tree()
        columns = {
            "a": np.array([0, 0, 100, 100]),
            "b": np.array([5, 15, 15, 25]),
        }
        assert tree.route_rows(columns).tolist() == [0, 1, 2, 3]

    def test_route_boundary_goes_left(self):
        tree = two_level_tree()
        columns = {"a": np.array([50]), "b": np.array([10])}
        assert tree.route_rows(columns).tolist() == [0]

    def test_route_empty_input(self):
        assert two_level_tree().route_rows({}).size == 0

    def test_route_missing_column_raises(self):
        with pytest.raises(PartitioningError):
            two_level_tree().route_rows({"a": np.array([1.0])})

    def test_routing_partitions_every_row_exactly_once(self, rng):
        tree = two_level_tree()
        columns = {
            "a": rng.uniform(0, 100, size=500),
            "b": rng.uniform(0, 30, size=500),
        }
        leaves = tree.route_rows(columns)
        assert len(leaves) == 500
        assert set(np.unique(leaves)).issubset({0, 1, 2, 3})


class TestLookup:
    def test_no_predicates_returns_all_blocks(self):
        assert two_level_tree().lookup([]) == [0, 1, 2, 3]

    def test_predicate_on_root_attribute_prunes_half(self):
        assert two_level_tree().lookup([le("a", 10)]) == [0, 1]
        assert two_level_tree().lookup([gt("a", 60)]) == [2, 3]

    def test_predicate_on_second_level(self):
        assert two_level_tree().lookup([le("a", 10), le("b", 5)]) == [0]

    def test_predicate_on_unknown_attribute_does_not_prune(self):
        assert two_level_tree().lookup([eq("c", 1)]) == [0, 1, 2, 3]

    def test_between_predicate_straddling_cutpoint(self):
        assert two_level_tree().lookup([between("a", 40, 60)]) == [0, 1, 2, 3]

    def test_unbound_leaves_are_skipped(self):
        tree = PartitioningTree(
            root=TreeNode(attribute="a", cutpoint=1.0, left=TreeNode(block_id=5), right=TreeNode())
        )
        assert tree.lookup([]) == [5]

    def test_lookup_is_consistent_with_routing(self, rng):
        """Every row routed to a leaf must be found by a point lookup for its values."""
        tree = two_level_tree()
        columns = {"a": rng.uniform(0, 100, size=50), "b": rng.uniform(0, 30, size=50)}
        leaves = tree.route_rows(columns)
        block_ids = tree.block_ids()
        for index in range(50):
            point_predicates = [
                eq("a", float(columns["a"][index])),
                eq("b", float(columns["b"][index])),
            ]
            assert block_ids[leaves[index]] in tree.lookup(point_predicates)


class TestCompiledForm:
    def test_compiled_reused_across_calls(self):
        tree = two_level_tree()
        compiled = tree.compiled()
        tree.lookup([le("a", 10)])
        tree.route_rows({"a": np.array([1.0]), "b": np.array([1.0])})
        assert tree.compiled() is compiled

    def test_resplit_node_patches_compiled_in_place(self):
        tree = two_level_tree()
        compiled = tree.compiled()
        node = tree.root.left  # splits on b at 10
        tree.resplit_node(node, "c", 7.0)
        # Same cache object, updated arrays: routing/lookup see the new split.
        assert tree.compiled() is compiled
        assert tree.lookup([le("c", 5)]) == [0, 2, 3]
        assert tree.lookup([gt("c", 8)]) == [1, 2, 3]
        columns = {
            "a": np.array([0.0, 0.0]),
            "b": np.array([0.0, 0.0]),
            "c": np.array([5.0, 9.0]),
        }
        assert tree.route_rows(columns).tolist() == [0, 1]

    def test_resplit_leaf_raises(self):
        tree = two_level_tree()
        with pytest.raises(PartitioningError):
            tree.resplit_node(tree.leaves()[0], "a", 1.0)

    def test_invalidate_compiled_rebuilds(self):
        tree = two_level_tree()
        compiled = tree.compiled()
        tree.invalidate_compiled()
        assert tree.compiled() is not compiled
        assert tree.block_ids() == [0, 1, 2, 3]

    def test_bottom_internal_nodes_cached_with_bounds(self):
        tree = two_level_tree()
        bottom = tree.bottom_internal_nodes()
        assert tree.bottom_internal_nodes() is bottom
        assert len(bottom) == 2
        (left_node, left_bounds), (right_node, right_bounds) = bottom
        assert left_node.attribute == "b" and left_bounds == {"a": (-np.inf, 50.0)}
        assert right_node.attribute == "b" and right_bounds == {"a": (50.0, np.inf)}

    def test_bottom_memo_survives_only_bottom_level_resplits(self):
        tree = two_level_tree()
        tree.bottom_node_arrays().bottom_memo["cutpoints"] = np.zeros(2)
        tree.resplit_node(tree.root.left, "c", 7.0)  # children are leaves
        assert "cutpoints" in tree.bottom_node_arrays().bottom_memo
        tree.resplit_node(tree.root, "b", 15.0)  # moves the bottom nodes' bounds
        assert not tree.bottom_node_arrays().bottom_memo

    def test_lookup_matches_route_after_resplit(self, rng):
        tree = two_level_tree()
        tree.resplit_node(tree.root.right, "a", 75.0)
        columns = {"a": rng.uniform(0, 100, size=80), "b": rng.uniform(0, 30, size=80)}
        leaves = tree.route_rows(columns)
        block_ids = tree.block_ids()
        for index in range(80):
            predicates = [
                eq("a", float(columns["a"][index])),
                eq("b", float(columns["b"][index])),
            ]
            assert block_ids[leaves[index]] in tree.lookup(predicates)


class TestLeafBounds:
    def test_bounds_on_root_attribute(self):
        bounds = two_level_tree().leaf_bounds("a")
        assert bounds[0][1] == 50.0 and bounds[3][0] == 50.0

    def test_bounds_on_lower_attribute(self):
        bounds = two_level_tree().leaf_bounds("b")
        assert bounds[0] == (-np.inf, 10.0)
        assert bounds[3] == (20.0, np.inf)

    def test_bounds_on_absent_attribute_are_infinite(self):
        bounds = two_level_tree().leaf_bounds("missing")
        assert all(lo == -np.inf and hi == np.inf for lo, hi in bounds.values())


class TestLookupBlockAgreesWithLookup:
    def test_unsatisfiable_predicates_on_unsplit_paths(self):
        """A predicate no value satisfies prunes only leaves whose path splits its column."""
        tree = PartitioningTree(
            root=TreeNode(
                attribute="a",
                cutpoint=5.0,
                left=TreeNode(attribute="b", cutpoint=3.0, left=TreeNode(), right=TreeNode()),
                right=TreeNode(attribute="a", cutpoint=8.0, left=TreeNode(), right=TreeNode()),
            )
        )
        tree.assign_block_ids([0, 1, 2, 3])
        for predicate in (isin("b", ()), lt("b", -math.inf), gt("b", math.inf)):
            assert tree.lookup([predicate]) == [2, 3]
            assert [tree.lookup_block(block, [predicate]) for block in range(4)] == [
                False, False, True, True,
            ]

    def test_not_equal_prunes_below_a_point_interval(self):
        """``a != 0`` prunes every leaf whose path interval was once exactly [0, 0].

        Leaf 2's final interval (1, 0] no longer pins ``a`` to 0, but the
        split that made it [0, 0] already excluded it.
        """
        tree = PartitioningTree(
            root=TreeNode(
                attribute="a",
                cutpoint=0.0,
                left=TreeNode(),
                right=TreeNode(
                    attribute="a",
                    cutpoint=0.0,
                    left=TreeNode(attribute="a", cutpoint=1.0, left=TreeNode(), right=TreeNode()),
                    right=TreeNode(),
                ),
            )
        )
        tree.assign_block_ids([0, 1, 2, 3])
        predicate = Predicate("a", Operator.NE, 0.0)
        assert tree.lookup([predicate]) == [0, 3] == reference_lookup(tree, [predicate])
        assert [tree.lookup_block(block, [predicate]) for block in range(4)] == [
            True, False, False, True,
        ]


# --------------------------------------------------------------------------- #
# The box table against the reference walks, on random trees
# --------------------------------------------------------------------------- #
ATTRIBUTES = ("a", "b", "c")
special_values = st.sampled_from([math.nan, math.inf, -math.inf])
#: Small integers repeat (the same cutpoint twice on a path, intervals
#: pinned to [v, v]) and collide with the predicates' small values.
cutpoints = st.one_of(st.integers(min_value=-2, max_value=2).map(float), special_values, st.floats())
small_cutpoints = st.integers(min_value=-2, max_value=2).map(float)


@st.composite
def random_trees(draw, attributes=ATTRIBUTES, cutpoint_values=cutpoints, max_depth=4):
    def build(depth):
        if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
            return TreeNode()
        return TreeNode(
            attribute=draw(st.sampled_from(attributes)),
            cutpoint=draw(cutpoint_values),
            left=build(depth - 1),
            right=build(depth - 1),
        )

    tree = PartitioningTree(root=build(max_depth))
    bound = draw(st.lists(st.booleans(), min_size=tree.num_leaves, max_size=tree.num_leaves))
    tree.assign_block_ids([100 + leaf if keep else None for leaf, keep in enumerate(bound)])
    return tree


def internal_nodes(tree):
    found, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            found.append(node)
            stack += [node.left, node.right]
    return found


def assert_matches_reference(tree, predicate_list):
    expected = reference_lookup(tree, predicate_list)
    assert tree.lookup(predicate_list) == expected
    for leaf in tree.leaves():
        if leaf.block_id is not None:
            assert tree.lookup_block(leaf.block_id, predicate_list) == (leaf.block_id in expected)
    assert not tree.lookup_block(-1, predicate_list)
    for attribute in ATTRIBUTES + ("unsplit",):
        assert tree.leaf_bounds(attribute) == reference_leaf_bounds(tree, attribute)
    fresh = reference_bottom_nodes(tree)
    assert [(id(node), bounds) for node, bounds in tree.bottom_internal_nodes()] == [
        (id(node), bounds) for node, bounds in fresh
    ]


class TestBoxTableMatchesReference:
    @given(
        random_trees(),
        st.lists(predicate_strategy(ATTRIBUTES + ("unsplit",)), max_size=3),
        st.lists(
            st.tuples(st.integers(min_value=0), st.sampled_from(ATTRIBUTES + ("d",)), cutpoints),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_lookup_block_and_bounds_match_the_walks(self, tree, predicate_list, resplits):
        """Before and after bottom- and upper-level re-splits (new attributes included)."""
        assert_matches_reference(tree, predicate_list)
        for choice, attribute, cutpoint in resplits:
            nodes = internal_nodes(tree)
            if not nodes:
                break
            tree.resplit_node(nodes[choice % len(nodes)], attribute, cutpoint)
            assert_matches_reference(tree, predicate_list)

    @given(
        random_trees(attributes=("a",), cutpoint_values=small_cutpoints, max_depth=5),
        st.lists(
            st.builds(Predicate, st.just("a"), st.just(Operator.NE), st.integers(-2, 2)),
            min_size=1,
            max_size=2,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_not_equal_on_repeated_splits_matches_the_walk(self, tree, predicate_list):
        """``!=`` under paths that pin an attribute to one value, then narrow past it."""
        assert_matches_reference(tree, predicate_list)
