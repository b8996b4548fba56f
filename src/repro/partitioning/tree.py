"""Partitioning trees.

A partitioning tree (Amoeba [21], Section 3) is a balanced binary tree whose
internal nodes are ``(attribute, cutpoint)`` pairs and whose leaves are data
blocks.  Records with ``attribute <= cutpoint`` belong to the left subtree,
the rest to the right subtree.  The tree answers two questions:

* ``route_rows`` — which block does each record belong to (used when loading
  and when repartitioning), and
* ``lookup`` — which blocks can contain rows matching a set of predicates
  (used for block pruning and as the ``lookup(T, q)`` function of the cost
  model, equations (1) and (2)).

In AdaptDB a tree may additionally carry a *join attribute*: the top
``join_levels`` levels split on that attribute (two-phase partitioning,
Section 5.1).

Both hot entry points run off a *compiled* form of the tree: flat numpy
arrays (per-node attribute index, cutpoint and child offsets, plus the
left-to-right leaf list) built once and cached until the structure changes.
``route_rows`` advances all rows level-synchronously through the node arrays.
Pruning runs off the compiled form's *box table*: for every attribute and
leaf, the value interval the leaf's root-to-leaf path allows and how often
the path splits on the attribute.  ``lookup`` tests each predicate against a
whole attribute row of the table at once (:meth:`Predicate.may_match_ranges`),
``lookup_block`` applies the same test to one leaf, and ``leaf_bounds`` and
``bottom_internal_nodes`` read their bounds out of the same table.
Structural edits must go through :meth:`resplit_node` (which re-derives the
table for the re-split node's subtree only) or call
:meth:`invalidate_compiled` so the cache is rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..common.epochs import mutates_partition_state
from ..common.errors import PartitioningError
from ..common.predicates import Operator, Predicate


@dataclass
class TreeNode:
    """A node of a partitioning tree.

    Internal nodes have ``attribute``/``cutpoint``/``left``/``right`` set and
    ``block_id`` unset; leaves are the opposite.
    """

    attribute: str | None = None
    cutpoint: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    block_id: int | None = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a leaf (i.e. a data block)."""
        return self.left is None and self.right is None

    def clone(self) -> "TreeNode":
        """Deep-copy the subtree rooted at this node."""
        if self.is_leaf:
            return TreeNode(block_id=self.block_id)
        assert self.left is not None and self.right is not None
        return TreeNode(
            attribute=self.attribute,
            cutpoint=self.cutpoint,
            left=self.left.clone(),
            right=self.right.clone(),
            block_id=None,
        )


@dataclass
class CompiledTree:
    """Flat, allocation-friendly form of a partitioning tree.

    Nodes are numbered in preorder (root = 0).  ``node_attr[i]`` is the index into ``attributes`` of node ``i``'s split
    attribute, or ``-1`` for a leaf; ``left``/``right`` hold child node
    numbers (``-1`` for leaves) and ``leaf_pos`` maps a leaf node number to
    its left-to-right leaf position.  ``leaf_blocks``/``leaf_bound`` hold
    each leaf's block id and whether it is bound, and ``block_leaf`` maps a
    bound block id to its leaf position.

    The *box table* has one row per attribute and one column per leaf, left
    to right.  ``box_lo``/``box_hi`` are the leaf's path interval on the
    attribute: every split on the path narrows it, but only with a cutpoint
    strictly inside, so NaN cutpoints never narrow.  ``box_splits`` counts
    the path's splits on the attribute; a leaf is never pruned on an
    attribute its path does not split.  ``box_point`` is the value ``v`` if
    the path interval was ever exactly ``[v, v]`` (NaN otherwise): ``!=`` is
    the one operator that is not monotone under narrowing, so pruning it
    needs that piece of path history rather than the final interval.

    ``bottom`` holds the node numbers of the bottom internal nodes (both
    children leaves), left to right, ``bottom_nodes`` the nodes themselves
    and ``bottom_leaf`` each one's left-child leaf position.  A bottom
    node's path bounds are ``box_lo[:, leaf]`` and ``box_hi[:, leaf + 1]``
    (its own split narrows only the left child's ``hi`` and the right
    child's ``lo``).  ``bottom_memo`` is a consumer memo over those bounds,
    emptied whenever a re-split changes them.
    """

    attributes: list[str]
    attribute_index: dict[str, int]
    node_attr: np.ndarray
    cutpoints: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_pos: np.ndarray
    leaf_nodes: list[TreeNode]
    node_index: dict[int, int]
    parent: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    box_splits: np.ndarray
    box_point: np.ndarray
    bottom: np.ndarray
    bottom_nodes: list[TreeNode]
    bottom_leaf: np.ndarray
    leaf_blocks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    leaf_bound: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    block_leaf: dict[int, int] = field(default_factory=dict)
    bottom_memo: dict[object, object] = field(default_factory=dict)

    def bind_leaves(self) -> None:
        """Re-read the leaves' block ids into ``leaf_blocks``/``leaf_bound``/``block_leaf``."""
        ids = [leaf.block_id for leaf in self.leaf_nodes]
        self.leaf_bound = np.array([block_id is not None for block_id in ids], dtype=bool)
        self.leaf_blocks = np.array(
            [0 if block_id is None else block_id for block_id in ids], dtype=np.int64
        )
        self.block_leaf = {
            block_id: position for position, block_id in enumerate(ids) if block_id is not None
        }

    def add_attribute_row(self) -> None:
        """Append an unconstrained box-table row for a newly split attribute."""
        leaves = len(self.leaf_nodes)
        self.box_lo = np.vstack([self.box_lo, np.full((1, leaves), -math.inf)])
        self.box_hi = np.vstack([self.box_hi, np.full((1, leaves), math.inf)])
        self.box_splits = np.vstack([self.box_splits, np.zeros((1, leaves), np.int32)])
        self.box_point = np.vstack([self.box_point, np.full((1, leaves), math.nan)])

    def fill_boxes(self, start: int) -> None:
        """(Re-)derive the box-table columns of every leaf under node ``start``."""
        stack = [(start, self._box_at(start))]
        while stack:
            node, box = stack.pop()
            attr = int(self.node_attr[node])
            if attr < 0:
                column = int(self.leaf_pos[node])
                lo, hi, splits, point = box
                self.box_lo[:, column] = lo
                self.box_hi[:, column] = hi
                self.box_splits[:, column] = splits
                self.box_point[:, column] = point
                continue
            cutpoint = float(self.cutpoints[node])
            stack.append((int(self.right[node]), _narrow(box, attr, cutpoint, False)))
            stack.append((int(self.left[node]), _narrow(box, attr, cutpoint, True)))

    def _box_at(self, node: int) -> "_Box":
        """The box of ``node`` itself: its ancestors' splits replayed from the root."""
        path: list[tuple[int, bool]] = []
        child, above = node, int(self.parent[node])
        while above >= 0:
            path.append((above, bool(self.left[above] == child)))
            child, above = above, int(self.parent[above])
        count = len(self.attributes)
        box: _Box = ([-math.inf] * count, [math.inf] * count, [0] * count, [math.nan] * count)
        for above, went_left in reversed(path):
            box = _narrow(box, int(self.node_attr[above]), float(self.cutpoints[above]), went_left)
        return box

    def admitted(
        self, predicates: list[Predicate] | None, leaves: slice
    ) -> np.ndarray | None:
        """Which of ``leaves`` may hold rows matching every predicate.

        A predicate is tested only on leaves whose path splits on its
        column.  ``None`` means no predicate constrains a split attribute,
        so every leaf is admitted.
        """
        admitted: np.ndarray | None = None
        for predicate in predicates or ():
            attr = self.attribute_index.get(predicate.column)
            if attr is None:
                continue
            if predicate.op is Operator.NE:
                passes = self.box_point[attr, leaves] != predicate.value
            else:
                passes = predicate.may_match_ranges(
                    self.box_lo[attr, leaves], self.box_hi[attr, leaves]
                )
            passes |= self.box_splits[attr, leaves] == 0
            admitted = passes if admitted is None else admitted & passes
        return admitted


#: One node's path box: per-attribute (lo, hi, split count, point value).
_Box = tuple[list[float], list[float], list[int], list[float]]


def _narrow(box: _Box, attr: int, cutpoint: float, left: bool) -> _Box:
    """The box of one child of a node splitting on ``attr`` at ``cutpoint``."""
    lo, hi, splits, point = (list(part) for part in box)
    if left:
        if cutpoint < hi[attr]:
            hi[attr] = cutpoint
    elif cutpoint > lo[attr]:
        lo[attr] = cutpoint
    splits[attr] += 1
    if lo[attr] == hi[attr]:
        point[attr] = lo[attr]
    return lo, hi, splits, point


@dataclass
class PartitioningTree:
    """A complete partitioning tree for one table (or one join attribute of it).

    Attributes:
        root: Root node.
        join_attribute: Join attribute this tree is optimized for (``None``
            for pure Amoeba trees that only adapt to selections).
        join_levels: Number of top levels reserved for the join attribute.
        tree_id: Identifier unique within the owning table.
    """

    root: TreeNode
    join_attribute: str | None = None
    join_levels: int = 0
    tree_id: int = 0
    _compiled: CompiledTree | None = field(default=None, init=False, repr=False, compare=False)
    _bottom_nodes: list | None = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def invalidate_compiled(self) -> None:
        """Drop the compiled form after a structural change to the tree."""
        self._compiled = None
        self._bottom_nodes = None

    def compiled(self) -> CompiledTree:
        """Return the compiled form, rebuilding it if the structure changed."""
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def _compile(self) -> CompiledTree:
        nodes: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.append(node.right)
                stack.append(node.left)
        index_of = {id(node): index for index, node in enumerate(nodes)}

        count = len(nodes)
        attributes: list[str] = []
        attribute_index: dict[str, int] = {}
        node_attr = np.full(count, -1, dtype=np.int32)
        cutpoints = np.zeros(count, dtype=np.float64)
        left = np.full(count, -1, dtype=np.int32)
        right = np.full(count, -1, dtype=np.int32)
        leaf_pos = np.full(count, -1, dtype=np.int32)
        parent = np.full(count, -1, dtype=np.int32)
        leaf_nodes: list[TreeNode] = []
        bottom: list[int] = []

        for index, node in enumerate(nodes):
            if node.is_leaf:
                leaf_pos[index] = len(leaf_nodes)
                leaf_nodes.append(node)
                continue
            assert node.attribute is not None and node.cutpoint is not None
            assert node.left is not None and node.right is not None
            attr_index = attribute_index.get(node.attribute)
            if attr_index is None:
                attr_index = len(attributes)
                attribute_index[node.attribute] = attr_index
                attributes.append(node.attribute)
            node_attr[index] = attr_index
            cutpoints[index] = node.cutpoint
            left[index] = index_of[id(node.left)]
            right[index] = index_of[id(node.right)]
            parent[left[index]] = index
            parent[right[index]] = index
            if node.left.is_leaf and node.right.is_leaf:
                bottom.append(index)

        shape = (len(attributes), len(leaf_nodes))
        bottom_array = np.array(bottom, dtype=np.int64)
        compiled = CompiledTree(
            attributes=attributes,
            attribute_index=attribute_index,
            node_attr=node_attr,
            cutpoints=cutpoints,
            left=left,
            right=right,
            leaf_pos=leaf_pos,
            leaf_nodes=leaf_nodes,
            node_index=index_of,
            parent=parent,
            box_lo=np.full(shape, -math.inf),
            box_hi=np.full(shape, math.inf),
            box_splits=np.zeros(shape, dtype=np.int32),
            box_point=np.full(shape, math.nan),
            bottom=bottom_array,
            bottom_nodes=[nodes[index] for index in bottom],
            bottom_leaf=leaf_pos[left[bottom_array]].astype(np.int64),
        )
        compiled.bind_leaves()
        compiled.fill_boxes(0)
        return compiled

    # ------------------------------------------------------------------ #
    # Leaves
    # ------------------------------------------------------------------ #
    def leaves(self) -> list[TreeNode]:
        """All leaf nodes, left to right."""
        return list(self.compiled().leaf_nodes)

    @property
    def num_leaves(self) -> int:
        """Number of leaves (data blocks) in the tree."""
        return len(self.compiled().leaf_nodes)

    def block_ids(self) -> list[int]:
        """Block ids of all leaves that have been bound to blocks."""
        compiled = self.compiled()
        return compiled.leaf_blocks[compiled.leaf_bound].tolist()

    @mutates_partition_state
    def assign_block_ids(self, block_ids: list[int]) -> None:
        """Bind leaf nodes to DFS block ids, left to right.

        Raises:
            PartitioningError: if the number of ids differs from the number
                of leaves.
        """
        compiled = self.compiled()
        leaves = compiled.leaf_nodes
        if len(block_ids) != len(leaves):
            raise PartitioningError(
                f"expected {len(leaves)} block ids, got {len(block_ids)}"
            )
        for leaf, block_id in zip(leaves, block_ids):
            leaf.block_id = block_id
        compiled.bind_leaves()

    # ------------------------------------------------------------------ #
    # Structure inspection / mutation
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        """Depth of the tree (a single leaf has depth 0)."""

        def node_depth(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(node_depth(node.left), node_depth(node.right))

        return node_depth(self.root)

    def attribute_counts(self) -> dict[str, int]:
        """How many internal nodes split on each attribute."""
        counts: dict[str, int] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            assert node.attribute is not None
            counts[node.attribute] = counts.get(node.attribute, 0) + 1
            assert node.left is not None and node.right is not None
            stack.append(node.left)
            stack.append(node.right)
        return counts

    def clone(self) -> "PartitioningTree":
        """Deep copy of the tree (shares no nodes with the original)."""
        return PartitioningTree(
            root=self.root.clone(),
            join_attribute=self.join_attribute,
            join_levels=self.join_levels,
            tree_id=self.tree_id,
        )

    @mutates_partition_state
    def resplit_node(self, node: TreeNode, attribute: str, cutpoint: float) -> None:
        """Change an internal node's split attribute/cutpoint (Amoeba transform).

        This is the supported structural-mutation entry point.  A re-split
        keeps the node's position, children and leaf order, so the compiled
        form is patched in place instead of being rebuilt: the node arrays
        at one index, and the box table for the leaves under the node only
        (two columns for a bottom-level node).  Only a re-split above the
        bottom level changes bottom nodes' path bounds, so only that drops
        the bottom-node caches.
        """
        if node.is_leaf:
            raise PartitioningError("cannot re-split a leaf node")
        node.attribute = attribute
        node.cutpoint = cutpoint
        assert node.left is not None and node.right is not None
        bottom_level = node.left.is_leaf and node.right.is_leaf
        if not bottom_level:
            self._bottom_nodes = None
        compiled = self._compiled
        if compiled is None:
            return
        index = compiled.node_index.get(id(node))
        if index is None:  # node unknown to the cache — fall back to a rebuild
            self.invalidate_compiled()
            return
        attr_index = compiled.attribute_index.get(attribute)
        if attr_index is None:
            attr_index = len(compiled.attributes)
            compiled.attributes.append(attribute)
            compiled.attribute_index[attribute] = attr_index
            compiled.add_attribute_row()
        compiled.node_attr[index] = attr_index
        compiled.cutpoints[index] = cutpoint
        compiled.fill_boxes(index)
        if not bottom_level:
            compiled.bottom_memo.clear()

    def bottom_internal_nodes(self) -> list[tuple[TreeNode, dict[str, tuple[float, float]]]]:
        """Internal nodes whose two children are both leaves, with path bounds.

        The bounds of a node cover the attributes its ancestors split on,
        read from the box table.  The result is cached alongside the
        compiled form; treat the bounds dicts as read-only.
        """
        if self._bottom_nodes is None:
            compiled = self.compiled()
            result: list[tuple[TreeNode, dict[str, tuple[float, float]]]] = []
            for node, index, leaf in zip(
                compiled.bottom_nodes, compiled.bottom.tolist(), compiled.bottom_leaf.tolist()
            ):
                splits_above = compiled.box_splits[:, leaf].copy()
                splits_above[compiled.node_attr[index]] -= 1
                bounds = {
                    compiled.attributes[attr]: (
                        float(compiled.box_lo[attr, leaf]),
                        float(compiled.box_hi[attr, leaf + 1]),
                    )
                    for attr in np.flatnonzero(splits_above).tolist()
                }
                result.append((node, bounds))
            self._bottom_nodes = result
        return self._bottom_nodes

    def bottom_node_arrays(self) -> CompiledTree:
        """The compiled form, for array consumers of the bottom internal nodes.

        Its ``bottom``/``bottom_nodes``/``bottom_leaf`` list those nodes in
        :meth:`bottom_internal_nodes` order, ``node_attr``/``cutpoints``
        hold their current splits, and ``bottom_memo`` caches values derived
        from their path bounds.  Treat it as read-only.
        """
        return self.compiled()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route_rows(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Route every row to its leaf and return the per-row leaf index.

        The leaf index is the position of the leaf in :meth:`leaves`;
        callers map it to block ids via :meth:`block_ids` or handle the
        grouping themselves (as the loader does before block ids exist).

        All rows advance one tree level per iteration over the compiled node
        arrays, so the work is a handful of vectorized passes instead of a
        per-node recursion.

        Args:
            columns: Column name -> value array; must contain every attribute
                that appears in the tree.

        Returns:
            An ``int64`` array of leaf indices, one per row.
        """
        compiled = self.compiled()
        if not columns:
            return np.zeros(0, dtype=np.int64)
        for attribute in compiled.attributes:
            if attribute not in columns:
                raise PartitioningError(
                    f"cannot route rows: column {attribute!r} missing from data"
                )
        num_rows = len(next(iter(columns.values())))
        node_attr, cutpoints = compiled.node_attr, compiled.cutpoints
        left, right = compiled.left, compiled.right
        if not compiled.attributes:  # single-leaf tree
            return np.zeros(num_rows, dtype=np.int64)

        # One float64 row per attribute: comparing against a float cutpoint
        # promotes integer columns to float64 anyway, so this is exact.
        values = np.empty((len(compiled.attributes), num_rows), dtype=np.float64)
        for attr_index, attribute in enumerate(compiled.attributes):
            values[attr_index] = columns[attribute]

        rows = np.arange(num_rows, dtype=np.int64)
        nodes = np.zeros(num_rows, dtype=np.int64)
        final_nodes = np.empty(num_rows, dtype=np.int64)
        while rows.size:
            attrs = node_attr[nodes]
            at_leaf = attrs < 0
            if at_leaf.any():
                final_nodes[rows[at_leaf]] = nodes[at_leaf]
                keep = ~at_leaf
                rows, nodes, attrs = rows[keep], nodes[keep], attrs[keep]
                if not rows.size:
                    break
            goes_left = values[attrs, rows] <= cutpoints[nodes]
            nodes = np.where(goes_left, left[nodes], right[nodes])

        return compiled.leaf_pos[final_nodes].astype(np.int64)

    # ------------------------------------------------------------------ #
    # Lookup (block pruning)
    # ------------------------------------------------------------------ #
    def lookup(self, predicates: list[Predicate] | None = None) -> list[int]:
        """Return the block ids of leaves that may contain matching rows.

        This is the ``lookup(T, q)`` function from the paper's cost model.
        A leaf is kept when every predicate on an attribute its path splits
        may match the leaf's box; each predicate is one vectorized test over
        its attribute's box-table row.  Leaves that are not bound to a block
        id are skipped; the rest come back in leaf order.
        """
        compiled = self.compiled()
        admitted = compiled.admitted(predicates, slice(None))
        keep = compiled.leaf_bound if admitted is None else admitted & compiled.leaf_bound
        return compiled.leaf_blocks[keep].tolist()

    def lookup_block(self, block_id: int, predicates: list[Predicate] | None = None) -> bool:
        """Whether :meth:`lookup` would include ``block_id``.

        Runs :meth:`lookup`'s box test on the block's leaf alone, so the two
        agree by construction.  Unknown block ids return ``False``.
        """
        compiled = self.compiled()
        leaf = compiled.block_leaf.get(block_id)
        if leaf is None:
            return False
        admitted = compiled.admitted(predicates, slice(leaf, leaf + 1))
        return admitted is None or bool(admitted[0])

    def leaf_bounds(self, attribute: str) -> dict[int, tuple[float, float]]:
        """Per-leaf value bounds of ``attribute`` implied by the tree structure.

        Returns a mapping ``block_id -> (lo, hi)`` for bound leaves, read
        from the box table.  Leaves whose path never splits on
        ``attribute`` get infinite bounds.
        """
        compiled = self.compiled()
        leaves = np.flatnonzero(compiled.leaf_bound)
        block_ids = compiled.leaf_blocks[leaves].tolist()
        attr = compiled.attribute_index.get(attribute)
        if attr is None:
            return {block_id: (-math.inf, math.inf) for block_id in block_ids}
        lows = compiled.box_lo[attr, leaves].tolist()
        highs = compiled.box_hi[attr, leaves].tolist()
        return dict(zip(block_ids, zip(lows, highs)))

    def describe(self) -> str:
        """Multi-line textual rendering of the tree (for debugging/docs)."""
        lines: list[str] = []

        def render(node: TreeNode, indent: int) -> None:
            prefix = "  " * indent
            if node.is_leaf:
                lines.append(f"{prefix}leaf block={node.block_id}")
                return
            lines.append(f"{prefix}{node.attribute} <= {node.cutpoint:g}")
            assert node.left is not None and node.right is not None
            render(node.left, indent + 1)
            render(node.right, indent + 1)

        render(self.root, 0)
        return "\n".join(lines)
