"""Tests for repro.join.kernels (key histograms, match counting, gathering, hash partitioning)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.join import kernels
from repro.join.kernels import (
    DENSE_SPAN_PER_ROW,
    KeyHistogram,
    gather_columns,
    hash_partition,
    join_match_count,
    join_match_count_arrays,
)
from repro.storage.block import Block


class TestKeyHistogram:
    def test_from_keys_counts_multiplicities(self):
        histogram = KeyHistogram.from_keys(np.array([1, 1, 2, 3, 3, 3]))
        assert histogram.keys.tolist() == [1, 2, 3]
        assert histogram.counts.tolist() == [2, 1, 3]
        assert histogram.total == 6

    def test_from_empty_keys(self):
        histogram = KeyHistogram.from_keys(np.empty(0, dtype=np.int64))
        assert histogram.total == 0

    def test_merge_sums_counts(self):
        merged = KeyHistogram.merge(
            [
                KeyHistogram.from_keys(np.array([1, 2, 2])),
                KeyHistogram.from_keys(np.array([2, 3])),
            ]
        )
        assert merged.keys.tolist() == [1, 2, 3]
        assert merged.counts.tolist() == [1, 3, 1]

    def test_merge_empty_list(self):
        assert KeyHistogram.merge([]).total == 0

    def test_merge_ignores_empty_histograms(self):
        merged = KeyHistogram.merge(
            [KeyHistogram.from_keys(np.empty(0, dtype=np.int64)),
             KeyHistogram.from_keys(np.array([5]))]
        )
        assert merged.keys.tolist() == [5]


class TestJoinMatchCount:
    def test_simple_counts(self):
        left = KeyHistogram.from_keys(np.array([1, 1, 2]))
        right = KeyHistogram.from_keys(np.array([1, 2, 2, 3]))
        # key 1: 2*1, key 2: 1*2
        assert join_match_count(left, right) == 4

    def test_no_common_keys(self):
        left = KeyHistogram.from_keys(np.array([1, 2]))
        right = KeyHistogram.from_keys(np.array([3, 4]))
        assert join_match_count(left, right) == 0

    def test_empty_side(self):
        left = KeyHistogram.from_keys(np.empty(0, dtype=np.int64))
        right = KeyHistogram.from_keys(np.array([1]))
        assert join_match_count(left, right) == 0

    def test_array_wrapper_matches_bruteforce(self, rng):
        left = rng.integers(0, 50, size=300)
        right = rng.integers(0, 50, size=200)
        brute = sum(int((right == key).sum()) for key in left)
        assert join_match_count_arrays(left, right) == brute

    def test_symmetry(self, rng):
        left = rng.integers(0, 30, size=100)
        right = rng.integers(0, 30, size=150)
        assert join_match_count_arrays(left, right) == join_match_count_arrays(right, left)


def brute_force_count(left: np.ndarray, right: np.ndarray) -> int:
    return sum(int((right == key).sum()) for key in left)


class TestMatchCountKernel:
    """``join_match_count_arrays``: dense counting with the sort fallback."""

    CASES = {
        "negative-keys": (np.array([-5, -3, -3, 0, 2]), np.array([-3, -3, 2, 7, -9])),
        "single-distinct-key": (np.full(40, 7), np.full(25, 7)),
        "empty-build": (np.empty(0, dtype=np.int64), np.array([1, 2, 3])),
        "empty-probe": (np.array([1, 2, 3]), np.empty(0, dtype=np.int64)),
        "both-empty": (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
        "heavy-duplicates": (np.repeat([1, 2, 3], 300), np.repeat([2, 3, 4], 200)),
        "disjoint-ranges": (np.arange(0, 50), np.arange(100, 150)),
        "probe-wider-than-build": (np.array([10, 11, 11]), np.arange(-1000, 1000)),
        "sparse-span": (np.array([0, 10**12, 10**12]), np.array([10**12, 5, 0, 0])),
        "int64-extremes": (
            np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max]),
            np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min, 1]),
        ),
        "int8-full-range": (  # dense, but hi - lo overflows int8
            np.repeat(np.array([-128, -1, 127], dtype=np.int8), 12),
            np.repeat(np.array([127, -128, 5], dtype=np.int8), 12),
        ),
        "uint64": (
            np.array([2**64 - 1, 2**64 - 3, 2**64 - 1], dtype=np.uint64),
            np.array([2**64 - 1, 2**64 - 2, 2**64 - 3], dtype=np.uint64),
        ),
        "mixed-signedness": (
            np.array([-4, 0, 3, 3], dtype=np.int64),
            np.array([3, 0, 9], dtype=np.uint64),
        ),
        "float": (np.array([0.5, 1.5, 1.5, 2.0]), np.array([1.5, 2.0, 2.5])),
        "float-nan": (np.array([np.nan, 1.0, 1.0]), np.array([np.nan, 1.0])),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_bruteforce_and_is_symmetric(self, name):
        build, probe = self.CASES[name]
        expected = brute_force_count(build, probe)
        assert join_match_count_arrays(build, probe) == expected
        assert join_match_count_arrays(probe, build) == expected

    def test_dense_span_counts_without_sorting(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "join_match_count", lambda *a: calls.append(a) or 0)
        build = np.arange(100, 200)
        probe = np.arange(150, 400)
        assert join_match_count_arrays(build, probe) == 50
        assert calls == []

    def test_sparse_span_falls_back_to_sorting(self, monkeypatch):
        sorted_counts = []
        sort_count = kernels.join_match_count

        def spy(left, right):
            sorted_counts.append(sort_count(left, right))
            return sorted_counts[-1]

        monkeypatch.setattr(kernels, "join_match_count", spy)
        rows = 10
        span = DENSE_SPAN_PER_ROW * 2 * rows + 1
        build = np.array([0] * (rows - 1) + [span - 1])
        probe = np.array([0, span - 1] * (rows // 2))
        # Both sides span [0, span - 1], one value wider than the dense limit.
        assert join_match_count_arrays(build, probe) == rows * (rows // 2)
        assert sorted_counts == [rows * (rows // 2)]

    def test_float_keys_fall_back_to_sorting(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "join_match_count", lambda *a: calls.append(a) or 0)
        join_match_count_arrays(np.array([1.0, 2.0]), np.array([2.0]))
        assert len(calls) == 1


class TestHashPartition:
    def test_assignment_in_range(self, rng):
        keys = rng.integers(0, 10_000, size=1000)
        parts = hash_partition(keys, 7)
        assert parts.min() >= 0 and parts.max() < 7

    def test_same_key_same_partition(self):
        keys = np.array([42, 42, 42, 7, 7])
        parts = hash_partition(keys, 5)
        assert len(set(parts[:3].tolist())) == 1
        assert len(set(parts[3:].tolist())) == 1

    def test_negative_keys_supported(self):
        parts = hash_partition(np.array([-10, -3, 5]), 4)
        assert (parts >= 0).all()

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            hash_partition(np.array([1]), 0)

    def test_partitions_are_reasonably_balanced(self, rng):
        keys = rng.integers(0, 1_000_000, size=10_000)
        counts = np.bincount(hash_partition(keys, 10), minlength=10)
        assert counts.min() > 0.5 * counts.mean()


class TestGatherColumns:
    def test_concatenates_across_blocks(self):
        blocks = [
            Block(0, "t", {"k": np.array([1, 2], dtype=np.int64)}),
            Block(1, "t", {"k": np.array([3], dtype=np.int64)}),
        ]
        assert gather_columns(blocks, ["k"])["k"].tolist() == [1, 2, 3]

    def test_empty_batch_preserves_source_dtype(self):
        """A float column must stay float even when no block holds rows."""
        empty = Block(0, "t", {"v": np.empty(0, dtype=np.float64)})
        gathered = gather_columns([empty], ["v"])
        assert gathered["v"].dtype == np.float64
        assert len(gathered["v"]) == 0

    def test_no_blocks_at_all_defaults_to_int64(self):
        gathered = gather_columns([], ["k"])
        assert gathered["k"].dtype == np.int64 and len(gathered["k"]) == 0

    def test_streams_pending_chunks_in_row_order(self):
        block = Block(0, "t", {"k": np.array([1, 2], dtype=np.int64)})
        block.append_rows({"k": np.array([3, 4], dtype=np.int64)})
        assert gather_columns([block], ["k"])["k"].tolist() == [1, 2, 3, 4]
