"""Low-level join kernels shared by the shuffle-join and hyper-join executors.

AdaptDB's evaluation reports I/O-driven runtimes, so the reproduction's join
executors only need to (a) account block accesses faithfully and (b) compute
the *correct* number of join matches so tests can verify results against a
reference join.  Both needs are served by counting key multiplicities.

:func:`join_match_count_arrays` is the one exact match-count kernel of the
execution engine's join tasks (shuffle reduce and hyper-join group tasks).
Join keys here are dense integer ids (TPC-H order, part and customer keys),
so it counts by *dense domain*: the build keys inside the key range
``[lo, hi]`` both sides share are tallied with one ``np.bincount``, and each
probe key inside the range looks up its build multiplicity — no sort, no
hash table.  The counter array has one slot per value in the range, so the
dense path only runs when that span is at most :data:`DENSE_SPAN_PER_ROW`
times the number of keys being counted.  Non-integer keys and sparse spans
take the sort-based :class:`KeyHistogram` count, whose memory is bounded by
the input whatever the key values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..common.errors import StorageError
from ..common.predicates import Predicate, rows_matching

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ..storage.block import Block


@dataclass
class KeyHistogram:
    """Distinct keys of one relation side together with their multiplicities."""

    keys: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "KeyHistogram":
        """Build a histogram from a raw key array."""
        if len(keys) == 0:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        unique, counts = np.unique(keys, return_counts=True)
        return cls(unique, counts)

    @classmethod
    def merge(cls, histograms: list["KeyHistogram"]) -> "KeyHistogram":
        """Merge several histograms into one (summing multiplicities)."""
        non_empty = [histogram for histogram in histograms if len(histogram.keys)]
        if not non_empty:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        keys = np.concatenate([histogram.keys for histogram in non_empty])
        counts = np.concatenate([histogram.counts for histogram in non_empty])
        unique, inverse = np.unique(keys, return_inverse=True)
        merged_counts = np.zeros(len(unique), dtype=np.int64)
        np.add.at(merged_counts, inverse, counts)
        return cls(unique, merged_counts)

    @property
    def total(self) -> int:
        """Total number of rows represented by the histogram."""
        return int(self.counts.sum())


def join_match_count(left: KeyHistogram, right: KeyHistogram) -> int:
    """Number of join output rows between two key histograms.

    Equal to Σ over common keys of (left multiplicity × right multiplicity),
    i.e. the cardinality of the equi-join.
    """
    if len(left.keys) == 0 or len(right.keys) == 0:
        return 0
    common, left_idx, right_idx = np.intersect1d(
        left.keys, right.keys, assume_unique=True, return_indices=True
    )
    if len(common) == 0:
        return 0
    return int((left.counts[left_idx] * right.counts[right_idx]).sum())


#: Largest key span (``hi - lo + 1``) per counted key for which dense
#: counting runs.  The counter array then costs at most this many int64s per
#: input key; wider (sparse) spans sort instead.  On a 2-CPU x86 host dense
#: counting stays ahead of sorting up to about 32 values per key, so 8 keeps
#: it well on the winning side while bounding its memory by the input.
DENSE_SPAN_PER_ROW = 8


def _span_offsets(keys: np.ndarray, key_range: tuple[int, int], lo: int, hi: int) -> np.ndarray:
    """Offsets ``key - lo`` of the keys inside ``[lo, hi]``, as ``intp``.

    ``key_range`` is the keys' own ``(min, max)``, which contains
    ``[lo, hi]``; when the two are equal no key needs dropping.  Signed
    keys are widened to int64 first (``hi - lo`` can overflow a narrow
    dtype); uint64 keys subtract as they are, as no kept key is below ``lo``.
    """
    work = keys if keys.dtype == np.uint64 else keys.astype(np.int64, copy=False)
    origin, top = np.asarray([lo, hi], dtype=work.dtype)
    if key_range != (lo, hi):
        work = work[(work >= origin) & (work <= top)]
    return (work - origin).astype(np.intp, copy=False)


def join_match_count_arrays(build_keys: np.ndarray, probe_keys: np.ndarray) -> int:
    """Join cardinality of two raw key arrays: the sum over keys of build
    multiplicity × probe multiplicity.

    Integer keys whose shared range is dense count with one ``bincount``
    over the build side and one gather over the probe side; everything
    else takes the sort-based :func:`join_match_count`.  Both paths are
    exact, so the choice never changes the answer.
    """
    if len(build_keys) == 0 or len(probe_keys) == 0:
        return 0
    if build_keys.dtype.kind in "iu" and probe_keys.dtype.kind in "iu":
        build_range = (int(build_keys.min()), int(build_keys.max()))
        probe_range = (int(probe_keys.min()), int(probe_keys.max()))
        lo = max(build_range[0], probe_range[0])
        hi = min(build_range[1], probe_range[1])
        if lo > hi:
            return 0
        span = hi - lo + 1
        if span <= DENSE_SPAN_PER_ROW * (len(build_keys) + len(probe_keys)):
            counts = np.bincount(
                _span_offsets(build_keys, build_range, lo, hi), minlength=span
            )
            return int(counts[_span_offsets(probe_keys, probe_range, lo, hi)].sum())
    return join_match_count(
        KeyHistogram.from_keys(build_keys), KeyHistogram.from_keys(probe_keys)
    )


def gather_columns(blocks: Iterable["Block"], columns: list[str]) -> dict[str, np.ndarray]:
    """Concatenate the named columns of a batch of blocks row-wise.

    Empty blocks contribute no rows but still supply dtype metadata, so an
    empty batch keeps the source column dtype (a float predicate column must
    not silently become int64 just because no block held rows).  int64 is
    only the last-resort default when no block carries the column at all.
    """
    # Reading ``block.columns`` consolidates a block's pending chunks once,
    # on its first query read, and the block stays contiguous afterwards, so
    # a block adaptation appended to is not re-stitched on every query.
    # Block migration streams ``column_parts()`` instead: its sources are
    # cleared right after the read, so consolidating them would be wasted.
    gathered: dict[str, list[np.ndarray]] = {name: [] for name in columns}
    dtypes: dict[str, np.dtype] = {}
    for block in blocks:
        block_columns = block.columns
        if block.num_rows == 0:
            for name in columns:
                if name not in dtypes and name in block_columns:
                    dtypes[name] = block_columns[name].dtype
            continue
        for name, arrays in gathered.items():
            try:
                arrays.append(block_columns[name])
            except KeyError:
                raise StorageError(f"gathered blocks have no column {name!r}") from None
    return {
        name: (
            np.concatenate(arrays)
            if arrays
            else np.empty(0, dtype=dtypes.get(name, np.int64))
        )
        for name, arrays in gathered.items()
    }


def gather_filtered_keys(
    blocks: Iterable["Block"], key_column: str, predicates: list[Predicate]
) -> np.ndarray:
    """Join keys of a batch of blocks surviving ``predicates``, in one pass.

    Instead of filtering block by block, the key column and every predicate
    column are concatenated across the batch and the predicate masks are
    evaluated once over the concatenation — the vectorized inner loop of the
    scan and shuffle-map tasks.
    """
    needed = [key_column] + sorted({p.column for p in predicates} - {key_column})
    columns = gather_columns(blocks, needed)
    keys = columns[key_column]
    if not predicates or len(keys) == 0:
        return keys
    return keys[rows_matching(columns, predicates)]


def batch_matching_count(blocks: Iterable["Block"], predicates: list[Predicate]) -> int:
    """Rows of a batch of blocks matching all ``predicates`` (vectorized).

    With no predicates this is simply the batch's total row count; otherwise
    the predicate columns are concatenated across the batch and every
    predicate mask is evaluated once.
    """
    blocks = list(blocks)
    if not predicates:
        return sum(block.num_rows for block in blocks)
    columns = gather_columns(blocks, sorted({p.column for p in predicates}))
    return int(rows_matching(columns, predicates).sum())


def hash_partition(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Assign each key to a shuffle partition (simple modulo hashing)."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return (keys.astype(np.int64) % num_partitions + num_partitions) % num_partitions
