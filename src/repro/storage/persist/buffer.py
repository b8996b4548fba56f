"""The byte-budgeted LRU block buffer.

Every data read of a persistent session flows through one
:class:`BlockBuffer` sitting between the DFS and the spill store:

* ``DistributedFileSystem.get_block(s)`` calls :meth:`touch` — a resident
  block counts a **hit** and refreshes its recency; a spilled block is left
  to fault lazily (below) so a batch read never materializes more than the
  consumer actually walks.
* A spilled block's columns fault in through the loader the buffer bound
  to it (:meth:`bind`): the fault is counted, the block is (re)admitted at
  the MRU end, and the budget is enforced by evicting from the LRU end —
  clean blocks just drop their in-memory copy, dirty blocks are spilled
  first.  This also covers stragglers: a consumer holding a ``Block``
  handle past an eviction transparently re-faults on its next column read.
* ``peek_block`` never calls into the buffer at all — diagnostic peeks
  neither count as reads nor refresh recency, so metadata probes
  (planning, statistics audits) cannot perturb eviction order.  If a peek
  caller *does* read a spilled block's data, the lazy fault above still
  accounts the materialization — pages became resident, pretending
  otherwise would undercount.

Counters (hits / faults / evictions) accumulate on the buffer for the
lifetime sweeps of fig14 and are mirrored per execution into the DFS's
:class:`~repro.storage.dfs.ReadStats`, which ``Session.execute`` resets per
query and copies onto the ``QueryResult`` — excluded from fingerprints,
because buffer behaviour must never change query answers or plans.

``budget_bytes=None`` means unbounded: blocks stay resident and the buffer
only tracks recency and counters.  The budget is a *target*, not a hard
wall — a single block larger than the budget is still admitted (it must
be, to be read at all) and trimmed back on the next admission.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..block import Block
    from ..dfs import DistributedFileSystem
    from .store import PersistentBlockStore


class BlockBuffer:
    """Bounded pool of resident block copies over a spill store."""

    def __init__(
        self, store: "PersistentBlockStore", budget_bytes: int | None = None
    ) -> None:
        self.store = store
        self.budget_bytes = budget_bytes
        #: Resident block id -> charged bytes; dict order is recency (MRU last).
        self._resident: dict[int, int] = {}
        self._held: dict[int, "Block"] = {}
        self.resident_bytes = 0
        self.hits = 0
        self.faults = 0
        self.evictions = 0
        #: Set once the buffer is attached to a DFS; per-execution counter sink.
        self.dfs: "DistributedFileSystem | None" = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def bind(self, block: "Block", raw_loader: Callable[[], dict[str, np.ndarray]]) -> None:
        """Route ``block``'s future column faults through this buffer."""
        block.set_loader(lambda: self._fault(block, raw_loader))

    def admit(self, block: "Block") -> None:
        """Charge a resident block (creation or restore-with-data) to the pool."""
        self._charge(block)
        self._enforce_budget(exclude=block.block_id)

    # ------------------------------------------------------------------ #
    # The read path
    # ------------------------------------------------------------------ #
    def touch(self, block: "Block") -> None:
        """Account a DFS read: hit + refresh when resident, else defer to the
        lazy fault (the loader bound by :meth:`bind` counts it on first use).
        """
        if block.block_id in self._resident:
            self.hits += 1
            self._record("buffer_hits")
            self._charge(block)  # refresh recency and recharge a grown block

    def _fault(self, block: "Block", raw_loader: Callable[[], dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
        """Materialize a spilled block's columns, admitting it to the pool."""
        columns = raw_loader()
        self.faults += 1
        self._record("buffer_faults")
        self._charge(block)
        self._enforce_budget(exclude=block.block_id)
        return columns

    # ------------------------------------------------------------------ #
    # Residency accounting
    # ------------------------------------------------------------------ #
    def is_resident(self, block_id: int) -> bool:
        """Whether the buffer currently charges ``block_id`` as resident."""
        return block_id in self._resident

    def _charge(self, block: "Block") -> None:
        """(Re)charge a block at its current size and move it to the MRU end."""
        previous = self._resident.pop(block.block_id, 0)
        self._resident[block.block_id] = block.size_bytes
        self._held[block.block_id] = block
        self.resident_bytes += block.size_bytes - previous

    def recharge(self, block: "Block") -> None:
        """Follow a resident block's size change, keeping its recency.

        Non-resident blocks are not charged; their next fault charges them
        at whatever size they have then.
        """
        previous = self._resident.get(block.block_id)
        if previous is not None:
            self._resident[block.block_id] = block.size_bytes
            self.resident_bytes += block.size_bytes - previous

    def _enforce_budget(self, exclude: int | None = None) -> None:
        """Evict from the LRU end until the pool fits the budget.

        ``exclude`` protects the block being admitted right now — evicting
        it before its caller ever touched the data would thrash.
        """
        if self.budget_bytes is None:
            return
        while self.resident_bytes > self.budget_bytes:
            victim_id = next(
                (block_id for block_id in self._resident if block_id != exclude), None
            )
            if victim_id is None:
                return
            self._evict(victim_id)

    def _evict(self, block_id: int) -> None:
        charge = self._resident.pop(block_id)
        block = self._held.pop(block_id)
        self.resident_bytes -= charge
        if block.dirty:
            # Write-back: the spill installs a fresh buffer-bound loader for
            # the new version before the in-memory copy is dropped.
            self.bind(block, self.store.spill(block))
        block.unload()
        self.evictions += 1
        self._record("buffer_evictions")

    def discard(self, block_id: int) -> None:
        """Drop tracking for a deleted block (no spill, no eviction count)."""
        charge = self._resident.pop(block_id, None)
        self._held.pop(block_id, None)
        if charge is not None:
            self.resident_bytes -= charge

    # ------------------------------------------------------------------ #
    # Sweeping controls (fig14) and counters
    # ------------------------------------------------------------------ #
    def set_budget(self, budget_bytes: int | None) -> None:
        """Change the byte budget, evicting down to it immediately."""
        self.budget_bytes = budget_bytes
        self._enforce_budget()

    def drop_resident(self) -> int:
        """Evict *everything* (spilling dirty blocks) — a cold-cache reset.

        Returns the number of blocks evicted.
        """
        dropped = 0
        while self._resident:
            self._evict(next(iter(self._resident)))
            dropped += 1
        return dropped

    def reset_counters(self) -> None:
        """Zero the lifetime hit/fault/eviction counters (sweep bookkeeping)."""
        self.hits = 0
        self.faults = 0
        self.evictions = 0

    def _record(self, field_name: str) -> None:
        """Mirror one event into the attached DFS's per-execution ReadStats."""
        dfs = self.dfs
        if dfs is not None:
            stats = dfs.read_stats
            setattr(stats, field_name, getattr(stats, field_name) + 1)
