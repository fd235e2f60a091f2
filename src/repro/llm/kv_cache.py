"""Paged KV-cache allocator (vLLM-style block paging).

The serving simulator's admission control reserves each request's
worst-case KV footprint up front; real servers do better with paged
allocation — fixed-size blocks handed out on demand, shared prefixes by
reference counting, freed on completion.  This allocator provides that
machinery so memory headroom created by TCA-BME weight compression can
be turned into *admitted requests* rather than slack.

The design follows PagedAttention's allocator: a free list of
``block_size``-token blocks, per-sequence block tables, copy-on-write
reference counts for shared prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

__all__ = ["KVBlockAllocator", "SequenceAllocation"]


@dataclass
class SequenceAllocation:
    """One sequence's block table."""

    seq_id: int
    block_ids: List[int] = field(default_factory=list)
    tokens: int = 0
    #: Accounting principal, e.g. ``"session:7"`` for a shared session
    #: prefix or ``""`` (request-owned).  Owners let a serving layer ask
    #: :meth:`KVBlockAllocator.owned_blocks` "what do I still hold?" and
    #: make double-free reports name who held the block.
    owner: str = ""
    #: Content-integrity generation.  0 means the blocks hold exactly
    #: what the model wrote (pristine); every in-place corruption bumps
    #: it, and the receive-side KV checks read ``payload_version != 0``
    #: as a failed content tag.  Forks and migrations inherit the
    #: version: poisoned context stays traceable wherever the blocks
    #: travel.
    payload_version: int = 0


class KVBlockAllocator:
    """Fixed-size block allocator with reference counting.

    Its methods are the only writers of the free list, the refcounts
    and the block tables (``tests/test_ledger_guard.py`` fails on a
    write from anywhere else), so each keeps K004/K005 as it writes.
    """

    def __init__(self, total_blocks: int, block_size: int = 16):
        if total_blocks <= 0 or block_size <= 0:
            raise ValueError("total_blocks and block_size must be positive")
        self.block_size = block_size
        self.total_blocks = total_blocks
        self._free: List[int] = list(range(total_blocks - 1, -1, -1))
        self._refcount: Dict[int, int] = {}
        self._sequences: Dict[int, SequenceAllocation] = {}

    # ---- capacity -----------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self.free_blocks

    def blocks_needed(self, tokens: int) -> int:
        if tokens < 0:
            raise ValueError("token count cannot be negative")
        return -(-tokens // self.block_size)

    def can_allocate(self, tokens: int) -> bool:
        return self.blocks_needed(tokens) <= self.free_blocks

    def next_token_blocks(self, seq_ids: Iterable[int]) -> int:
        """How many free blocks one more token for each of ``seq_ids``
        would consume: one per sequence whose tail block is full, or
        shared and so copied on write.  Each sequence is counted on its
        own, as if it appended first.  The serving scheduler asks this
        when it sizes a prefill chunk, and on a decode pass only when
        the pool holds fewer free blocks than the batch has sequences
        (the answer is at most one block per sequence)."""
        size = self.block_size
        needed = 0
        for seq_id in seq_ids:
            alloc = self.sequence(seq_id)
            blocks = alloc.block_ids
            if (
                alloc.tokens >= len(blocks) * size
                or self._refcount[blocks[-1]] > 1
            ):
                needed += 1
        return needed

    # ---- allocation -----------------------------------------------------------------

    def allocate(
        self, seq_id: int, tokens: int, owner: str = "",
        payload_version: int = 0,
    ) -> SequenceAllocation:
        """Allocate blocks for a new sequence of ``tokens`` tokens.  A
        payload shipped from another pool arrives with its
        ``payload_version``."""
        if seq_id in self._sequences:
            raise KeyError(f"sequence {seq_id} already allocated")
        needed = self.blocks_needed(tokens)
        if needed > self.free_blocks:
            raise MemoryError(
                f"need {needed} blocks for sequence {seq_id}, "
                f"only {self.free_blocks} free"
            )
        alloc = SequenceAllocation(
            seq_id=seq_id, tokens=tokens, owner=owner,
            payload_version=payload_version,
        )
        for _ in range(needed):
            block = self._free.pop()
            self._refcount[block] = 1
            alloc.block_ids.append(block)
        self._sequences[seq_id] = alloc
        return alloc

    def append_token(self, seq_id: int, n: int = 1) -> bool:
        """Extend a sequence by ``n`` tokens; returns True if a block was
        consumed (a fresh tail block, or a copy-on-write duplicate of a
        shared tail).  False = the tail block had room for all ``n``
        tokens and was private.

        One call leaves the same block tables, reference counts and free
        list as ``n`` one-token calls: a shared tail with room is copied
        first, then fresh blocks leave the free list in order.  When the
        pool cannot supply every block it raises ``MemoryError`` and
        changes nothing.
        """
        if n == 1:
            # Decode's case: one token into a private tail with room.
            alloc = self._sequences.get(seq_id)
            if (
                alloc is not None
                and alloc.tokens < len(alloc.block_ids) * self.block_size
                and self._refcount[alloc.block_ids[-1]] == 1
            ):
                alloc.tokens += 1
                return False
        if n < 0:
            raise ValueError(f"cannot append {n} tokens")
        alloc = self.sequence(seq_id)
        blocks = alloc.block_ids
        room = len(blocks) * self.block_size - alloc.tokens
        # Writing into the tail block: if it is shared with a fork, the
        # write would corrupt the other sequence's cache — copy it first.
        cow = n > 0 and room > 0 and self._refcount[blocks[-1]] > 1
        fresh = -(-(n - room) // self.block_size) if n > room else 0
        if cow + fresh > len(self._free):
            raise MemoryError(
                f"out of KV blocks extending sequence {seq_id} by {n} "
                f"token(s): need {cow + fresh}, {len(self._free)} free"
            )
        if cow:
            copied = self._free.pop()
            self._refcount[blocks[-1]] -= 1
            self._refcount[copied] = 1
            blocks[-1] = copied
        for _ in range(fresh):
            block = self._free.pop()
            self._refcount[block] = 1
            blocks.append(block)
        alloc.tokens += n
        return cow or fresh > 0

    def fork(
        self, parent_id: int, child_id: int, owner: str = ""
    ) -> SequenceAllocation:
        """Share a parent's blocks copy-on-write (beam search / prefix
        caching): the child references the same blocks; refcounts rise."""
        parent = self.sequence(parent_id)
        if child_id in self._sequences:
            raise KeyError(f"sequence {child_id} already allocated")
        child = SequenceAllocation(
            seq_id=child_id,
            block_ids=list(parent.block_ids),
            tokens=parent.tokens,
            owner=owner,
            payload_version=parent.payload_version,
        )
        for block in child.block_ids:
            self._refcount[block] += 1
        self._sequences[child_id] = child
        return child

    def free(self, seq_id: int) -> int:
        """Release a sequence; returns how many blocks became free.

        Freeing an unknown sequence raises (``KeyError``), and so does
        releasing a block the allocator does not count as owned — a
        double free or a corrupted block table.  Raising here is the
        contract: silent tolerance would leak blocks or hand one block
        to two sequences, and every later accounting answer (admission,
        preemption) would be quietly wrong.
        """
        alloc = self._sequences.get(seq_id)
        if alloc is None:
            raise KeyError(f"unknown sequence {seq_id}")
        # Validate the whole table before mutating anything, so a
        # corrupt entry cannot leave the free list half-updated.
        seen: Dict[int, int] = {}
        for block in alloc.block_ids:
            seen[block] = seen.get(block, 0) + 1
        for block, times in seen.items():
            owned = self._refcount.get(block, 0)
            if owned < times:
                who = (
                    f"owner {alloc.owner!r}" if alloc.owner
                    else "request-owned"
                )
                raise RuntimeError(
                    f"double free: sequence {seq_id} ({who}) releases "
                    f"block {block} x{times} but the allocator counts "
                    f"only {owned} live reference(s)"
                )
        del self._sequences[seq_id]
        released = 0
        for block in alloc.block_ids:
            self._refcount[block] -= 1
            if self._refcount[block] == 0:
                del self._refcount[block]
                self._free.append(block)
                released += 1
        return released

    def free_all(self) -> int:
        """Release every live sequence (GPU-crash recovery path);
        returns how many blocks went back to the free list."""
        released = 0
        for seq_id in sorted(self._sequences):
            released += self.free(seq_id)
        return released

    # ---- content integrity ----------------------------------------------------------

    def corrupt_sequence(self, seq_id: int) -> int:
        """Garble a sequence's payload in place (fault injection): the
        blocks stay allocated, the token count is unchanged, but
        ``payload_version`` is no longer 0.  Returns the new version."""
        alloc = self.sequence(seq_id)
        alloc.payload_version += 1
        return alloc.payload_version

    # ---- introspection --------------------------------------------------------------

    def sequence(self, seq_id: int) -> SequenceAllocation:
        try:
            return self._sequences[seq_id]
        except KeyError:
            raise KeyError(f"unknown sequence {seq_id}") from None

    def has_sequence(self, seq_id: int) -> bool:
        return seq_id in self._sequences

    def sequences_owned_by(self, owner: str) -> List[int]:
        """Sequence ids registered under ``owner``, sorted."""
        return sorted(
            sid for sid, a in self._sequences.items() if a.owner == owner
        )

    def owned_blocks(self, owner: str) -> List[int]:
        """Every block id still referenced by a sequence of ``owner``,
        sorted.  Session teardown asserts this is empty afterwards —
        the "provably freed everything" check — and the Q002
        prefix-leak lint audits it across a whole server run."""
        held = set()
        for sid in self.sequences_owned_by(owner):
            held.update(self._sequences[sid].block_ids)
        return sorted(held)

    def refcounts(self) -> Dict[int, int]:
        """Copy of per-block reference counts (allocated blocks only)."""
        return dict(self._refcount)

    def block_tables(self) -> Dict[int, List[int]]:
        """Copy of every sequence's block table."""
        return {sid: list(a.block_ids) for sid, a in self._sequences.items()}

    def free_block_ids(self) -> List[int]:
        """Copy of the free list."""
        return list(self._free)
