"""Tests for the paged KV-cache allocator."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plan_lint import lint_kv_allocator
from repro.llm.kv_cache import KVBlockAllocator


def allocator(total=64, block=16):
    return KVBlockAllocator(total_blocks=total, block_size=block)


class TestAllocation:
    def test_blocks_needed(self):
        a = allocator()
        assert a.blocks_needed(0) == 0
        assert a.blocks_needed(1) == 1
        assert a.blocks_needed(16) == 1
        assert a.blocks_needed(17) == 2

    def test_allocate_and_free(self):
        a = allocator()
        alloc = a.allocate(1, tokens=40)  # 3 blocks
        assert len(alloc.block_ids) == 3
        assert a.used_blocks == 3
        assert a.free(1) == 3
        assert a.used_blocks == 0

    def test_distinct_blocks(self):
        a = allocator()
        x = a.allocate(1, 32)
        y = a.allocate(2, 32)
        assert not set(x.block_ids) & set(y.block_ids)

    def test_out_of_memory(self):
        a = allocator(total=2)
        a.allocate(1, 32)
        with pytest.raises(MemoryError):
            a.allocate(2, 16)

    def test_duplicate_sequence_rejected(self):
        a = allocator()
        a.allocate(1, 16)
        with pytest.raises(KeyError):
            a.allocate(1, 16)

    def test_unknown_sequence(self):
        with pytest.raises(KeyError):
            allocator().free(99)

    def test_validation(self):
        with pytest.raises(ValueError):
            KVBlockAllocator(0)
        with pytest.raises(ValueError):
            allocator().blocks_needed(-1)


class TestAppend:
    def test_append_within_block(self):
        a = allocator()
        a.allocate(1, 10)
        assert a.append_token(1) is False  # block has room (10 -> 11)
        assert a.sequence(1).tokens == 11

    def test_append_crosses_block_boundary(self):
        a = allocator()
        a.allocate(1, 16)  # exactly one full block
        assert a.append_token(1) is True
        assert len(a.sequence(1).block_ids) == 2

    def test_append_oom_rolls_back(self):
        a = allocator(total=1)
        a.allocate(1, 16)
        with pytest.raises(MemoryError):
            a.append_token(1)
        assert a.sequence(1).tokens == 16  # rolled back


class TestForking:
    def test_fork_shares_blocks(self):
        a = allocator()
        parent = a.allocate(1, 32)
        used_before = a.used_blocks
        child = a.fork(1, 2)
        assert child.block_ids == parent.block_ids
        assert a.used_blocks == used_before  # zero-copy

    def test_fork_refcount_protects_blocks(self):
        a = allocator()
        a.allocate(1, 32)
        a.fork(1, 2)
        assert a.free(1) == 0  # child still references everything
        assert a.free(2) == 2  # last reference releases

    def test_fork_unknown_parent(self):
        with pytest.raises(KeyError):
            allocator().fork(9, 10)


class TestEfficiency:
    def test_paging_slack_bounded(self):
        a = allocator(total=256, block=16)
        for i, tokens in enumerate((17, 33, 100, 5)):
            a.allocate(i, tokens)
        # Worst-case slack is block_size - 1 tokens per sequence.
        for i, tokens in enumerate((17, 33, 100, 5)):
            slots = len(a.sequence(i).block_ids) * a.block_size
            assert 0 <= slots - tokens < a.block_size

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=10))
    def test_allocate_free_conserves_blocks(self, sizes):
        a = allocator(total=128)
        for i, tokens in enumerate(sizes):
            if a.can_allocate(tokens):
                a.allocate(i, tokens)
        for i in list(a._sequences):
            a.free(i)
        assert a.free_blocks == a.total_blocks
        assert a.used_blocks == 0


class TestCopyOnWrite:
    def test_append_to_forked_child_copies_shared_tail(self):
        """Regression: appending into a fork-shared tail block must copy
        it, not write in place — an in-place write corrupts the other
        sequence's cache."""
        a = allocator()
        parent = a.allocate(1, 20)  # two blocks, tail has room
        parent_table = list(parent.block_ids)
        child = a.fork(1, 2)
        consumed = a.append_token(2)
        assert consumed is True  # a COW copy costs a block
        # child got a private tail; parent's table is untouched
        assert child.block_ids[-1] != parent_table[-1]
        assert child.block_ids[:-1] == parent_table[:-1]
        assert parent.block_ids == parent_table
        assert parent.tokens == 20 and child.tokens == 21

    def test_cow_refcounts_stay_conserved(self):
        a = allocator()
        a.allocate(1, 20)
        a.fork(1, 2)
        a.append_token(2)
        shared, parent_tail = a.sequence(1).block_ids
        child_tail = a.sequence(2).block_ids[-1]
        counts = a.refcounts()
        assert counts[shared] == 2
        assert counts[parent_tail] == 1
        assert counts[child_tail] == 1
        # both sequences free cleanly afterwards
        a.free(1)
        a.free(2)
        assert a.free_blocks == a.total_blocks

    def test_parent_append_after_fork_also_copies(self):
        a = allocator()
        a.allocate(1, 20)
        a.fork(1, 2)
        child_table = list(a.sequence(2).block_ids)
        assert a.append_token(1) is True  # parent's write triggers COW too
        assert a.sequence(2).block_ids == child_table

    def test_private_tail_still_appends_in_place(self):
        a = allocator()
        a.allocate(1, 20)
        used = a.used_blocks
        assert a.append_token(1) is False
        assert a.used_blocks == used

    def test_cow_oom_raises(self):
        a = allocator(total=2)
        a.allocate(1, 20)  # consumes both blocks
        a.fork(1, 2)
        with pytest.raises(MemoryError):
            a.append_token(2)

    def test_introspection_snapshots_are_copies(self):
        a = allocator()
        a.allocate(1, 20)
        a.block_tables()[1].append(999)
        a.refcounts()[0] = 99
        a.free_block_ids().append(999)
        assert 999 not in a.sequence(1).block_ids
        assert 99 not in a.refcounts().values()
        assert 999 not in a.free_block_ids()


class TestFreeGuards:
    """Double frees and corrupted block tables must raise, not leak."""

    def test_double_free_raises(self):
        a = allocator()
        a.allocate(1, 20)
        a.free(1)
        with pytest.raises(KeyError, match="unknown sequence"):
            a.free(1)

    def test_free_of_unowned_block_raises(self):
        a = allocator()
        a.allocate(1, 20)
        a.free(1)
        a.allocate(2, 4)
        # Corrupt seq 2's table to also claim seq 1's released block.
        freed_block = next(
            b for b in a.free_block_ids()
            if b not in a.sequence(2).block_ids
        )
        a._sequences[2].block_ids.append(freed_block)
        with pytest.raises(RuntimeError, match="double free"):
            a.free(2)

    def test_duplicated_block_in_table_raises(self):
        a = allocator()
        a.allocate(1, 4)
        block = a.sequence(1).block_ids[0]
        a._sequences[1].block_ids.append(block)  # x2, refcount says 1
        with pytest.raises(RuntimeError, match="double free"):
            a.free(1)

    def test_failed_free_mutates_nothing(self):
        a = allocator()
        a.allocate(1, 4)
        a.allocate(2, 4)
        free_before = list(a.free_block_ids())
        refs_before = dict(a.refcounts())
        a._sequences[1].block_ids.append(a.sequence(2).block_ids[0])
        a._sequences[1].block_ids.append(a.sequence(2).block_ids[0])
        with pytest.raises(RuntimeError, match="double free"):
            a.free(1)
        assert a.free_block_ids() == free_before
        assert a.refcounts() == refs_before
        assert 1 in a.block_tables()  # the sequence is still live

    def test_forked_block_frees_once_per_owner(self):
        a = allocator()
        a.allocate(1, 20)
        a.fork(1, 2)
        a.free(1)
        a.free(2)
        with pytest.raises(KeyError):
            a.free(2)
        assert a.free_blocks == a.total_blocks

    def test_free_all_is_deterministic_and_complete(self):
        a = allocator()
        for seq in (5, 3, 9):
            a.allocate(seq, 24)
        assert a.free_all() == 6
        assert a.free_blocks == a.total_blocks
        assert a.block_tables() == {}

    def test_double_free_report_names_owner(self):
        a = allocator()
        a.allocate(1, 4, owner="session:7")
        block = a.sequence(1).block_ids[0]
        a._sequences[1].block_ids.append(block)
        with pytest.raises(RuntimeError, match="session:7"):
            a.free(1)


class TestOwnership:
    """Owner tags: who holds which sequences and blocks."""

    def test_sequences_owned_by_sorted(self):
        a = allocator()
        a.allocate(9, 4, owner="session:1")
        a.allocate(2, 4, owner="session:1")
        a.allocate(5, 4, owner="session:2")
        a.allocate(7, 4)  # untagged
        assert a.sequences_owned_by("session:1") == [2, 9]
        assert a.sequences_owned_by("session:2") == [5]
        assert a.sequences_owned_by("session:3") == []

    def test_owned_blocks_follow_frees(self):
        a = allocator()
        a.allocate(1, 20, owner="session:4")
        held = a.owned_blocks("session:4")
        assert sorted(held) == sorted(a.sequence(1).block_ids)
        a.free(1)
        assert a.owned_blocks("session:4") == []

    def test_fork_carries_its_own_owner(self):
        a = allocator()
        a.allocate(1, 20, owner="request")
        a.fork(1, -1, owner="session:0")
        # Shared blocks are visible to both owners until freed.
        assert a.owned_blocks("session:0") == a.owned_blocks("request")
        a.free(1)
        assert a.owned_blocks("request") == []
        assert len(a.owned_blocks("session:0")) > 0
        a.free(-1)
        assert a.owned_blocks("session:0") == []
        assert a.free_blocks == a.total_blocks


def _state(a):
    """Everything an append can change, as comparable snapshots."""
    tokens = {sid: a.sequence(sid).tokens for sid in a.block_tables()}
    return a.block_tables(), a.refcounts(), a.free_block_ids(), tokens


def _one_token_appends(a, seq_id, n):
    """The reference: ``n`` one-token calls; MemoryError if one fails."""
    consumed = False
    try:
        for _ in range(n):
            consumed = a.append_token(seq_id) or consumed
    except MemoryError:
        return MemoryError
    return consumed


def _one_token_cost(a, seq_id):
    """Blocks one more token for ``seq_id`` takes, on a copy of ``a``."""
    trial = copy.deepcopy(a)
    free = trial.free_blocks
    try:
        consumed = trial.append_token(seq_id)
    except MemoryError:
        return 1  # it needed a block the pool did not have
    assert free - trial.free_blocks == int(consumed)
    return int(consumed)


# (op, which live sequence, token count); appends drawn twice as often,
# and a small pool, so bulk appends into forks of part-filled tails and
# MemoryErrors all occur.
_PROGRAMS = st.lists(
    st.tuples(
        st.sampled_from([
            "allocate", "fork", "append", "append", "free", "free_all",
            "corrupt",
        ]),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=23),
    ),
    min_size=1,
    max_size=25,
)


class TestBulkAppend:
    """``append_token(s, n)`` is exactly ``n`` one-token calls, and
    every allocator operation keeps the K004/K005 bookkeeping rules."""

    def test_bulk_into_shared_part_filled_tail(self):
        a = allocator(total=12, block=4)
        a.allocate(1, 6)  # tail block holds 2 of 4 tokens
        a.fork(1, 2)
        loop = copy.deepcopy(a)
        assert a.append_token(2, 7) is True  # COW copy + 2 fresh blocks
        assert _one_token_appends(loop, 2, 7) is True
        assert _state(a) == _state(loop)
        assert a.free_blocks == 12 - 2 - 3

    def test_zero_is_a_noop(self):
        a = allocator(total=4, block=4)
        a.allocate(1, 6)
        a.fork(1, 2)
        before = _state(a)
        assert a.append_token(2, 0) is False
        assert _state(a) == before

    def test_negative_rejected(self):
        a = allocator()
        a.allocate(1, 6)
        before = _state(a)
        with pytest.raises(ValueError):
            a.append_token(1, -1)
        assert _state(a) == before

    def test_unsatisfiable_changes_nothing(self):
        a = allocator(total=3, block=4)
        a.allocate(1, 6)
        a.fork(1, 2)
        before = _state(a)
        with pytest.raises(MemoryError):
            a.append_token(2, 7)  # COW + 2 fresh > 1 free block
        assert _state(a) == before

    @settings(max_examples=200, deadline=None)
    @given(_PROGRAMS)
    def test_random_programs_match_one_token_calls(self, program):
        a = allocator(total=12, block=4)
        next_id = 0
        for op, pick, tokens in program:
            live = sorted(a.block_tables())
            seq_id = live[pick % len(live)] if live else None
            if op == "allocate" or not live:
                if a.can_allocate(tokens):
                    a.allocate(next_id, tokens)
                    next_id += 1
            elif op == "fork":
                a.fork(seq_id, next_id)
                next_id += 1
            elif op == "free":
                a.free(seq_id)
            elif op == "free_all":
                a.free_all()
            elif op == "corrupt":
                a.corrupt_sequence(seq_id)
            else:
                before = _state(a)
                loop = copy.deepcopy(a)
                want = _one_token_appends(loop, seq_id, tokens)
                if want is MemoryError:
                    with pytest.raises(MemoryError):
                        a.append_token(seq_id, tokens)
                    assert _state(a) == before
                else:
                    assert a.append_token(seq_id, tokens) is want
                    assert _state(a) == _state(loop)
            assert lint_kv_allocator(a) == []
            live = sorted(a.block_tables())
            query = live[pick % len(live):] if live else []
            assert a.next_token_blocks(query) == sum(
                _one_token_cost(a, sid) for sid in query
            )
