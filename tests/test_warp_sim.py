"""Tests for the SIMT interpreter and the SMBD instruction programs."""

import numpy as np
import pytest

from repro.core.bitmap import bitmap_from_block, masked_popcount
from repro.core.smbd import decode_tctile
from repro.core.tca_bme import encode
from repro.core.tiles import TileConfig
from repro.gpu.smbd_program import (
    build_naive_decode,
    build_two_phase_decode,
    run_bitmaptile_decode,
)
from repro.gpu.warp_sim import (
    Instr,
    WarpProgram,
    WarpSimulator,
    bank_conflict_replays,
)


class TestInterpreter:
    def test_sreg_laneid(self):
        p = WarpProgram("t").emit("S_REG", "lane")
        r = WarpSimulator().run(p)
        assert list(r.lane_values("lane")) == list(range(32))

    def test_alu_chain(self):
        p = WarpProgram("t")
        p.emit("S_REG", "lane")
        p.emit("SHL", "x", "lane", 2)
        p.emit("ADD", "y", "x", 5)
        r = WarpSimulator().run(p)
        assert list(r.lane_values("y")) == [4 * i + 5 for i in range(32)]

    def test_popc(self):
        p = WarpProgram("t")
        p.emit("MOV", "v", 0b101101)
        p.emit("POPC", "c", "v")
        r = WarpSimulator().run(p)
        assert (r.lane_values("c") == 4).all()

    def test_predicated_select(self):
        p = WarpProgram("t")
        p.emit("S_REG", "lane")
        p.emit("AND", "odd", "lane", 1)
        p.emit("SETP", "p", "odd")
        p.emit("SEL", "out", "p", 7, 9)
        r = WarpSimulator().run(p)
        vals = r.lane_values("out")
        assert (vals[1::2] == 7).all() and (vals[::2] == 9).all()

    def test_lds_reads_shared(self):
        shared = np.frombuffer(
            np.arange(16, dtype=np.uint16).tobytes(), dtype=np.uint8
        )
        p = WarpProgram("t")
        p.emit("S_REG", "lane")
        p.emit("AND", "idx", "lane", 15)
        p.emit("SHL", "addr", "idx", 1)
        p.emit("LDS", "v", "addr")
        r = WarpSimulator(shared).run(p)
        assert list(r.lane_values("v")[:16]) == list(range(16))

    def test_lds_out_of_bounds(self):
        p = WarpProgram("t")
        p.emit("MOV", "addr", 100)
        p.emit("LDS", "v", "addr")
        with pytest.raises(IndexError):
            WarpSimulator(np.zeros(4, np.uint8)).run(p)

    def test_broadcast_lds_no_replays(self):
        shared = np.zeros(64, np.uint8)
        p = WarpProgram("t")
        p.emit("MOV", "addr", 0)
        p.emit("LDS", "v", "addr")
        r = WarpSimulator(shared).run(p)
        assert r.lds_replays == 0

    def test_conflicted_lds_counts_replays(self):
        shared = np.zeros(32 * 128 + 4, np.uint8)
        p = WarpProgram("t")
        p.emit("S_REG", "lane")
        p.emit("SHL", "addr", "lane", 7)  # stride 128 B: all bank 0
        p.emit("LDS", "v", "addr")
        r = WarpSimulator(shared).run(p)
        assert r.lds_replays == 31

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError, match="unknown opcode"):
            Instr("FMA", "d", ("a", "b"))

    def test_unwritten_register_read(self):
        p = WarpProgram("t").emit("ADD", "x", "ghost", 1)
        with pytest.raises(KeyError, match="unwritten register"):
            WarpSimulator().run(p)

    def test_scoreboard_extends_cycles(self):
        """A dependent chain costs latency; independent ops overlap."""
        chain = WarpProgram("chain")
        chain.emit("MOV", "a", 1)
        chain.emit("ADD", "b", "a", 1)
        chain.emit("ADD", "c", "b", 1)
        parallel = WarpProgram("par")
        parallel.emit("MOV", "a", 1)
        parallel.emit("MOV", "b", 2)
        parallel.emit("MOV", "c", 3)
        t_chain = WarpSimulator().run(chain).cycles
        t_par = WarpSimulator().run(parallel).cycles
        assert t_chain > t_par


class TestBankConflictReplays:
    @pytest.mark.parametrize("addrs, replays", [
        pytest.param([], 0, id="empty"),
        pytest.param([lane * 4 for lane in range(32)], 0, id="stride-4"),
        pytest.param([16] * 32, 0, id="broadcast"),
        # fp16 pairs inside one 32-bit word broadcast.
        pytest.param([0, 2] * 16, 0, id="same-word"),
        # All 32 lanes hit bank 0 with distinct words.
        pytest.param([lane * 128 for lane in range(32)], 31, id="stride-128"),
        # Lanes 0 and 1 share bank 0.
        pytest.param([0, 128, 4, 8, 12], 1, id="two-way"),
    ])
    def test_replays(self, addrs, replays):
        addrs = np.array(addrs, dtype=np.int64)
        active = np.ones(addrs.size, dtype=bool)
        assert bank_conflict_replays(addrs, active) == replays


def _tile_case(seed, sparsity=0.5):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((8, 8)).astype(np.float16)
    block[rng.random((8, 8)) < sparsity] = 0
    bitmap = bitmap_from_block(block)
    values = block.reshape(-1)[block.reshape(-1) != 0]
    return block, bitmap, values


class TestSMBDPrograms:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("naive", [False, True])
    def test_decode_matches_reference(self, seed, naive):
        """Program output == the lane-faithful reference decoder."""
        block, bitmap, values = _tile_case(seed)
        a0, a1, _ = run_bitmaptile_decode(bitmap, values, naive=naive)
        for lane in range(32):
            r, c = lane // 4, 2 * (lane % 4)
            assert a0[lane] == block[r, c], (lane, "a0")
            assert a1[lane] == block[r, c + 1], (lane, "a1")

    def test_decode_against_smbd_module(self):
        """Cross-check with decode_tctile on a real encoded tile."""
        cfg = TileConfig(gt_h=16, gt_w=16)
        rng = np.random.default_rng(5)
        w = rng.standard_normal((16, 16)).astype(np.float16)
        w[rng.random((16, 16)) < 0.5] = 0
        enc = encode(w, cfg)
        frags = decode_tctile(enc.group_bitmaps(0), enc.group_values(0))
        offset = 0
        for reg in range(4):
            bitmap = int(enc.group_bitmaps(0)[reg])
            a0, a1, _ = run_bitmaptile_decode(
                bitmap, enc.group_values(0), tile_offset=offset
            )
            np.testing.assert_array_equal(a0, frags[:, reg, 0])
            np.testing.assert_array_equal(a1, frags[:, reg, 1])
            offset += bin(bitmap).count("1")

    def test_empty_tile(self):
        a0, a1, _ = run_bitmaptile_decode(0, np.zeros(0, np.float16))
        assert not a0.astype(np.float32).any()
        assert not a1.astype(np.float32).any()

    def test_masked_popcount_agreement(self):
        """The program's cnt register equals Algorithm 2's output."""
        _, bitmap, values = _tile_case(7)
        _, _, result = run_bitmaptile_decode(bitmap, values)
        cnt = result.lane_values("cnt")
        for lane in range(32):
            assert cnt[lane] == masked_popcount(bitmap, lane)

    def test_two_phase_uses_single_popc(self):
        """The paper's optimisation: 1 POPC per register, not 2."""
        two = build_two_phase_decode(0xFFFF, 0)
        naive = build_naive_decode(0xFFFF, 0)
        assert two.count("POPC") == 1
        assert naive.count("POPC") == 2
        assert len(two) < len(naive)

    def test_two_phase_fewer_cycles(self):
        _, bitmap, values = _tile_case(9)
        _, _, fast = run_bitmaptile_decode(bitmap, values, naive=False)
        _, _, slow = run_bitmaptile_decode(bitmap, values, naive=True)
        assert fast.cycles < slow.cycles
        assert fast.instructions_issued < slow.instructions_issued


class TestTCTileProgram:
    def test_full_tctile_matches_reference_decoder(self):
        from repro.gpu.smbd_program import run_tctile_decode

        cfg = TileConfig(gt_h=16, gt_w=16)
        rng = np.random.default_rng(11)
        w = rng.standard_normal((16, 16)).astype(np.float16)
        w[rng.random((16, 16)) < 0.6] = 0
        enc = encode(w, cfg)
        ref = decode_tctile(enc.group_bitmaps(0), enc.group_values(0))
        frags, cycles = run_tctile_decode(
            enc.group_bitmaps(0), enc.group_values(0)
        )
        np.testing.assert_array_equal(frags, ref)
        assert cycles > 0

    def test_two_phase_cheaper_over_whole_tile(self):
        from repro.gpu.smbd_program import run_tctile_decode

        cfg = TileConfig(gt_h=16, gt_w=16)
        rng = np.random.default_rng(12)
        w = rng.standard_normal((16, 16)).astype(np.float16)
        w[rng.random((16, 16)) < 0.5] = 0
        enc = encode(w, cfg)
        _, fast = run_tctile_decode(enc.group_bitmaps(0), enc.group_values(0))
        _, slow = run_tctile_decode(
            enc.group_bitmaps(0), enc.group_values(0), naive=True
        )
        assert fast < slow

    def test_rejects_wrong_bitmap_count(self):
        from repro.gpu.smbd_program import run_tctile_decode

        with pytest.raises(ValueError):
            run_tctile_decode(np.zeros(3, np.uint64), np.zeros(0, np.float16))


class TestPopcountEdgeCases:
    """Satellite: popcounts now use int.bit_count(); the u64 top bit must
    survive the int64 register representation (it reads back negative)."""

    def test_popc_u64_top_bit_set(self):
        p = WarpProgram("t")
        p.emit("MOV", "v", (1 << 63) | 1)
        p.emit("POPC", "c", "v")
        r = WarpSimulator().run(p)
        assert (r.lane_values("c") == 2).all()

    def test_popc_all_ones(self):
        p = WarpProgram("t")
        p.emit("MOV", "v", 0xFFFFFFFFFFFFFFFF)
        p.emit("POPC", "c", "v")
        r = WarpSimulator().run(p)
        assert (r.lane_values("c") == 64).all()

    def test_tctile_offset_chain_with_top_bit_bitmaps(self):
        from repro.gpu.smbd_program import run_tctile_decode

        # Register 0's bitmap has bit 63 set: the inter-register offset
        # advance (PopCount of the whole bitmap) must count it.
        bitmaps = np.array(
            [(1 << 63) | 1, 1, 0, 0], dtype=np.uint64
        )
        values = np.arange(1, 4, dtype=np.float16)  # 3 non-zeros total
        frags, _ = run_tctile_decode(bitmaps, values)
        assert frags[0, 0, 0] == values[0]    # reg 0, bit 0 -> lane 0 a0
        assert frags[31, 0, 1] == values[1]   # reg 0, bit 63 -> lane 31 a1
        assert frags[0, 1, 0] == values[2]    # reg 1 starts after popc=2
