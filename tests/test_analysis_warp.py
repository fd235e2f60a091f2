"""Tests for the warp-IR static analyzer (dataflow lint + abstract interp)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.abstract import interpret, static_cycle_lower_bound
from repro.analysis.dataflow import DefUse
from repro.analysis.warp_lint import cross_check_with_simulator, lint_warp_program
from repro.gpu.smbd_program import build_naive_decode, build_two_phase_decode
from repro.gpu.warp_sim import WarpProgram, WarpSimulator


def rule_ids(findings):
    return {f.rule_id for f in findings}


def errors(findings):
    return [f for f in findings if f.severity.name == "ERROR"]


class TestDataflowRules:
    def test_clean_program_has_no_findings(self):
        p = WarpProgram("t")
        p.emit("S_REG", "lane")
        p.emit("ADD", "x", "lane", 1)
        assert lint_warp_program(p) == []

    def test_w001_unpredicated_lds(self):
        p = WarpProgram("t")
        p.emit("MOV", "addr", 0)
        p.emit("LDS", "v", "addr")
        assert "W001" in rule_ids(lint_warp_program(p))

    def test_w001_dropped_setp(self):
        # Seeded mutation: strip the SETPs out of the shipped decoder.
        full = build_two_phase_decode(0x5555555555555555, 0)
        mutated = WarpProgram(
            "no-setp",
            [i for i in full.instructions if i.opcode != "SETP"],
        )
        findings = lint_warp_program(mutated)
        w001 = [f for f in findings if f.rule_id == "W001"]
        assert len(w001) == 2  # both phase loads lost their guard

    def test_w002_read_of_unwritten(self):
        p = WarpProgram("t").emit("ADD", "x", "ghost", 1)
        findings = lint_warp_program(p)
        assert rule_ids(findings) == {"W002"}
        assert "ghost" in findings[0].message

    def test_w002_sel_on_unwritten_predicate(self):
        p = WarpProgram("t")
        p.emit("MOV", "a", 1)
        p.emit("SEL", "out", "p", "a", 0)
        assert "W002" in rule_ids(lint_warp_program(p))

    def test_w003_dead_write(self):
        p = WarpProgram("t")
        p.emit("MOV", "x", 1)
        p.emit("MOV", "x", 2)
        p.emit("ADD", "y", "x", 0)
        findings = lint_warp_program(p)
        assert rule_ids(findings) == {"W003"}
        assert findings[0].location == 0

    def test_unread_final_write_is_an_output_not_dead(self):
        p = WarpProgram("t").emit("MOV", "x", 1)
        assert lint_warp_program(p) == []

    def test_w004_namespace_collision(self):
        p = WarpProgram("t")
        p.emit("MOV", "x", 3)
        p.emit("SETP", "x", "x")
        assert "W004" in rule_ids(lint_warp_program(p))

    def test_w005_provable_out_of_bounds(self):
        p = WarpProgram("t")
        p.emit("MOV", "addr", 100)
        p.emit("LDS", "v", "addr")
        findings = lint_warp_program(p, shared_size=50)
        assert "W005" in rule_ids(findings)

    def test_w005_not_raised_without_shared_size(self):
        p = WarpProgram("t")
        p.emit("MOV", "addr", 100)
        p.emit("LDS", "v", "addr")
        assert "W005" not in rule_ids(lint_warp_program(p))

    def test_w006_predicted_bank_conflict(self):
        p = WarpProgram("t")
        p.emit("S_REG", "lane")
        p.emit("SHL", "addr", "lane", 7)  # 128 B stride: 32-way conflict
        p.emit("LDS", "v", "addr")
        findings = lint_warp_program(p, shared_size=32 * 128 + 4)
        w006 = [f for f in findings if f.rule_id == "W006"]
        assert len(w006) == 1
        assert "31" in w006[0].message


class TestPaperInvariant:
    """Algorithm 2: exactly one MaskedPopCount per bitmap register."""

    def test_two_phase_decoder_passes(self):
        p = build_two_phase_decode(0xDEADBEEF12345678, 4)
        assert errors(lint_warp_program(p, shared_size=2 * 80)) == []

    def test_naive_decoder_fails_w007(self):
        p = build_naive_decode(0xDEADBEEF12345678, 4)
        findings = lint_warp_program(p, shared_size=2 * 80)
        assert rule_ids(errors(findings)) == {"W007"}

    def test_w007_subject_is_the_bitmap(self):
        du = DefUse(build_naive_decode(0x5555555555555555, 0))
        subjects = du.masked_popcount_subjects()
        assert len(subjects) == 2
        roots = {root for _, root in subjects}
        assert len(roots) == 1  # both POPCs trace to the same bitmap MOV
        (root,) = roots
        assert du.program.instructions[root].opcode == "MOV"

    def test_distinct_bitmaps_do_not_collide(self):
        # Masked popcounts of two different bitmaps are legitimate.
        p = WarpProgram("t")
        p.emit("S_REG", "lane")
        p.emit("MOV", "one", 1)
        p.emit("SHL", "off", "lane", 1)
        for reg, bitmap in (("b0", 0x0F0F), ("b1", 0xF0F0)):
            p.emit("MOV", reg, bitmap)
            p.emit("SHL", "_m", "one", "off")
            p.emit("ADD", "_mask", "_m", -1)
            p.emit("AND", "_pre", reg, "_mask")
            p.emit("POPC", f"cnt_{reg}", "_pre")
        p.emit("ADD", "out", "cnt_b0", "cnt_b1")
        assert "W007" not in rule_ids(lint_warp_program(p))


class TestStaticModel:
    def shipped_programs(self):
        for bitmap in (0, 0xFFFFFFFFFFFFFFFF, 0xA5A5A5A5A5A5A5A5):
            for off in (0, 8):
                yield build_two_phase_decode(bitmap, off), np.zeros(
                    2 * (off + 65), np.uint8
                )

    def test_static_bound_le_simulated_on_shipped(self):
        for program, shared in self.shipped_programs():
            sim = WarpSimulator(shared).run(program)
            assert static_cycle_lower_bound(program) <= sim.cycles

    def test_static_exact_when_addresses_concrete(self):
        # The SMBD decoders take all control inputs as immediates, so
        # the partial evaluator recovers the schedule exactly.
        for program, shared in self.shipped_programs():
            sim = WarpSimulator(shared).run(program)
            a = interpret(program, shared_size=int(shared.size))
            assert a.static_cycles == sim.cycles
            assert a.predicted_replays == sim.lds_replays

    def test_cross_check_clean_on_shipped(self):
        for program, shared in self.shipped_programs():
            assert cross_check_with_simulator(program, shared) == []

    def test_abstract_registers_match_simulation(self):
        program = build_two_phase_decode(0x123456789ABCDEF0, 0)
        shared = np.zeros(2 * 65, np.uint8)
        a = interpret(program)
        sim = WarpSimulator(shared).run(program)
        for reg in ("cnt", "bit0", "idx0", "idx1", "off1"):
            assert a.registers[reg] is not None
            assert (a.registers[reg] == sim.registers[reg]).all()
        # Loaded data is TOP: the analyzer never pretends to know it.
        assert a.registers["a0"] is None

    @settings(max_examples=60, deadline=None)
    @given(
        bitmap=st.integers(min_value=0, max_value=2 ** 64 - 1),
        tile_offset=st.integers(min_value=0, max_value=16),
    )
    def test_property_decode_prediction_matches(self, bitmap, tile_offset):
        program = build_two_phase_decode(bitmap, tile_offset)
        shared = np.zeros(2 * (tile_offset + 65), np.uint8)
        sim = WarpSimulator(shared).run(program)
        a = interpret(program, shared_size=int(shared.size))
        assert a.predicted_replays == sim.lds_replays
        assert a.static_cycles <= sim.cycles
        assert not any(rec.oob_lanes for rec in a.lds)

    @settings(max_examples=60, deadline=None)
    @given(
        shift=st.integers(min_value=0, max_value=7),
        base=st.integers(min_value=0, max_value=64),
        mask=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_property_random_addresses_match(self, shift, base, mask):
        # addr(lane) = ((lane & mask) << shift) + base — a family covering
        # broadcasts, strides and irregular multi-way conflicts.
        program = WarpProgram("addr")
        program.emit("S_REG", "lane")
        program.emit("AND", "sel", "lane", mask)
        program.emit("SHL", "s", "sel", shift)
        program.emit("ADD", "addr", "s", base)
        program.emit("LDS", "v", "addr")
        size = (31 << shift) + base + 2
        shared = np.zeros(size, np.uint8)
        sim = WarpSimulator(shared).run(program)
        a = interpret(program, shared_size=size)
        assert a.predicted_replays == sim.lds_replays
        assert a.static_cycles == sim.cycles


class TestSimulatorGuards:
    """Satellite: SETP dest colliding with a data register must raise."""

    def test_setp_collision_raises(self):
        p = WarpProgram("t")
        p.emit("MOV", "x", 3)
        p.emit("SETP", "x", "x")
        with pytest.raises(ValueError, match="collides"):
            WarpSimulator().run(p)

    def test_data_write_over_predicate_raises(self):
        p = WarpProgram("t")
        p.emit("MOV", "a", 1)
        p.emit("SETP", "p", "a")
        p.emit("MOV", "p", 5)
        with pytest.raises(ValueError, match="collides"):
            WarpSimulator().run(p)

    def test_disjoint_namespaces_still_run(self):
        p = WarpProgram("t")
        p.emit("MOV", "a", 1)
        p.emit("SETP", "p", "a")
        p.emit("SEL", "out", "p", 7, 9)
        r = WarpSimulator().run(p)
        assert (r.lane_values("out") == 7).all()
