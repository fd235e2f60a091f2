"""Failure-injection tests: corrupted structures must fail loudly.

A sparse format whose decoder silently tolerates inconsistent metadata
is a data-corruption machine; these tests corrupt each structural
invariant and require a clear error (or detection by ``validate``).
"""

import numpy as np
import pytest

from repro.core.smbd import decode_group, decode_matrix
from repro.core.tca_bme import TCABMEMatrix, encode
from repro.formats.bsr import BSRMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.sparta import SparTAMatrix
from repro.formats.tiled_csl import TiledCSLMatrix
from repro.kernels.spinfer import SpInferKernel


def random_sparse(m, k, sparsity=0.5, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    return w


class TestTCABMECorruption:
    def _encoded(self, seed=0):
        return encode(random_sparse(128, 128, seed=seed))

    def test_truncated_values(self):
        enc = self._encoded()
        bad = TCABMEMatrix(enc.shape, enc.gtile_offsets, enc.values[:-3],
                           enc.bitmaps, enc.config)
        with pytest.raises(ValueError):
            bad.validate()

    def test_nonzero_first_offset(self):
        enc = self._encoded(1)
        offsets = enc.gtile_offsets.copy()
        offsets[0] = 5
        bad = TCABMEMatrix(enc.shape, offsets, enc.values, enc.bitmaps, enc.config)
        with pytest.raises(ValueError, match="start at 0"):
            bad.validate()

    def test_decreasing_offsets(self):
        enc = self._encoded(2)
        offsets = enc.gtile_offsets.copy()
        if offsets.size > 2 and offsets[1] > 0:
            offsets[1], offsets[2] = offsets[2], offsets[1] - 1
            bad = TCABMEMatrix(enc.shape, offsets, enc.values, enc.bitmaps,
                               enc.config)
            with pytest.raises(ValueError):
                bad.validate()

    def test_flipped_bitmap_bit(self):
        """A flipped bitmap bit breaks the popcount/value-count pact."""
        enc = self._encoded(3)
        bitmaps = enc.bitmaps.copy()
        bitmaps[0] ^= np.uint64(1)
        bad = TCABMEMatrix(enc.shape, enc.gtile_offsets, enc.values, bitmaps,
                           enc.config)
        with pytest.raises(ValueError):
            bad.validate()

    def test_wrong_bitmap_count(self):
        enc = self._encoded(4)
        bad = TCABMEMatrix(enc.shape, enc.gtile_offsets, enc.values,
                           enc.bitmaps[:-1], enc.config)
        with pytest.raises(ValueError):
            bad.validate()

    def test_decode_with_short_value_buffer_raises(self):
        """SMBD reading past the value slice must not fabricate data."""
        enc = self._encoded(5)
        with pytest.raises(IndexError):
            decode_group(enc.group_bitmaps(0), enc.group_values(0)[:1])

    @pytest.mark.parametrize(
        "entry",
        [
            lambda bad: decode_matrix(bad.bitmaps, bad.values, *bad.shape),
            lambda bad: bad.to_dense(),
            lambda bad: SpInferKernel().run_encoded(
                bad, np.ones((bad.k, 2), np.float16)
            ),
        ],
        ids=["decode_matrix", "to_dense", "run_encoded"],
    )
    def test_single_value_is_not_broadcast(self, entry):
        """One value for many set bits must raise, not fill every bit."""
        enc = encode(random_sparse(64, 64, sparsity=0.6, seed=6))
        bad = TCABMEMatrix(enc.shape, enc.gtile_offsets, enc.values[:1],
                           enc.bitmaps, enc.config)
        with pytest.raises(
            ValueError, match=f"bitmap population {enc.nnz} != value count 1"
        ):
            entry(bad)


class TestBaselineFormatCorruption:
    def test_csr_row_ptr_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix((4, 4), row_ptr=[0, 1, 1], col_idx=[0], values=[1.0])

    def test_csr_nnz_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 4), row_ptr=[0, 1, 3], col_idx=[0, 1], values=[1.0, 2.0])

    def test_tiled_csl_offset_mismatch(self):
        with pytest.raises(ValueError):
            TiledCSLMatrix(
                (64, 64),
                tile_offsets=np.array([0, 5], np.uint32),
                locations=np.array([0, 1], np.uint16),
                values=np.array([1.0, 2.0], np.float16),
            )

    def test_tiled_csl_location_value_mismatch(self):
        with pytest.raises(ValueError):
            TiledCSLMatrix(
                (64, 64),
                tile_offsets=np.array([0, 1], np.uint32),
                locations=np.array([0, 1], np.uint16),
                values=np.array([1.0], np.float16),
            )

    def test_sparta_meta_shape_mismatch(self):
        sp = SparTAMatrix.from_dense(random_sparse(8, 8, seed=6))
        with pytest.raises(ValueError):
            SparTAMatrix(sp.shape, sp.structured_values,
                         sp.structured_meta[:, :-1], sp.residual)

    def test_bsr_block_count_mismatch(self):
        b = BSRMatrix.from_dense(random_sparse(32, 32, seed=7))
        with pytest.raises(ValueError):
            BSRMatrix(b.shape, b.block_row_ptr, b.block_col_idx,
                      b.blocks[:-1], b.block_shape)

    def test_bsr_wrong_block_shape(self):
        b = BSRMatrix.from_dense(random_sparse(32, 32, seed=8))
        with pytest.raises(ValueError):
            BSRMatrix(b.shape, b.block_row_ptr, b.block_col_idx,
                      b.blocks.reshape(-1, 8, 32), (16, 16))


class TestCorruptedRuntimeTrace:
    """Tampered runtime traces must be rejected by the trace auditor,
    the same way tampered format containers fail the format linter."""

    @staticmethod
    def _traced_run():
        from repro.llm.serving import ServingConfig, ServingSimulator, poisson_workload

        sim = ServingSimulator(ServingConfig(
            model="opt-13b", framework="spinfer", max_batch=8,
            snapshot_every=2,
        ))
        sched = sim.build_scheduler()
        stats = sched.run(poisson_workload(
            6, arrival_rate=4.0, prompt_len=32, output_len=16, seed=0,
        ))
        return stats.trace

    @staticmethod
    def _errors(trace):
        from repro.analysis.findings import Severity
        from repro.analysis.plan_lint import lint_runtime_trace

        return [
            f for f in lint_runtime_trace(trace)
            if f.severity == Severity.ERROR
        ]

    def test_clean_trace_passes(self):
        assert self._errors(self._traced_run()) == []

    def test_negative_snapshot_time_rejected(self):
        import dataclasses

        trace = self._traced_run()
        trace.snapshots[0] = dataclasses.replace(trace.snapshots[0], t=-1.0)
        errors = self._errors(trace)
        assert any(
            f.rule_id == "R005" and "negative time" in f.message
            for f in errors
        )

    def test_out_of_order_snapshots_rejected(self):
        trace = self._traced_run()
        assert len(trace.snapshots) >= 2
        trace.snapshots.reverse()
        errors = self._errors(trace)
        assert any(
            f.rule_id == "R005" and "non-decreasing" in f.message
            for f in errors
        )

    def test_out_of_order_events_rejected(self):
        trace = self._traced_run()
        trace.events.append(trace.events[0])  # replay t=0 after the end
        errors = self._errors(trace)
        assert any(
            f.rule_id == "R005" and f.subject == "trace:events"
            for f in errors
        )

    def test_negative_block_id_in_snapshot_rejected(self):
        trace = self._traced_run()
        snap = next(s for s in trace.snapshots if s.tables)
        seq = next(iter(snap.tables))
        snap.tables[seq][0] = -3
        errors = self._errors(trace)
        assert any(f.rule_id == "K005" for f in errors)

    def test_negative_token_count_in_snapshot_rejected(self):
        trace = self._traced_run()
        snap = next(s for s in trace.snapshots if s.tokens)
        seq = next(iter(snap.tokens))
        snap.tokens[seq] = -7
        errors = self._errors(trace)
        assert any(f.rule_id == "K005" for f in errors)
