"""Tests for the end-to-end integrity layer (repro.integrity).

Covers the ABFT checksum path on the functional kernels, the per-tile
digest seal on both weight formats, KV content tags, integrity
policies, the C-family lint, and the three-arm SDC harness — including
the acceptance regression: a corrupted-then-detected request must never
land in the completed bucket under a verifying policy.
"""

import json

import numpy as np
import pytest

from repro.analysis.integrity_lint import (
    check_builtin_integrity_artifacts,
    lint_integrity_outcome,
)
from repro.core.tca_bme import encode
from repro.formats.tiled_csl import TiledCSLMatrix
from repro.integrity.abft import (
    IntegrityError,
    verification_cost_frac,
    verification_flops,
    verify_output,
    weight_checksum,
)
from repro.integrity.harness import (
    IntegrityConfig,
    integrity_report_json,
    run_integrity,
)
from repro.integrity.policy import (
    INTEGRITY_POLICIES,
    IntegrityPolicy,
    get_integrity_policy,
)
from repro.kernels import make_kernel
from repro.kernels.base import SpMMProblem
from repro.kernels.dispatch import KernelDispatcher
from repro.llm.kv_cache import KVBlockAllocator


def random_problem(m, k, n, sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    x = rng.standard_normal((k, n)).astype(np.float16)
    return w, x


class TestABFT:
    def test_clean_product_passes(self):
        w, x = random_problem(128, 96, 16, seed=1)
        c = weight_checksum(w)
        y = w.astype(np.float32) @ x.astype(np.float32)
        gap = verify_output(y, x, c)
        assert gap >= 0.0

    def test_corrupted_output_caught(self):
        w, x = random_problem(128, 96, 16, seed=2)
        c = weight_checksum(w)
        y = w.astype(np.float32) @ x.astype(np.float32)
        y[13, 5] += 0.5
        with pytest.raises(IntegrityError):
            verify_output(y, x, c)

    def test_cost_model(self):
        m, k, n = 4096, 4096, 16
        assert verification_flops(m, k, n) == 2 * k * n + m * n
        frac = verification_cost_frac(m, k, n)
        assert 0.0 < frac < 0.01  # cheap relative to 2mkn


class TestFormatSeals:
    def test_tca_bme_seal_and_catch(self):
        w, x = random_problem(64, 64, 8, seed=3)
        enc = encode(w).seal()
        assert enc.sealed
        assert enc.corrupted_groups() == []
        enc.verify_digests()  # no raise
        enc.corrupt_group(0)
        assert enc.corrupted_groups() == [0]
        with pytest.raises(ValueError):
            enc.verify_digests()

    def test_tiled_csl_seal_and_catch(self):
        w, x = random_problem(64, 64, 8, seed=4)
        enc = TiledCSLMatrix.from_dense(w).seal()
        assert enc.sealed
        assert enc.corrupted_tiles() == []
        enc.corrupt_tile(0)
        assert enc.corrupted_tiles() == [0]
        with pytest.raises(ValueError):
            enc.verify_digests()

    def test_unsealed_verify_rejected(self):
        w, _ = random_problem(32, 32, 4, seed=5)
        with pytest.raises(ValueError):
            encode(w).corrupted_groups()


class TestKernelVerify:
    def test_spinfer_verify_clean(self):
        w, x = random_problem(128, 96, 16, seed=6)
        kernel = make_kernel("spinfer")
        enc = encode(w, kernel.tile_config).seal()
        out = kernel.run_encoded(enc, x, verify=True)
        ref = w.astype(np.float32) @ x.astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    def test_spinfer_unsealed_rejected(self):
        w, x = random_problem(64, 64, 8, seed=7)
        kernel = make_kernel("spinfer")
        with pytest.raises(IntegrityError):
            kernel.run_encoded(encode(w, kernel.tile_config), x, verify=True)

    def test_spinfer_catches_weight_corruption(self):
        w, x = random_problem(64, 64, 8, seed=8)
        kernel = make_kernel("spinfer")
        enc = encode(w, kernel.tile_config).seal()
        enc.corrupt_group(0)
        with pytest.raises(IntegrityError):
            kernel.run_encoded(enc, x, verify=True)
        # without verify the corrupted product is served silently
        out = kernel.run_encoded(enc, x, verify=False)
        ref = w.astype(np.float32) @ x.astype(np.float32)
        assert not np.allclose(out, ref, rtol=1e-3, atol=1e-3)

    def test_spinfer_decodes_current_weights_each_call(self):
        """Nothing decoded outlives a call: after a clean call, an in-place
        value flip and then reassigned bitmaps each show up in the next
        product, which equals a fresh encode of the edited matrix."""
        w, x = random_problem(64, 64, 8, seed=10)
        w[0, 0] = 0
        kernel = make_kernel("spinfer")
        enc = encode(w, kernel.tile_config).seal()
        kernel.run_encoded(enc, x, verify=False)

        def fresh(dense):
            return kernel.run_encoded(encode(dense, kernel.tile_config), x)

        # GroupTile 0's first value is its first BitmapTile's first non-zero.
        enc.corrupt_group(0)
        flipped = w.copy()
        r, c = np.argwhere(w[:8, :8])[0]
        flipped[r, c] = (flipped[r, c : c + 1].view(np.uint16) ^ (1 << 9)).view(
            np.float16
        )[0]
        np.testing.assert_array_equal(kernel.run_encoded(enc, x), fresh(flipped))

        # Move that value to (0, 0): new bitmaps, same values in storage order.
        moved = flipped.copy()
        moved[0, 0], moved[r, c] = flipped[r, c], 0
        edit = encode(moved, kernel.tile_config)
        np.testing.assert_array_equal(edit.values, enc.values)
        enc.bitmaps = edit.bitmaps
        np.testing.assert_array_equal(kernel.run_encoded(enc, x), fresh(moved))

    def test_flash_llm_catches_weight_corruption(self):
        w, x = random_problem(64, 64, 8, seed=9)
        kernel = make_kernel("flash_llm")
        enc = TiledCSLMatrix.from_dense(w).seal()
        out = kernel.run_encoded(enc, x, verify=True)
        ref = w.astype(np.float32) @ x.astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)
        enc.corrupt_tile(0)
        with pytest.raises(IntegrityError):
            kernel.run_encoded(enc, x, verify=True)


class TestDispatchVerifyCost:
    def test_verify_mode_charges_check_time(self):
        problem = SpMMProblem(m=4096, k=4096, n=16, sparsity=0.6)
        plain = KernelDispatcher().select(problem)
        checked = KernelDispatcher(verify=True).select(problem)
        assert checked.profile.time_s > plain.profile.time_s
        ratio = checked.profile.time_s / plain.profile.time_s
        assert ratio == pytest.approx(
            1.0 + verification_cost_frac(problem.m, problem.k, problem.n)
        )


class TestKVTags:
    def test_fork_carries_payload_version(self):
        alloc = KVBlockAllocator(total_blocks=32, block_size=16)
        alloc.allocate(seq_id=1, tokens=20)
        alloc.corrupt_sequence(1)
        alloc.fork(parent_id=1, child_id=2)
        assert alloc.sequence(2).payload_version == 1


class TestPolicies:
    def test_registry_lookup(self):
        assert get_integrity_policy("verify").verify_kernels
        assert get_integrity_policy("quarantine").quarantine_after == 3
        with pytest.raises(ValueError):
            get_integrity_policy("nope")

    def test_off_policy_verifies_nothing(self):
        # No shipped policy is off (``integrity=None`` is), but a policy
        # left at its defaults must not claim a check.
        assert not IntegrityPolicy(name="off").verifies_anything

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegrityPolicy(name="bad", quarantine_after=0)

    def test_quarantine_without_eyes_refused(self):
        # No verification pass means no detection, so the trigger could
        # never fire.
        with pytest.raises(ValueError, match="no verification pass"):
            IntegrityPolicy(name="p", quarantine_after=3)
        assert IntegrityPolicy(
            name="eyes", verify_kv=True, quarantine_after=1
        ).quarantine_after == 1


class TestIntegrityLint:
    def test_outcome_audit_catches_served_corruption(self):
        class Stats:
            sdc_injected = 2
            sdc_detected = 2
            corrupted_completed = 1
            quarantines = 0
            verification_s = 0.1
            trace = None

        fired = {
            f.rule_id
            for f in lint_integrity_outcome(
                Stats(), INTEGRITY_POLICIES["verify"]
            )
        }
        assert "C002" in fired

    def test_builtin_sweep_static_portion_clean(self):
        report = check_builtin_integrity_artifacts(run_live=False)
        assert report.ok
        assert "C" in report.families
        assert report.checked == 2  # the two outcome probes


class TestHarness:
    @pytest.fixture(scope="class")
    def results(self):
        return run_integrity(IntegrityConfig().quick())

    def test_verify_on_catches_everything(self, results):
        # acceptance regression: a corrupted-then-detected request must
        # never land in the completed bucket, and detection is total
        for arm in ("verify-on", "quarantine"):
            for plan, stats in results[arm].items():
                assert stats.corrupted_completed == 0, (arm, plan)
                assert stats.sdc_detected == stats.sdc_injected, (arm, plan)

    def test_verify_off_serves_corruption(self, results):
        served = sum(
            s.corrupted_completed for s in results["verify-off"].values()
        )
        assert served > 0
        assert all(
            s.sdc_detected == 0 for s in results["verify-off"].values()
        )

    def test_quarantine_fires_and_still_completes(self, results):
        quarantines = sum(
            s.quarantines for s in results["quarantine"].values()
        )
        assert quarantines >= 1

    def test_verification_cost_is_modelled(self, results):
        cost = sum(s.verification_s for s in results["verify-on"].values())
        assert cost > 0.0
        assert all(
            s.verification_s == 0.0
            for s in results["verify-off"].values()
        )

    def test_report_headline_and_byte_identity(self):
        cfg = IntegrityConfig().quick()
        a = integrity_report_json(cfg)
        b = integrity_report_json(cfg)
        assert a == b  # byte-identical replay
        report = json.loads(a)
        assert report["schema"] == "repro-integrity/v1"
        head = report["headline"]
        assert head["detection_rate_verify_on"] >= 0.99
        assert head["false_negatives_verify_on"] == 0
        assert head["served_corrupted_verify_off"] > 0
        assert 0.0 < head["goodput_cost_frac"] < 0.10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegrityConfig(plans=("gpu-crash",))  # not an SDC plan


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
