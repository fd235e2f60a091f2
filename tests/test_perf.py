"""Tests for the perf harness: timer, suites, JSON records, --check gate."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.perf.regression import compare_documents, render_regressions
from repro.perf.suite import (
    BENCH_SCHEMA,
    SUITES,
    load_results,
    run_suite,
    suite_filename,
    write_results,
)
from repro.perf.timer import checksum_arrays, checksum_ints, measure

ROOT = Path(__file__).resolve().parents[1]

RECORD_KEYS = {
    "suite", "case", "shape", "sparsity", "median_s", "mad_s",
    "repeats", "checksum", "bit_exact",
}


class TestTimer:
    def test_measure_returns_result_and_stats(self):
        calls = []
        result, m = measure(lambda: calls.append(1) or 42, repeats=3, warmup=2)
        assert result == 42
        assert len(calls) == 5  # warmup + repeats
        assert m.repeats == 3
        assert m.median_s >= 0 and m.mad_s >= 0
        assert m.median_us == m.median_s * 1e6

    def test_measure_validates_arguments(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure(lambda: None, warmup=-1)

    def test_checksum_arrays_is_content_sensitive(self):
        a = np.arange(10, dtype=np.int64)
        assert checksum_arrays(a) == checksum_arrays(a.copy())
        assert checksum_arrays(a) != checksum_arrays(a + 1)
        assert checksum_arrays(a) != checksum_arrays(a.astype(np.int32))
        assert checksum_arrays(a) != checksum_arrays(a.reshape(2, 5))

    def test_checksum_ints(self):
        assert checksum_ints(1, 2, 3) == checksum_ints(1, 2, 3)
        assert checksum_ints(1, 2, 3) != checksum_ints(1, 2, 4)


class TestSuite:
    @pytest.fixture(scope="class")
    def kernel_records(self):
        return run_suite("kernels", quick=True, repeats=1)

    @pytest.fixture(scope="class")
    def runtime_records(self):
        return run_suite("runtime", quick=True, repeats=1)

    def test_schema_and_sorting(self, kernel_records):
        assert kernel_records  # non-empty
        for r in kernel_records:
            assert set(r) == RECORD_KEYS
            assert r["suite"] == "kernels"
            assert r["repeats"] == 1
            assert r["median_s"] >= 0
        names = [r["case"] for r in kernel_records]
        assert names == sorted(names)

    def test_covers_the_hot_paths(self, kernel_records, runtime_records):
        kernel_cases = {r["case"] for r in kernel_records}
        assert {
            "tca_bme_encode", "smbd_decode_matrix", "csr_to_tca_bme",
            "tca_bme_to_csr", "tiled_csl_to_tca_bme", "spinfer_spmm",
            "flash_llm_spmm",
        } <= kernel_cases
        assert {r["case"] for r in runtime_records} == {
            "scheduler_fcfs", "scheduler_chunked_preemption", "scheduler_sjf",
            "scheduler_trace",
        }

    def test_checksums_are_deterministic(self, kernel_records):
        again = run_suite("kernels", quick=True, repeats=1)
        assert {r["case"]: r["checksum"] for r in again} == {
            r["case"]: r["checksum"] for r in kernel_records
        }

    def test_spmm_kernels_cross_validate(self, kernel_records):
        # SpInfer and Flash-LLM compute the same W @ X on the same
        # fixture, so their result checksums must agree.
        by_case = {r["case"]: r["checksum"] for r in kernel_records}
        assert by_case["spinfer_spmm"] == by_case["flash_llm_spmm"]

    def test_bit_exact_checksums_are_the_committed_ones(
        self, kernel_records, runtime_records
    ):
        """Every ``bit_exact`` checksum equals the committed
        ``BENCH_*.json`` record, the one record of these pins."""
        problems = []
        for records in (kernel_records, runtime_records):
            suite = records[0]["suite"]
            committed = load_results(str(ROOT / suite_filename(suite)))
            pinned = {
                c["case"]: c["checksum"]
                for c in committed["cases"] if c["bit_exact"]
            }
            fresh = {r["case"]: r["checksum"] for r in records if r["bit_exact"]}
            for case in sorted(set(pinned) | set(fresh)):
                want, got = pinned.get(case, "missing"), fresh.get(case, "missing")
                if want != got:
                    problems.append(
                        f"{suite}/{case}: committed {want} != fresh {got}"
                    )
        assert not problems, "\n".join(problems)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope")
        with pytest.raises(ValueError):
            suite_filename("nope")

    def test_write_load_round_trip(self, kernel_records, tmp_path):
        path = tmp_path / suite_filename("kernels")
        write_results(kernel_records, str(path), suite="kernels", quick=True)
        doc = load_results(str(path))
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["suite"] == "kernels"
        assert doc["quick"] is True
        assert doc["cases"] == kernel_records

    def test_written_json_is_byte_deterministic(self, kernel_records, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_results(kernel_records, str(p1), suite="kernels", quick=True)
        write_results(
            list(reversed(kernel_records)), str(p2), suite="kernels", quick=True
        )
        assert p1.read_bytes() == p2.read_bytes()  # sorted cases + keys

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9", "cases": []}))
        with pytest.raises(ValueError):
            load_results(str(path))


def _doc(cases):
    return {"schema": BENCH_SCHEMA, "suite": "kernels", "cases": cases}


def _case(name, median=1.0, checksum="abc", bit_exact=True):
    return {
        "suite": "kernels", "case": name, "shape": [64, 64, 8],
        "sparsity": 0.6, "median_s": median, "mad_s": 0.0, "repeats": 3,
        "checksum": checksum, "bit_exact": bit_exact,
    }


class TestRegressionGate:
    def test_identical_documents_pass(self):
        doc = _doc([_case("encode")])
        regs, _notes = compare_documents(doc, copy.deepcopy(doc))
        assert regs == []

    def test_injected_perf_regression_fails(self):
        base = _doc([_case("encode", median=1.0)])
        fresh = _doc([_case("encode", median=1.3)])
        regs, _ = compare_documents(base, fresh, tolerance=0.25)
        assert [r.kind for r in regs] == ["perf"]
        assert "REGRESSION" in render_regressions(regs, [])

    def test_slowdown_within_tolerance_passes(self):
        base = _doc([_case("encode", median=1.0)])
        fresh = _doc([_case("encode", median=1.2)])
        regs, _ = compare_documents(base, fresh, tolerance=0.25)
        assert regs == []

    def test_speedup_passes_with_note(self):
        base = _doc([_case("encode", median=1.0)])
        fresh = _doc([_case("encode", median=0.5)])
        regs, notes = compare_documents(base, fresh, tolerance=0.25)
        assert regs == []
        assert any("improved" in n for n in notes)

    def test_checksum_mismatch_fails_bit_exact_cases_only(self):
        base = _doc([
            _case("encode", checksum="aaa", bit_exact=True),
            _case("spmm", checksum="bbb", bit_exact=False),
        ])
        fresh = _doc([
            _case("encode", checksum="zzz", bit_exact=True),
            _case("spmm", checksum="yyy", bit_exact=False),
        ])
        regs, _ = compare_documents(base, fresh, tolerance=0.25)
        assert [(r.case, r.kind) for r in regs] == [("encode", "checksum")]

    def test_missing_case_fails_new_case_passes(self):
        base = _doc([_case("encode"), _case("dropped")])
        fresh = _doc([_case("encode"), _case("added")])
        regs, notes = compare_documents(base, fresh, tolerance=0.25)
        assert [(r.case, r.kind) for r in regs] == [("dropped", "missing")]
        assert any("new case" in n for n in notes)

    def test_shape_change_is_its_own_regression(self):
        base = _doc([_case("encode", checksum="aaa")])
        fresh = _doc([_case("encode", median=50.0, checksum="zzz")])
        fresh["cases"][0]["shape"] = [512, 512, 8]
        regs, _ = compare_documents(base, fresh, tolerance=0.25)
        assert [(r.case, r.kind) for r in regs] == [("encode", "shape")]
        assert "[64, 64, 8]" in regs[0].detail
        assert "[512, 512, 8]" in regs[0].detail

    def test_quick_and_full_documents_refused(self):
        quick = dict(_doc([_case("encode")]), quick=True)
        full = dict(_doc([_case("encode")]), quick=False)
        with pytest.raises(ValueError, match="quick"):
            compare_documents(quick, full)
        with pytest.raises(ValueError, match="quick"):
            compare_documents(full, quick)
        assert compare_documents(quick, copy.deepcopy(quick))[0] == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_documents(_doc([]), _doc([]), tolerance=-0.1)


class TestBenchCLI:
    def test_quick_json_writes_both_baselines(self, tmp_path, capsys):
        rc = main([
            "bench", "--quick", "--json",
            "--output", str(tmp_path), "--repeats", "1",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["quick"] is True
        for suite, filename in SUITES.items():
            doc = load_results(str(tmp_path / filename))
            assert doc["suite"] == suite
            assert doc["cases"]

    def test_table_mode_renders_cases(self, capsys):
        rc = main(["bench", "--quick", "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "perf suite: kernels" in out
        assert "tca_bme_encode" in out
        assert "scheduler_fcfs" in out

    def test_check_passes_against_own_output(self, tmp_path, capsys):
        main(["bench", "--quick", "--json",
              "--output", str(tmp_path), "--repeats", "1"])
        capsys.readouterr()
        rc = main([
            "bench",
            "--check",
            str(tmp_path / "BENCH_kernels.json"),
            str(tmp_path / "BENCH_runtime.json"),
            "--against", str(tmp_path),
            "--tolerance", "0.25",
        ])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_check_fails_on_injected_regression(self, tmp_path, capsys):
        main(["bench", "--quick", "--json",
              "--output", str(tmp_path), "--repeats", "1"])
        capsys.readouterr()
        baseline = json.loads((tmp_path / "BENCH_kernels.json").read_text())
        for case in baseline["cases"]:
            if case["case"] == "tca_bme_encode":
                case["median_s"] = case["median_s"] / 100  # fresh looks 100x slower
        tampered = tmp_path / "BASELINE_tampered.json"
        tampered.write_text(json.dumps(baseline))
        rc = main([
            "bench", "--check", str(tampered),
            "--against", str(tmp_path / "BENCH_kernels.json"),
            "--tolerance", "0.25",
        ])
        assert rc == 1
        assert "REGRESSION [perf]" in capsys.readouterr().out

    def test_check_fails_on_checksum_regression(self, tmp_path, capsys):
        main(["bench", "--quick", "--json",
              "--output", str(tmp_path), "--repeats", "1"])
        capsys.readouterr()
        baseline = json.loads((tmp_path / "BENCH_kernels.json").read_text())
        for case in baseline["cases"]:
            if case["case"] == "smbd_decode_matrix":
                case["checksum"] = "deadbeefdeadbeef"
        tampered = tmp_path / "BASELINE_tampered.json"
        tampered.write_text(json.dumps(baseline))
        rc = main([
            "bench", "--check", str(tampered),
            "--against", str(tmp_path / "BENCH_kernels.json"),
            "--tolerance", "100",
        ])
        assert rc == 1
        assert "REGRESSION [checksum]" in capsys.readouterr().out

    def test_check_refuses_full_run_against_quick_baseline(
        self, tmp_path, capsys
    ):
        main(["bench", "--quick", "--json",
              "--output", str(tmp_path), "--repeats", "1"])
        capsys.readouterr()
        full = json.loads((tmp_path / "BENCH_runtime.json").read_text())
        full["quick"] = False
        full_path = tmp_path / "full" / "BENCH_runtime.json"
        full_path.parent.mkdir()
        full_path.write_text(json.dumps(full))
        rc = main([
            "bench", "--check", str(tmp_path / "BENCH_runtime.json"),
            "--against", str(full_path),
        ])
        assert rc == 2
        assert "refused" in capsys.readouterr().err

    def test_legacy_experiment_path_still_works(self, capsys):
        rc = main(["bench", "fig03"])
        assert rc == 0
        assert "Compression ratio" in capsys.readouterr().out
