"""The A/B script's verdicts and refusals (``tools/perf_ab.py``).

Synthetic samples only: no test here starts a benchmark run.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perf_ab", ROOT / "tools" / "perf_ab.py"
)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

#: Ten paired runs of a lower-is-better metric, IQR/median 5%.
BASE = [1.00, 0.98, 1.02, 0.97, 1.03, 1.01, 0.99, 1.04, 0.96, 1.00]


def _scaled(factor, runs=BASE):
    return [factor * x for x in runs]


class TestVerdict:
    def test_better_wins_nine_pairs_and_clears_the_iqr(self):
        row = perf_ab.verdict(BASE, _scaled(0.7), bound=0.25)
        assert row["verdict"] == "better"
        assert row["won"] == 10
        assert row["change_pct"] == pytest.approx(-30.0)

    def test_eight_pairs_are_not_a_gain(self):
        head = _scaled(0.9)
        head[0] = head[1] = 5.0  # two lost pairs
        row = perf_ab.verdict(BASE, head, bound=0.25)
        assert row["won"] == 8
        assert row["verdict"] == "within bound"

    def test_worse_beyond_the_bound(self):
        row = perf_ab.verdict(BASE, _scaled(1.4), bound=0.25)
        assert row["verdict"] == "worse"
        assert row["won"] == 0

    def test_within_bound(self):
        row = perf_ab.verdict(BASE, _scaled(1.05), bound=0.25)
        assert row["verdict"] == "within bound"

    def test_unresolved_when_the_base_spreads_past_the_bound(self):
        wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
        row = perf_ab.verdict(wide, list(reversed(wide)), bound=0.25)
        assert row["base_iqr_pct"] > 25.0
        assert row["verdict"] == "unresolved"

    def test_higher_is_better_metrics_flip_the_sign(self):
        assert perf_ab.verdict(
            BASE, _scaled(1.4), bound=0.25, better="higher"
        )["verdict"] == "better"
        assert perf_ab.verdict(
            BASE, _scaled(0.6), bound=0.25, better="higher"
        )["verdict"] == "worse"


def _report(correct=True, value=1.0):
    metrics = {
        name: {"value": value, "unit": "s"}
        for name in ("setup_s", "wall_s", "peak_rss_mb")
    }
    return "progress line\n" + json.dumps({
        "correct": correct, "attempted": 10, "failed": 0 if correct else 3,
        "metrics": metrics,
    }) + "\n"


class TestRefusal:
    def test_non_zero_exit_is_refused(self):
        with pytest.raises(perf_ab.RunRefused, match="head w seed 3: exit"):
            perf_ab.read_run("head w seed 3", 1, "", "Traceback\nBoom")

    def test_incorrect_output_is_refused(self):
        with pytest.raises(perf_ab.RunRefused, match="correct: False"):
            perf_ab.read_run("base w seed 1", 0, _report(correct=False))

    def test_missing_report_is_refused(self):
        with pytest.raises(perf_ab.RunRefused, match="no JSON report"):
            perf_ab.read_run("base w seed 1", 0, "")

    def test_good_run_reads_its_metrics(self):
        assert perf_ab.read_run("base w seed 1", 0, _report(value=2.5)) == {
            "setup_s": 2.5, "wall_s": 2.5, "peak_rss_mb": 2.5,
        }


class TestMain:
    """``main`` end to end, with the export and the runs faked."""

    @pytest.fixture
    def fake(self, monkeypatch):
        def export(rev, dest):
            shutil.copy(ROOT / "BENCHMARK.json", dest)
            return rev

        monkeypatch.setattr(perf_ab, "export", export)
        runs = []

        def use(run):
            def run_side(tree, command, workload, seed, seconds):
                runs.append((Path(tree).name, workload, seed))
                return run(Path(tree).name, seed)

            monkeypatch.setattr(perf_ab, "run_side", run_side)
            return runs

        return use

    def test_alternates_and_exits_1_on_worse(self, fake, tmp_path, capsys):
        runs = fake(lambda side, seed: (
            0, _report(value=(1.5 if side == "head" else 1.0) + seed / 100), "",
        ))
        out = tmp_path / "ab.json"
        rc = perf_ab.main(
            ["A", "B", "--workload", "oneshot-sdc", "--out", str(out)]
        )
        assert rc == 1
        assert [r[0] for r in runs[:4]] == ["base", "head", "head", "base"]
        assert [r[2] for r in runs] == [s for s in perf_ab.SEEDS for _ in "ab"]
        rows = json.loads(out.read_text())["rows"]
        assert {r["verdict"] for r in rows} == {"worse"}
        assert "| oneshot-sdc | `wall_s` |" in capsys.readouterr().out

    def test_a_failed_run_stops_with_exit_2(self, fake, tmp_path, capsys):
        fake(lambda side, seed: (0, _report(correct=seed != 4), ""))
        out = tmp_path / "ab.json"
        rc = perf_ab.main(
            ["A", "B", "--workload", "fleet-chaos", "--out", str(out)]
        )
        assert rc == 2
        assert "fleet-chaos seed 4: correct: False" in capsys.readouterr().err
        assert not out.exists()
