"""Tests for the S-rule source determinism linter."""

import pytest

from repro.analysis.findings import Severity, reconcile_expected
from repro.analysis.fixtures_source import EXPECTED
from repro.analysis.source_lint import (
    check_source,
    check_source_fixtures,
    check_source_tree,
    lint_source_text,
)


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


def active(findings):
    """Findings that still gate (not suppressed / demoted to info)."""
    return [f for f in findings if f.severity != Severity.INFO]


class TestRules:
    def test_s001_ambient_numpy_rng(self):
        text = "import numpy as np\nx = np.random.uniform(0, 1)\n"
        assert rule_ids(lint_source_text(text)) == ["S001"]

    def test_s001_unseeded_default_rng(self):
        text = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(lint_source_text(text)) == ["S001"]

    def test_s001_pinned_generator_is_clean(self):
        text = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.uniform(0, 1)\n"
        )
        assert lint_source_text(text) == []

    def test_s001_stdlib_random(self):
        text = "import random\nx = random.random()\n"
        assert rule_ids(lint_source_text(text)) == ["S001"]

    def test_s001_seeded_stdlib_random_instance_is_clean(self):
        text = "import random\nrng = random.Random(3)\n"
        assert lint_source_text(text) == []

    def test_s002_wall_clock(self):
        text = "import time\nt = time.perf_counter()\n"
        assert rule_ids(lint_source_text(text)) == ["S002"]

    def test_s002_datetime_now(self):
        text = "import datetime\nd = datetime.datetime.now()\n"
        assert rule_ids(lint_source_text(text)) == ["S002"]

    def test_s003_mutating_loop_over_values(self):
        text = (
            "def f(d):\n"
            "    out = []\n"
            "    for v in d.values():\n"
            "        out.append(v)\n"
            "    return out\n"
        )
        assert rule_ids(lint_source_text(text)) == ["S003"]

    def test_s003_sum_over_values(self):
        text = "def f(d):\n    return sum(v for v in d.values())\n"
        assert rule_ids(lint_source_text(text)) == ["S003"]

    def test_s003_sorted_iteration_is_clean(self):
        text = (
            "def f(d):\n"
            "    out = []\n"
            "    for k in sorted(d):\n"
            "        out.append(d[k])\n"
            "    return out\n"
        )
        assert lint_source_text(text) == []

    def test_s004_id_keyed_sort(self):
        text = "def f(xs):\n    return sorted(xs, key=id)\n"
        assert rule_ids(lint_source_text(text)) == ["S004"]

    def test_s005_mutable_default(self):
        text = "def f(xs=[]):\n    return xs\n"
        assert rule_ids(lint_source_text(text)) == ["S005"]

    def test_s005_private_function_exempt(self):
        text = "def _f(xs=[]):\n    return xs\n"
        assert lint_source_text(text) == []

    def test_s006_float_fold_over_unordered(self):
        text = "def f(d):\n    return sum(v / 2.0 for v in d.values())\n"
        assert rule_ids(lint_source_text(text)) == ["S006"]

    def test_unparseable_source_is_an_error(self):
        findings = lint_source_text("def f(:\n")
        assert len(findings) == 1
        assert findings[0].severity == Severity.ERROR


class TestPragmas:
    HAZARD = "import time\n{pragma_above}t = time.perf_counter(){pragma_inline}\n"

    def test_pragma_on_same_line_suppresses(self):
        text = self.HAZARD.format(
            pragma_above="",
            pragma_inline="  # repro: allow S002 measurement harness",
        )
        findings = lint_source_text(text)
        assert active(findings) == []
        assert any(f.message.startswith("suppressed (") for f in findings)

    def test_pragma_on_line_above_suppresses(self):
        text = self.HAZARD.format(
            pragma_above="# repro: allow S002 measurement harness\n",
            pragma_inline="",
        )
        assert active(lint_source_text(text)) == []

    def test_reasonless_pragma_does_not_suppress(self):
        text = self.HAZARD.format(
            pragma_above="", pragma_inline="  # repro: allow S002"
        )
        findings = lint_source_text(text)
        ids = rule_ids(active(findings))
        assert ids == ["S002"]
        # ... and the bare pragma is itself called out.
        assert any("without a reason" in f.message for f in findings)

    def test_wrong_rule_pragma_does_not_suppress(self):
        text = self.HAZARD.format(
            pragma_above="", pragma_inline="  # repro: allow S001 nope"
        )
        assert "S002" in rule_ids(active(lint_source_text(text)))

    def test_unused_pragma_is_flagged(self):
        text = "# repro: allow S002 stale excuse\nx = 1\n"
        findings = lint_source_text(text)
        assert len(findings) == 1
        assert findings[0].severity == Severity.WARNING
        assert "unused suppression pragma" in findings[0].message


class TestFixtures:
    @pytest.mark.parametrize(
        "name", sorted(n for n, exp in EXPECTED.items() if exp)
    )
    def test_each_broken_fixture_trips_its_rules(self, name):
        from pathlib import Path

        import repro.analysis.fixtures_source as pkg

        path = Path(pkg.__file__).parent / f"{name}.py"
        assert set(EXPECTED[name]) <= set(
            rule_ids(lint_source_text(path.read_text()))
        )

    def test_clean_reference_is_silent(self):
        from pathlib import Path

        import repro.analysis.fixtures_source as pkg

        path = Path(pkg.__file__).parent / "clean_reference.py"
        assert lint_source_text(path.read_text()) == []

    def test_fixture_reconciliation_is_clean(self):
        report = check_source_fixtures()
        assert report.ok
        assert active(report.findings) == []
        assert report.checked == len(EXPECTED)

    def test_never_firing_expected_rule_promotes_to_error(self):
        promoted = reconcile_expected([], ("S001",), "fixture:toy")
        assert len(promoted) == 1
        assert promoted[0].severity == Severity.ERROR
        assert "regressed" in promoted[0].message


class TestTreeSweep:
    def test_repo_source_is_determinism_clean(self):
        """The gate CI enforces: no un-audited hazard in src/repro."""
        report = check_source_tree()
        assert report.checked > 50  # the whole package, not a subset
        bad = active(report.findings)
        assert bad == [], "\n".join(str(f) for f in bad)

    def test_check_source_merges_fixture_reconciliation(self):
        report = check_source(run_fixtures=True)
        assert report.ok
        assert report.families == ["S"]
