"""Tests for the expected bank replays of a random shared-memory scatter."""

from repro.gpu.memory import expected_random_scatter_replays


class TestScatterReplays:
    def test_deterministic(self):
        a = expected_random_scatter_replays(seed=1)
        b = expected_random_scatter_replays(seed=1)
        assert a == b

    def test_expected_range(self):
        """Random 32-over-32 scatter lands near the known balls-in-bins
        expectation (~2.3-2.7 extra accesses)."""
        replays = expected_random_scatter_replays(samples=4096)
        assert 1.8 < replays < 3.2

    def test_more_banks_fewer_conflicts(self):
        wide = expected_random_scatter_replays(banks=128, samples=1024)
        narrow = expected_random_scatter_replays(banks=8, samples=1024)
        assert wide < narrow
