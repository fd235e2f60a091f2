"""Structural tests over the experiment registry.

Every experiment must produce well-formed tables (row width == header
width), a unique id, and non-empty metrics — the contract the report
generator relies on.  They read the session's registry run.
"""

from repro.bench.report import EXPERIMENTS


def test_registry_ids_unique():
    assert len(EXPERIMENTS) == len(set(EXPERIMENTS))


def test_all_experiments_well_formed(experiments):
    for exp_id, exp in experiments.items():
        assert exp.rows, exp_id
        assert exp.metrics, exp_id
        width = len(exp.headers)
        for row in exp.rows:
            assert len(row) == width, (exp_id, row)


def test_exp_ids_match_registry_keys(experiments):
    """An experiment's own id is predictable from its registry key."""
    for exp_id, exp in experiments.items():
        assert exp.exp_id.startswith(exp_id.split("_")[0]) or exp.exp_id == exp_id


def test_render_round_trips(experiments):
    for exp in experiments.values():
        text = exp.render()
        assert exp.title in text
        for key in exp.metrics:
            assert key in text


def test_every_experiment_has_notes(experiments):
    """Every experiment documents what it shows."""
    for exp_id, exp in experiments.items():
        assert exp.notes and len(exp.notes) > 30, exp_id
