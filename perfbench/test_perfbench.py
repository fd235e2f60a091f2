"""The benchmark's own tests: metric declarations, emitted metrics and checks.

Run from the repository root: ``python3 -m pytest perfbench -q``.
The workloads run here at a small ``scale``, so they finish in seconds.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SCALE = 0.05
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def test_workloads_declared_everywhere():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for metric in SPEC["workload_metrics"].values():
        assert set(metric["workloads"]) <= set(names)
    for entry in SPEC["layer_map"]:
        assert set(entry["workloads"]) <= set(names)


def test_layer_map_covers_every_per_layer_metric():
    declared = {m["name"] for m in BENCH["per_layer"]}
    moves = set(SPEC["workload_metrics"]) | {m["name"] for m in BENCH["end_to_end"]}
    covered = set()
    for entry in SPEC["layer_map"]:
        prefix = entry["metrics"].rstrip("*")
        matched = {n for n in declared if n == prefix or n.startswith(prefix)}
        assert matched, entry["metrics"]
        assert set(entry["moves"]) <= moves, entry
        covered |= matched
    assert covered == declared


def test_layer_metrics_match_declaration():
    computed = layers.layer_metrics(Tracer(), {}, wall_s=1.0, traced_wall_s=1.0)
    assert list(computed) == [m["name"] for m in BENCH["per_layer"]]


def test_instrument_restores_originals():
    tracer = Tracer()
    layers.instrument(tracer)
    patches = list(tracer._patches)
    assert patches
    tracer.restore()
    for owner, attr, original in patches:
        assert owner.__dict__.get(attr, tracer_module._MISSING) is original


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_metric(name, trace, capsys):
    assert run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        scale=SCALE,
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    # Every workload-specific end-to-end metric is printed by name and unit.
    printed = {tuple(line.split()[::2]) for line in out[1:-1]}
    for metric, info in SPEC["workload_metrics"].items():
        if name in info["workloads"]:
            assert (metric, info["unit"]) in printed, metric


@pytest.mark.parametrize("name", ["multiturn-prefix", "oneshot-sdc", "fleet-chaos"])
def test_modelled_metrics_repeat_exactly(name):
    outcomes = []
    for _ in range(2):
        wl = workloads.WORKLOADS[name](7, SCALE)
        wl.prepare()
        state = wl.setup()
        outcomes.append(wl.outcome(state, wl.run(state)))
    assert outcomes[0].e2e == outcomes[1].e2e
    assert outcomes[0].digest == outcomes[1].digest
    assert outcomes[0].counts == outcomes[1].counts


def test_serving_check_catches_a_lost_request():
    wl = workloads.OneshotSDC(1, SCALE)
    wl.prepare()
    state = wl.setup()
    stats = wl.run(state)
    stats.completed.pop()
    outcome = wl.outcome(state, stats)
    assert outcome.failed >= 1 and outcome.problems


def test_functional_check_catches_wrong_tokens():
    wl = workloads.FunctionalGenerate(1, SCALE)
    wl.prepare()
    state = wl.setup()
    tokens = wl.run(state)
    assert wl.outcome(state, tokens).failed == 0
    tokens[0][-1] = (tokens[0][-1] + 1) % wl.config.vocab_size
    assert wl.outcome(state, tokens).failed == 1


def test_refuses_to_run_without_program_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "oneshot-sdc", "--seed", "1", "--seconds", "1"]) != 0
