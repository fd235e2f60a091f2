"""Tests for the pipeline-schedule race detector."""

from dataclasses import replace

import pytest

from repro.analysis.pipeline_lint import lint_pipeline_trace
from repro.gpu.pipeline import PipelineConfig, TaskEvent, simulate_pipeline


def cfg(**kw):
    defaults = dict(
        iterations=8, t_load_w=1.0, t_load_x=1.0, t_decode=3.0, t_compute=1.0
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestHonestSchedules:
    @pytest.mark.parametrize("double_buffering", [True, False])
    @pytest.mark.parametrize("separate_groups", [True, False])
    def test_simulated_traces_are_race_free(
        self, double_buffering, separate_groups
    ):
        trace = simulate_pipeline(cfg(
            double_buffering=double_buffering,
            separate_groups=separate_groups,
        ))
        assert lint_pipeline_trace(trace) == []

    def test_zero_duration_stages_are_race_free(self):
        trace = simulate_pipeline(cfg(t_decode=0.0, t_load_x=0.0))
        assert lint_pipeline_trace(trace) == []


class TestMutations:
    def test_p003_single_buffer_passed_off_as_depth2(self):
        # Seeded mutation: a depth-2 schedule claimed to run on a single
        # physical buffer — every early load overwrites a live slot.
        trace = simulate_pipeline(cfg(double_buffering=True))
        trace.config = replace(trace.config, double_buffering=False)
        findings = lint_pipeline_trace(trace)
        assert rule_ids(findings) == {"P003"}
        assert any("overwrites its buffer slot" in f.message for f in findings)

    def test_p002_compute_hoisted_before_decode(self):
        trace = simulate_pipeline(cfg())
        for i, e in enumerate(trace.events):
            if e.name == "compute" and e.iteration == 4:
                trace.events[i] = replace(
                    e, start=e.start - 2.5, end=e.end - 2.5
                )
        assert "P002" in rule_ids(lint_pipeline_trace(trace))

    def test_p002_fused_groups_decode_must_wait_for_x(self):
        # A separate-group schedule audited under the fused-group claim:
        # decode legitimately starts before load_x lands, which a single
        # cp.async group cannot do.
        trace = simulate_pipeline(cfg(
            t_load_x=5.0, separate_groups=True, double_buffering=True
        ))
        trace.config = replace(trace.config, separate_groups=False)
        assert "P002" in rule_ids(lint_pipeline_trace(trace))

    def test_p001_resource_double_booked(self):
        trace = simulate_pipeline(cfg())
        mem = [(i, e) for i, e in enumerate(trace.events)
               if e.resource == "mem"]
        i, second = mem[1]
        first = mem[0][1]
        trace.events[i] = replace(
            second,
            start=first.start + 0.1,
            end=first.start + 0.1 + second.duration,
        )
        assert "P001" in rule_ids(lint_pipeline_trace(trace))

    def test_p004_missing_stage(self):
        trace = simulate_pipeline(cfg())
        trace.events = [
            e for e in trace.events
            if not (e.name == "decode" and e.iteration == 3)
        ]
        findings = lint_pipeline_trace(trace)
        assert rule_ids(findings) == {"P004"}
        assert findings[0].location == 3

    def test_p005_negative_duration(self):
        trace = simulate_pipeline(cfg())
        e = trace.events[0]
        trace.events[0] = TaskEvent(
            name=e.name, iteration=e.iteration, resource=e.resource,
            start=e.end, end=e.start - 1.0,
        )
        assert "P005" in rule_ids(lint_pipeline_trace(trace))

    def test_p005_unknown_resource(self):
        trace = simulate_pipeline(cfg())
        e = trace.events[0]
        trace.events[0] = TaskEvent(
            name=e.name, iteration=e.iteration, resource="dma",
            start=e.start, end=e.end,
        )
        assert "P005" in rule_ids(lint_pipeline_trace(trace))
