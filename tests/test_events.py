"""Tests for the structured event-hook layer and the trace exporter."""

import json
from collections import Counter

import pytest

from repro.harness.runner import golden_of
from repro.uarch.config import default_config
from repro.uarch.events import (EVENT_KINDS, EventHooks, EventTrace,
                                ProcEvent)
from repro.uarch.network import MsgKind
from repro.uarch.processor import Processor
from repro.workloads.registry import KERNELS


def _run(kernel="histogram", hooks=None, **overrides):
    inst = KERNELS[kernel].build_test()
    config = default_config(dependence_policy="aggressive", **overrides)
    proc = Processor(inst.program, config, inst.initial_regs,
                     golden=golden_of(inst))
    if hooks is not None:
        proc.attach_hooks(hooks)
    result = proc.run()
    assert not inst.check(proc.arch)
    return proc, result


class TestHookEmission:
    @pytest.mark.parametrize("recovery", ["dsre", "flush", "hybrid"])
    def test_counts_match_stats(self, recovery):
        trace = EventTrace()
        _, result = _run(hooks=trace, recovery=recovery)
        counts = trace.counts()
        assert set(counts) == set(EVENT_KINDS)
        assert counts["commit"] == result.stats.committed_blocks
        assert counts["map"] == result.stats.frames_mapped
        assert counts["redeliver"] == result.stats.load_redeliveries
        assert counts["violate"] == result.stats.violation_flushes
        assert counts["deliver"] == result.network_stats.delivered
        assert counts["fetch"] >= counts["map"]

    def test_issue_counts_match_executions_on_clean_kernel(self):
        # On a kernel with no squashes every issued node completes, so the
        # issue events equal the execution counter exactly.
        trace = EventTrace()
        _, result = _run("vecsum", hooks=trace, recovery="dsre",
                         next_block_predictor="perfect")
        assert result.stats.squashed_executions == 0
        assert trace.counts()["issue"] == result.stats.executions

    def test_delivery_kinds_by_name(self):
        # Every flat entry code reaches the hook under its MsgKind name;
        # the per-kind split on histogram @ dsre is pinned.
        trace = EventTrace()
        _, result = _run(hooks=trace, recovery="dsre")
        kinds = Counter(e.data["msg_kind"] for e in trace.events
                        if e.kind == "deliver")
        assert kinds == {"TOKEN": 631, "LOAD_REQ": 59, "STORE_UPD": 55,
                         "LOAD_RESP": 81, "REG_FWD": 19}
        assert set(kinds) == {kind.name for kind in MsgKind}
        assert sum(kinds.values()) == result.network_stats.delivered == 845
        assert result.stats.cycles == 641

    def test_violate_carries_both_parties(self):
        trace = EventTrace()
        _run(hooks=trace, recovery="flush")
        violates = [e for e in trace.events if e.kind == "violate"]
        assert violates
        for event in violates:
            assert event.data.keys() == {"load_frame_uid", "load_lsid",
                                         "store_frame_uid", "store_lsid"}

    def test_behavior_identical_with_and_without_hooks(self):
        # Zero-overhead-when-off also means zero *effect* when on.
        _, bare = _run(recovery="dsre")
        _, hooked = _run(hooks=EventTrace(), recovery="dsre")
        assert hooked.stats == bare.stats

    def test_base_hooks_are_noops(self):
        _, bare = _run(recovery="dsre")
        _, hooked = _run(hooks=EventHooks(), recovery="dsre")
        assert hooked.stats == bare.stats

    def test_attach_hooks_none_detaches(self):
        inst = KERNELS["vecsum"].build_test()
        proc = Processor(inst.program, default_config(),
                         inst.initial_regs, golden=golden_of(inst))
        proc.attach_hooks(EventTrace())
        proc.attach_hooks(None)
        assert proc.hooks is None


class TestEventTrace:
    def test_events_are_cycle_monotone(self):
        trace = EventTrace()
        _run(hooks=trace)
        cycles = [e.cycle for e in trace.events]
        assert cycles == sorted(cycles)

    def test_jsonl_round_trips(self):
        trace = EventTrace()
        _run(hooks=trace)
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == len(trace.events)
        for line, event in zip(lines, trace.events):
            data = json.loads(line)
            assert data["kind"] == event.kind
            assert data["cycle"] == event.cycle

    def test_write_jsonl(self, tmp_path):
        trace = EventTrace()
        _run(hooks=trace)
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == len(trace.events)

    def test_write_jsonl_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        EventTrace().write_jsonl(path)
        assert path.read_text() == ""

    def test_event_structure(self):
        event = ProcEvent("commit", 7, {"frame_uid": 1})
        assert event.kind == "commit"
        assert event.cycle == 7
