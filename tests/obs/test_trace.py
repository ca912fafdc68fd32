"""Trace ids, the flight recorder, and span recording semantics."""

from __future__ import annotations

import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace as _trace
from repro.obs.trace import (FlightRecorder, coerce_trace_id, mint_trace_id,
                             record_span, set_tracing, span, tracing_enabled,
                             valid_trace_id)


@pytest.fixture()
def tracing_on():
    previous = set_tracing(True)
    yield
    set_tracing(previous)


class TestTraceIds:
    def test_mint_format_and_uniqueness(self):
        ids = {mint_trace_id() for _ in range(256)}
        assert len(ids) == 256
        for trace in ids:
            assert len(trace) == 16
            assert trace == trace.lower()
            int(trace, 16)

    def test_valid_trace_id(self):
        assert valid_trace_id("deadbeef")
        assert valid_trace_id("0123456789abcdef")
        assert not valid_trace_id("")
        assert not valid_trace_id("0123456789abcdef0")   # 17 chars
        assert not valid_trace_id("not-hex!")
        assert not valid_trace_id(1234)
        # int(value, 16) takes all of these; a trace id is plain hex.
        for value in ("0xab", "+ab", "-ab", "a_b", " ab", "ab\n",
                      "\u0663\u0664"):
            assert not valid_trace_id(value), value
            assert coerce_trace_id(value) != value.rjust(16, "0")

    def test_coerce_pads_and_lowercases(self):
        assert coerce_trace_id("DEADBEEF") == "00000000deadbeef"
        assert coerce_trace_id("0123456789abcdef") == "0123456789abcdef"

    def test_coerce_mints_for_absent_or_bad(self):
        minted = coerce_trace_id(None)
        assert valid_trace_id(minted) and len(minted) == 16
        assert coerce_trace_id("zzz") != "zzz"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(st.text(max_size=20),
                     st.text(alphabet=string.hexdigits + "xX+-_ \n\u0663",
                             max_size=18)))
    def test_coerce_always_yields_a_canonical_id(self, value):
        coerced = coerce_trace_id(value)
        assert len(coerced) == 16
        assert set(coerced) <= set("0123456789abcdef")
        valid = re.fullmatch("[0-9a-fA-F]{1,16}", value) is not None
        assert valid_trace_id(value) == valid
        if valid:
            assert coerced == value.lower().rjust(16, "0")


class TestFlightRecorder:
    def test_balanced_begin_record(self):
        recorder = FlightRecorder(capacity=8)
        recorder.begin()
        recorder.record({"name": "x", "trace": "00" * 8})
        stats = recorder.stats()
        assert stats["spans_started"] == stats["spans_ended"] == 1
        assert stats["spans_dropped"] == 0
        assert stats["spans_held"] == 1

    def test_overflow_counts_drops_keeps_latest(self):
        recorder = FlightRecorder(capacity=2)
        for index in range(5):
            recorder.begin()
            recorder.record({"name": f"s{index}", "trace": None})
        stats = recorder.stats()
        assert stats["spans_dropped"] == 3
        assert stats["spans_held"] == 2
        assert [s["name"] for s in recorder.dump()] == ["s3", "s4"]

    def test_dump_filters_by_trace(self):
        recorder = FlightRecorder(capacity=8)
        for trace in ("aa" * 8, "bb" * 8, "aa" * 8):
            recorder.begin()
            recorder.record({"name": "x", "trace": trace})
        assert len(recorder.dump()) == 3
        assert len(recorder.dump(trace="aa" * 8)) == 2
        assert recorder.dump(trace="cc" * 8) == []

    def test_reset_clears_everything(self):
        recorder = FlightRecorder(capacity=8)
        recorder.begin()
        recorder.record({"name": "x", "trace": None})
        recorder.reset()
        assert recorder.dump() == []
        stats = recorder.stats()
        assert stats["spans_started"] == 0 and stats["spans_held"] == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestSpanRecording:
    def test_span_records_with_tags(self, tracing_on):
        trace = mint_trace_id()
        with span("unit.test", trace=trace, host=3) as tags:
            tags["status"] = 200
        spans = _trace.RECORDER.dump(trace=trace)
        assert len(spans) == 1
        record = spans[0]
        assert record["name"] == "unit.test"
        assert record["tags"] == {"host": 3, "status": 200}
        assert record["dur_s"] >= 0.0

    def test_span_balances_on_exception(self, tracing_on):
        trace = mint_trace_id()
        before = _trace.RECORDER.stats()
        with pytest.raises(RuntimeError):
            with span("unit.boom", trace=trace):
                raise RuntimeError("body failed")
        after = _trace.RECORDER.stats()
        assert after["spans_started"] - before["spans_started"] == 1
        assert after["spans_ended"] - before["spans_ended"] == 1
        assert _trace.RECORDER.dump(trace=trace)[0]["name"] == "unit.boom"

    def test_none_valued_tags_are_dropped(self, tracing_on):
        trace = mint_trace_id()
        with span("unit.tags", trace=trace, error=None):
            pass
        assert "tags" not in _trace.RECORDER.dump(trace=trace)[0]

    def test_disabled_tracing_records_nothing(self):
        previous = set_tracing(False)
        try:
            assert not tracing_enabled()
            before = _trace.RECORDER.stats()
            with span("unit.off", trace=mint_trace_id()) as tags:
                assert tags is None
            record_span("unit.off", mint_trace_id(), 0.01)
            assert _trace.RECORDER.stats() == before
        finally:
            set_tracing(previous)

    def test_record_span_external_timing(self, tracing_on):
        trace = mint_trace_id()
        record_span("unit.kernel", trace, 0.25, tags={"rows": 8})
        record = _trace.RECORDER.dump(trace=trace)[0]
        assert record["dur_s"] == 0.25
        assert record["tags"] == {"rows": 8}
