"""Tests for the Chrome trace-event exporter."""

import json
from dataclasses import replace

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.sim.chrome_trace import trace_to_events, write_chrome_trace
from repro.sim.executor import ScheduleExecutor


@pytest.fixture(scope="module")
def trace():
    config = PimConfig(num_pes=8, iterations=100)
    result = ParaConv(config).run(synthetic_benchmark("cat"))
    return ScheduleExecutor(replace(config, num_vaults=16)).execute(
        result, iterations=4
    )


class TestTraceToEvents:
    def test_one_compute_event_per_instance(self, trace):
        events = trace_to_events(trace)
        compute = [e for e in events if e["cat"] == "compute"]
        assert len(compute) == len(trace.records)

    def test_event_schema(self, trace):
        for event in trace_to_events(trace):
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            assert isinstance(event["tid"], str)

    def test_unit_scaling(self, trace):
        base = trace_to_events(trace, unit_us=1.0)
        scaled = trace_to_events(trace, unit_us=10.0)
        compute_base = [e for e in base if e["cat"] == "compute"]
        compute_scaled = [e for e in scaled if e["cat"] == "compute"]
        assert compute_scaled[0]["ts"] == compute_base[0]["ts"] * 10

    def test_invalid_unit_rejected(self, trace):
        with pytest.raises(ValueError):
            trace_to_events(trace, unit_us=0)

    def test_transfer_rows_labelled(self, trace):
        events = trace_to_events(trace)
        rows = {e["tid"] for e in events if e["cat"] == "transfer"}
        assert rows <= {"cache-path", "eDRAM"}


class TestWriteChromeTrace:
    def test_file_is_loadable_json(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(trace, path)
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert payload["otherData"]["iterations"] == trace.iterations
        assert len(payload["traceEvents"]) > 0
