"""CLI coverage for the remaining eval subcommands and repro flags."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.cnn.workloads import load_workload
from repro.eval.__main__ import main as eval_main
from repro.sim.executor import ScheduleExecutor
from repro.sim.sinks import NullSink

FAST = ["--iterations", "100", "--benchmarks", "cat"]


class TestEvalSubcommands:
    def test_table2(self, capsys):
        assert eval_main(["table2", *FAST]) == 0
        assert "R_max@16" in capsys.readouterr().out

    def test_figure5(self, capsys):
        assert eval_main(["figure5", *FAST]) == 0
        assert "norm@64" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert eval_main(["ablation", *FAST]) == 0
        out = capsys.readouterr().out
        assert "dp:time" in out
        assert "iterative:R" in out

    def test_validation(self, capsys):
        assert eval_main(["validation", *FAST]) == 0
        assert "slowdown" in capsys.readouterr().out

    def test_energy(self, capsys):
        assert eval_main(["energy", *FAST]) == 0
        assert "no-cache" in capsys.readouterr().out

    def test_latency(self, capsys):
        assert eval_main(["latency", *FAST]) == 0
        assert "latency ratio" in capsys.readouterr().out

    def test_architectures(self, capsys):
        assert eval_main(["architectures", *FAST]) == 0
        assert "edge_pim" in capsys.readouterr().out

    def test_report(self, tmp_path, capsys):
        out_path = tmp_path / "r.md"
        assert eval_main(["report", *FAST, "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("# Para-CONV experiment report")

    def test_machine_knobs_flow_through(self, capsys):
        assert eval_main(
            ["table2", "--benchmarks", "cat", "--iterations", "100",
             "--cache-bytes-per-pe", "0", "--edram-factor", "8"]
        ) == 0
        # zero cache: nothing allocated, R_max still reported
        assert "R_max@16" in capsys.readouterr().out


class TestReproFlags:
    def test_simulate_and_exports(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        trace = tmp_path / "t.json"
        code = repro_main(
            ["cat", "--pes", "8", "--iterations", "100",
             "--simulate", "4", "--dot", str(dot), "--trace", str(trace),
             "--liveness-aware"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Simulated 4 iterations" in out
        assert dot.read_text().startswith("digraph")
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]


@pytest.fixture
def executed(monkeypatch):
    """Spy on ``ScheduleExecutor.execute``: (sink, trace) per call."""
    calls = []
    original = ScheduleExecutor.execute

    def spy(self, result, iterations=20, sink=None, fault_model=None):
        trace = original(self, result, iterations, sink, fault_model)
        calls.append((sink, trace))
        return trace

    monkeypatch.setattr(ScheduleExecutor, "execute", spy)
    return calls


class TestSimulateRecordRetention:
    """``--simulate`` keeps per-instance records only for ``--trace``."""

    ARGS = ["cat", "--pes", "8", "--iterations", "100", "--simulate", "4"]

    def test_without_trace_no_records_retained(self, executed, capsys):
        assert repro_main(self.ARGS) == 0
        assert "Simulated 4 iterations" in capsys.readouterr().out
        [(sink, trace)] = executed
        assert isinstance(sink, NullSink)
        assert trace.records == []
        assert trace.transfers == []
        # The printed aggregates stay exact without the records.
        assert trace.num_instances == load_workload("cat").num_vertices * 4

    def test_trace_exports_one_instance_event_per_op_iteration(
        self, executed, tmp_path, capsys
    ):
        path = tmp_path / "t.json"
        assert repro_main([*self.ARGS, "--trace", str(path)]) == 0
        [(sink, trace)] = executed
        assert not isinstance(sink, NullSink)
        events = json.loads(path.read_text())["traceEvents"]
        compute = sorted(
            (event["args"]["op"], event["args"]["iteration"])
            for event in events if event["cat"] == "compute"
        )
        ops = sorted(op.op_id for op in load_workload("cat").operations())
        assert compute == [
            (op_id, iteration) for op_id in ops for iteration in range(1, 5)
        ]
