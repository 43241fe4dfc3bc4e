"""``python -m repro.fleet`` CLI: bench and route subcommands."""

from __future__ import annotations

import json

import pytest

from repro.fleet.__main__ import main, parse_workloads


class TestParsing:
    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit, match="unknown workloads"):
            parse_workloads("flower,not-a-workload")

    def test_empty_workloads_exit(self):
        with pytest.raises(SystemExit, match="no workloads"):
            parse_workloads(" , ")

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestBench:
    def test_small_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet.json"
        code = main([
            "bench",
            "--workers", "2",
            "--pes", "32",
            "--requests", "200",
            "--workloads", "flower,lenet5",
            "--batch-window", "16",
            "--pump-every", "16",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "BENCH_fleet/v1"
        assert report["accounting"]["lost"] == 0
        assert report["accounting"]["served"] == 200
        # Default: the last worker is killed at the halfway point.
        assert report["kill_worker_id"] == "worker-1"
        assert report["live_workers"] == 1
        text = capsys.readouterr().out
        assert "lost" in text and "latency" in text
        assert "batches: executed=" in text

    def test_batch_counts_sum_the_shards(self, capsys):
        code = main([
            "bench",
            "--workers", "2",
            "--pes", "32",
            "--requests", "64",
            "--workloads", "flower,lenet5,stock-predict,string-matching",
            "--batch-window", "4",
            "--pump-every", "4",
            "--kill-after", "32",
            "--out", "-",
            "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        batches = report["batches"]
        assert batches == {"executed": 41, "simulated": 10, "reused": 31}
        for key, counter in (
            ("executed", "batches_executed"), ("reused", "sim_batches_reused")
        ):
            assert batches[key] == sum(w[counter] for w in report["workers"])

    def test_no_kill_keeps_fleet_whole(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main([
            "bench",
            "--workers", "2",
            "--pes", "32",
            "--requests", "100",
            "--workloads", "flower",
            "--batch-window", "16",
            "--no-kill",
            "--out", str(out),
            "--json",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["kill_worker_id"] is None
        assert report["live_workers"] == 2
        # --json prints the same report to stdout.
        printed = json.loads(capsys.readouterr().out)
        assert printed["accounting"] == report["accounting"]

    def test_persistent_store_reused(self, tmp_path):
        """Two bench runs over one --store dir: the second is all disk
        hits, zero new compiles."""
        store_dir = tmp_path / "store"
        out = tmp_path / "bench.json"
        args = [
            "bench", "--workers", "2", "--pes", "32",
            "--requests", "60", "--workloads", "flower,lenet5",
            "--batch-window", "16", "--no-kill",
            "--store", str(store_dir), "--out", str(out),
        ]
        assert main(args) == 0
        first = json.loads(out.read_text())["cache"]
        assert main(args) == 0
        second = json.loads(out.read_text())["cache"]
        assert first["disk_writes"] == 2
        assert second["disk_writes"] == 0
        assert second["disk_hits"] == 2


class TestRoute:
    def test_route_prints_assignments(self, capsys):
        code = main([
            "route",
            "--workers", "4",
            "--workloads", "flower,lenet5,stock-predict",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "ring: 4 workers" in text
        for workload in ("flower", "lenet5", "stock-predict"):
            assert workload in text
        assert "spread:" in text
