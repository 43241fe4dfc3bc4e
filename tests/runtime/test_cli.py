"""CLI surfaces: ``python -m repro.runtime`` and ``python -m repro`` validation."""

from __future__ import annotations

import json

import pytest

import repro.__main__ as top_cli
import repro.runtime.__main__ as runtime_cli


class TestRuntimeCli:
    def test_bench_prints_percentiles_and_throughput(self, capsys):
        rc = runtime_cli.main(
            ["bench", "cat", "--requests", "6", "--pes", "16", "--window", "4"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "p50=" in out and "p95=" in out and "p99=" in out
        assert "throughput" in out
        assert "plan cache" in out

    def test_bench_json_report(self, capsys):
        rc = runtime_cli.main(
            ["bench", "cat", "--requests", "4", "--pes", "16", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 4
        assert {"p50", "p95", "p99"} <= set(payload["sim_latency_units"])
        assert payload["plan_cache"]["misses"] == 1

    def test_bench_overload_rejects_and_recovers(self, capsys):
        rc = runtime_cli.main(
            ["bench", "cat", "--requests", "9", "--pes", "16",
             "--queue", "2", "--window", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 9 requests" in out
        assert "transiently rejected" in out

    def test_bench_unknown_workload(self, capsys):
        rc = runtime_cli.main(["bench", "definitely-not-a-workload"])
        assert rc == 2
        assert "known" in capsys.readouterr().err

    def test_warmup_and_stats_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "plans")
        rc = runtime_cli.main(
            ["warmup", "--workloads", "cat", "car", "--pes", "16",
             "--disk", store]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "warmed 2 workloads" in out
        rc = runtime_cli.main(["stats", "--disk", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 plans" in out
        assert "cat" in out and "car" in out

    def test_warmup_has_no_jobs_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            runtime_cli.main(["warmup", "--workloads", "cat", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_warmup_rejects_unknown_workload(self, capsys):
        rc = runtime_cli.main(["warmup", "--workloads", "nope"])
        assert rc == 2
        assert "unknown workloads" in capsys.readouterr().err

    def test_stats_missing_store(self, tmp_path, capsys):
        rc = runtime_cli.main(["stats", "--disk", str(tmp_path / "absent")])
        assert rc == 2

    def test_bench_uses_disk_store_warm_start(self, tmp_path, capsys):
        store = str(tmp_path / "plans")
        assert runtime_cli.main(
            ["warmup", "--workloads", "cat", "--pes", "16", "--disk", store]
        ) == 0
        capsys.readouterr()
        rc = runtime_cli.main(
            ["bench", "cat", "--requests", "2", "--pes", "16",
             "--disk", store, "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan_cache"]["disk_hits"] == 1  # no recompilation

    @pytest.mark.parametrize("flag", ["--pes", "--requests", "--queue", "--window"])
    def test_positive_int_validation(self, flag, capsys):
        with pytest.raises(SystemExit) as err:
            runtime_cli.main(["bench", "cat", flag, "0"])
        assert err.value.code == 2
        assert "must be > 0" in capsys.readouterr().err


class TestTopLevelCliValidation:
    @pytest.mark.parametrize("argv", [
        ["cat", "--pes", "0"],
        ["cat", "--pes", "-3"],
        ["cat", "--iterations", "0"],
        ["cat", "--pes", "notanint"],
    ])
    def test_nonpositive_machine_args_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            top_cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err  # argparse error, not a traceback

    def test_unknown_allocator_lists_registry(self, capsys):
        from repro.core.allocation import ALLOCATORS

        with pytest.raises(SystemExit) as err:
            top_cli.main(["cat", "--allocator", "bogus"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        for name in ALLOCATORS:
            assert name in message

    def test_valid_run_still_works(self, capsys):
        rc = top_cli.main(["cat", "--pes", "16", "--iterations", "10"])
        assert rc == 0
        assert "Para-CONV on 'cat'" in capsys.readouterr().out
