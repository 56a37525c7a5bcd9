"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "repro.dp" in out
        assert "batched" in out  # the batched multi-frame engine is listed
        assert "repro.serving" in out
        assert "model zoo" in out

    def test_info_reports_out_kernel_coverage(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "out= kernel coverage" in out
        # Full coverage: every eligible op writes into arena buffers, so no
        # "missing" list is printed.
        assert "missing out= kernels" not in out

    def test_serve_bench_tiny(self, capsys):
        assert main([
            "serve-bench", "--tiny", "--clients", "2", "--requests", "2",
            "--max-batch", "2", "--max-wait-us", "2000",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 requests" in out
        assert "occupancy" in out
        assert "PASS" in out

    def test_serve_bench_rejects_unknown_zoo_name(self):
        with pytest.raises(KeyError):
            main(["serve-bench", "--model", "helium", "--clients", "1",
                  "--requests", "1"])

    def test_scaling_prints_tables(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Fig 5" in out
        assert "Fig 6" in out
        assert "86.2" in out or "85.9" in out  # the headline PFLOPS row

    def test_plan_report_writes_json_and_table(self, tmp_path, capsys):
        out_file = tmp_path / "plan-report.json"
        assert main(["plan-report", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "fifo" in out
        assert "water/double/evaluate" in out
        entries = json.loads(out_file.read_text())
        assert len(entries) == 10
        for e in entries:
            assert e["ok"]
            assert e["records"] > 0
            assert e["arena_nbytes_colored"] < e["arena_nbytes_fifo"]

    def test_check_plans_report_flag(self, tmp_path, capsys):
        out_file = tmp_path / "check.json"
        assert main(["check-plans", "--report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out or "ok" in out
        entries = json.loads(out_file.read_text())
        assert len(entries) == 10
        assert all(e["ok"] for e in entries)
        assert all("arena_bytes_saved" in e for e in entries)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
