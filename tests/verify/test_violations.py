"""Unit tests for the structured violation/report types."""

import pytest

from repro.verify.violations import (
    Severity,
    VerificationError,
    VerificationReport,
    Violation,
)


def test_empty_report_is_ok_and_clean():
    report = VerificationReport(subject="x")
    assert report.ok
    assert report.clean
    report.raise_if_failed()  # no-op


def test_warning_keeps_ok_but_not_clean():
    report = VerificationReport()
    report.add("cache-capacity", "transient overflow",
               severity=Severity.WARNING)
    assert report.ok
    assert not report.clean
    assert len(report.warnings()) == 1
    assert report.errors() == []
    report.raise_if_failed()  # warnings never raise


def test_error_fails_and_raises():
    report = VerificationReport(subject="plan")
    report.add("period", "kernel makespan 12 exceeds period 10")
    assert not report.ok
    with pytest.raises(VerificationError) as excinfo:
        report.raise_if_failed()
    assert excinfo.value.report is report
    assert "period" in str(excinfo.value)


def test_skip_is_recorded_not_counted():
    report = VerificationReport()
    report.skip("cache-capacity", "oracle is capacity-oblivious")
    assert report.ok
    assert report.checks_skipped == {
        "cache-capacity": "oracle is capacity-oblivious"
    }
    assert "skipped:cache-capacity" in report.summary()


def test_by_check_groups_violations():
    report = VerificationReport()
    report.add("allocation", "a", subject=(0, 1))
    report.add("allocation", "b", subject=(1, 2))
    report.add("period", "c")
    grouped = report.by_check()
    assert sorted(grouped) == ["allocation", "period"]
    assert len(grouped["allocation"]) == 2


def test_violation_str_and_dict_round():
    violation = Violation("grouping", Severity.ERROR, "too wide", (3, 4))
    assert "[error:grouping]" in str(violation)
    payload = violation.as_dict()
    assert payload["subject"] == [3, 4]  # tuples made JSON-able
    assert payload["severity"] == "error"


def test_as_dict_counts():
    report = VerificationReport(subject="s")
    report.checks_run.append("period")
    report.add("period", "bad")
    report.add("cache-capacity", "soft", severity=Severity.WARNING)
    payload = report.as_dict()
    assert payload["num_errors"] == 1
    assert payload["num_warnings"] == 1
    assert payload["ok"] is False
