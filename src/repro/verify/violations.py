"""Structured verification outcomes.

Every invariant check in :mod:`repro.verify.validator` reports its findings
as :class:`Violation` records collected into a :class:`VerificationReport`
instead of raising on the first problem. A report distinguishes *errors*
(the schedule breaks a paper invariant — the plan must not be served) from
*warnings* (a documented model gap, e.g. the paper's single-charge cache
accounting admitting transient liveness overflows) so callers can gate on
exactly the guarantees they need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class Severity(enum.Enum):
    """How bad a violation is.

    ``ERROR`` — a hard invariant of the paper (or of this reproduction's
    schedule semantics) is broken; the plan is not safe to execute.
    ``WARNING`` — a soft/model-gap finding: the plan matches the paper's
    own accounting but a stricter analysis (e.g. liveness-exact cache
    occupancy) disagrees. Warnings do not fail a report unless the caller
    opts into strict mode.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributed to a named check.

    Attributes:
        check: catalog name of the check that fired (see
            :data:`repro.verify.validator.CHECK_CATALOG`).
        severity: :class:`Severity` of the finding.
        message: human-readable description with the observed values.
        subject: optional locus — an ``op_id``, an edge key tuple, or any
            JSON-able identifier of the offending schedule element.
    """

    check: str
    severity: Severity
    message: str
    subject: Optional[Any] = None

    def as_dict(self) -> Dict[str, Any]:
        subject = self.subject
        if isinstance(subject, tuple):
            subject = list(subject)
        return {
            "check": self.check,
            "severity": self.severity.value,
            "message": self.message,
            "subject": subject,
        }

    def __str__(self) -> str:
        where = f" @ {self.subject}" if self.subject is not None else ""
        return f"[{self.severity.value}:{self.check}]{where} {self.message}"


class VerificationError(ValueError):
    """Raised by :meth:`VerificationReport.raise_if_failed` on errors.

    Carries the failing report so programmatic callers (the serving
    runtime, the CLI) can still inspect every violation.
    """

    def __init__(self, report: "VerificationReport"):
        self.report = report
        errors = report.errors()
        preview = "; ".join(str(v) for v in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        super().__init__(
            f"schedule verification failed with {len(errors)} error(s): "
            f"{preview}{more}"
        )


@dataclass
class VerificationReport:
    """Outcome of running the full check catalog against one plan.

    Attributes:
        subject: label of what was verified (workload / plan identity).
        checks_run: catalog names executed, in order.
        checks_skipped: checks intentionally not applied (with the reason),
            e.g. capacity feasibility under a capacity-oblivious allocator.
        violations: every finding, errors and warnings alike.
    """

    subject: str = ""
    checks_run: List[str] = field(default_factory=list)
    checks_skipped: Dict[str, str] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)

    # -- recording -----------------------------------------------------
    def add(
        self,
        check: str,
        message: str,
        subject: Optional[Any] = None,
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.violations.append(Violation(check, severity, message, subject))

    def skip(self, check: str, reason: str) -> None:
        self.checks_skipped[check] = reason

    # -- interrogation -------------------------------------------------
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.severity is Severity.ERROR]

    def warnings(self) -> List[Violation]:
        return [v for v in self.violations if v.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity violation was found."""
        return not self.errors()

    @property
    def clean(self) -> bool:
        """True when no violation of any severity was found."""
        return not self.violations

    def by_check(self) -> Dict[str, List[Violation]]:
        grouped: Dict[str, List[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.check, []).append(violation)
        return grouped

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationError` when the report has errors."""
        if not self.ok:
            raise VerificationError(self)

    # -- rendering -----------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks_run": list(self.checks_run),
            "checks_skipped": dict(self.checks_skipped),
            "num_errors": len(self.errors()),
            "num_warnings": len(self.warnings()),
            "violations": [v.as_dict() for v in self.violations],
        }

    def summary(self, max_violations: int = 10) -> str:
        head = (
            f"{self.subject or 'schedule'}: "
            f"{len(self.checks_run)} checks, "
            f"{len(self.errors())} error(s), {len(self.warnings())} warning(s)"
        )
        lines = [head]
        for violation in self.violations[:max_violations]:
            lines.append(f"  {violation}")
        hidden = len(self.violations) - max_violations
        if hidden > 0:
            lines.append(f"  ... {hidden} more")
        for check, reason in self.checks_skipped.items():
            lines.append(f"  [skipped:{check}] {reason}")
        return "\n".join(lines)
