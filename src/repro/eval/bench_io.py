"""Schema-versioned bench-trajectory files (``BENCH_<kind>.json``).

Every perf artifact the repo publishes — the fleet serving bench, the
columnar compile bench — is a *trajectory file*:
a JSON document whose first key is a ``"schema"`` tag of the form
``BENCH_<kind>/v<N>``. The tag makes the files self-describing, so a
dashboard (or a later PR) can reject a payload it does not understand
instead of silently misreading it.

This module is the one place that knows the tag grammar. Producers build
reports with :func:`new_report` (or stamp their own dict with
:func:`schema_tag`) and persist them with :func:`dump_bench`; consumers
round-trip with :func:`load_bench`, which verifies the tag before
returning the payload. The writer is dependency-free on purpose: the
fleet tier imports it without dragging in the eval experiments.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

#: key every trajectory file leads with.
SCHEMA_KEY = "schema"

_PREFIX = "BENCH_"


class BenchSchemaError(ValueError):
    """A trajectory file (or report dict) carries a malformed tag."""


def schema_tag(kind: str, version: int = 1) -> str:
    """Return the ``BENCH_<kind>/v<N>`` tag for a trajectory kind."""
    if not kind or not kind.replace("_", "").isalnum():
        raise BenchSchemaError(f"invalid bench kind {kind!r}")
    if version < 1:
        raise BenchSchemaError(f"invalid bench schema version {version!r}")
    return f"{_PREFIX}{kind}/v{version}"


def parse_schema(tag: object) -> Tuple[str, int]:
    """Split a ``BENCH_<kind>/v<N>`` tag into ``(kind, version)``."""
    if not isinstance(tag, str) or not tag.startswith(_PREFIX):
        raise BenchSchemaError(f"not a bench schema tag: {tag!r}")
    body, sep, suffix = tag[len(_PREFIX):].partition("/v")
    if not sep or not body or not suffix.isdigit():
        raise BenchSchemaError(f"malformed bench schema tag: {tag!r}")
    return body, int(suffix)


def bench_environment() -> Dict[str, str]:
    """Interpreter/platform snapshot embedded in trajectory files.

    Perf numbers are meaningless without provenance: two trajectory
    files can only be compared when this block says they ran on
    comparable stacks.
    """
    # Imported here: importlib.metadata loads some 25 stdlib modules that
    # only a report writer needs.
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:  # pragma: no cover
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def new_report(
    kind: str,
    payload: Optional[Dict[str, Any]] = None,
    *,
    version: int = 1,
    environment: bool = True,
) -> Dict[str, Any]:
    """Assemble a tagged report dict, schema key first.

    ``payload`` keys follow the tag (and the environment block, unless
    disabled); a payload that tries to smuggle its own ``schema`` key is
    rejected rather than silently overwritten.
    """
    payload = dict(payload or {})
    if SCHEMA_KEY in payload:
        raise BenchSchemaError(
            "payload already carries a 'schema' key; pass kind/version "
            "through new_report instead"
        )
    report: Dict[str, Any] = {SCHEMA_KEY: schema_tag(kind, version)}
    if environment:
        report["environment"] = bench_environment()
    report.update(payload)
    return report


def dump_bench(path: Union[str, Path], report: Dict[str, Any]) -> Path:
    """Write a tagged report as pretty JSON (+ trailing newline).

    The tag is validated *before* the write so a producer bug cannot
    publish an artifact that every consumer would then refuse to load.
    """
    parse_schema(report.get(SCHEMA_KEY))
    target = Path(path)
    target.write_text(json.dumps(report, indent=2) + "\n")
    return target


def load_bench(
    path: Union[str, Path],
    kind: Optional[str] = None,
) -> Dict[str, Any]:
    """Read a trajectory file back, verifying its schema tag.

    With ``kind`` given, a tag of a different kind is an error — the
    version number is returned to the caller via the tag itself, so
    consumers can branch on ``parse_schema`` when a ``v2`` lands.
    """
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict):
        raise BenchSchemaError(f"{path}: trajectory root must be an object")
    found_kind, _ = parse_schema(document.get(SCHEMA_KEY))
    if kind is not None and found_kind != kind:
        raise BenchSchemaError(
            f"{path}: expected BENCH_{kind} trajectory, found "
            f"{document[SCHEMA_KEY]!r}"
        )
    return document
