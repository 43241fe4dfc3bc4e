"""Tests for schedule serialization (the deployable artifact)."""

import json

import pytest

from repro.core.paraconv import ParaConv
from repro.core.schedule import ScheduleError
from repro.core.schedule_io import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig


@pytest.fixture(scope="module")
def schedule():
    config = PimConfig(num_pes=16, iterations=100)
    return ParaConv(config).run(synthetic_benchmark("flower")).schedule


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self, schedule):
        restored = schedule_from_dict(schedule_to_dict(schedule), schedule.graph)
        assert restored.period == schedule.period
        assert restored.retiming == schedule.retiming
        assert restored.edge_retiming == schedule.edge_retiming
        assert restored.placements == schedule.placements
        assert restored.transfer_times == schedule.transfer_times
        assert restored.kernel == schedule.kernel

    def test_json_file_round_trip(self, schedule, tmp_path):
        path = tmp_path / "schedule.json"
        schedule_to_json(schedule, path)
        restored = schedule_from_json(path)
        assert restored.max_retiming == schedule.max_retiming
        assert restored.total_time(100) == schedule.total_time(100)

    def test_restored_schedule_still_executes(self, schedule, tmp_path):
        """A deployed schedule must run on the machine model unchanged."""
        from repro.core.expansion import expand, verify_expansion

        path = tmp_path / "schedule.json"
        schedule_to_json(schedule, path)
        restored = schedule_from_json(path)
        verify_expansion(expand(restored, iterations=4))


class TestValidationOnLoad:
    def test_bad_version_rejected(self, schedule):
        payload = schedule_to_dict(schedule)
        payload["format_version"] = 42
        with pytest.raises(ScheduleError, match="version"):
            schedule_from_dict(payload, schedule.graph)

    def test_tampered_schedule_rejected(self, schedule):
        """Loading validates semantics, not just syntax."""
        payload = schedule_to_dict(schedule)
        # zero out the retiming: cross-iteration dependencies now break
        payload["retiming"] = [0] * len(payload["retiming"])
        payload["edge_retiming"] = [0] * len(payload["edge_retiming"])
        with pytest.raises(ScheduleError):
            schedule_from_dict(payload, schedule.graph)

    def test_json_is_stable_text(self, schedule, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        schedule_to_json(schedule, a)
        schedule_to_json(schedule, b)
        assert a.read_text() == b.read_text()
        json.loads(a.read_text())  # well-formed

    @pytest.mark.parametrize(
        "section", ["pe", "start", "finish", "retiming", "edge_retiming",
                    "transfer_times", "placements"],
    )
    def test_array_of_the_wrong_length_rejected(self, schedule, section):
        """``zip`` would drop a long array's tail: lengths are checked."""
        for values in (
            schedule_to_dict(schedule)[section][:-1],
            schedule_to_dict(schedule)[section] * 2,
        ):
            payload = {**schedule_to_dict(schedule), section: values}
            with pytest.raises(ScheduleError, match=section):
                schedule_from_dict(payload, schedule.graph)

    @pytest.mark.parametrize(
        "column, value, match",
        [
            ("pe", lambda payload: -1, "negative PE"),
            ("finish", lambda payload: payload["start"][0], "invalid window"),
            ("start", lambda payload: -1, "invalid window"),
        ],
        ids=["pe-negative", "finish-at-start", "start-negative"],
    )
    def test_broken_kernel_row_rejected(
        self, schedule, tmp_path, column, value, match
    ):
        """A row's own window and PE are checked on load, from a payload
        and from a standalone artifact."""
        payload = schedule_to_dict(schedule)
        payload[column][0] = value(payload)
        with pytest.raises(ScheduleError, match=match):
            schedule_from_dict(payload, schedule.graph)
        path = tmp_path / "schedule.json"
        schedule_to_json(schedule, path)
        envelope = json.loads(path.read_text())
        envelope["schedule"] = payload
        path.write_text(json.dumps(envelope))
        with pytest.raises(ScheduleError, match=match):
            schedule_from_json(path)

    def test_artifact_with_ops_sharing_a_pe_rejected(self, schedule, tmp_path):
        """Every op on PE 0 is a legal row each, but the rows overlap:
        the artifact's kernel is checked as a whole."""
        path = tmp_path / "schedule.json"
        schedule_to_json(schedule, path)
        envelope = json.loads(path.read_text())
        envelope["schedule"]["pe"] = [0] * len(envelope["schedule"]["pe"])
        path.write_text(json.dumps(envelope))
        with pytest.raises(ScheduleError, match="overlap"):
            schedule_from_json(path)

    def test_unknown_placement_code_rejected(self, schedule):
        payload = schedule_to_dict(schedule)
        payload["placements"] = "x" + payload["placements"][1:]
        with pytest.raises(ScheduleError, match="unknown placement codes"):
            schedule_from_dict(payload, schedule.graph)


class TestArtifact:
    def test_artifact_is_the_schedule_layout_in_an_envelope(
        self, schedule, tmp_path
    ):
        path = tmp_path / "schedule.json"
        schedule_to_json(schedule, path)
        envelope = json.loads(path.read_text())
        assert set(envelope) == {"graph", "schedule"}
        assert envelope["schedule"] == schedule_to_dict(schedule)

    @pytest.mark.parametrize(
        "text", ["[]", "{}", '{"graph": []}'], ids=["list", "empty", "graph-list"]
    )
    def test_malformed_artifact_raises_typed_error(self, text, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            schedule_from_json(path)
