"""Packed event keys of the executor's heap.

An event is one integer ``(((time << 2) | prio) << (IB + RB)) |
(iteration << RB) | rid``. The executor relies on two properties of that
layout: integer order equals ``(time, prio, iteration, rid)`` tuple order
(so the heap pops events in the same order as the tuples it replaced),
and every field decodes back unchanged (so ``_canonical`` rebuilds the
same tuples the ``steady_fingerprint`` digests are pinned on).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor, _EventKeys, _ScheduleRun
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

#: times reach past 2**32 so the unbounded top field is exercised.
TIMES = st.integers(min_value=0, max_value=2**40)


@st.composite
def layouts(draw):
    num_rids = draw(st.integers(min_value=1, max_value=5000))
    max_op_id = draw(st.integers(min_value=0, max_value=2000))
    iterations = draw(st.integers(min_value=1, max_value=100_000))
    return _EventKeys(num_rids, max_op_id, iterations), iterations


@st.composite
def fields(draw, keys):
    return (
        draw(TIMES),
        draw(st.integers(min_value=0, max_value=3)),
        draw(st.integers(min_value=0, max_value=(1 << keys.iteration_bits) - 1)),
        draw(st.integers(min_value=0, max_value=keys.rid_mask)),
    )


class TestLayout:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_order_and_round_trip(self, data):
        keys, _ = data.draw(layouts())
        a = data.draw(fields(keys))
        b = data.draw(fields(keys))
        assert keys.unpack(keys.pack(*a)) == a
        assert keys.unpack(keys.pack(*b)) == b
        assert (keys.pack(*a) < keys.pack(*b)) == (a < b)
        assert (keys.pack(*a) == keys.pack(*b)) == (a == b)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_largest_label_and_far_times(self, data):
        keys, iterations = data.draw(layouts())
        rid = data.draw(st.integers(min_value=0, max_value=keys.rid_mask))
        for time in (2**32 - 1, 2**32, 2**33 + 7):
            for prio in (0, 1, 2):
                for label in (iterations, iterations + 1):
                    packed = keys.pack(time, prio, label, rid)
                    assert keys.unpack(packed) == (time, prio, label, rid)
        # The largest label never reaches the next time step.
        top = keys.pack(2**32, 2, iterations + 1, keys.rid_mask)
        assert top < keys.pack(2**32 + 1, 0, 0, 0)

    def test_widths_follow_the_rule(self):
        keys = _EventKeys(num_rids=1449 + 2 * 546, max_op_id=545, iterations=200)
        assert keys.rid_bits == (1449 + 2 * 546).bit_length()
        assert keys.iteration_bits == (200 + 1).bit_length()
        assert keys.shift == keys.rid_bits + keys.iteration_bits
        assert keys.time_shift == keys.shift + 2
        # Sparse op ids widen the rid field past the row count.
        assert _EventKeys(3, 4094, 1).rid_bits == (4094 + 1).bit_length()


@pytest.fixture(scope="module")
def machine():
    return PimConfig(num_pes=16)


class TestWidthEdge:
    """``iterations = 2**k - 1``: the label ``iterations + 1`` (the next
    iteration to materialize) sets the top bit of the iteration field."""

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("name", ["flower", "car"])
    def test_steady_fast_forward_matches_full_unroll(self, machine, name, k):
        plan = ParaConv(machine).run(synthetic_benchmark(name))
        iterations = 2**k - 1
        run = _ScheduleRun(
            machine, 16, plan, iterations, SimMode.STEADY_STATE, NullSink()
        )
        assert iterations + 1 == 1 << (run._keys.iteration_bits - 1)
        steady = ScheduleExecutor(machine, mode=SimMode.STEADY_STATE).execute(
            plan, iterations=iterations, sink=NullSink()
        )
        full = ScheduleExecutor(machine, mode=SimMode.FULL_UNROLL).execute(
            plan, iterations=iterations, sink=NullSink()
        )
        assert steady.rounds_fast_forwarded > 0
        assert steady.aggregate_signature() == full.aggregate_signature()
