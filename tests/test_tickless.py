"""Engine priority lanes."""

from __future__ import annotations

from repro.sim.engine import Engine


class TestLanes:
    def test_lane_orders_before_prio0_at_same_instant(self):
        eng = Engine()
        lane = eng.alloc_lane()
        order = []
        eng.call_at(10, order.append, "normal")
        eng.call_at(10, order.append, "lane", prio=lane)
        eng.run_until(10)
        assert order == ["lane", "normal"]

    def test_lane_position_is_history_independent(self):
        # A lane timer cancelled and re-armed at the same instant keeps
        # its slot among same-instant events even though its sequence
        # number is now larger.
        eng = Engine()
        lane = eng.alloc_lane()
        order = []
        ev = eng.call_at(10, order.append, "first-armed", prio=lane)
        eng.call_at(10, order.append, "normal")
        ev.cancel()
        eng.call_at(10, order.append, "re-armed", prio=lane)
        eng.run_until(10)
        assert order == ["re-armed", "normal"]

    def test_lanes_are_unique_and_negative(self):
        eng = Engine()
        lanes = [eng.alloc_lane() for _ in range(10)]
        assert len(set(lanes)) == 10
        assert all(l < 0 for l in lanes)
