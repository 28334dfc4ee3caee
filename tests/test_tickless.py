"""Engine priority lanes and the callback-attribution profiler."""

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


class TestProfiler:
    def test_off_by_default(self):
        assert Engine.profiling is False

    def test_slots_fired_cancelled_elided(self):
        eng = Engine()
        Engine.profile_reset()
        Engine.profiling = True
        try:
            def cb():
                pass

            eng.call_at(5, cb)
            eng.call_at(6, cb).cancel()
            eng.run_until(10)
        finally:
            Engine.profiling = False
        name = cb.__qualname__
        assert Engine.profile_data[name] == [1, 1]
        table = Engine.profile_table()
        assert "fired" in table and name in table
        Engine.profile_reset()

    def test_profiler_off_collects_nothing(self):
        eng = Engine()
        Engine.profile_reset()

        def cb():
            pass

        eng.call_at(5, cb)
        eng.call_at(6, cb).cancel()
        eng.run_until(10)
        assert Engine.profile_data == {}

    def test_table_order_is_insertion_independent(self):
        # A fired-count tie must break by name, not by insertion order.
        Engine.profile_reset()
        Engine.profile_data = {"b": [5, 0], "a": [5, 0], "c": [7, 0]}
        t1 = Engine.profile_table()
        Engine.profile_data = {"c": [7, 0], "a": [5, 0], "b": [5, 0]}
        t2 = Engine.profile_table()
        Engine.profile_reset()
        assert t1 == t2
        names = [line.split()[0] for line in t1.splitlines()[1:]]
        assert names == ["c", "a", "b"]
