"""Unit and property tests for PELT utilization tracking."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.guest import pelt as pelt_mod
from repro.guest.pelt import (PELT_MAX_SUM, PELT_PERIOD_NS, PELT_Y, Pelt,
                              UTIL_SCALE)
from repro.sim import MSEC, SEC


class TestPeltBasics:
    def test_starts_at_zero(self):
        p = Pelt()
        assert p.util_avg == 0.0

    def test_half_life_is_32_periods(self):
        assert PELT_Y ** 32 == pytest.approx(0.5)

    def test_continuous_running_converges_to_full_scale(self):
        p = Pelt()
        t = 0
        for _ in range(1000):
            t += PELT_PERIOD_NS
            p.update(t, running=True)
        assert p.util_avg == pytest.approx(UTIL_SCALE, rel=1e-3)

    def test_idle_decays_to_zero(self):
        p = Pelt()
        p.update(100 * MSEC, running=True)
        p.update(2 * SEC, running=False)
        assert p.util_avg < 1.0

    def test_50_percent_duty_converges_to_half(self):
        p = Pelt()
        t = 0
        for _ in range(2000):
            t += MSEC
            p.update(t, running=True)
            t += MSEC
            p.update(t, running=False)
        assert p.util_avg == pytest.approx(UTIL_SCALE / 2, rel=0.1)

    def test_decay_half_after_32_periods_idle(self):
        p = Pelt()
        t = 500 * MSEC
        p.update(t, running=True)  # saturate-ish
        u0 = p.util_avg
        t += 32 * PELT_PERIOD_NS
        p.update(t, running=False)
        assert p.util_avg == pytest.approx(u0 / 2, rel=1e-6)

    def test_peek_does_not_mutate(self):
        p = Pelt()
        p.update(10 * MSEC, running=True)
        u = p.util_avg
        peeked = p.peek(100 * MSEC, running=False)
        assert p.util_avg == u
        assert peeked < u

    def test_peek_matches_update(self):
        p1, p2 = Pelt(), Pelt()
        p1.update(10 * MSEC, True)
        p2.update(10 * MSEC, True)
        peeked = p1.peek(50 * MSEC, True)
        p2.update(50 * MSEC, True)
        assert peeked == pytest.approx(p2.util_avg)

    def test_set_util_clamps(self):
        p = Pelt()
        p.set_util(5000, 0)
        assert p.util_avg == UTIL_SCALE
        p.set_util(-10, 0)
        assert p.util_avg == 0.0


class TestPeltProperties:
    @given(st.lists(st.tuples(st.integers(1, 10 * MSEC), st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_util_always_in_range(self, steps):
        p = Pelt()
        t = 0
        for delta, running in steps:
            t += delta
            u = p.update(t, running)
            assert 0.0 <= u <= UTIL_SCALE + 1e-6

    @given(st.integers(1, SEC), st.integers(1, SEC))
    @settings(max_examples=60, deadline=None)
    def test_split_update_equals_single_update(self, d1, d2):
        """Charging [0,d1)+[d1,d1+d2) running equals charging [0,d1+d2)."""
        a, b = Pelt(), Pelt()
        a.update(d1, True)
        a.update(d1 + d2, True)
        b.update(d1 + d2, True)
        assert a.util_avg == pytest.approx(b.util_avg, rel=1e-9)

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_monotone_rampup(self, n):
        p = Pelt()
        prev = 0.0
        t = 0
        for _ in range(n):
            t += PELT_PERIOD_NS
            u = p.update(t, True)
            assert u >= prev - 1e-9
            prev = u

    @given(st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_stale_update_is_noop(self, delta):
        p = Pelt()
        p.update(10 * MSEC, True)
        u = p.util_avg
        p.update(10 * MSEC - delta, True)  # time went backwards: ignore
        assert p.util_avg == u


def _reference_step(total: float, delta: int, running: bool) -> float:
    """One PELT charge written out from the reference decay formula."""
    decay = PELT_Y ** (delta / PELT_PERIOD_NS)
    if running:
        return total * decay + (1.0 - decay) * PELT_MAX_SUM
    return total * decay


class TestDecayMemo:
    """The memo keyed by integer ns delta returns the formula's exact
    float: ``update``/``peek`` compare with ``==``, never ``approx``."""

    def _replay(self, steps):
        p = Pelt()
        t = 0
        total = 0.0
        for delta, running in steps:
            t += delta
            peeked = p.peek(t, running)
            p.update(t, running)
            total = _reference_step(total, delta, running)
            util = total / PELT_MAX_SUM * UTIL_SCALE
            assert p._sum == total
            assert p.util_avg == util
            assert peeked == util

    @given(st.lists(st.tuples(st.integers(1, 3 * PELT_PERIOD_NS),
                              st.booleans()),
                    min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_update_and_peek_equal_reference_formula(self, steps):
        self._replay(steps)

    @given(st.integers(0, 2 ** 32), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_memo_clears_partway_and_stays_exact(self, seed, running):
        deltas = random.Random(seed).sample(range(1, 10 * SEC), 300)
        pelt_mod._DECAY_CACHE.clear()
        self._replay([(d, running) for d in deltas])
        # More distinct deltas than the memo holds: it cleared on the way.
        assert len(pelt_mod._DECAY_CACHE) < len(deltas)

    @given(st.integers(1, 10 * SEC))
    @settings(max_examples=60, deadline=None)
    def test_memo_hit_returns_the_miss_value(self, delta):
        pelt_mod._DECAY_CACHE.pop(delta, None)
        a, b = Pelt(), Pelt()
        a.update(delta, True)      # miss: computes and stores
        b.update(delta, True)      # hit
        assert a._sum == b._sum == _reference_step(0.0, delta, True)
