"""Tests for the tracing buffer and deterministic RNG helpers."""

import numpy as np

from repro.sim import Tracer, make_rng, split_rng
from repro.sim.rng import exponential_ns, normal_ns


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.record(1, "x", "payload")
        assert tr.records == []

    def test_category_filter(self):
        tr = Tracer(enabled=True, categories={"keep"})
        tr.record(1, "keep", 1)
        tr.record(2, "drop", 2)
        assert len(tr.records) == 1
        assert tr.by_category("keep")[0].payload == (1,)

    def test_clear(self):
        tr = Tracer(enabled=True)
        tr.record(1, "a")
        tr.clear()
        assert tr.records == []


class TestRng:
    def test_string_seeds_are_stable(self):
        a = make_rng("hello").integers(0, 10**9)
        b = make_rng("hello").integers(0, 10**9)
        c = make_rng("world").integers(0, 10**9)
        assert a == b
        assert a != c

    def test_split_streams_are_independent_but_stable(self):
        base1, base2 = make_rng("s"), make_rng("s")
        c1 = split_rng(base1, "child")
        c2 = split_rng(base2, "child")
        assert c1.integers(0, 10**9) == c2.integers(0, 10**9)
        other = split_rng(make_rng("s"), "different")
        assert (split_rng(make_rng("s"), "child").integers(0, 10**9)
                != other.integers(0, 10**9))

    def test_duration_helpers_positive(self):
        rng = make_rng(0)
        for _ in range(200):
            assert exponential_ns(rng, 1000) >= 1
            assert normal_ns(rng, 100, 500) >= 1

    def test_exponential_mean(self):
        rng = make_rng(1)
        samples = [exponential_ns(rng, 10_000) for _ in range(5000)]
        assert abs(np.mean(samples) - 10_000) < 600
