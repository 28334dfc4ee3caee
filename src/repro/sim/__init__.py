"""Simulation substrate: event engine, tracing, deterministic RNG."""

from repro.sim.engine import Engine, Event, MSEC, SEC, USEC, ns_to_ms, ns_to_sec
from repro.sim.rng import make_rng, split_rng
from repro.sim.tracing import Tracer

__all__ = [
    "Engine",
    "Event",
    "USEC",
    "MSEC",
    "SEC",
    "ns_to_ms",
    "ns_to_sec",
    "make_rng",
    "split_rng",
    "Tracer",
]
