"""Discrete-event simulation engine (time units, events, queue, tracing)."""

from .clock import TICK_US, US_PER_MS, US_PER_SEC
from .engine import Engine, SimulationError
from .events import Event, EventKind
from .queue import EventQueue
from .rng import RngRegistry
from .trace import Segment, Tracer

__all__ = [
    "TICK_US", "US_PER_MS", "US_PER_SEC",
    "Engine", "SimulationError",
    "Event", "EventKind", "EventQueue",
    "RngRegistry",
    "Segment", "Tracer",
]
