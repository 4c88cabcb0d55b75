"""Simulator for a drone-carried reflecting surface relaying highway V2V links.

The drone hovers above a two-lane road and reflects the transmitter's
signal toward the receiver.  Each step it moves toward the
throughput-optimal hover point (midpoint of the pair, altitude sqrt(3) times
the half-separation, clamped into the flight box) and rotates the surface so
that interference reflected from a nearby node lands on a zero of the array
factor.
"""

from .engine import SimConfig, run_simulation

__version__ = "0.1.0"

__all__ = ["SimConfig", "run_simulation"]
