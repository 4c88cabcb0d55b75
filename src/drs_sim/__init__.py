"""Simulator for a drone-carried reflecting surface relaying highway V2V links.

The drone hovers above a two-lane road and reflects the transmitter's
signal toward the receiver.  Each step it moves toward the planner's hover
point (the pair's midpoint at sqrt(3) times their half-separation, clamped
into the flight box; the path loss itself is least at sqrt(3/2) times it)
and rotates the surface so that interference reflected from a nearby node
lands on a zero of the array factor.
"""

from .engine import SimConfig, run_simulation

__version__ = "0.1.0"

__all__ = ["SimConfig", "run_simulation"]
