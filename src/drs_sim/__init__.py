"""Simulator for a drone-carried reflecting surface relaying highway V2V links.

The drone hovers above a two-lane road and reflects the transmitter's
signal toward the receiver.  Each step it moves toward the
throughput-optimal hover point (midpoint of the pair, altitude sqrt(3) times
the half-separation, clamped into the flight box) and rotates the surface so
that interference reflected from a nearby node lands on a zero of the array
factor.
"""

from .channel import (
    NO_PATH,
    LinkGeometry,
    RadioConfig,
    RisConfig,
    dirichlet_ratio,
    fraunhofer_distance,
    path_loss_far_field,
    psi,
    radiation_pattern,
    rate,
    sinr,
)
from .config import ConfigError, RunConfig, default_config, load_config
from .engine import (
    ConstraintViolation,
    SimConfig,
    StepRecord,
    RunSummary,
    paired_sweep,
    run_simulation,
    run_step,
)
from .geometry import (
    AngularCoords,
    Pose,
    Vec3,
    angles_to,
    rotation_between,
    step_displacement,
    wrap_angle,
)
from .nullsteer import (
    NullSolution,
    NullSteerInput,
    candidate_alphas,
    harmonic_coefficients,
    psi_interference,
    select_rotation,
)
from .planner import (
    MotionLimits,
    WorldBounds,
    optimal_height,
    optimal_location,
    step_towards,
)
from .rng import SplitMix64
from .traffic import ScenarioConfig, TrafficModel, V2VPair, Vehicle

__version__ = "0.1.0"

__all__ = [
    "AngularCoords",
    "ConfigError",
    "ConstraintViolation",
    "LinkGeometry",
    "MotionLimits",
    "NO_PATH",
    "NullSolution",
    "NullSteerInput",
    "Pose",
    "RadioConfig",
    "RisConfig",
    "RunConfig",
    "RunSummary",
    "ScenarioConfig",
    "SimConfig",
    "SplitMix64",
    "StepRecord",
    "TrafficModel",
    "V2VPair",
    "Vec3",
    "Vehicle",
    "WorldBounds",
    "angles_to",
    "candidate_alphas",
    "default_config",
    "dirichlet_ratio",
    "fraunhofer_distance",
    "harmonic_coefficients",
    "load_config",
    "optimal_height",
    "optimal_location",
    "paired_sweep",
    "path_loss_far_field",
    "psi",
    "psi_interference",
    "radiation_pattern",
    "rate",
    "rotation_between",
    "run_simulation",
    "run_step",
    "select_rotation",
    "sinr",
    "step_displacement",
    "step_towards",
    "wrap_angle",
]
