"""Run configuration: defaults, flat key-value config files, validation.

Config files are plain text, one ``section.key = value`` assignment per
line, ``#`` comments allowed.  Every key is typed and listed in _KEYS;
unknown keys are rejected so typos fail loudly instead of silently running
the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .channel import RadioConfig, RisConfig, SINR_FORMS
from .engine import SimConfig
from .geometry import Vec3
from .planner import MotionLimits, WorldBounds
from .traffic import INTERFERER_KINDS, ScenarioConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """SimConfig plus front-end concerns (where to write results)."""

    sim: SimConfig = field(default_factory=SimConfig)
    output_dir: str = "."


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_choice(options: tuple[str, ...]):
    def convert(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {options}, got {raw!r}")
        return raw

    return convert


# key -> (converter, (group, field)): field is an attribute of the config
# object that config_as_dict maps the group to.
_KEYS: dict[str, tuple[Any, tuple[str, ...]]] = {
    "scenario.arrival_rate": (float, ("scenario", "arrival_rate")),
    "scenario.v2v_rate": (float, ("scenario", "v2v_rate")),
    "scenario.seed": (int, ("scenario", "seed")),
    "scenario.interferer": (_parse_choice(INTERFERER_KINDS), ("scenario", "interferer_kind")),
    "scenario.rsu_x": (float, ("rsu", "x")),
    "scenario.rsu_y": (float, ("rsu", "y")),
    "scenario.rsu_z": (float, ("rsu", "z")),
    "bounds.x_min": (float, ("bounds", "x_min")),
    "bounds.x_max": (float, ("bounds", "x_max")),
    "bounds.y_min": (float, ("bounds", "y_min")),
    "bounds.y_max": (float, ("bounds", "y_max")),
    "bounds.z_min": (float, ("bounds", "z_min")),
    "bounds.z_max": (float, ("bounds", "z_max")),
    "limits.v_drone": (float, ("limits", "v_drone")),
    "limits.rot_rate": (float, ("limits", "rot_rate")),
    "limits.time_step": (float, ("limits", "time_step")),
    "limits.v_vehicle": (float, ("limits", "v_vehicle")),
    "ris.m_rows": (int, ("ris", "m_rows")),
    "ris.n_cols": (int, ("ris", "n_cols")),
    "ris.dx": (float, ("ris", "dx")),
    "ris.dy": (float, ("ris", "dy")),
    "ris.wavelength": (float, ("ris", "wavelength")),
    "ris.gain_tx": (float, ("ris", "gain_tx")),
    "ris.gain_rx": (float, ("ris", "gain_rx")),
    "ris.gain_ris": (float, ("ris", "gain_ris")),
    "ris.amplitude": (float, ("ris", "amplitude")),
    "radio.tx_power": (float, ("radio", "tx_power")),
    "radio.noise_power": (float, ("radio", "noise_power")),
    "radio.efficiency": (float, ("radio", "efficiency")),
    "radio.eff_bandwidth": (float, ("radio", "eff_bandwidth")),
    "run.steps": (int, ("run", "steps")),
    "run.orientation_control": (_parse_bool, ("run", "orientation_control")),
    "run.sinr_form": (_parse_choice(SINR_FORMS), ("run", "sinr_form")),
    "run.output_dir": (str, ("output", "output_dir")),
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text into a validated RunConfig."""
    values: dict[str, dict[str, Any]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip().strip("\"'")
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key: {key}")
        converter, (group, name) = _KEYS[key]
        try:
            value = converter(raw_value)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {raw_value!r}")
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
        values.setdefault(group, {})[name] = value
    return build_config(values)


def build_config(values: dict[str, dict[str, Any]]) -> RunConfig:
    """Assemble a RunConfig from grouped raw values, reporting bad combinations."""
    try:
        bounds = WorldBounds(**values.get("bounds", {}))
        limits = MotionLimits(**values.get("limits", {}))
        # Default RSU: middle of the area, 5 m mast; axes overridable one by one.
        rsu_values = {
            "x": 0.5 * (bounds.x_min + bounds.x_max),
            "y": 0.5 * (bounds.y_min + bounds.y_max),
            "z": 5.0,
        }
        rsu_values.update(values.get("rsu", {}))
        rsu = Vec3(rsu_values["x"], rsu_values["y"], rsu_values["z"])
        scenario = ScenarioConfig(
            bounds=bounds,
            limits=limits,
            rsu_position=rsu,
            **values.get("scenario", {}),
        )
        radio = RadioConfig(**values.get("radio", {}))
        ris = RisConfig(**values.get("ris", {}))
        sim = SimConfig(scenario=scenario, radio=radio, ris=ris, **values.get("run", {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(sim=sim, **values.get("output", {}))


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def apply_overrides(
    config: RunConfig,
    seed: int | None = None,
    steps: int | None = None,
    orientation_control: bool | None = None,
    sinr_form: str | None = None,
    output_dir: str | None = None,
) -> RunConfig:
    """Return a copy of ``config`` with any provided command-line overrides."""
    sim = config.sim
    try:
        if seed is not None:
            sim = replace(sim, scenario=replace(sim.scenario, seed=seed))
        if steps is not None:
            sim = replace(sim, steps=steps)
        if orientation_control is not None:
            sim = replace(sim, orientation_control=orientation_control)
        if sinr_form is not None:
            sim = replace(sim, sinr_form=sinr_form)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        sim=sim, output_dir=output_dir if output_dir is not None else config.output_dir
    )


def config_as_dict(config: RunConfig) -> dict[str, Any]:
    """Flat echo of every config key, suitable for the run summary."""
    sim = config.sim
    scenario = sim.scenario
    groups = {
        "scenario": scenario,
        "rsu": scenario.rsu_position,
        "bounds": scenario.bounds,
        "limits": scenario.limits,
        "ris": sim.ris,
        "radio": sim.radio,
        "run": sim,
        "output": config,
    }
    return {key: getattr(groups[group], name) for key, (_, (group, name)) in _KEYS.items()}
