"""Run configuration: defaults, flat key-value config files, validation.

Config files are plain text, one ``section.key = value`` assignment per
line, ``#`` comments allowed.  Every key is typed and listed in _KEYS;
unknown keys are rejected so typos fail loudly instead of silently running
the defaults.  Command-line flags are assignments to keys that replace the
file's values, so a run's config is converted, assembled and validated once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from pathlib import Path

from .channel import RadioConfig, RisConfig, SINR_FORMS
from .engine import SimConfig
from .planner import MotionLimits, WorldBounds
from .traffic import INTERFERER_KINDS, ScenarioConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


RunConfig = namedtuple("RunConfig", ["sim", "output_dir"])
RunConfig.__doc__ = """SimConfig plus front-end concerns (where to write results).

``sim`` (SimConfig), ``output_dir`` (str).
"""


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


def _parse_directory(raw: str) -> str:
    # An empty path would make the run write into the working directory.
    if not raw:
        raise ValueError("expected a directory path, got ''")
    return raw


# key -> (converter, (group, field)): field is an attribute of the config
# object that config_as_dict maps the group to.
_KEYS: dict[str, tuple[Callable[[str], object], tuple[str, ...]]] = {
    "scenario.arrival_rate": (float, ("scenario", "arrival_rate")),
    "scenario.v2v_rate": (float, ("scenario", "v2v_rate")),
    "scenario.seed": (int, ("scenario", "seed")),
    "scenario.interferer": (_parse_choice(INTERFERER_KINDS), ("scenario", "interferer_kind")),
    "scenario.rsu_x": (float, ("scenario", "rsu_x")),
    "scenario.rsu_y": (float, ("scenario", "rsu_y")),
    "scenario.rsu_z": (float, ("scenario", "rsu_z")),
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
    "run.output_dir": (_parse_directory, ("output", "output_dir")),
}


def _assignments(text: str, source: str) -> Iterator[tuple[str, str, str]]:
    """``(source:line, key, raw value)`` for each assignment line of config text."""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key: {key}")
        yield f"{source}:{lineno}", key, raw_value.strip().strip("\"'")


def parse_config_text(
    text: str, source: str = "<config>", overrides: Iterable[tuple[str, str, str]] = ()
) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Each ``(flag, key, raw value)`` override replaces the text's value for
    that key, as a later line for the same key would; its raw value is taken
    as given, with no comment or quote stripping.
    """
    values: dict[str, dict[str, object]] = {}
    for where, key, raw_value in chain(_assignments(text, source), overrides):
        converter, (group, name) = _KEYS[key]
        try:
            value = converter(raw_value)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {raw_value!r}")
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from None
        values.setdefault(group, {})[name] = value
    return build_config(values)


def build_config(values: dict[str, dict[str, object]]) -> RunConfig:
    """Assemble a RunConfig from grouped raw values, reporting bad combinations."""
    try:
        scenario = ScenarioConfig(
            bounds=WorldBounds(**values.get("bounds", {})),
            limits=MotionLimits(**values.get("limits", {})),
            **values.get("scenario", {}),
        )
        radio = RadioConfig(**values.get("radio", {}))
        ris = RisConfig(**values.get("ris", {}))
        sim = SimConfig(scenario=scenario, radio=radio, ris=ris, **values.get("run", {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(sim, values.get("output", {}).get("output_dir", "."))


def load_config(
    path: str | Path | None, overrides: Iterable[tuple[str, str, str]] = ()
) -> RunConfig:
    """The config file at ``path`` (the defaults when None), with ``overrides`` applied."""
    if path is None:
        return parse_config_text("", overrides=overrides)
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_config_text(text, str(path), overrides)


def config_as_dict(config: RunConfig) -> dict[str, object]:
    """Flat echo of every config key, suitable for the run summary."""
    sim = config.sim
    scenario = sim.scenario
    groups = {
        "scenario": scenario,
        "bounds": scenario.bounds,
        "limits": scenario.limits,
        "ris": sim.ris,
        "radio": sim.radio,
        "run": sim,
        "output": config,
    }
    return {key: getattr(groups[group], name) for key, (_, (group, name)) in _KEYS.items()}
