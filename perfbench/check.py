"""Output checks for the drs-sim benchmark.

Each check reads what one CLI command wrote and raises CheckError when the
output is wrong.  The expected CSV headers, the allowed null modes and the
aggregation formulas are written out here rather than imported from
drs_sim, so that a change in the program cannot silently change the check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

STEPS_COLUMNS = [
    "step", "time_s", "pair_id", "cycle_index", "tx_x", "tx_y", "rx_x", "rx_y",
    "drs_x", "drs_y", "drs_z", "drs_yaw_rad", "alpha_rad", "null_mode",
    "pl_desired_db", "pl_interf_db", "sinr_db", "rate_bps", "control",
]
SWEEP_COLUMNS = ["seed", "mean_rate_on", "mean_rate_off", "improvement_pct"]
NULL_MODES = {"analytic-null", "fallback-min", "none", "off"}

# Slack on the per-step budgets.  The CSV holds exact doubles, but the
# distance here is computed in a different order than the program's.
DISPLACEMENT_SLACK = 1e-6  # [m]
YAW_SLACK = 1e-9  # [rad]


class CheckError(ValueError):
    """A command's output failed a check; the message says which."""


@dataclass(frozen=True)
class RunOutput:
    """What the benchmark keeps from one checked `drs-sim run`."""

    digest: str  # sha256 of steps.csv
    n_records: int
    mean_rate_bps: float | None


@dataclass(frozen=True)
class SweepOutput:
    """What the benchmark keeps from one checked `drs-sim sweep`."""

    digest: str  # sha256 of sweep.csv
    aggregate: tuple[float, float, float] | None  # mean on, mean off, improvement %


def read_pinned(path: Path) -> dict[str, str]:
    """Parse a `section.key = value` file into raw strings, in file order."""
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckError(f"{path}: expected 'key = value', got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def _same_value(echoed: object, raw: str) -> bool:
    if isinstance(echoed, bool):
        return echoed == (raw.lower() in ("true", "on", "yes", "1"))
    if isinstance(echoed, int):
        return echoed == int(raw)
    if isinstance(echoed, float):
        return echoed == float(raw)
    return echoed == raw


def check_config_echo(echo: dict, pinned: dict[str, str], overrides: dict[str, str]) -> None:
    """The config echoed in summary.json must be the pinned file plus overrides."""
    missing = sorted(set(pinned) - set(echo))
    extra = sorted(set(echo) - set(pinned))
    if missing or extra:
        raise CheckError(f"config keys differ from the pinned file: missing {missing}, extra {extra}")
    for key, raw in pinned.items():
        want = overrides.get(key, raw)
        if not _same_value(echo[key], want):
            raise CheckError(f"config echo {key} = {echo[key]!r}, pinned {want!r}")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path, columns: list[str]) -> list[list[str]]:
    if not path.is_file():
        raise CheckError(f"{path.name} was not written")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != columns:
        raise CheckError(f"{path.name} header is {rows[0] if rows else None}")
    return rows[1:]


def check_run(out_dir: Path, pinned: dict[str, str], overrides: dict[str, str]) -> RunOutput:
    """Check steps.csv and summary.json written by one `drs-sim run`."""
    summary_path = out_dir / "summary.json"
    if not summary_path.is_file():
        raise CheckError("summary.json was not written")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    check_config_echo(summary["config"], pinned, overrides)
    rows = _read_csv(out_dir / "steps.csv", STEPS_COLUMNS)
    col = {name: i for i, name in enumerate(STEPS_COLUMNS)}

    if len(rows) != summary["n_records"]:
        raise CheckError(f"steps.csv has {len(rows)} rows, summary says {summary['n_records']}")
    mode = summary["mode"]
    rates = [float(row[col["rate_bps"]]) for row in rows]
    mean = math.fsum(rates) / len(rates) if rates else None
    if summary["mean_rate_bps"] != {mode: mean}:
        raise CheckError(f"mean_rate_bps {summary['mean_rate_bps']} != fsum(rate_bps)/rows = {mean!r}")

    step_length = float(pinned["limits.v_drone"]) * float(pinned["limits.time_step"])
    yaw_budget = float(pinned["limits.rot_rate"]) * float(pinned["limits.time_step"])
    previous = None
    for row in rows:
        step = int(row[col["step"]])
        if row[col["control"]] != mode:
            raise CheckError(f"step {step}: control {row[col['control']]!r} in a {mode!r} run")
        null_mode = row[col["null_mode"]]
        if null_mode not in NULL_MODES:
            raise CheckError(f"step {step}: unknown null_mode {null_mode!r}")
        if mode == "off" and (null_mode != "off" or float(row[col["alpha_rad"]]) != 0.0):
            raise CheckError(f"step {step}: rotation with control off")
        pose = tuple(float(row[col[name]]) for name in ("drs_x", "drs_y", "drs_z", "drs_yaw_rad"))
        if previous is not None and previous[0] + 1 == step:
            moved = math.dist(previous[1][:3], pose[:3])
            if moved > step_length + DISPLACEMENT_SLACK:
                raise CheckError(f"step {step}: moved {moved} m, budget {step_length} m")
            turn = abs(math.remainder(pose[3] - previous[1][3], 2.0 * math.pi))
            if turn > yaw_budget + YAW_SLACK:
                raise CheckError(f"step {step}: turned {turn} rad, budget {yaw_budget} rad")
        previous = (step, pose)
    return RunOutput(_digest(out_dir / "steps.csv"), len(rows), mean)


def _optional(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def check_sweep(out_dir: Path, seeds: list[int]) -> SweepOutput:
    """Check sweep.csv: one row per seed in order, and an aggregate row
    recomputable from them.

    A seed's improvement is 100 (on - off) / off, empty unless both means
    are nonzero; the aggregate averages the seeds where both are nonzero.
    """
    rows = _read_csv(out_dir / "sweep.csv", SWEEP_COLUMNS)
    per_seed = rows[: len(seeds)]
    if [row[0] for row in per_seed] != [str(seed) for seed in seeds]:
        raise CheckError(f"sweep.csv seed rows {[row[0] for row in per_seed]} != {seeds}")
    ons, offs = [], []
    for row in per_seed:
        on, off, improvement = (_optional(cell) for cell in row[1:])
        want = 100.0 * (on - off) / off if on and off else None
        if improvement != want:
            raise CheckError(f"seed {row[0]}: improvement {improvement!r}, recomputed {want!r}")
        if on and off:
            ons.append(on)
            offs.append(off)
    aggregate = None
    if ons:
        mean_on = math.fsum(ons) / len(ons)
        mean_off = math.fsum(offs) / len(offs)
        aggregate = (mean_on, mean_off, 100.0 * (mean_on - mean_off) / mean_off)
    want_rows = [["aggregate", *map(repr, aggregate)]] if aggregate else []
    if rows[len(seeds):] != want_rows:
        raise CheckError(f"sweep.csv aggregate rows {rows[len(seeds):]} != recomputed {want_rows}")
    return SweepOutput(_digest(out_dir / "sweep.csv"), aggregate)
