"""Command-line front end: run one simulation, sweep seeds, plot results.

Subcommands:
  run    execute one simulation, streaming steps.csv, then write summary.json
  sweep  paired control-on/control-off runs across seeds, write sweep.csv
  plot   render steps.csv files into SVG charts

Set DRS_SIM_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_as_dict,
    load_config,
)
from .engine import (
    ConstraintViolation,
    RunSummary,
    StepRecord,
    aggregate_improvement,
    paired_sweep,
    simulate,
    summarize,
)
from .rng import SEED_LIMIT
from .svgplot import bar_chart, line_chart

log = logging.getLogger("drs_sim")

STEPS_CSV_COLUMNS = [
    "step",
    "time_s",
    "pair_id",
    "cycle_index",
    "tx_x",
    "tx_y",
    "rx_x",
    "rx_y",
    "drs_x",
    "drs_y",
    "drs_z",
    "drs_yaw_rad",
    "alpha_rad",
    "null_mode",
    "pl_desired_db",
    "pl_interf_db",
    "sinr_db",
    "rate_bps",
    "control",
]

SWEEP_CSV_COLUMNS = ["seed", "mean_rate_on", "mean_rate_off", "improvement_pct"]

# Largest seed count ``--seeds N`` accepts; the sweep holds one result per seed.
MAX_SEED_COUNT = 100_000


def _fnum(value: float) -> str:
    # repr() is the shortest round-trip form, so identical runs serialize
    # to identical bytes and parsing the CSV recovers the exact doubles.
    return repr(float(value))


def _record_row(record: StepRecord) -> list[str]:
    return [
        str(record.step_index),
        _fnum(record.time_s),
        str(record.pair_id),
        str(record.cycle_index),
        _fnum(record.tx_pos.x),
        _fnum(record.tx_pos.y),
        _fnum(record.rx_pos.x),
        _fnum(record.rx_pos.y),
        _fnum(record.drs.position.x),
        _fnum(record.drs.position.y),
        _fnum(record.drs.position.z),
        _fnum(record.drs.yaw),
        _fnum(record.alpha_applied),
        record.null_mode,
        _fnum(record.pl_desired_db),
        _fnum(record.pl_interference_db),
        _fnum(record.sinr_db),
        _fnum(record.rate_bps),
        "on" if record.control_on else "off",
    ]


def _write_rows(writer, records: Iterable[StepRecord]) -> Iterator[StepRecord]:
    """Write the steps.csv header, then each record's row as it arrives, passing it on."""
    writer.writerow(STEPS_CSV_COLUMNS)
    for record in records:
        writer.writerow(_record_row(record))
        yield record


def summary_as_dict(config: RunConfig, summary: RunSummary) -> dict:
    mode = "on" if summary.control_on else "off"
    return {
        "seed": summary.seed,
        "mode": mode,
        "sinr_form": config.sim.sinr_form,
        "steps": config.sim.steps,
        "n_records": summary.n_records,
        "n_pairs": summary.n_pairs,
        "mean_rate_bps": {mode: summary.mean_rate_bps},
        "improvement_pct": None,
        "config": config_as_dict(config),
    }


def write_summary_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_with_overrides(args)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.info("running %d steps with seed %d", config.sim.steps, config.sim.scenario.seed)
    # Rows are written as the steps run, to a file that becomes steps.csv
    # only when the run succeeds: a failed run leaves no partial steps.csv.
    steps_path, partial = out_dir / "steps.csv", out_dir / "steps.csv.partial"
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            summary = summarize(config.sim, _write_rows(csv.writer(fh), simulate(config.sim)))
        partial.replace(steps_path)
    finally:
        partial.unlink(missing_ok=True)
    write_summary_json(out_dir / "summary.json", summary_as_dict(config, summary))
    if summary.n_records == 0:
        scenario = config.sim.scenario
        if scenario.arrival_rate == 0.0:
            why = "no vehicle arrives (scenario.arrival_rate = 0)"
        elif scenario.v2v_rate == 0.0:
            why = "no pair starts (scenario.v2v_rate = 0)"
        else:
            why = f"no pairing event found a partner within run.steps = {config.sim.steps}"
        log.warning("the run served no step: %s", why)
    mean = summary.mean_rate_bps
    print(
        f"wrote {steps_path} ({summary.n_records} records, "
        f"{summary.n_pairs} pairs, mean rate "
        f"{'n/a' if mean is None else f'{mean:.1f} bit/s'})"
    )
    return 0


def _parse_seeds(spec: str) -> list[int]:
    spec = spec.strip()
    if "," in spec:
        seeds = [int(part) for part in spec.split(",") if part.strip()]
        if not seeds:
            raise ValueError("empty seed list")
        outside = [seed for seed in seeds if not 0 <= seed < SEED_LIMIT]
        if outside:
            raise ValueError(f"seed(s) {', '.join(map(str, outside))} not in [0, 2**64)")
        repeated = sorted(seed for seed, n in Counter(seeds).items() if n > 1)
        if repeated:
            raise ValueError(f"repeated seed(s) {', '.join(map(str, repeated))}")
        return seeds
    count = int(spec)
    if not 1 <= count <= MAX_SEED_COUNT:
        raise ValueError(f"seed count must be in [1, {MAX_SEED_COUNT}], got {count}")
    return list(range(1, count + 1))


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_with_overrides(args)
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        raise ConfigError(f"bad --seeds value: {exc}") from None
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.info("sweeping %d seeds x %d steps", len(seeds), config.sim.steps)
    runs = paired_sweep(config.sim, seeds, jobs=args.jobs)
    aggregate = aggregate_improvement(runs)
    with open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for run in runs:
            writer.writerow(
                [
                    str(run.seed),
                    "" if run.mean_rate_on is None else _fnum(run.mean_rate_on),
                    "" if run.mean_rate_off is None else _fnum(run.mean_rate_off),
                    "" if run.improvement_pct is None else _fnum(run.improvement_pct),
                ]
            )
        if aggregate is not None:
            mean_on, mean_off, improvement = aggregate
            writer.writerow(
                ["aggregate", _fnum(mean_on), _fnum(mean_off), _fnum(improvement)]
            )
    if aggregate is None:
        print(f"wrote {out_dir / 'sweep.csv'} (no served pairs in any run)")
    else:
        print(
            f"wrote {out_dir / 'sweep.csv'}: mean rate on={aggregate[0]:.1f} "
            f"off={aggregate[1]:.1f} bit/s, improvement {aggregate[2]:+.3g}%"
        )
    return 0


class PlotError(ValueError):
    """Input CSV unusable for plotting."""


def _read_rates(paths: list[Path]) -> dict[str, dict[int, list[float]]]:
    """Rates from steps.csv files, grouped by control mode, then by cycle index."""
    rates: dict[str, dict[int, list[float]]] = {}
    for path in paths:
        if not path.is_file():
            raise PlotError(f"input CSV not found: {path}")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            missing = [c for c in ("cycle_index", "rate_bps", "control") if c not in fields]
            if missing:
                raise PlotError(f"{path}: missing column(s) {', '.join(missing)}")
            for lineno, raw in enumerate(reader, start=2):
                try:
                    rate_bps = float(raw["rate_bps"])
                    if not math.isfinite(rate_bps):
                        raise ValueError(f"rate_bps must be finite, got {raw['rate_bps']}")
                    cycle = int(raw["cycle_index"])
                    control = raw["control"]
                    if control is None:
                        raise ValueError("no control field (the row is shorter than the header)")
                except (TypeError, ValueError) as exc:
                    raise PlotError(f"{path}:{lineno}: bad row: {exc}") from None
                rates.setdefault(control, {}).setdefault(cycle, []).append(rate_bps)
    if not rates:
        raise PlotError("no data rows in input CSV")
    return rates


def cmd_plot(args: argparse.Namespace) -> int:
    rates = _read_rates([Path(p) for p in args.csv])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # fsum is correctly rounded, so a mode's mean over its cycle lists equals
    # its mean over the rows in file order.
    series, bars = [], []
    for mode, cycles in sorted(rates.items()):
        label = f"control {mode}"
        series.append((label, [(c, math.fsum(v) / len(v)) for c, v in sorted(cycles.items())]))
        mode_rates = [rate_bps for v in cycles.values() for rate_bps in v]
        bars.append((label, math.fsum(mode_rates) / len(mode_rates)))
    line_svg = line_chart(
        series,
        title="Relayed rate vs. cycle index",
        xlabel="cycle index (steps since pair start)",
        ylabel="mean rate [bit/s]",
    )
    bar_svg = bar_chart(bars, title="Mean relayed rate per mode", ylabel="rate [bit/s]")

    line_path = out_dir / "rate_vs_cycle.svg"
    bar_path = out_dir / "mean_rate.svg"
    line_path.write_text(line_svg, encoding="utf-8")
    bar_path.write_text(bar_svg, encoding="utf-8")
    print(f"wrote {line_path} and {bar_path}")
    return 0


def _load_with_overrides(args: argparse.Namespace) -> RunConfig:
    config = RunConfig() if args.config is None else load_config(args.config)
    control = None
    if getattr(args, "orientation_control", None) is not None:
        control = args.orientation_control == "on"
    return apply_overrides(
        config,
        seed=getattr(args, "seed", None),
        steps=getattr(args, "steps", None),
        orientation_control=control,
        sinr_form=getattr(args, "sinr_form", None),
        output_dir=getattr(args, "out", None),
    )


def _add_config_args(sub: argparse.ArgumentParser, with_seed: bool) -> None:
    sub.add_argument("--config", help="config file (section.key = value lines)")
    if with_seed:
        sub.add_argument("--seed", type=int, help="override the scenario seed")
    sub.add_argument("--steps", type=int, help="override the number of steps")
    sub.add_argument(
        "--orientation-control",
        dest="orientation_control",
        choices=("on", "off"),
        help="enable or disable yaw control",
    )
    sub.add_argument(
        "--sinr-form",
        dest="sinr_form",
        choices=("standard", "paper-literal"),
        help="SINR evaluation form",
    )
    sub.add_argument("--out", help="output directory (default from config)")


class _Parser(argparse.ArgumentParser):
    """Reads anything that starts like a negative number (``--seeds -1,2``) as a
    value, and reports usage errors as bad input (exit 1), like a bad config."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drs-sim",
        description="Drone-mounted reflecting-surface relay simulator for highway V2V links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    _add_config_args(run_p, with_seed=True)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="paired on/off runs across seeds")
    _add_config_args(sweep_p, with_seed=False)
    sweep_p.add_argument(
        "--seeds",
        default="20",
        help=f"seed count N <= {MAX_SEED_COUNT} (runs seeds 1..N) or explicit comma list",
    )
    sweep_p.add_argument("--jobs", type=int, default=None, help="parallel worker count")
    sweep_p.set_defaults(func=cmd_sweep)

    plot_p = sub.add_parser("plot", help="render steps.csv files to SVG charts")
    plot_p.add_argument("csv", nargs="+", help="steps.csv file(s) to plot")
    plot_p.add_argument("--out", default=".", help="output directory")
    plot_p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("DRS_SIM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, PlotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ConstraintViolation as exc:
        print(f"error: constraint violated: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
