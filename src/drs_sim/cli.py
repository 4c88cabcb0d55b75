"""Command-line front end: run one simulation, sweep seeds, plot results.

Subcommands:
  run    execute one simulation, streaming steps.csv, then write summary.json
  sweep  paired control-on/control-off runs across seeds, write sweep.csv
  plot   render steps.csv files into SVG charts

``run`` takes its steps from ``engine.trajectory_ahead`` and writes each
arm's record as its steps.csv row here.

Set DRS_SIM_LOG=debug|info|warning|error to control log verbosity.  Messages
are ``LEVEL:drs_sim:message`` lines written straight to stderr by
``engine.log``, not through ``logging``; library callers capture them by
redirecting ``sys.stderr``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from pathlib import Path

from .config import ConfigError, RunConfig, config_as_dict, load_config
from .engine import (
    LOG_LEVELS,
    ConstraintViolation,
    RunSummary,
    StepRecord,
    aggregate_improvement,
    improvement_pct,
    log,
    paired_sweep,
    simulate,
    summarize,
    trajectory_ahead,
)
from .rng import SEED_LIMIT

STEPS_CSV_COLUMNS = list(StepRecord._fields)

SWEEP_CSV_COLUMNS = ["seed", "mean_rate_on", "mean_rate_off", "improvement_pct"]

# Largest seed count ``--seeds N`` accepts; the sweep holds one result per seed.
MAX_SEED_COUNT = 100_000


# CSV rows are written without the csv module: every field is an int, a
# float's repr() (digits, "inf", "-inf" or "nan"), a null-mode name, "on",
# "off", a seed or "aggregate", or empty, so no field ever needs quoting.
# repr() is the shortest round-trip form, so identical runs serialize to
# identical bytes and parsing the CSV recovers the exact doubles.  Lines end
# in CRLF, as csv.writer's default dialect writes them.  A StepRecord's
# fields are the steps.csv columns, in order: its line is ``_STEP_ROW % record``.

_STEP_ROW = "%s,%r,%s,%s,%r,%r,%r,%r,%r,%r,%r,%r,%r,%s,%r,%r,%r,%r,%s\r\n"


def _sweep_row(label: int | str, values: Iterable[float | None]) -> str:
    """One sweep.csv line: the seed or "aggregate", then each value (empty for None)."""
    return ",".join([str(label), *("" if v is None else repr(v) for v in values)]) + "\r\n"


def _write_rows(fh, steps: Iterable[list[StepRecord]]) -> Iterator[list[StepRecord]]:
    """Write the steps.csv header, then each step's rows as it arrives, passing the step on."""
    write = fh.write
    write(",".join(STEPS_CSV_COLUMNS) + "\r\n")
    for records in steps:
        for record in records:
            write(_STEP_ROW % record)
        yield records


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[io.TextIOWrapper]:
    """Write ``<path>.partial`` in the block, then rename it to ``path``; on error remove it."""
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


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
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_with_overrides(args)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log("info", f"running {config.sim.steps} steps with seed {config.sim.scenario.seed}")
    steps_path = out_dir / "steps.csv"
    # steps.csv is complete before summary.json is written, and renamed into
    # place only once summary.json is, so an error before then replaces neither file.
    # Leaving the block early kills the trajectory's producer, if one was forked,
    # and reaps it.
    with _replacing(steps_path) as fh, contextlib.closing(trajectory_ahead(config.sim)) as batches:
        (summary,) = summarize(config.sim, _write_rows(fh, simulate(config.sim, batches=batches)))
        write_summary_json(out_dir / "summary.json", summary_as_dict(config, summary))
    if summary.n_records == 0:
        scenario = config.sim.scenario
        if scenario.arrival_rate == 0.0:
            why = "no vehicle arrives (scenario.arrival_rate = 0)"
        elif scenario.v2v_rate == 0.0:
            why = "no pair starts (scenario.v2v_rate = 0)"
        else:
            why = f"no pairing event found a partner within run.steps = {config.sim.steps}"
        log("warning", f"the run served no step: {why}")
    mean = summary.mean_rate_bps
    print(
        f"wrote {steps_path} ({summary.n_records} records, "
        f"{summary.n_pairs} pairs, mean rate "
        f"{'n/a' if mean is None else f'{mean:.6g} bit/s'})"
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
    log("info", f"sweeping {len(seeds)} seeds x {config.sim.steps} steps")
    runs = paired_sweep(config.sim, seeds, jobs=args.jobs)
    aggregate = aggregate_improvement(runs)
    with _replacing(out_dir / "sweep.csv") as fh:
        fh.write(",".join(SWEEP_CSV_COLUMNS) + "\r\n")
        for on, off in runs:
            means = (on.mean_rate_bps, off.mean_rate_bps)
            fh.write(_sweep_row(on.seed, (*means, improvement_pct(*means))))
        if aggregate is not None:
            fh.write(_sweep_row("aggregate", aggregate))
    if aggregate is None:
        print(f"wrote {out_dir / 'sweep.csv'} (no served pairs in any run)")
    else:
        print(
            f"wrote {out_dir / 'sweep.csv'}: mean rate on={aggregate[0]:.6g} "
            f"off={aggregate[1]:.6g} bit/s, improvement {aggregate[2]:+.3g}%"
        )
    return 0


class PlotError(ValueError):
    """Input CSV unusable for plotting."""


def _read_rates(paths: list[Path]) -> dict[str, dict[int, list[float]]]:
    """Rates from steps.csv files, grouped by control mode, then by cycle index."""
    import csv

    rates: dict[str, dict[int, list[float]]] = {}
    for path in paths:
        if not path.is_file():
            raise PlotError(f"input CSV not found: {path}")
        try:
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
                        if abs(cycle) > 2**53:  # beyond this, floats skip integers
                            raise ValueError("cycle_index must be within +-2**53")
                        control = raw["control"]
                        if control is None:
                            raise ValueError("no control field (the row is shorter than the header)")
                        if re.search(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", control):
                            raise ValueError(f"control {control!r} holds a character XML forbids")
                    except (TypeError, ValueError) as exc:
                        raise PlotError(f"{path}:{lineno}: bad row: {exc}") from None
                    rates.setdefault(control, {}).setdefault(cycle, []).append(rate_bps)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise PlotError(f"{path}: unreadable CSV: {exc}") from None
    if not rates:
        raise PlotError("no data rows in input CSV")
    return rates


def cmd_plot(args: argparse.Namespace) -> int:
    from .svgplot import bar_chart, line_chart

    # An empty path would put the charts in the working directory.
    if not args.out:
        raise PlotError("--out: expected a directory path, got ''")
    rates = _read_rates([Path(p) for p in args.csv])

    # fsum is correctly rounded, so a mode's mean over its cycle lists equals
    # its mean over the rows in file order.
    series, bars = [], []
    for mode, cycles in sorted(rates.items()):
        label = f"control {mode}"
        mode_rates = [rate_bps for v in cycles.values() for rate_bps in v]
        try:
            means = [(c, math.fsum(v) / len(v)) for c, v in sorted(cycles.items())]
            series.append((label, means))
            bars.append((label, math.fsum(mode_rates) / len(mode_rates)))
        except OverflowError:
            raise PlotError(f"{label}: rates too large to average (their sum overflows)") from None
    try:
        line_svg = line_chart(
            series,
            title="Relayed rate vs. cycle index",
            xlabel="cycle index (steps since pair start)",
            ylabel="mean rate [bit/s]",
        )
        bar_svg = bar_chart(bars, title="Mean relayed rate per mode", ylabel="rate [bit/s]")
    except ValueError as exc:
        raise PlotError(f"{', '.join(args.csv)}: cannot chart: {exc}") from None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    line_path = out_dir / "rate_vs_cycle.svg"
    bar_path = out_dir / "mean_rate.svg"
    # Nested like run's outputs: an error before the renames replaces neither chart.
    with _replacing(line_path) as line_fh, _replacing(bar_path) as bar_fh:
        line_fh.write(line_svg)
        bar_fh.write(bar_svg)
    print(f"wrote {line_path} and {bar_path}")
    return 0


# Each config flag sets one config key; its argparse dest is the flag's name.
CONFIG_FLAGS = {  # flag: (key, help)
    "--seed": ("scenario.seed", "override the scenario seed"),
    "--steps": ("run.steps", "override the number of steps"),
    "--orientation-control": ("run.orientation_control", "yaw control: on or off"),
    "--sinr-form": ("run.sinr_form", "SINR evaluation form: standard or paper-literal"),
    "--out": ("run.output_dir", "output directory (default from config)"),
}


def _load_with_overrides(args: argparse.Namespace) -> RunConfig:
    overrides = []
    for flag, (key, _) in CONFIG_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)  # sweep has no --seed
        if value is not None:
            overrides.append((flag, key, value))
    return load_config(args.config, overrides)


def _add_config_args(sub: argparse.ArgumentParser, with_seed: bool) -> None:
    sub.add_argument("--config", help="config file (section.key = value lines)")
    for flag, (_, help_text) in CONFIG_FLAGS.items():
        if with_seed or flag != "--seed":
            sub.add_argument(flag, help=help_text)


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
    try:
        level = os.environ.get("DRS_SIM_LOG", "warning")
        if level.lower() not in LOG_LEVELS:
            raise ConfigError(f"DRS_SIM_LOG must be one of {', '.join(LOG_LEVELS)}, got {level!r}")
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
    """The process entry of ``drs-sim`` and ``python -m drs_sim.cli``.

    What is imported by now lives as long as the process, so it is frozen
    out of the collector: no collection, the one at exit included, traverses
    it again.  ``main`` does not freeze, so library and in-process callers
    keep their heaps collectable.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
