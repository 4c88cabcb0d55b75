"""The output checks accept real CLI output and reject tampered output."""

import csv
from pathlib import Path

import pytest

import check
from drs_sim import cli

PINNED_PATH = Path(__file__).resolve().parent.parent / "configs" / "rsu_on.cfg"


def _run(out, steps=200, seed=3):
    assert cli.main(["run", "--config", str(PINNED_PATH), "--steps", str(steps),
                     "--seed", str(seed), "--out", str(out)]) == 0
    return {"scenario.seed": str(seed), "run.steps": str(steps), "run.output_dir": str(out)}


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_run_output_passes(tmp_path):
    overrides = _run(tmp_path)
    output = check.check_run(tmp_path, check.read_pinned(PINNED_PATH), overrides)
    assert output.n_records > 0 and output.mean_rate_bps > 0


def test_tampered_rate_cell_is_rejected(tmp_path):
    overrides = _run(tmp_path)
    column = check.STEPS_COLUMNS.index("rate_bps")

    def bump(rows):
        rows[1][column] = repr(float(rows[1][column]) * (1 + 1e-15) + 1e-9)

    _rewrite(tmp_path / "steps.csv", bump)
    with pytest.raises(check.CheckError, match="mean_rate_bps"):
        check.check_run(tmp_path, check.read_pinned(PINNED_PATH), overrides)


def test_config_echo_must_match_pinned_file(tmp_path):
    overrides = _run(tmp_path)
    pinned = check.read_pinned(PINNED_PATH)
    pinned["scenario.arrival_rate"] = "0.3"
    with pytest.raises(check.CheckError, match="scenario.arrival_rate"):
        check.check_run(tmp_path, pinned, overrides)


def test_yaw_step_over_budget_is_rejected(tmp_path):
    overrides = _run(tmp_path)
    column = check.STEPS_COLUMNS.index("drs_yaw_rad")

    def turn(rows):
        rows[-1][column] = repr(float(rows[-1][column]) + 0.5)

    _rewrite(tmp_path / "steps.csv", turn)
    with pytest.raises(check.CheckError, match="turned"):
        check.check_run(tmp_path, check.read_pinned(PINNED_PATH), overrides)


def _sweep(out, seeds=(1, 2)):
    assert cli.main(["sweep", "--config", str(PINNED_PATH), "--steps", "200", "--jobs", "1",
                     "--seeds", ",".join(map(str, seeds)), "--out", str(out)]) == 0
    return list(seeds)


def test_sweep_output_passes(tmp_path):
    seeds = _sweep(tmp_path)
    assert check.check_sweep(tmp_path, seeds).aggregate is not None


def test_wrong_aggregate_row_is_rejected(tmp_path):
    seeds = _sweep(tmp_path)

    def skew(rows):
        assert rows[-1][0] == "aggregate"
        rows[-1][1] = repr(float(rows[-1][1]) + 1.0)

    _rewrite(tmp_path / "sweep.csv", skew)
    with pytest.raises(check.CheckError, match="aggregate"):
        check.check_sweep(tmp_path, seeds)
