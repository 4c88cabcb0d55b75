import csv
import json
import logging
import math
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from drs_sim.cli import MAX_SEED_COUNT, STEPS_CSV_COLUMNS, _record_row, main, summary_as_dict
from drs_sim.config import ConfigError, parse_config_text
from drs_sim.engine import simulate, summarize
from drs_sim.geometry import Vec3

BASE_CONFIG = """
# compact scenario for fast end-to-end checks
scenario.arrival_rate = 0.3
scenario.v2v_rate = 0.05
scenario.seed = 7
run.steps = 400
run.orientation_control = on
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_writes_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "steps.csv")
        assert rows
        with open(out / "steps.csv", encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header.split(",") == STEPS_CSV_COLUMNS
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "on"
        assert summary["seed"] == 7
        assert summary["config"]["scenario.seed"] == 7
        csv_mean = math.fsum(float(r["rate_bps"]) for r in rows) / len(rows)
        assert abs(summary["mean_rate_bps"]["on"] - csv_mean) <= 1e-9 * abs(csv_mean)
        assert summary["n_records"] == len(rows)

    def test_seed_and_steps_flags_override(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main([
            "run", "--config", str(config_file), "--seed", "9", "--steps", "150",
            "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 9
        assert summary["steps"] == 150

    def test_control_off_flag(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main([
            "run", "--config", str(config_file), "--orientation-control", "off",
            "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "off"
        assert "off" in summary["mean_rate_bps"]
        rows = read_rows(out / "steps.csv")
        assert all(r["control"] == "off" for r in rows)
        assert all(r["alpha_rad"] == "0.0" for r in rows)

    def test_missing_config_fails(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 1
        assert "nope.cfg" in capsys.readouterr().err

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario.arival_rate = 0.3\n", encoding="utf-8")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "scenario.arival_rate" in capsys.readouterr().err

    def test_bad_value_named_in_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run.steps = soon\n", encoding="utf-8")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "run.steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("scenario.arrival_rate = nan", "scenario.arrival_rate"),
            ("radio.tx_power = inf", "radio.tx_power"),
            ("scenario.rsu_z = 700", "scenario.rsu_z"),
            ("bounds.z_min = 1.0", "bounds.z_min"),
            # far field of a 256 x 32 surface is ~1691 m, far below the flight box
            ("ris.m_rows = 256", "bounds.z_min"),
            # finite inputs whose best-case SINR overflows to inf
            pytest.param(
                "radio.noise_power = 5e-324\nradio.tx_power = 1e300\nscenario.interferer = none",
                "radio.tx_power",
                id="rate-overflow-radio.tx_power",
            ),
            # finite inputs whose best-case path-loss denominator underflows to 0
            pytest.param(
                "ris.gain_tx = 1e-200\nris.gain_rx = 1e-200",
                "ris.gain_tx",
                id="underflow-ris.gain_tx",
            ),
            ("ris.amplitude = 1e-170", "ris.amplitude"),
            ("scenario.seed = -1", "scenario.seed"),
            (f"scenario.seed = {2**64}", "scenario.seed"),
        ],
    )
    def test_invalid_value_fails_up_front(self, line, key, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["run", "--config", str(bad), "--steps", "50", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not out.exists()

    # a value argparse cannot read is a usage error: bad input, exit 1, not 2
    @pytest.mark.parametrize(
        "steps, name",
        [("0", "run.steps"), ("-5", "run.steps"), ("abc", "--steps")],
        ids=["0", "-5", "abc"],
    )
    def test_bad_steps_flag_fails_up_front(self, steps, name, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--steps", steps, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert name in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_fails_up_front(self, seed, config_file, tmp_path, capsys):
        # SplitMix64 would reduce the seed mod 2**64 and silently run another seed
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--seed", seed, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "scenario.seed" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_constraint_violation_exits_3(self, config_file, tmp_path, monkeypatch, capsys):
        def teleport(position, target, limits, bounds):
            return Vec3(position.x, position.y + 100.0, position.z)

        monkeypatch.setattr("drs_sim.engine.step_towards", teleport)
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: constraint violated: displacement")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "steps.csv").exists()

    def test_io_error_mid_run_leaves_no_partial_csv(self, config_file, tmp_path, monkeypatch, capsys):
        rows = 0

        def full_disk(record):
            nonlocal rows
            rows += 1
            if rows > 10:
                raise OSError(28, "No space left on device")
            return _record_row(record)

        monkeypatch.setattr("drs_sim.cli._record_row", full_disk)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error:")
        assert list(out.iterdir()) == []

    def test_byte_identical_reruns(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()

    @pytest.mark.parametrize(
        "line, steps, reason",
        [
            ("scenario.arrival_rate = 0", "400", "scenario.arrival_rate = 0"),
            ("scenario.v2v_rate = 0", "400", "scenario.v2v_rate = 0"),
            ("", "1", "no pairing event found a partner within run.steps = 1"),
        ],
    )
    def test_empty_run_logs_why(self, line, steps, reason, config_file, tmp_path, caplog):
        config_file.write_text(BASE_CONFIG + line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="drs_sim"):
            code = main([
                "run", "--config", str(config_file), "--steps", steps, "--out", str(out),
            ])
        assert code == 0
        assert (out / "steps.csv").read_bytes() == ",".join(STEPS_CSV_COLUMNS).encode() + b"\r\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_records"] == 0
        assert summary["mean_rate_bps"] == {"on": None}
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].name == "drs_sim"
        assert "served no step" in warnings[0].getMessage()
        assert reason in warnings[0].getMessage()

    def test_served_run_logs_no_warning(self, config_file, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="drs_sim"):
            assert main(["run", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["n_records"] > 0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestSweep:
    def test_rows_plus_aggregate(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--config", str(config_file), "--seeds", "2", "--steps", "250",
            "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert [r["seed"] for r in rows] == ["1", "2", "aggregate"]
        for row in rows:
            assert float(row["mean_rate_on"]) > 0.0
            assert float(row["mean_rate_off"]) > 0.0

    def test_headline_in_significant_figures(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(config_file), "--seeds", "2", "--steps", "250",
            "--jobs", "1", "--out", str(out),
        ]) == 0
        line = capsys.readouterr().out.strip()
        match = re.fullmatch(
            r"wrote \S+sweep\.csv: mean rate on=\d+\.\d off=\d+\.\d bit/s, "
            r"improvement ([+-]\d(?:\.\d{1,2})?(?:e[+-]\d\d)?)%",
            line,
        )
        assert match, line
        aggregate = read_rows(out / "sweep.csv")[-1]
        assert match.group(1) == f"{float(aggregate['improvement_pct']):+.3g}"

    def test_explicit_seed_list_matches_two_runs(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--config", str(config_file), "--seeds", "5,9", "--steps", "250",
            "--jobs", "1", "--out", str(out),
        ]) == 0
        rows = {r["seed"]: r for r in read_rows(out / "sweep.csv")}
        assert set(rows) == {"5", "9", "aggregate"}
        # re-derive seed 5 through two plain runs
        for mode, column in (("on", "mean_rate_on"), ("off", "mean_rate_off")):
            run_out = tmp_path / f"run-{mode}"
            assert main([
                "run", "--config", str(config_file), "--seed", "5", "--steps", "250",
                "--orientation-control", mode, "--out", str(run_out),
            ]) == 0
            summary = json.loads((run_out / "summary.json").read_text())
            assert float(rows["5"][column]) == pytest.approx(
                summary["mean_rate_bps"][mode], rel=1e-12
            )

    def test_bad_seed_spec(self, config_file, tmp_path, capsys):
        # seeds outside [0, 2**64) would wrap: 2**64 + 1 runs seed 1 a second time
        specs = ("0", ",", " , ", "-1,2", f"1,{2**64}", f"1,{2**64 + 1},")
        # a list that starts with a negative seed is the value of --seeds, not an option
        flags = [[f"--seeds={spec}"] for spec in specs] + [["--seeds", "-1,2"]]
        for i, seeds in enumerate(flags):
            out = tmp_path / f"sweep-{i}"
            code = main(["sweep", "--config", str(config_file), *seeds, "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert "--seeds" in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_repeated_seed_fails_up_front(self, config_file, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("drs_sim.cli.paired_sweep", no_sweep)
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--config", str(config_file), "--seeds", "3,3,", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--seeds" in err
        assert "repeated seed(s) 3" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_seed_count_above_the_limit(self, config_file, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr("drs_sim.cli.paired_sweep", no_sweep)
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--config", str(config_file), "--seeds", str(MAX_SEED_COUNT + 1),
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--seeds" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_jobs_value(self, config_file, tmp_path, capsys):
        for jobs in ("0", "-1"):
            out = tmp_path / f"sweep{jobs}"
            code = main([
                "sweep", "--config", str(config_file), "--seeds", "1,2", "--steps", "50",
                "--jobs", jobs, "--out", str(out),
            ])
            assert code == 1
            assert "--jobs" in capsys.readouterr().err
            assert not out.exists()


class TestPlot:
    def make_paired_csvs(self, config_file, tmp_path):
        paths = []
        for mode in ("on", "off"):
            out = tmp_path / f"plot-{mode}"
            assert main([
                "run", "--config", str(config_file), "--orientation-control", mode,
                "--out", str(out),
            ]) == 0
            paths.append(out / "steps.csv")
        return paths

    def test_two_series_line_and_bar(self, config_file, tmp_path):
        csv_on, csv_off = self.make_paired_csvs(config_file, tmp_path)
        out = tmp_path / "plots"
        assert main(["plot", str(csv_on), str(csv_off), "--out", str(out)]) == 0
        line = (out / "rate_vs_cycle.svg").read_text()
        bar = (out / "mean_rate.svg").read_text()
        for doc in (line, bar):
            ET.fromstring(doc)  # well-formed XML
        assert 'data-series="control on"' in line
        assert 'data-series="control off"' in line

    def test_bar_values_match_summary_means(self, config_file, tmp_path):
        csv_on, csv_off = self.make_paired_csvs(config_file, tmp_path)
        out = tmp_path / "plots"
        assert main(["plot", str(csv_on), str(csv_off), "--out", str(out)]) == 0
        root = ET.fromstring((out / "mean_rate.svg").read_text())
        bars = {
            el.get("data-label"): float(el.get("data-value"))
            for el in root.iter()
            if el.get("data-value") is not None
        }
        for mode, path in (("on", csv_on), ("off", csv_off)):
            summary = json.loads((path.parent / "summary.json").read_text())
            assert bars[f"control {mode}"] == summary["mean_rate_bps"][mode]

    def test_empty_csv_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(STEPS_CSV_COLUMNS) + "\r\n", encoding="utf-8")
        assert main(["plot", str(empty), "--out", str(tmp_path)]) == 1
        assert "no data rows" in capsys.readouterr().err

    def test_missing_column_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,rate_bps\r\n1,5.0\r\n", encoding="utf-8")
        assert main(["plot", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "cycle_index" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rate_fails(self, value, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "cycle_index,rate_bps,control\r\n0,5.0,on\r\n1," + value + ",on\r\n",
            encoding="utf-8",
        )
        out = tmp_path / "plots"
        assert main(["plot", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:3: bad row" in err
        assert "rate_bps" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows",
        [["0,5.0", "1,6.0,on"], ["0,5.0"]],
        ids=["short-row-among-full-rows", "lone-short-row"],
    )
    def test_short_row_fails(self, rows, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("cycle_index,rate_bps,control\r\n" + "\r\n".join(rows) + "\r\n", encoding="utf-8")
        out = tmp_path / "plots"
        assert main(["plot", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:2: bad row" in err
        assert "control" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_file_fails(self, tmp_path):
        assert main(["plot", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 1


def _log_floats(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


# Drafts of every config key but run.steps and run.output_dir, wide enough
# that about half fail validation: the property is about the ones that pass.
CONFIG_DRAFTS = {
    "scenario.arrival_rate": st.floats(0.0, 5.0),
    "scenario.v2v_rate": st.floats(0.0, 2.0),
    "scenario.seed": st.integers(0, 2**64 - 1),
    "scenario.interferer": st.sampled_from(["rsu", "vehicle", "none"]),
    "scenario.rsu_x": st.floats(-1000.0, 1000.0),
    "scenario.rsu_y": st.floats(-1000.0, 6000.0),
    "scenario.rsu_z": st.floats(-10.0, 200.0),
    "bounds.x_min": st.floats(-500.0, 100.0),
    "bounds.x_max": st.floats(0.0, 1000.0),
    "bounds.y_min": st.floats(-1000.0, 1000.0),
    "bounds.y_max": st.floats(0.0, 8000.0),
    "bounds.z_min": st.floats(1.0, 400.0),
    "bounds.z_max": st.floats(50.0, 2000.0),
    "limits.v_drone": st.floats(0.0, 100.0),
    "limits.rot_rate": _log_floats(-4.0, 1.0),
    "limits.time_step": _log_floats(-2.0, 1.0),
    "limits.v_vehicle": st.floats(0.0, 40.0),
    "ris.m_rows": st.integers(1, 64),
    "ris.n_cols": st.integers(1, 64),
    "ris.dx": _log_floats(-3.0, -1.0),
    "ris.dy": _log_floats(-3.0, -1.0),
    "ris.wavelength": _log_floats(-3.0, 0.0),
    "ris.gain_tx": _log_floats(-3.0, 3.0),
    "ris.gain_rx": _log_floats(-3.0, 3.0),
    "ris.gain_ris": _log_floats(-3.0, 3.0),
    "ris.amplitude": st.floats(0.0, 1.0),
    "radio.tx_power": _log_floats(-6.0, 3.0),
    "radio.noise_power": _log_floats(-25.0, -5.0),
    "radio.efficiency": st.floats(0.0, 1.0),
    "radio.eff_bandwidth": _log_floats(3.0, 9.0),
    "run.orientation_control": st.sampled_from(["on", "off"]),
    "run.sinr_form": st.sampled_from(["standard", "paper-literal"]),
}


@settings(max_examples=40, deadline=None)
@given(st.fixed_dictionaries({}, optional=CONFIG_DRAFTS))
def test_every_valid_config_runs_finite(draft):
    text = "".join(f"{key} = {value}\n" for key, value in draft.items())
    try:
        config = parse_config_text(text + "run.steps = 500\n")
    except ConfigError:
        reject()
    records = list(simulate(config.sim))
    assert all(math.isfinite(record.rate_bps) for record in records)
    summary = summarize(config.sim, records)
    json.dumps(summary_as_dict(config, summary), allow_nan=False)
