import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from drs_sim.cli import (
    CONFIG_FLAGS,
    MAX_SEED_COUNT,
    STEPS_CSV_COLUMNS,
    _STEP_ROW,
    _sweep_row,
    build_parser,
    main,
    summary_as_dict,
)
from drs_sim.channel import RadioConfig, RisConfig
from drs_sim.config import _KEYS, ConfigError, config_as_dict, load_config, parse_config_text
from drs_sim import engine
from drs_sim.engine import (
    FORK_STEPS,
    MODE_OFF,
    STEPS_PER_BATCH,
    SimConfig,
    StepRecord,
    simulate,
    summarize,
)
from drs_sim.nullsteer import MODE_ANALYTIC, MODE_FALLBACK, MODE_NONE
from drs_sim.planner import MotionLimits, WorldBounds
from drs_sim.traffic import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = """
# compact scenario for fast end-to-end checks
scenario.arrival_rate = 0.3
scenario.v2v_rate = 0.05
scenario.seed = 7
run.steps = 400
run.orientation_control = on
"""


def _bad_input(line, key, argv=("run", "--steps", "50", "--out", "{out}"), id=None):
    """A case of test_invalid_value_fails_up_front: config text, the key its
    error must name, and the command line after ``--config`` ({out} is the
    output directory).  The id defaults to pytest's own for (line, key)."""
    return pytest.param(line, key, argv, id=id or f"{line}-{key}")


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return path


# A mean as the stdout lines print it: six significant figures (format .6g).
SIX_G = r"(\d+(?:\.\d+)?(?:e[+-]\d\d)?)"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def fill_disk_at(monkeypatch, name, nth):
    """Make the nth write to ``name`` or ``name.partial``, opened by the CLI, raise ENOSPC."""

    def full_disk_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if Path(file).name in (name, f"{name}.partial"):
            write, writes = fh.write, 0

            def write_until_full(text):
                nonlocal writes
                writes += 1
                if writes >= nth:
                    raise OSError(28, "No space left on device")
                return write(text)

            fh.write = write_until_full
        return fh

    monkeypatch.setattr("drs_sim.cli.open", full_disk_open, raising=False)


def assert_no_child_left():
    """No child process is left: every forked trajectory producer was reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def counting_sent_steps(monkeypatch, path):
    """Yield a function that counts the steps a forked producer has put in its pipe so far.

    The producer writes one byte to ``path`` for each step of a batch it hands to the pipe.
    The count wraps the frames of ``engine.fork_child``, which only the forked child
    runs; in a ``run`` that child is the trajectory producer, while the run's own
    process steps its trajectory in batches too.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    fork_child = engine.fork_child

    def counted(frames):
        def counted_frames():
            for batch in frames():
                os.write(fd, b"." * len(batch))
                yield batch

        return fork_child(counted_frames)

    monkeypatch.setattr("drs_sim.engine.fork_child", counted)
    try:
        yield lambda: path.stat().st_size
    finally:
        os.close(fd)


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
        "line, key, argv",
        [
            _bad_input("scenario.arrival_rate = nan", "scenario.arrival_rate"),
            _bad_input("radio.tx_power = inf", "radio.tx_power"),
            _bad_input("scenario.rsu_z = 700", "scenario.rsu_z"),
            _bad_input("bounds.z_min = 1.0", "bounds.z_min"),
            # far field of a 256 x 32 surface is ~1691 m, far below the flight box
            _bad_input("ris.m_rows = 256", "bounds.z_min"),
            # finite inputs whose best-case SINR overflows to inf
            _bad_input(
                "radio.noise_power = 5e-324\nradio.tx_power = 1e300\nscenario.interferer = none",
                "radio.tx_power",
                id="rate-overflow-radio.tx_power",
            ),
            # finite inputs whose best-case path-loss denominator underflows to 0
            _bad_input(
                "ris.gain_tx = 1e-200\nris.gain_rx = 1e-200",
                "ris.gain_tx",
                id="underflow-ris.gain_tx",
            ),
            _bad_input("ris.amplitude = 1e-170", "ris.amplitude"),
            # the per-step yaw budget 5e-324 * 0.5 rounds to 0
            _bad_input(
                "limits.rot_rate = 5e-324",
                "limits.rot_rate * limits.time_step",
                ("run", "--steps", "2000", "--out", "{out}"),
                id="underflow-yaw-budget",
            ),
            # the per-step yaw budget 1e308 * 10 overflows to inf
            _bad_input(
                "limits.rot_rate = 1e308\nlimits.time_step = 10",
                "limits.rot_rate * limits.time_step",
                ("run", "--steps", "2000", "--out", "{out}"),
                id="overflow-yaw-budget",
            ),
            # counts and a wavelength whose squares path_loss could not hold in a float
            _bad_input(f"ris.m_rows = {10**400}", "ris.m_rows", id="overflow-ris.m_rows"),
            _bad_input("ris.wavelength = 1e200", "ris.wavelength"),
            # finite gains whose best-case path-loss denominator overflows to inf
            _bad_input(
                "ris.gain_tx = 1e300\nris.gain_rx = 1e300",
                "ris.gain_tx",
                id="overflow-ris.gain_tx",
            ),
            # lanes so far apart that the closest pair they allow gets rate 0:
            # its path loss overflows to inf, or is finite but too large
            _bad_input("bounds.x_max = 1e200", "bounds.x_max"),
            _bad_input("bounds.x_max = 1e5", "bounds.x_max"),
            _bad_input("scenario.seed = -1", "scenario.seed"),
            _bad_input(f"scenario.seed = {2**64}", "scenario.seed"),
            # an empty output directory would put the files in the working directory
            _bad_input("", "run.output_dir", ("run", "--steps", "50", "--out", ""), id="run --out ''"),
            _bad_input(
                "",
                "run.output_dir",
                ("sweep", "--seeds", "1", "--steps", "50", "--out", ""),
                id="sweep --out ''",
            ),
            _bad_input("run.output_dir =", "run.output_dir", ("run", "--steps", "50")),
        ],
    )
    def test_invalid_value_fails_up_front(self, line, key, argv, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n", encoding="utf-8")
        out, cwd = tmp_path / "out", tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code = main([argv[0], "--config", str(bad), *(arg.format(out=out) for arg in argv[1:])])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not any(cwd.iterdir())

    # The lane check must let through a tiny best-case rate (about 1.3e-8 bit/s
    # at unit noise power) and every shipped config.
    @pytest.mark.parametrize(
        "source",
        ["radio.noise_power = 1.0"] + sorted(
            str(path.relative_to(ROOT))
            for path in [*ROOT.glob("configs/*.cfg"), *ROOT.glob("perfbench/configs/*.cfg")]
        ),
    )
    def test_lanes_close_enough_pass(self, source):
        if source.endswith(".cfg"):
            load_config(ROOT / source)
        else:
            parse_config_text(source)

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

    def test_config_flags_build_sim_config_once(self, config_file, tmp_path, monkeypatch):
        built = []
        init = SimConfig.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SimConfig, "__init__", counted_init)
        out = tmp_path / "out"
        assert main([
            "run", "--config", str(config_file), "--seed", "9", "--steps", "20",
            "--orientation-control", "off", "--sinr-form", "paper-literal", "--out", str(out),
        ]) == 0
        assert len(built) == 1
        config = json.loads((out / "summary.json").read_text())["config"]
        assert (config["scenario.seed"], config["run.steps"]) == (9, 20)
        assert (config["run.orientation_control"], config["run.sinr_form"]) == (False, "paper-literal")
        assert config["run.output_dir"] == str(out)

    @pytest.mark.parametrize("command, config_flags, own_flags", [
        ("run", set(CONFIG_FLAGS), set()),
        ("sweep", set(CONFIG_FLAGS) - {"--seed"}, {"--seeds", "--jobs"}),
    ])
    def test_subcommands_declare_exactly_the_config_flags(self, command, config_flags, own_flags):
        # A flag declared to argparse but not in CONFIG_FLAGS would be parsed and then ignored.
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        actions = subparsers.choices[command]._actions
        flags = {s for a in actions for s in a.option_strings} - {"-h", "--help", "--config"}
        assert flags == config_flags | own_flags
        dests = {a.option_strings[0]: a.dest for a in actions if a.option_strings[0] in CONFIG_FLAGS}
        assert dests == {flag: flag[2:].replace("-", "_") for flag in config_flags}

    @pytest.mark.parametrize("line, code", [("run.steps = 0", 0), ("run.steps = soon", 1)])
    def test_flag_replaces_the_file_value(self, line, code, tmp_path, capsys):
        # As with a later line for the same key, the file's value is only syntax-checked.
        config_file = tmp_path / "run.cfg"
        config_file.write_text(BASE_CONFIG + line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--steps", "5", "--out", str(out)]) == code
        if code:
            assert f"{config_file}:8: bad value for run.steps" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert json.loads((out / "summary.json").read_text())["steps"] == 5

    @pytest.mark.parametrize("flag, value, key", [
        ("--steps", "abc", "run.steps"), ("--seed", "1.5", "scenario.seed"),
        ("--sinr-form", "nope", "run.sinr_form"),
        ("--orientation-control", "maybe", "run.orientation_control"),
    ])
    def test_bad_flag_value_names_flag_and_key(self, flag, value, key, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: bad value for {key}: ")
        assert not out.exists()

    def test_out_is_taken_verbatim(self, config_file, tmp_path):
        # A flag value is not config-file text: no comment or quote stripping.
        out = tmp_path / "'a#b\"c'"
        assert main(["run", "--config", str(config_file), "--steps", "5", "--out", str(out)]) == 0
        assert (out / "steps.csv").is_file()
        assert json.loads((out / "summary.json").read_text())["config"]["run.output_dir"] == str(out)

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
            x, y, z = position
            return (x, y + 100.0, z)

        monkeypatch.setattr("drs_sim.engine.step_towards", teleport)
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: constraint violated: displacement")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "steps.csv").exists()

    def test_io_error_mid_run_leaves_no_partial_csv(
        self, config_file, tmp_path, monkeypatch, capsys, forks
    ):
        # The disk fills once the header and 298 rows are written, with the
        # producer forked before the first step; then in process, where
        # os.fork is missing.
        fill_disk_at(monkeypatch, "steps.csv", 300)
        for transport in ("forked", "in-process"):
            if transport == "in-process":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / transport
            code = main(["run", "--config", str(config_file), "--steps", "3000", "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("i/o error: [Errno 28] No space left on device\n"), err
            assert list(out.iterdir()) == []
            assert forks == [1]
            assert_no_child_left()

    def test_writer_error_stops_the_run(self, config_file, tmp_path, monkeypatch, capsys, forks):
        # A steps.csv write that fails after the fork drops the producer at
        # once: it is not waited for to step the rest of the trajectory.
        fill_disk_at(monkeypatch, "steps.csv", 300)
        out = tmp_path / "out"
        with counting_sent_steps(monkeypatch, tmp_path / "sent") as sent:
            code = main(["run", "--config", str(config_file), "--steps", "3000", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
        assert list(out.iterdir()) == []
        assert forks == [1]
        assert 0 < sent() < (2730 - STEPS_PER_BATCH) // 2  # 2730 steps are served in 3000
        assert_no_child_left()

    @pytest.mark.parametrize("signal_number", [None, signal.SIGKILL], ids=["raises", "killed"])
    def test_producer_that_dies_fails_the_run(
        self, signal_number, config_file, tmp_path, monkeypatch, capsys, forks
    ):
        def dies():
            if signal_number is not None:
                os.kill(os.getpid(), signal_number)
            raise ValueError("not an OSError")

        # fork_child's frames run only in the forked child, the producer of a run
        fork_child = engine.fork_child
        monkeypatch.setattr("drs_sim.engine.fork_child", lambda frames: fork_child(dies))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--steps", "3000", "--out", str(out)])
        assert code == 2
        status = 1 if signal_number is None else -signal_number
        assert capsys.readouterr().err == (
            f"i/o error: the trajectory producer exited with status {status}\n"
        )
        assert list(out.iterdir()) == []
        assert forks == [1]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "interrupt, nth, forked", [(False, 5, [1]), (False, 300, [1]), (True, 300, [1])],
        ids=["teleport-5", "teleport-300", "interrupt-300"],
    )
    def test_failure_after_the_writer_started_writes_nothing(
        self, interrupt, nth, forked, config_file, tmp_path, monkeypatch, capsys, forks
    ):
        # The producer forks before the first step, so it steps the trajectory
        # at served step 5 as at 300.  A teleport is made there, by
        # step_towards; an interrupt hits a function that evaluates the yaw
        # arm here.  Either way the producer is dropped at once, not waited
        # for to step the rest.
        served = 0
        step_towards, select_rotation = engine.step_towards, engine.select_rotation

        def teleports_on_nth(position, target, limits, bounds):
            nonlocal served
            served += 1
            if served == nth:
                x, y, z = position
                return (x, y + 100.0, z)
            return step_towards(position, target, limits, bounds)

        def interrupted_on_nth(inp):
            nonlocal served
            served += 1
            if served == nth:
                raise KeyboardInterrupt
            return select_rotation(inp)

        if interrupt:
            monkeypatch.setattr("drs_sim.engine.select_rotation", interrupted_on_nth)
        else:
            monkeypatch.setattr("drs_sim.engine.step_towards", teleports_on_nth)
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_file), "--steps", "3000", "--out", str(out)]
        with counting_sent_steps(monkeypatch, tmp_path / "sent") as sent:
            if interrupt:
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
            else:
                assert main(argv) == 3
                assert capsys.readouterr().err.startswith("error: constraint violated: displacement")
        assert list(out.iterdir()) == []
        assert forks == forked
        assert sent() < (2730 - STEPS_PER_BATCH) // 2  # 2730 steps are served in 3000
        assert_no_child_left()

    def test_forked_run_evaluates_each_record_here_once(
        self, config_file, tmp_path, monkeypatch, forks
    ):
        # perfbench's tracer wraps these two names in the traced process and
        # counts run_step's records as engine.records, which it checks against
        # n_records; CI checks select_rotation's calls against engine.records.
        counts = {"records": 0, "rotations": 0}
        run_step, select_rotation = engine.run_step, engine.select_rotation

        def counted_run_step(*args):
            records = run_step(*args)
            counts["records"] += records is not None
            return records

        def counted_select_rotation(*args):
            counts["rotations"] += 1
            return select_rotation(*args)

        monkeypatch.setattr("drs_sim.engine.run_step", counted_run_step)
        monkeypatch.setattr("drs_sim.engine.select_rotation", counted_select_rotation)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--steps", "3000", "--out", str(out)]) == 0
        n_records = json.loads((out / "summary.json").read_text())["n_records"]
        assert forks == [1]
        assert counts["records"] == counts["rotations"] == n_records > STEPS_PER_BATCH

    def test_run_that_serves_nothing_forks_nothing(self, config_file, tmp_path, forks):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--steps", "1", "--out", str(out)]) == 0
        assert (out / "steps.csv").read_bytes() == ",".join(STEPS_CSV_COLUMNS).encode() + b"\r\n"
        assert forks == []
        assert_no_child_left()

    def test_run_of_less_than_one_batch_forks_nothing(self, config_file, tmp_path, forks):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--steps", "100", "--out", str(out)]) == 0
        assert 0 < len(read_rows(out / "steps.csv")) < STEPS_PER_BATCH
        assert forks == []

    def test_fork_needs_a_run_of_fork_steps(
        self, config_file, tmp_path, monkeypatch, capsys, forks
    ):
        # A run forks its producer only when it has FORK_STEPS or more steps;
        # one step fewer and it steps them all in process, as where os.fork is missing.
        monkeypatch.setenv("DRS_SIM_LOG", "info")

        def run(name, steps):
            argv = ["run", "--config", str(config_file), "--steps", str(steps)]
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            return capsys.readouterr().err

        short = FORK_STEPS - 1
        assert run("short", short).endswith(
            f"INFO:drs_sim:the run has only {short} steps; the trajectory is stepped in process\n"
        )
        assert forks == []
        assert "trajectory is stepped in process" not in run("long", FORK_STEPS)
        assert forks == [1]
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        run("unforkable", short)
        steps = [(tmp_path / name / "steps.csv").read_bytes() for name in ("short", "unforkable")]
        assert steps[0] == steps[1]

    def test_long_run_that_serves_nothing_forks_a_producer_that_sends_nothing(
        self, config_file, tmp_path, forks
    ):
        config_file.write_text(BASE_CONFIG + "scenario.arrival_rate = 0\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["run", "--config", str(config_file), "--steps", str(FORK_STEPS), "--out", str(out)]
        assert main(argv) == 0
        assert (out / "steps.csv").read_bytes() == ",".join(STEPS_CSV_COLUMNS).encode() + b"\r\n"
        assert forks == [1]
        assert_no_child_left()

    def test_one_cpu_of_two_writes_in_process(
        self, config_file, tmp_path, monkeypatch, capsys, forks
    ):
        # As under ``taskset -c 0``: the affinity is counted, not the machine's cores.
        argv = ["run", "--config", str(config_file), "--steps", "3000", "--out"]
        assert main(argv + [str(tmp_path / "forked")]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("DRS_SIM_LOG", "info")
        capsys.readouterr()
        assert main(argv + [str(tmp_path / "one")]) == 0
        assert capsys.readouterr().err.endswith(
            "INFO:drs_sim:the process may run on one CPU; the trajectory is stepped in process\n"
        )
        assert forks == [1]  # the first run's producer only
        steps = [(tmp_path / run / "steps.csv").read_bytes() for run in ("forked", "one")]
        assert steps[0] == steps[1]

    def test_threaded_caller_writes_in_process(self, config_file, tmp_path, monkeypatch, forks):
        argv = ["run", "--config", str(config_file), "--steps", "3000", "--out"]
        assert main(argv + [str(tmp_path / "forked")]) == 0
        monkeypatch.setenv("DRS_SIM_LOG", "info")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = main(argv + [str(tmp_path / "threaded")])
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert code == 0
        assert stderr.getvalue().endswith(
            "INFO:drs_sim:the process runs 2 threads; the trajectory is stepped in process\n"
        )
        assert forks == [1]  # the first run's producer only
        steps = [(tmp_path / run / "steps.csv").read_bytes() for run in ("forked", "threaded")]
        assert steps[0] == steps[1]

    def test_failed_fork_writes_in_process(
        self, config_file, tmp_path, monkeypatch, capsys, cpus
    ):
        argv = ["run", "--config", str(config_file), "--steps", "3000", "--out"]
        assert main(argv + [str(tmp_path / "a")]) == 0

        def fork():
            raise OSError("no fork here")

        monkeypatch.setattr(os, "fork", fork)
        cpus(2)
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        capsys.readouterr()
        assert main(argv + [str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "WARNING:drs_sim:cannot fork the trajectory producer: no fork here; "
            "stepping it in process"
        ]
        steps = [(tmp_path / run / "steps.csv").read_bytes() for run in "ab"]
        assert steps[0] == steps[1]

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
    def test_empty_run_logs_why(
        self, line, steps, reason, config_file, tmp_path, monkeypatch, capsys
    ):
        config_file.write_text(BASE_CONFIG + line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        code = main([
            "run", "--config", str(config_file), "--steps", steps, "--out", str(out),
        ])
        assert code == 0
        assert (out / "steps.csv").read_bytes() == ",".join(STEPS_CSV_COLUMNS).encode() + b"\r\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_records"] == 0
        assert summary["mean_rate_bps"] == {"on": None}
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("WARNING:drs_sim:the run served no step: ")
        assert reason in warnings[0]

    def test_served_run_logs_no_warning(self, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        assert main(["run", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["n_records"] > 0
        assert capsys.readouterr().err == ""


def csv_writer_line(fields):
    """The line csv.writer's default dialect writes for ``fields``."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def _num(value):
    return repr(float(value))


# Any double: NaN, infinities, -0.0, subnormals and values of 1e16 and above
# drawn on their own too, since their repr() takes a different form.
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e16, 1e22, 1.7976931348623157e308]
    ),
    st.floats(min_value=1e16),
    st.floats(min_value=-1e-307, max_value=1e-307),
)
NULL_MODES = [MODE_OFF, MODE_ANALYTIC, MODE_FALLBACK, MODE_NONE]


@st.composite
def step_records(draw):
    floats, counts = (lambda: draw(FLOATS)), (lambda: draw(st.integers(0, 2**63)))
    return StepRecord(
        counts(), floats(), counts(), counts(),  # step, time_s, pair_id, cycle_index
        # tx_x .. drs_z, then drs_yaw_rad and alpha_rad: any double, not only a wrapped yaw
        *(floats() for _ in range(9)),
        draw(st.sampled_from(NULL_MODES)),
        *(floats() for _ in range(4)),  # pl_desired_db, pl_interf_db, sinr_db, rate_bps
        draw(st.sampled_from(["on", "off"])),
    )


class TestOutputFiles:
    @pytest.mark.parametrize(
        "argv, name, nth",
        [
            (["sweep", "--config", "{config}", "--seeds", "1,2,3", "--steps", "300",
              "--jobs", "1", "--out", "{out}"], "sweep.csv", 3),  # the header and seed 1 are in
            (["run", "--config", "{config}", "--steps", "300", "--out", "{out}"],
             "summary.json", 1),
            (["plot", "{csv}", "--out", "{out}"], "mean_rate.svg", 1),
        ],
        ids=["sweep.csv", "summary.json", "mean_rate.svg"],
    )
    def test_io_error_leaves_no_truncated_output(
        self, argv, name, nth, config_file, tmp_path, monkeypatch, capsys
    ):
        steps_csv = tmp_path / "steps.csv"
        steps_csv.write_text("cycle_index,rate_bps,control\r\n0,5.0,on\r\n", encoding="utf-8")
        out = tmp_path / "out"
        fill_disk_at(monkeypatch, name, nth)
        code = main([a.format(config=config_file, csv=steps_csv, out=out) for a in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error: [Errno 28]")
        left = [path.name for path in out.iterdir()]
        assert name not in left
        assert not [n for n in left if n.endswith(".partial")]

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["run", "--config", "{config}", "--steps", "300", "--out", "{out}"],
             ("steps.csv", "summary.json")),
            (["plot", "{csv}", "--out", "{out}"], ("rate_vs_cycle.svg", "mean_rate.svg")),
        ],
        ids=["run", "plot"],
    )
    def test_io_error_keeps_the_earlier_set(
        self, argv, names, config_file, tmp_path, monkeypatch, capsys
    ):
        # The second file of the set hits a full disk: neither earlier file is replaced.
        steps_csv = tmp_path / "steps.csv"
        steps_csv.write_text("cycle_index,rate_bps,control\r\n0,5.0,on\r\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        for name in names:
            (out / name).write_text(f"earlier {name}\n", encoding="utf-8")
        fill_disk_at(monkeypatch, names[1], 1)
        code = main([a.format(config=config_file, csv=steps_csv, out=out) for a in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error: [Errno 28]")
        assert sorted(path.name for path in out.iterdir()) == sorted(names)
        for name in names:
            assert (out / name).read_text(encoding="utf-8") == f"earlier {name}\n"


class TestConfigDefaults:
    def test_default_cfg_is_the_built_in_config(self):
        path = ROOT / "configs" / "default.cfg"
        assert config_as_dict(load_config(path)) == config_as_dict(load_config(None))

    def test_default_rsu_is_the_middle_of_the_bounds_on_both_paths(self):
        def rsu(scenario):
            return scenario.rsu_x, scenario.rsu_y, scenario.rsu_z

        text = "bounds.x_max = 1000\nbounds.y_max = 8000\n"
        bounds = WorldBounds(x_max=1000.0, y_max=8000.0)
        from_file = rsu(parse_config_text(text).sim.scenario)
        built = rsu(ScenarioConfig(bounds=bounds))
        assert from_file == built == (500.0, 4000.0, 5.0)
        # An axis the file or the caller sets replaces only that axis.
        moved = rsu(parse_config_text(text + "scenario.rsu_x = 10\n").sim.scenario)
        assert moved == rsu(ScenarioConfig(bounds=bounds, rsu_x=10.0)) == (10.0, 4000.0, 5.0)


CONFIG_CLASSES = {
    "scenario": ScenarioConfig,
    "bounds": WorldBounds,
    "limits": MotionLimits,
    "ris": RisConfig,
    "radio": RadioConfig,
}
FLOAT_KEYS = [key for key, (convert, _) in _KEYS.items() if convert is float]


def build_with(key, value):
    """The library config object that holds ``key``, built with ``value`` for it."""
    _, (group, name) = _KEYS[key]
    return CONFIG_CLASSES[group](**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_class_rejects_non_finite_value(key, value):
    # Library callers get the check the CLI's parser makes; the object is
    # only built, never run (an infinite arrival rate never ends a step).
    with pytest.raises(ValueError, match=re.escape(key)):
        build_with(key, value)


@pytest.mark.parametrize("rate", ["30", "1e9"])
def test_parser_rejects_arrival_rate_beyond_lane_capacity(rate):
    # More than MAX_LANE_VEHICLES on a default lane at once; parsed, never run.
    with pytest.raises(ConfigError, match=r"^scenario\.arrival_rate = .* 10000$"):
        parse_config_text(f"scenario.arrival_rate = {rate}\n")


class TestRowFormat:
    """Rows are written without the csv module, in the bytes csv.writer writes."""

    @settings(max_examples=300)
    @given(step_records())
    def test_step_row_equals_csv_writer(self, r):
        fields = [
            str(r.step), _num(r.time_s), str(r.pair_id), str(r.cycle_index),
            _num(r.tx_x), _num(r.tx_y), _num(r.rx_x), _num(r.rx_y),
            _num(r.drs_x), _num(r.drs_y), _num(r.drs_z),
            _num(r.drs_yaw_rad), _num(r.alpha_rad), r.null_mode, _num(r.pl_desired_db),
            _num(r.pl_interf_db), _num(r.sinr_db), _num(r.rate_bps), r.control,
        ]
        assert len(fields) == len(STEPS_CSV_COLUMNS)
        assert _STEP_ROW % r == csv_writer_line(fields)

    @settings(max_examples=300)
    @given(st.integers(0, 2**64 - 1), st.lists(st.one_of(st.none(), FLOATS), min_size=3, max_size=3))
    def test_sweep_row_equals_csv_writer(self, seed, values):
        fields = [str(seed)] + ["" if v is None else _num(v) for v in values]
        assert _sweep_row(seed, values) == csv_writer_line(fields)

    @given(st.lists(FLOATS, min_size=3, max_size=3))
    def test_aggregate_row_equals_csv_writer(self, values):
        assert _sweep_row("aggregate", values) == csv_writer_line(["aggregate", *map(_num, values)])

    @pytest.mark.parametrize(
        "lines",
        [
            "",
            "scenario.interferer = vehicle\n",
            "scenario.interferer = none\n",
            "run.orientation_control = off\n",
            "limits.rot_rate = 0.002\nscenario.v2v_rate = 3.0\n",
            "bounds.x_min = 0\nbounds.z_min = 100\nlimits.v_vehicle = 15\nscenario.rsu_z = 5\n",
        ],
        ids=["rsu", "vehicle", "none", "control-off", "fallback-heavy", "integer-spelled"],
    )
    def test_written_numbers_are_floats(self, lines):
        # steps.csv rows format these fields with repr() as they are, so each must be a float.
        config = parse_config_text(BASE_CONFIG + lines + "run.steps = 300\n")
        records = [record for record, in simulate(config.sim)]
        assert records
        for r in records:
            values = [
                r.time_s, r.tx_x, r.tx_y, r.rx_x, r.rx_y, r.drs_x, r.drs_y, r.drs_z,
                r.drs_yaw_rad, r.alpha_rad, r.pl_desired_db, r.pl_interf_db, r.sinr_db,
                r.rate_bps,
            ]
            assert all(type(v) is float for v in values), r
            assert all(type(v) is int for v in (r.step, r.pair_id, r.cycle_index)), r

    def test_integer_spelled_config_writes_the_same_bytes(self, tmp_path):
        outputs = []
        for x_min, z_min in (("0", "100"), ("0.0", "100.0")):
            config = tmp_path / f"{x_min}.cfg"
            config.write_text(
                BASE_CONFIG + f"bounds.x_min = {x_min}\nbounds.z_min = {z_min}\n", encoding="utf-8"
            )
            out = tmp_path / f"out-{x_min}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            outputs.append((out / "steps.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert b",0.0," in outputs[0]  # tx_x of lane 0 is bounds.x_min, written as a float


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
            rf"wrote \S+sweep\.csv: mean rate on={SIX_G} off={SIX_G} bit/s, "
            r"improvement ([+-]\d(?:\.\d{1,2})?(?:e[+-]\d\d)?)%",
            line,
        )
        assert match, line
        aggregate = read_rows(out / "sweep.csv")[-1]
        assert match.group(3) == f"{float(aggregate['improvement_pct']):+.3g}"

    def test_printed_means_read_back_as_the_aggregate_row(self, tmp_path, capsys):
        # 20 steps serve only a few low-rate steps: the means are about 1e-5
        # bit/s, which a fixed one-decimal format printed as 0.0
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--seeds", "1,2", "--steps", "20", "--jobs", "2", "--out", str(out),
        ]) == 0
        line = capsys.readouterr().out.strip()
        match = re.fullmatch(rf"wrote \S+: mean rate on={SIX_G} off={SIX_G} bit/s, .*", line)
        assert match, line
        aggregate = read_rows(out / "sweep.csv")[-1]
        assert aggregate["seed"] == "aggregate"
        for printed, column in zip(match.groups(), ("mean_rate_on", "mean_rate_off")):
            value = float(aggregate[column])
            assert 0.0 < value < 0.05
            assert printed == f"{value:.6g}"
            assert float(printed) == pytest.approx(value, rel=5e-6)

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


    def test_forked_workers_log_each_seed(self, config_file, tmp_path):
        # A forked worker writes its lines to the stderr it inherits.
        env = dict(os.environ, DRS_SIM_LOG="info")
        result = subprocess.run(
            [
                sys.executable, "-m", "drs_sim.cli", "sweep", "--config", str(config_file),
                "--seeds", "1,2,3", "--steps", "50", "--jobs", "2", "--out", str(tmp_path),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        seeds = re.findall(r"^INFO:drs_sim:seed (\d+): 50 steps \(\d+ served\) in ", result.stderr, re.M)
        assert sorted(seeds) == ["1", "2", "3"]
        if (os.cpu_count() or 1) > 1:
            assert "INFO:drs_sim:3 seeds ran in 2 forked worker processes" in result.stderr


class TestLogLevel:
    @pytest.mark.parametrize("value", ["basic_format", "verbose", ""])
    def test_unknown_value_fails_up_front(self, value, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DRS_SIM_LOG", value)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--steps", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DRS_SIM_LOG must be one of debug, info, warning, error")
        assert repr(value) in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["debug", "INFO", "Warning", "eRRor"])
    def test_known_levels_in_any_case(self, value, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DRS_SIM_LOG", value)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--steps", "5", "--out", str(out)]) == 0
        assert (out / "summary.json").is_file()

    def test_level_takes_effect_in_a_fresh_process(self, tmp_path):
        # A command started with DRS_SIM_LOG=Info writes its info lines to stderr.
        env = dict(os.environ, DRS_SIM_LOG="Info")
        result = subprocess.run(
            [sys.executable, "-m", "drs_sim.cli", "run", "--steps", "5", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "INFO:drs_sim:running 5 steps with seed 1" in result.stderr


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

    def test_empty_out_fails_before_writing(self, tmp_path, monkeypatch, capsys):
        # An empty path is the working directory: the charts would land there.
        source = self.write_rows(tmp_path, ["0,1.0,on"])
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["plot", str(source), "--out", ""]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out")
        assert "Traceback" not in err
        assert list(cwd.iterdir()) == []

    def test_missing_file_fails(self, tmp_path):
        assert main(["plot", str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 1

    @staticmethod
    def write_rows(tmp_path, rows):
        source = tmp_path / "steps.csv"
        source.write_text(
            "cycle_index,rate_bps,control\r\n" + "\r\n".join(rows) + "\r\n", encoding="utf-8"
        )
        return source

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,1e17,on"],
            ["0,1e16,on", "1,1.0000000000000002e16,on"],
            ["0,-1,on", "0,-1.01,off"],
            ['0,2.5,"o""n"'],
        ],
        ids=["one-large-rate", "large-rates-one-ulp-apart", "negative-means", "quote-in-label"],
    )
    def test_extreme_rows_draw_well_formed_charts(self, rows, tmp_path):
        source = self.write_rows(tmp_path, rows)
        out = tmp_path / "plots"
        assert main(["plot", str(source), "--out", str(out)]) == 0
        for name in ("rate_vs_cycle.svg", "mean_rate.svg"):
            root = ET.fromstring((out / name).read_text(encoding="utf-8"))
            labels = {el.get("data-series") or el.get("data-label") for el in root.iter()}
            assert labels - {None} == {"control " + row[2] for row in csv.reader(rows)}

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,1,on", f"{10**400},1,on"], ":3: bad row: cycle_index must be within +-2**53"),
            (["0,1,on", f"{-2**53 - 1},1,on"], ":3: bad row: cycle_index must be within +-2**53"),
            (["0,1.7e308,on", "1,1.7e308,on"], "control on: rates too large to average"),
            (["0,1.7e308,on", "1,-1.7e308,off"], "cannot chart"),
            (["0,1,on\x00"], ":2: bad row: control 'on\\x00' holds a character XML forbids"),
            (["0,1,o\x0bn"], ":2: bad row: control 'o\\x0bn' holds a character XML forbids"),
        ],
        ids=["cycle-10**400", "cycle-below-minus-2**53", "sum-overflows", "span-overflows", "nul", "vt"],
    )
    def test_unchartable_rows_fail(self, rows, message, tmp_path, capsys):
        source = self.write_rows(tmp_path, rows)
        out = tmp_path / "plots"
        assert main(["plot", str(source), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


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
    steps = list(simulate(config.sim))
    assert all(math.isfinite(record.rate_bps) for record, in steps)
    (summary,) = summarize(config.sim, steps)
    json.dumps(summary_as_dict(config, summary), allow_nan=False)


def mostly(good, bad):
    """Draw from ``good`` three times in four, so that most examples get far."""
    return st.integers(0, 3).flatmap(lambda n: bad if n == 0 else good)


# Command-line inputs for the whole-CLI property.  Flags come before the
# final --out, which always points into a scratch directory; none asks for
# more than one worker or more than a few steps, so no sweep worker is
# forked and every example stays short, shorter than the FORK_STEPS a run
# needs to fork its trajectory producer.
EXTRA_FLAGS = st.sampled_from([
    ["--bogus"], ["--seed", "-1"], ["--seed", "x"], ["--seed", "3"], ["--steps", "0"],
    ["--steps", "x"], ["--steps", "2"], ["--jobs", "0"], ["--jobs", "x"], ["--jobs", "1"],
    ["--seeds", "2,2"], ["--seeds", "x"], ["--seeds", "1,"], ["--orientation-control", "maybe"],
    ["--orientation-control", "off"], ["--sinr-form", "nope"], ["--sinr-form", "paper-literal"],
    ["--config"],
])
JUNK_TOKENS = st.text(alphabet="abc,.=_ 019", min_size=1, max_size=6).map(lambda t: [t])
EXTRAS = mostly(st.just([]), st.lists(st.one_of(EXTRA_FLAGS, JUNK_TOKENS), min_size=1, max_size=2))
TEXT = st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
CONFIG_TEXT = st.tuples(
    st.fixed_dictionaries({}, optional=CONFIG_DRAFTS),
    mostly(st.just([]), st.lists(st.text(TEXT, max_size=20), min_size=1, max_size=2)),
).map(lambda parts: "".join(f"{k} = {v}\n" for k, v in parts[0].items()) + "\n".join(parts[1]))
CSV_ROWS = mostly(
    st.lists(st.tuples(st.sampled_from(["0", "3", str(10**400)]),
                       st.sampled_from(["2.5", "0", "1e3", "1e17", "1.7e308"]),
                       st.sampled_from(["on", "off", "o\x00n", "o\x0bn", 'o"n', "<on>", "a&b"])),
             max_size=5),
    st.lists(st.lists(st.sampled_from(["0", "-1", "2.5", "nan", "inf", "on", "", "x", '"']),
                      max_size=4), max_size=5),
)
CSV_TEXT = st.tuples(
    mostly(st.just("cycle_index,rate_bps,control"),
           st.sampled_from([",".join(STEPS_CSV_COLUMNS), "rate_bps", ""])),
    CSV_ROWS,
).map(lambda parts: "\n".join([parts[0]] + [",".join(row) for row in parts[1]]) + "\n")
LOG_VALUES = mostly(
    st.sampled_from([None, "debug", "INFO", "Warning", "error"]),
    st.one_of(st.sampled_from(["verbose", "basic_format", ""]), st.text(TEXT, max_size=8)),
)
OUTPUT_NAMES = {"steps.csv", "summary.json", "sweep.csv", "rate_vs_cycle.svg", "mean_rate.svg"}


@pytest.mark.parametrize("command", ["run", "sweep", "plot"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    with_config=st.booleans(),
    data=st.data(),
    undecodable=mostly(st.just(False), st.just(True)),
    steps=st.integers(1, 20),
    seeds=st.sampled_from(["1", "2", "1,2", "3,"]),
    extras=EXTRAS,
    log_value=LOG_VALUES,
)
def test_main_exits_cleanly_for_any_input(
    command, with_config, data, undecodable, steps, seeds, extras, log_value
):
    text = data.draw(CSV_TEXT if command == "plot" else CONFIG_TEXT)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        source = root / ("steps.csv" if command == "plot" else "drafted.cfg")
        source.write_bytes(text.encode("utf-8") + (b"\xff\n" if undecodable else b""))
        out = root / "out"
        if command == "plot":
            argv = ["plot", str(source)]
        else:
            argv = [command] + (["--config", str(source)] if with_config else [])
            argv += ["--steps", str(steps)]
            if command == "sweep":
                argv += ["--seeds", seeds, "--jobs", "1"]
        argv += [token for extra in extras for token in extra] + ["--out", str(out)]
        stderr = io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            os.environ.pop("DRS_SIM_LOG", None)
            if log_value is not None:
                os.environ["DRS_SIM_LOG"] = log_value
            code = main(argv)
        written = {p.name for p in out.rglob("*") if p.is_file()} if out.exists() else set()
        if code == 0:
            for svg in out.glob("*.svg"):
                ET.fromstring(svg.read_text(encoding="utf-8"))  # well-formed XML
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if code:
        assert not written, (argv, written)
    else:
        expected = {"run": {"steps.csv", "summary.json"}, "sweep": {"sweep.csv"},
                    "plot": {"rate_vs_cycle.svg", "mean_rate.svg"}}[command]
        assert written & OUTPUT_NAMES == expected
