"""Start-up and exit cost of the command line: what importing the CLI pulls
in, and the import-time heap the entry point freezes."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import drs_sim
from drs_sim.cli import main

# The same check runs in CI after a plain install.  dataclasses brings
# inspect, ast, dis and copy with it, and generates and compiles methods for
# every class it decorates; the value and config classes are written out so
# that no command pays for that.  run and sweep write their CSV rows as plain
# lines, so only plot, which reads CSV, imports csv.
GUARD = (
    "import sys, drs_sim.cli; "
    "loaded = sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)); "
    "sys.exit(f'importing drs_sim.cli loaded {loaded}' if loaded else 0)"
)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    result = subprocess.run(
        [sys.executable, "-c", GUARD], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


# The same check runs in CI.  A sweep forks its workers itself: importing
# concurrent.futures.process would bring multiprocessing, socket and
# subprocess with it.
SWEEP_GUARD = (
    "import sys, drs_sim.cli; "
    "code = drs_sim.cli.main(['sweep', '--seeds', '1,2', '--steps', '20', '--jobs', '2', "
    "'--out', sys.argv[1]]); "
    "loaded = sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)); "
    "sys.exit(code or (f'a two-worker sweep loaded {loaded}' if loaded else 0))"
)


def test_sweep_loads_no_process_pool(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", SWEEP_GUARD, str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "sweep.csv").is_file()


# The same check runs in CI.  Every module has postponed annotations, so
# annotation names cost nothing; typing itself is a few milliseconds of a
# clean interpreter's start-up.  -S drops site, and with it both the
# site-packages .pth of an editable install and whatever site preloads, so
# the package's own source directory goes on PYTHONPATH.
TYPING_GUARD = (
    "import sys, drs_sim.cli; "
    "sys.exit('importing drs_sim.cli loaded typing' if 'typing' in sys.modules else 0)"
)


def test_cli_import_loads_no_typing_in_a_clean_interpreter():
    src = str(Path(drs_sim.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-S", "-c", TYPING_GUARD],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


# The same check runs in CI.  main is replaced by a stub that prints how
# many objects entrypoint() froze before calling it, and returns None, so
# entrypoint() exits 0.
FREEZE_PROBE = (
    "import gc, drs_sim.cli; "
    "drs_sim.cli.main = lambda: print(gc.get_freeze_count()); "
    "drs_sim.cli.entrypoint()"
)


def test_entrypoint_freezes_the_import_time_heap():
    result = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0


def test_main_freezes_nothing(tmp_path):
    # Tests and library callers call main in process; a freeze there would
    # pin the caller's whole heap for the rest of its life.
    frozen = gc.get_freeze_count()
    assert main(["run", "--steps", "1", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == frozen
