"""Start-up cost of the command line: what importing the CLI pulls in."""

import subprocess
import sys

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
