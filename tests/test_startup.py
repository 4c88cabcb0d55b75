"""Start-up cost of the command line: what importing the CLI pulls in."""

import subprocess
import sys

# The same check runs in CI after a plain install.  dataclasses brings
# inspect, ast, dis and copy with it, and generates and compiles methods for
# every class it decorates; the value and config classes are written out so
# that no command pays for that.
GUARD = (
    "import sys, drs_sim.cli; "
    "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules)); "
    "sys.exit(f'importing drs_sim.cli loaded {loaded}' if loaded else 0)"
)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    result = subprocess.run(
        [sys.executable, "-c", GUARD], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
