"""Start-up path: a CLI process loads only the modules its command uses.

Each check runs in a fresh interpreter and reads its sys.modules.  The
file needs nothing beyond the stdlib, so it also runs as a script where
pytest is not installed:

    PYTHONPATH=src python tests/test_startup.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_WATCHED = {"dataclasses", "fractions", "decimal"}


def _loaded(code: str) -> set[str]:
    """The coinfloor modules, dataclasses, fractions and decimal that a
    fresh interpreter holds after running `code`."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    return {m for m in modules if m in _WATCHED or m.split(".")[0] == "coinfloor"}


def test_importing_the_cli_loads_no_library_module():
    assert _loaded("import coinfloor.cli") == {"coinfloor", "coinfloor.cli"}


def test_floorsum_command_loads_only_the_floorsum_module():
    loaded = _loaded("from coinfloor import cli; cli.main(['floorsum', '29', '23', '8'])")
    assert loaded == {"coinfloor", "coinfloor.cli", "coinfloor.floorsum"}


def test_jacobi_command_loads_neither_coinproblem_nor_verify():
    loaded = _loaded("from coinfloor import cli; cli.main(['jacobi', '23', '29'])")
    assert "coinfloor.jacobi" in loaded
    assert not loaded & {"coinfloor.coinproblem", "coinfloor.verify", "dataclasses"}


def test_counting_commands_load_neither_fractions_nor_decimal():
    loaded = _loaded("from coinfloor import cli; cli.main(['upto', '7', '11', '500'])")
    assert "coinfloor.coinproblem" in loaded
    assert not loaded & {"fractions", "decimal"}


def test_records_do_not_load_dataclasses():
    loaded = _loaded("import coinfloor.core, coinfloor.coinproblem")
    assert "dataclasses" not in loaded
    assert "dataclasses" not in _loaded("import coinfloor.verify")


if __name__ == "__main__":
    for name, check in list(globals().items()):
        if name.startswith("test_"):
            check()
            print("ok", name)
