"""The runtime dependency is NumPy alone."""

import os
import subprocess
import sys
from pathlib import Path

_LOADED = """
import sys
before = set(sys.modules)
import embmask, embmask.cli
print("\\n".join(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_package_and_cli_load_only_the_standard_library_and_numpy():
    src = Path(__file__).parents[1] / "src"
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"embmask", "numpy"} <= loaded
    assert sorted(loaded - sys.stdlib_module_names - {"embmask", "numpy"}) == []
