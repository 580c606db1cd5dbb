import os
import subprocess
import sys
from pathlib import Path

import qmproute


def test_import_loads_no_submodule():
    # Every caller imports the submodule it uses, so the package itself
    # must not pull in the solver or the oracle.
    src = str(Path(qmproute.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, qmproute; "
            "print(sorted(m for m in sys.modules if m.startswith('qmproute.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
