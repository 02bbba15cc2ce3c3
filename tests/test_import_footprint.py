"""``import radialfs`` must not pull in scipy's heavy subpackages.

scipy.integrate alone costs more start-up time than the rest of the package;
at runtime radialfs needs only scipy.fft.
"""

import os
import subprocess
import sys
from pathlib import Path

import radialfs

HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.sparse")


def test_import_leaves_heavy_scipy_out():
    src = str(Path(radialfs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, radialfs; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == []
