"""radialfs needs only numpy at runtime.

scipy.integrate alone costs more start-up time than the rest of the package,
and scipy.fft most of the remainder.  The package must not load any scipy
module, neither on import nor when the FFT norms run (the p = 2 route from
band spectra and the route over band samples), so a lazy import inside a
function cannot pass these tests.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import radialfs

HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.sparse")


def _run(code):
    src = str(Path(radialfs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_import_leaves_heavy_scipy_out():
    out = _run("import sys, radialfs; "
               f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    assert out.split() == []


def test_fft_norms_load_no_scipy():
    out = _run(
        "import sys\n"
        "import radialfs as rf\n"
        "from radialfs.bump import psi_cutoff\n"
        "g = rf.RadialProfile.from_callable(psi_cutoff, rf.Grid1D.uniform(2 ** -10, 2.0), d=2)\n"
        "assert rf.lp_besov_norm_1d(g, rf.SpaceParams(1.0, 2.0, 2.0, 2), n_fft=2 ** 15) > 0\n"
        "assert rf.lp_besov_norm_1d(g, rf.SpaceParams(1.0, 1.5, 2.0, 2), n_fft=2 ** 15) > 0\n"
        "assert rf.dyadic_band_spectrum(g, n_fft=2 ** 15).bands.shape[1] == 2 ** 15\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    assert out.split() == []


def test_every_export_resolves():
    """Each name in a module's ``__all__`` exists, and each name the package
    re-exports is its module's own and listed in that ``__all__``."""
    for info in pkgutil.iter_modules(radialfs.__path__):
        mod = importlib.import_module(f"radialfs.{info.name}")
        assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
    tree = ast.parse(Path(radialfs.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            mod = importlib.import_module(f"radialfs.{node.module}")
            for alias in node.names:
                assert alias.name in mod.__all__, (node.module, alias.name)
                assert getattr(radialfs, alias.asname or alias.name) is \
                    getattr(mod, alias.name)
