"""radialfs needs only numpy at runtime.

scipy.integrate alone costs more start-up time than the rest of the package,
and scipy.fft most of the remainder.  The package must not load any scipy
module, neither on import nor when the FFT norms run (the p = 2 route from
band spectra and the route over band samples), so a lazy import inside a
function cannot pass these tests.

Every name a package module exports, every module-level function (private
ones included), every method and property of its classes and every
annotated field of a class body (dataclass and NamedTuple fields) must also
be reached from a program: the package's other modules, perfbench or
scripts.  Code that only tests reach belongs in the tests, except for the
allow-list below.

Dunder methods are skipped: an operator is called by syntax, not by name,
so the guard cannot tell whether a program uses it.  ``RadialProfile``'s
``__add__`` and ``__sub__`` escaped it that way with no caller at all,
until they were found by hand and deleted.

The guard matches by name, not by type: a member counts as reached when
any program refers to its name, and a field when any program reads an
attribute of its name.  So a member whose name is common still escapes it:
a field ``p`` or ``params`` is "read" by every ``.p`` or ``.params`` in the
programs, whatever object carries it.
"""

import ast
import importlib
import importlib.util
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


ROOT = Path(__file__).resolve().parents[1]

# Exports, functions and methods (as Class.method) that no program reaches
# yet, each kept for the ROADMAP item named.
TEST_ONLY = {
    "sobolev_radial_norm_1": "item 20: the H^1 norm of sharp-radial-p2's "
                             "witnesses, once it returns its two parts",
    "make_f_alpha": "item 2: its membership threshold is to become a J-sweep",
    "make_f_alpha_delta": "item 2: its membership threshold is to become a "
                          "J-sweep",
    "make_f_alpha_sigma": "item 2: the log-borderline fit at q != 2, with "
                          "alpha on both sides of 1/q'",
    "make_psi_cutoff": "item 9: the p < 1 FFT norm's test profile",
}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _references(tree):
    """Names a module refers to: AST names, attributes, imported names and
    string constants, leaving out the strings of its own ``__all__``; and
    apart, the attribute names alone."""
    listed = {id(c) for node in tree.body if _is_all(node)
              for c in ast.walk(node.value)}
    refs, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in listed:
            refs.add(node.value)
    return refs, attrs


def _program_sources():
    """{path: text} of the package modules (not ``__init__.py``), perfbench
    and scripts."""
    paths = [p for p in sorted((ROOT / "src" / "radialfs").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").rglob("*.py"))
    paths += sorted((ROOT / "scripts").rglob("*.py"))
    return {p: p.read_text() for p in paths}


def _definitions(tree):
    """A module's exports, its module-level functions, its classes' methods
    and properties other than dunders as ``Class.method``, and its classes'
    annotated fields as ``Class.field``; and apart, the fields alone."""
    names = {c.value for node in tree.body if _is_all(node)
             for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    fields = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))}
            fields |= {f"{node.name}.{item.target.id}" for item in node.body
                       if isinstance(item, ast.AnnAssign)
                       and isinstance(item.target, ast.Name)}
    return names | fields, fields


def _unreferenced(sources):
    """The package's definitions (``_definitions``) whose name no program
    source refers to; a method counts as referred to by its own name, a
    field only by an attribute of its name."""
    defined, fields, refs, attrs = set(), set(), set(), set()
    for path, text in sources.items():
        tree = ast.parse(text)
        if path.parent.name == "radialfs":
            names, class_fields = _definitions(tree)
            defined |= names
            fields |= class_fields
        names, attr_names = _references(tree)
        refs |= names
        attrs |= attr_names
    return {name for name in defined
            if name.rpartition(".")[2] not in (attrs if name in fields else refs)}


def test_every_export_has_a_caller_outside_the_tests():
    assert _unreferenced(_program_sources()) == set(TEST_ONLY)


def test_a_test_only_export_fails_the_guard():
    sources = _program_sources()
    sources[ROOT / "src" / "radialfs" / "_probe.py"] = (
        '__all__ = ["probe_only"]\n\n\ndef probe_only():\n    return "probe"\n')
    assert _unreferenced(sources) == set(TEST_ONLY) | {"probe_only"}


def test_an_unreached_method_or_helper_fails_the_guard():
    # a class whose one method no program calls, and a private helper
    sources = _program_sources()
    sources[ROOT / "src" / "radialfs" / "_probe.py"] = (
        "class Probe:\n"
        "    def __init__(self):\n        self.x = _reached()\n\n"
        "    def probe_method(self):\n        return self.x\n\n\n"
        "def _reached():\n    return 1\n\n\n"
        "def _probe_helper():\n    return Probe()\n")
    assert _unreferenced(sources) == set(TEST_ONLY) | {"Probe.probe_method",
                                                       "_probe_helper"}


def test_an_unread_field_fails_the_guard():
    # a dataclass field no program reads as an attribute; a local variable
    # of the same name is no read of it
    sources = _program_sources()
    sources[ROOT / "src" / "radialfs" / "_probe.py"] = (
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Probe:\n    probe_read: int\n    probe_unread: int\n\n\n"
        "def probe_use():\n    probe_unread = Probe(1, 2)\n"
        "    return probe_unread.probe_read\n\n\n"
        "PROBE = probe_use()\n")
    assert _unreferenced(sources) == set(TEST_ONLY) | {"Probe.probe_unread"}


def test_the_benchmark_tracer_installs_and_removes():
    # perfbench/tracing.py looks up every module it traces in sys.modules,
    # so a deleted module makes Installed raise KeyError; remove() must put
    # every original back
    from radialfs import decompose, experiments
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (decompose.tb_norm, radialfs.tb_norm, dict(experiments.REGISTRY))
    installed = tracing.Installed(tracing.Tracer())
    try:
        assert decompose.tb_norm is not originals[0]
    finally:
        installed.remove()
    assert (decompose.tb_norm, radialfs.tb_norm, experiments.REGISTRY) == originals
