"""Per-layer spans and work counts, recorded from outside the package.

Each traced function is replaced by a wrapper in every ``radialfs`` module
namespace that holds it, because modules bind functions by name
(``from .decompose import tb_norm`` in ``decay`` and ``experiments``,
``quad`` in ``bv``); rebinding only the defining module would leave calls
made from those modules untimed.  Nothing inside the package is edited.

A span records calls, busy time (wall time inside the call) and self time
(busy time minus the time covered by child spans).  The benchmark is one
thread, so spans nest strictly and a stack of child-time accumulators is
exact.  Counts are computed from arguments and results after the call
returns.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# A count function gets the counter, the call's args and kwargs, and its result.
CountFn = Callable[[Counter, tuple, dict, object], None]


def _count_tensor_points(counts, args, kwargs, result):
    # radial_gradient_identity_check(g, p, d=None, evaluator=None, n_grid=None, ...)
    g = args[0]
    d = kwargs.get("d", args[2] if len(args) > 2 else None)
    d = d if d is not None else g.dim_context
    n_grid = kwargs.get("n_grid", args[4] if len(args) > 4 else None)
    if n_grid is None:
        n_grid = 1000 if d == 2 else 240
    if result.lhs_tensor == 0.0 and result.rhs_radial == 0.0:
        return  # empty support: the tensor oracle returned before evaluating
    # n_grid slabs; per slab 2d difference-quotient evaluations of n^(d-1) points
    counts["core.tensor_points"] += n_grid ** d * 2 * d


def _count_sphere_nodes(counts, args, kwargs, result):
    # _level_coeffs(table, d, j, n_nodes); node layout of wavelets._sphere_nodes:
    # n points on the circle, or n_u Gauss-Legendre x 2 n_u trapezoid on the sphere
    d, n_nodes = args[1], args[3]
    n_u = max(8, int(math.sqrt(n_nodes / 2.0)))
    counts["wavelets.sphere_nodes"] += n_nodes if d == 2 else 2 * n_u * n_u


def _count_decomposition(counts, args, kwargs, result):
    counts["decompose.coefficients"] += len(result.coefficients)
    counts["decompose.history_levels"] += len(result.residual_history)


def _count_fft_points(counts, args, kwargs, result):
    counts["decompose.fft_points"] += int(result.bands.size)  # n_fft * (J + 1)


def _count_entries(counts, args, kwargs, result):
    counts["seqspaces.entries"] += len(args[0])


def _count_f_cells(counts, args, kwargs, result):
    """Elementary intervals x entries: the dense membership matrix f-norms build."""
    _count_entries(counts, args, kwargs, result)
    keys = [jk for jk, v in args[0].items() if v != 0.0]
    if not keys:
        return
    j = np.array([jk[0] for jk in keys], dtype=float)
    k = np.array([jk[1] for jk in keys], dtype=float)
    scale = 2.0 ** (-j)
    breakpoints = np.unique(np.concatenate([scale * k, scale * (k + 1)]))
    counts["seqspaces.f_membership_cells"] += (breakpoints.size - 1) * len(keys)


# (module, function, count function or None): each gets calls, busy_s, self_s.
SPANS: List[Tuple[str, str, Optional[CountFn]]] = [
    ("core", "radial_gradient_identity_check", _count_tensor_points),
    ("wavelets", "spherical_mean_wavelet_coeffs", None),
    ("wavelets", "_level_coeffs", _count_sphere_nodes),
    ("wavelets", "wavelet_table", None),
    ("decompose", "decompose_profile", _count_decomposition),
    ("decompose", "lp_besov_norm_1d", None),
    ("decompose", "dyadic_band_spectrum", _count_fft_points),
    ("decompose", "tb_norm", None),
    ("decompose", "tf_norm", None),
    ("seqspaces", "seq_norm_bspqd", _count_entries),
    ("seqspaces", "seq_norm_fspqd", _count_f_cells),
    ("bv", "bv_equivalence_check", None),
    ("bv", "bv_decay_check", None),
    ("bv", "quad", None),
    ("decay", "check_decay4", None),
    ("decay", "check_decay2", None),
    ("decay", "check_lim1", None),
    ("traceext", "extend", None),
    ("traceext", "trace", None),
    ("traceext", "cm_norm", None),
    ("experiments", "run_experiment", None),
]
METHOD_SPANS = [("families", "TestFamily", "profile")]
COUNTS = ["core.tensor_points", "wavelets.sphere_nodes", "decompose.coefficients",
          "decompose.history_levels", "decompose.fft_points",
          "seqspaces.entries", "seqspaces.f_membership_cells"]
# A fixed list, so the reported names match BENCHMARK.json whatever the
# registry holds.
EXPERIMENT_NAMES = ["blowup-origin", "bv-decay", "bv-equivalence",
                    "classification-map", "decay-infinity", "log-borderline",
                    "predicate-tables", "scaling-f-j-lambda", "scaling-lp",
                    "seq-identities", "sobolev-reduction",
                    "spherical-mean-wavelet", "strauss", "support-shift",
                    "trace-roundtrip"]
PASS_METRICS = [("trace.pass_s", "s"), ("trace.untraced_pass_s", "s"),
                ("trace.overhead_s", "s")]


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    spans = [f"{m}.{f}" for m, f, _ in SPANS] + [f"{m}.{a}" for m, _, a in METHOD_SPANS]
    for span in spans:
        out += [(f"{span}.calls", "count"), (f"{span}.busy_s", "s"),
                (f"{span}.self_s", "s")]
    out += [(name, "count") for name in COUNTS]
    out += [(f"experiments.{name}.busy_s", "s") for name in EXPERIMENT_NAMES]
    return out + PASS_METRICS


class Tracer:
    """Span statistics and counts for one traced pass."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self._children: List[float] = []

    def wrap(self, name: str, fn, count: Optional[CountFn] = None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += busy
                self.calls[name] += 1
                self.busy[name] = self.busy.get(name, 0.0) + busy
                self.self_time[name] = self.self_time.get(name, 0.0) + busy - child
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> Dict[str, float]:
        out = {}
        for name, _ in metric_names():
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[span]
            elif kind == "busy_s":
                out[name] = self.busy.get(span, 0.0)
            elif kind == "self_s":
                out[name] = self.self_time.get(span, 0.0)
            elif name in COUNTS:
                out[name] = self.counts[name]
        return out


class Installed:
    """Wrappers bound into the package; ``remove`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        from radialfs import experiments
        self._undo: List[Tuple[object, str, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "radialfs" or name.startswith("radialfs.")]
        for mod_name, attr, count in SPANS:
            original = getattr(sys.modules[f"radialfs.{mod_name}"], attr, None)
            if original is None:
                continue  # renamed or removed: its metrics read 0
            wrapper = tracer.wrap(f"{mod_name}.{attr}", original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, attr in METHOD_SPANS:
            cls = getattr(sys.modules[f"radialfs.{mod_name}"], cls_name)
            self._set(cls, attr, tracer.wrap(f"{mod_name}.{attr}",
                                             getattr(cls, attr)))
        # run_experiment looks experiments up in REGISTRY, not by name
        registry = experiments.REGISTRY
        self._registry = (registry, dict(registry))
        for name, (func, doc) in list(registry.items()):
            registry[name] = (tracer.wrap(f"experiments.{name}", func), doc)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        registry, saved = self._registry
        registry.clear()
        registry.update(saved)
