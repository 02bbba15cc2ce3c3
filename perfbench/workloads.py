"""The benchmark's workloads: inputs made from a seed, one timed pass, and the gates.

Every operation is gated on the values it returns, cast to ``float``; CSV
artifacts are never read back.  An operation fails when it raises or when its
gate finds a problem, and the pass carries on with the next operation.

Why these workloads:

* ``suite`` runs every registered experiment with its shipped configuration
  and the serial path, as a user checking the paper does.  It touches every
  layer and is led by ``core`` (the tensor gradient oracle) and ``wavelets``.
* ``j-sweep`` is the convergence-in-J study: decompositions with residual
  history at J = 8..14, the b- and f-norms of each, the FFT Littlewood-Paley
  norm at n_fft = 2^17 with T repeated and varied (so a cache keyed on
  (n_fft, T) would both hit and miss), and sequence norms on seeded grids.
  ``decompose``, ``seqspaces`` and the FFT path do the work; the tensor
  oracles never run.  The J = 14 decomposition has about 3000 entries, so
  the dense intervals x entries matrix of the f-norm dominates memory.
* ``d3-tensor`` runs the d = 3 paths of the two tensor layers, which
  ``suite`` mostly exercises at d = 2; ``decompose`` and ``seqspaces`` do no
  work here, so a fix tuned for 2-D that slows 3-D shows up on this workload.

The seed moves values (amplitudes, exponents, centres, random coefficient
grids, the order of the T values) but not the amount of work, so pass times
of different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

import radialfs as rf
from radialfs import experiments
from radialfs.bump import bump
from radialfs.covering import AtomSpec
from radialfs.decompose import atom_normalization

REL_TOL = 1e-10          # b = f at p = q, and b against its reference formula
GRADIENT_TOL = 1e-4      # |ratio - 1| of the tensor gradient oracle
RICHARDSON_TOL = 5e-2    # sphere quadrature, passed to the program as its tolerance

# An operation returns the floats it produced and a problem, or None when its
# gate holds.
Outcome = Tuple[List[float], Optional[str]]


class Ops:
    """Attempted and failed operations, with the values each pass produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.values: List[float] = []

    def run(self, name: str, op: Callable[[], Outcome]) -> None:
        self.attempted += 1
        try:
            values, problem = op()
        except Exception as exc:  # a raising operation counts as failed; the pass goes on
            self.failed += 1
            self.failures.append(f"{name}: raised {exc!r}")
            return
        self.values.extend(float(v) for v in values)
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{name}: {problem}")

    def take_digest(self) -> str:
        """sha256 of the float64 bytes of the values recorded since the last call."""
        digest = hashlib.sha256(np.asarray(self.values, dtype="<f8").tobytes())
        self.values = []
        return digest.hexdigest()[:16]


def _first_problem(*checks: Tuple[bool, str]) -> Optional[str]:
    return next((msg for ok, msg in checks if not ok), None)


def _finite(values: Sequence[float]) -> Tuple[bool, str]:
    return bool(np.all(np.isfinite(values))), "non-finite value"


def _close(a: float, b: float, what: str) -> Tuple[bool, str]:
    return abs(a - b) <= REL_TOL * abs(b), f"{what}: {a!r} vs {b!r}"


def b_norm_reference(c, params, weight_exponent: Optional[int] = None) -> float:
    """b^s_{p,q,d} from its displayed formula, summed directly.

    (sum_j 2^{j(s-d/p)q} (sum_k (1+k)^{d-1} |s_{j,k}|^p)^{q/p})^{1/q}; the
    negative control passes another ``weight_exponent`` than d - 1.
    """
    s, p, q, d = params.s, params.p, params.q, params.d
    w = d - 1 if weight_exponent is None else weight_exponent
    inner = {}
    for (j, k), v in c.items():
        inner.setdefault(j, []).append((1.0 + k) ** w * abs(v) ** p)
    terms = [2.0 ** (j * (s - d / p) * q) * math.fsum(x) ** (q / p)
             for j, x in inner.items()]
    return math.fsum(terms) ** (1.0 / q)


def seq_norm_op(c, params, weight_exponent: Optional[int] = None) -> Outcome:
    """b- and f-norms at p = q: equal to each other and to the reference."""
    b = rf.seq_norm_bspqd(c, params)
    f = rf.seq_norm_fspqd(c, params)
    ref = b_norm_reference(c, params, weight_exponent)
    return [b, f], _first_problem(
        _finite([b, f, ref]), _close(f, b, "f-norm != b-norm"),
        _close(b, ref, "b-norm != reference formula"))


def _seq_params(rng):
    p = float(rng.uniform(0.5, 3.0))
    return rf.SpaceParams(float(rng.uniform(-1.0, 2.0)), p, p,
                          int(rng.integers(1, 4)))


def negative_control(seed: int) -> Ops:
    """The b-norm gate fed a perturbed expected value must count as failed.

    The reference weight (1+k)^{d-1} becomes (1+k)^d; run through the same
    counting as every operation.
    """
    rng = np.random.default_rng(seed)
    c, params = rf.CoefficientGrid.random(rng, 4, 32, 0.5), _seq_params(rng)
    control = Ops()
    control.run("negative-control", lambda: seq_norm_op(c, params, params.d))
    return control


def prepare() -> None:
    """Lazy set-up every workload pays once per process: wavelet tables,
    bump derivative bounds and FFT plans."""
    for name in ("db2", "db4"):
        rf.wavelet_table(name)
    for L in range(4):
        atom_normalization(L)
    for n in (2 ** 16, 2 ** 17):
        np.fft.ifft(np.fft.fft(np.zeros(n)))


class Suite:
    """Every registered experiment, shipped configuration, serial path."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def run_pass(self, ops: Ops) -> None:
        for name in sorted(experiments.REGISTRY):
            ops.run(name, lambda name=name: self._experiment(name))

    def _experiment(self, name: str) -> Outcome:
        cfg = experiments.ExperimentConfig(name, seed=self.seed,
                                           output_dir=self.scratch / name)
        result = experiments.run_experiment(cfg)
        values, failed = [], []
        for a in result.assertions:
            m, t = float(a.measured), float(a.threshold)
            values.append(m)
            holds = {"<=": m <= t, ">=": m >= t, "abs<=": abs(m) <= t}.get(a.kind)
            if not holds:
                failed.append(f"{a.name}={m!r} ({a.kind} {t!r})")
        return values, "; ".join(failed) or None


class JSweep:
    """Decompositions with history over J, their b/f norms, the FFT norm, seq norms."""

    Js = (8, 10, 12, 14)
    N_FFT = 2 ** 17

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.params = rf.SpaceParams(1.0, 2.0, 2.0, 2)   # p = q: b = f exactly
        self.amplitude = float(rng.uniform(0.5, 2.0))
        self.Ts = [float(T) for T in rng.permutation([4.0, 4.0, 5.0, 4.0, 6.0])]
        self.grids = [(rf.CoefficientGrid.random(rng, 10, 512, 0.2), _seq_params(rng))
                      for _ in range(3)]

    def run_pass(self, ops: Ops) -> None:
        # f_{4,8} on h = 2^-14: about 3000 coefficients at J = 14
        prof = rf.make_f_j_lambda(4, 8.0).profile(
            rf.Grid1D.uniform(2.0 ** -14, 2.0), d=2).scaled(self.amplitude)
        spec = AtomSpec.b_admissible(self.params.s, self.params.p, self.params.d)
        for J in self.Js:
            ops.run(f"decompose J={J}", lambda J=J: self._decomposition(prof, spec, J))
        for T in self.Ts:
            ops.run(f"lp_besov T={T:g}", lambda T=T: self._lp_besov(prof, T))
        for i, (c, params) in enumerate(self.grids):
            ops.run(f"seq-norms grid {i}", lambda c=c, params=params:
                    seq_norm_op(c, params))

    def _decomposition(self, prof, spec, J: int) -> Outcome:
        dec = rf.decompose_profile(prof, spec, J=J, raise_on_stall=False,
                                   track_history=True)
        tb = rf.tb_norm(prof, self.params, decomposition=dec)
        tf = rf.tf_norm(prof, self.params, decomposition=dec)
        values = [tb, tf, float(len(dec.coefficients))] + list(dec.residual_history)
        return values, _first_problem(_finite(values), (tb > 0, "zero norm"),
                                      _close(tf, tb, "tf_norm != tb_norm"))

    def _lp_besov(self, prof, T: float) -> Outcome:
        v = rf.lp_besov_norm_1d(prof, self.params, weighted=True,
                                n_fft=self.N_FFT, T=T)
        return [v], _first_problem(_finite([v]), (v > 0, "zero norm"))


class D3Tensor:
    """The d = 3 tensor gradient oracle and the d = 3 sphere-measure wavelet sums."""

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.p_gradient = float(rng.uniform(1.0, 2.0))
        self.center = 1.2 * (1.0 + 0.05 * float(rng.uniform(-1.0, 1.0)))
        self.width = 0.8 * (1.0 + 0.05 * float(rng.uniform(-1.0, 1.0)))
        self.p_sphere = float(rng.uniform(1.0, 2.0))

    def run_pass(self, ops: Ops) -> None:
        ops.run("gradient identity d=3", self._gradient)
        ops.run("spherical mean d=3", self._spherical)

    def _gradient(self) -> Outcome:
        c, w = self.center, self.width

        def ev(r):
            r = np.asarray(r, dtype=float)
            return bump((r - c) / w) + bump((r + c) / w)

        prof = rf.RadialProfile.from_callable(ev, rf.Grid1D.uniform(5e-4, c + 2 * w), d=3)
        rep = rf.radial_gradient_identity_check(prof, self.p_gradient, 3,
                                                evaluator=ev, n_grid=240)
        values = [rep.lhs_tensor, rep.rhs_radial, rep.ratio]
        return values, _first_problem(
            _finite(values), (abs(rep.ratio - 1.0) <= GRADIENT_TOL,
                              f"|ratio - 1| = {abs(rep.ratio - 1.0):.3g}"))

    def _spherical(self) -> Outcome:
        res = rf.spherical_mean_wavelet_coeffs(
            d=3, p=self.p_sphere, Jmax=2, wavelet="db2", nodes_per_unit=8000,
            richardson_tol=RICHARDSON_TOL)
        values = (list(res.scaled_sums) + list(res.max_coeff)
                  + list(res.quad_error) + [float(n) for n in res.counts])
        return values, _first_problem(
            _finite(values), (bool(np.all(res.quad_error <= RICHARDSON_TOL)),
                              f"Richardson estimate {res.quad_error.max():.3g}"))


WORKLOADS = {"suite": Suite, "j-sweep": JSweep, "d3-tensor": D3Tensor}
