"""Numerical laboratory for radial subspaces of Besov/Lizorkin-Triebel spaces.

Grids and radial profiles, even atoms and their adapted sequence-space
norms, constructive trace/extension machinery, weighted BV on the half-line,
and the scaling-exponent experiments that verify the decay and boundedness
theorems for radial functions.
"""

from .core import (Grid1D, RadialProfile, ball_volume,
                   radial_gradient_identity_check, sphere_area,
                   weighted_lp_norm)
from .spaces import (SpaceParams, ParamRegion, embeds_in_Linfty, in_U, in_U_t,
                     sigma_p, sigma_pq, trace_lands_in_Sprime,
                     weighted_Lp_in_Sprime)
from .seqspaces import (CoefficientGrid, seq_norm_bpqd, seq_norm_bspqd,
                        seq_norm_fpqd, seq_norm_fspqd)
from .covering import AtomSpec, validate_even_atom
from .decompose import (AtomicDecomposition, DyadicBandSpectrum,
                        decompose_profile, dyadic_band_spectrum,
                        lp_besov_norm_1d, sobolev_radial_norm_1,
                        tb_norm, tf_norm, template_atom_profile)
from .traceext import RadialGridField, cm_norm, extend, trace
from .families import (TestFamily, make_f_alpha, make_f_alpha_delta,
                       make_f_alpha_sigma, make_f_j_lambda, make_psi_cutoff,
                       parse_family)
from .bv import (BVProfile, RadonMeasure1D, bv_decay_check,
                 bv_equivalence_check, bv_weighted_norm, smooth_bump_bv,
                 staircase)
from .decay import (DecayFit, bump_train, check_decay2, check_decay4,
                    check_lim1, classification_map, fit_decay_exponent,
                    fit_loglog)
from .wavelets import spherical_mean_wavelet_coeffs, wavelet_table

__version__ = "0.1.0"
