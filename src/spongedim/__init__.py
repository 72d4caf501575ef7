"""Dimensions of Mandelbrot measures and percolated self-affine sponges.

Deterministic side: diagonal systems, weight laws and schedules, the scale
decomposition and entropy profiles, closed-form and variational dimension
formulas.  Stochastic side: percolation trees, cascades, box counting and
local-dimension sampling for validation.
"""

from .ifs import (DiagonalIFS, DiagonalMap, ProjectionCoding,
                  ProjectionOverlapError, build_projection_coding, classify,
                  compare_projections, feasible_direction_sets, validate_ifs)
from .weights import (DegenerateError, InputError, WeightModel,
                      WeightSequence, as_prob_vector, as_survival_vector,
                      entropy, nondegeneracy_report, validate_type_ell)
from .scales import (PrefixTable, ScaleDecomposition, TailHorizonError,
                     clock_chain, decompose, kahan_cumsum, tail_min)
from .engine import (PeriodicSpec, d_sequences, dim_exp_periodic,
                     dim_imm_bounds, dim_mandelbrot, entropy_profile,
                     partition_function, stable_chain,
                     three_weight_gap_sequence, two_point_mean_one)
from .variational import (dim_attractor_equal_linear, maximize_on_simplex,
                          optimize_mandelbrot, optimize_packing,
                          optimize_type_ell_hausdorff, perturb_sequence,
                          weighted_pressure)
from .simulate import (BoxCountReport, CascadeSample, PercolationTree,
                       ResourceCapError, box_count, box_count_fit,
                       empirical_local_dimension, fit_range, gw_extinction,
                       gw_survival_frequency, localized_frequencies,
                       sample_cascade, sample_tree, sample_tree_conditioned,
                       simulate_level_counts)
from .io import VERSION as __version__

__all__ = [name for name in dir() if not name.startswith("_")]
