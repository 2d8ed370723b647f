"""Purity of single-mode Gaussian states: measurement and noisy-channel evolution."""

__version__ = "0.1.0"

from .channel import (BathParams, ChannelAsymptote, Trajectory, asymptotic_cov,
                      channel_asymptote, evolve_cov, has_purity_minimum,
                      integrate_cov_ode, mu_of_t, mu_optimal, optimal_input,
                      phi_of_t, r_of_t, trajectory)
from .errors import (DegenerateSampleError, GaussPurityError, InsufficientDataError,
                     PhysicalityError, UnphysicalBathError, UnsupportedConditionError)
from .estimation import (EstimationMethod, MomentEstimate, PurityEstimate,
                         SweepRow, error_scaling_sweep,
                         estimate_purity_homodyne, moments_from_q,
                         purity_from_moments, purity_from_q,
                         purity_from_three_quadratures)
from .experiments import ExperimentConfig, ExperimentReport, emit, run_experiment
from .sampling import (HomodyneBatch, QSampleBatch, homodyne_variance,
                       q_covariance, sample_homodyne, sample_q)
from .states import (CovMatrix, GaussianParams, GaussianState, cov_from_params,
                     gaussian_weighted_integral, params_from_cov, purity,
                     purity_by_phase_space_integral, seralian)

__all__ = [name for name in dir() if not name.startswith("_")]
