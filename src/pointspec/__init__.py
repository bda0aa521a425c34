"""Spectral analysis of half-line Schrodinger operators with point
interactions (delta and delta-prime) on sparse lattices."""

from .growth import (BoundCheck, DivergenceVerdict, GrowthProfile,
                     lower_bound_check, series_terms, series_verdict)
from .lattice import (DELTA, DELTA_PRIME, SparseSet, StrengthSequence,
                      SystemSpec, ThresholdEstimate, estimate_threshold,
                      threshold_ratio)
from .spectrum import (ClassifyConfig, EigenvalueList, Interval, ProbeReport,
                       SpectralClassification, box_eigenvalue_above, classify,
                       dirichlet_eigenvalues, essential_spectrum_probe,
                       fd_oracle_eigenvalues, truncated_eigenvalues)
from .transfer import (DIRICHLET_START, SolutionSample, diagonalizer,
                       fundamental_matrix, inverse_step_diagonalized,
                       jump_matrix, operator_norm, propagate, sample_solution,
                       step_matrix)

__version__ = "0.1.0"

__all__ = [
    "DELTA", "DELTA_PRIME", "DIRICHLET_START",
    "SparseSet", "StrengthSequence", "SystemSpec", "ThresholdEstimate",
    "estimate_threshold", "threshold_ratio",
    "fundamental_matrix", "jump_matrix", "step_matrix", "propagate",
    "diagonalizer", "inverse_step_diagonalized", "operator_norm",
    "sample_solution", "SolutionSample",
    "GrowthProfile", "DivergenceVerdict", "BoundCheck",
    "series_terms", "series_verdict", "lower_bound_check",
    "Interval", "SpectralClassification", "ClassifyConfig", "EigenvalueList",
    "ProbeReport", "classify",
    "dirichlet_eigenvalues", "box_eigenvalue_above",
    "truncated_eigenvalues", "fd_oracle_eigenvalues",
    "essential_spectrum_probe",
]
