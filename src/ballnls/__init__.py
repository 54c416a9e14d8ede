"""Spectral simulator and statistical verification harness for the
Galerkin-truncated radial cubic NLS on the unit ball.

Modules:
    basis       eigenfunctions, quadrature, the correlation tensor
    measures    free/Gibbs sampling, chaos moment diagnostics
    dynamics    reference and collocation integrators
    norms       H^s, mixed, X^{s,b}, triple-norm, exact grid trilinear form
    experiments invariance, tails, blocks, ladder, embedding studies
    io / cli    persistence formats, manifests, command-line surface
"""

from .basis import (
    CorrelationTensor,
    QuadratureRule,
    build_tensor,
    correlation,
    eigenfunction_value,
)
from .dynamics import IntegratorConfig, RadialState, Trajectory, evolve
from .errors import BallNlsError, RuntimeFailure, UsageError
from .measures import FreeMeasureSpec, RngStream, sample_free, sample_gibbs
from .norms import SpaceTimeSpectrum, hs_norm, triple_norm_upper, xsb_norm

__version__ = "1.0.0"

__all__ = [
    "BallNlsError",
    "CorrelationTensor",
    "FreeMeasureSpec",
    "IntegratorConfig",
    "QuadratureRule",
    "RadialState",
    "RngStream",
    "RuntimeFailure",
    "SpaceTimeSpectrum",
    "Trajectory",
    "UsageError",
    "build_tensor",
    "correlation",
    "eigenfunction_value",
    "evolve",
    "hs_norm",
    "sample_free",
    "sample_gibbs",
    "triple_norm_upper",
    "xsb_norm",
    "__version__",
]
