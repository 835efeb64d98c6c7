"""Spectral toolkit for bilinear quantum control.

Models the Schrodinger equation i d/dt psi = (H + u(t) mu(x)) psi on a
truncated eigenbasis for four boundary setups, computes the spectral
coupling coefficients of piecewise control potentials, solves real
trigonometric moment problems, and steers states locally around an
eigensolution with a quasi-Newton loop.
"""

from .config import ExperimentConfig, load_config, load_config_file
from .errors import (BilinearControlError, ConfigError,
                     ControllabilityDefectError, DegeneracyError, DomainError,
                     IllConditionedError, ModelError, NonConvergenceError,
                     NumericError, QuadratureError)
from .moments import (MomentProblem, MomentSolution, bessel_diagnostic,
                      moments, solve)
from .potentials import (BoundWeight, CoefficientMethod, CoefficientTable,
                         IdentityReport, LowerBoundReport, ObstructionReport,
                         PiecewisePotential, PotentialDomain,
                         coefficient_table, dirichlet_example, half_line_step,
                         harmonic_coefficient_identity, indicator,
                         inner_product, neumann_example,
                         neumann_obstruction_scan, periodic_example,
                         verify_lower_bound)
from .propagator import (ControlSignal, Propagator, SobolevNorm, StateVector,
                         Trajectory, basis_state, coupling_matrix,
                         sobolev_norm, sobolev_weights)
from .spectral import (GapReport, ModelKind, ResonanceReport, SpectralModel,
                       check_resonance, eigenfunction_value, eigenvalue,
                       gap_analysis, hermite_function_values, index_window,
                       transition_frequencies, window_position)
from .steering import (SteeringProblem, SteeringReport,
                       endpoint_derivative_check, eigensolution,
                       linearized_control, perturbed_target, project_tangent,
                       steer)

__version__ = "0.1.0"
