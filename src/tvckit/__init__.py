"""Verification toolkit for stationarity and tail conditions of stochastic
higher-order intertemporal optimization models on finite state sets."""

__version__ = "0.1.0"

from .core import (PerturbationCurve, SampleSpace, StochasticPath, TimeDomain,
                   compact_support_curve, eventually_constant_curve,
                   expectation, integrate_time, perturb, quintic_ramp_curve,
                   smoothstep_quintic, time_derivative, zero_curve)
from .diagnostics import (DiagnosticMatrix, DominationReport, IteratedLimits,
                          UniformityVerdict, a_grid, domination_check,
                          iterated_limits, uniformity_verdict)
from .errors import (DomainError, EvalError, ExprSyntaxError, HorizonError,
                     InputError, NumericalError, ToolkitError, UnsupportedError)
from .euler import (BoundaryMode, EulerReport, continuous_euler_residual,
                    continuous_euler_residual_series, discrete_euler_residual,
                    euler_report, max_window_start)
from .expr import (dsl_continuous_objective, dsl_discrete_objective, eval_ast,
                   parse_source, symbolic_partial, to_source)
from .objectives import (ContinuousObjective, DiscreteObjective,
                         GradientCheckReport, QuadLinParams,
                         constant_alpha_path, fd_partial_slot, gradient_check,
                         household_log, partial_slot, quadlin_continuous,
                         quadlin_discrete, quadlin_euler_path)
from .scenario import Scenario, SchemaError, load_scenario, parse_scenario
from .solvers import (BruteForceResult, CorrespondencePair, NewtonReport,
                      SolveSpec, brute_force_solve, correspondence_check,
                      discrete_to_continuous, newton_euler_solve,
                      objective_value)
from .tvc import (TvcReport, boundary_bracket_series,
                  continuous_boundary_term, discrete_tvc_tail,
                  scaled_path_curve, truncated_objective, tvc_liminf_continuous,
                  tvc_liminf_discrete, variation_decomposition_check)
