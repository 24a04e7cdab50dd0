"""fracstep: corrected weighted-shifted Grunwald-Letnikov time stepping.

Convolution-quadrature discretizations of Caputo/Riemann-Liouville
derivatives with Lubich-style starting-weight corrections, solvers for
multi-term fractional ODEs, and time-fractional PDE schemes (diffusion-wave
and two-term subdiffusion) over a 1D Legendre spectral-element kernel,
plus a study harness that reproduces the reference convergence tables.
"""

from .corrections import (
    CorrectionSet,
    VandermondeDiagnostics,
    d1_u_weight_table,
    d1_v_weight_table,
    starting_weight_table,
    vandermonde_diagnostics,
)
from .fode import (
    ConvergenceError,
    ErrorReport,
    MultiTermProblem,
    SolverConfig,
    error_report,
    solve_corrected_wsgl,
    solve_l1,
    solve_trapezoidal,
    two_term_sigma_rule,
)
from .glweights import SampledPath, gl_weights, rl_deriv_power, wsgl_weights
from .harness import ConvergenceTable, StudyConfig, observed_order, parse_config, run_study
from .sem import AssembledForms, SpectralMesh, assemble, h1_projection, interpolate, lgl_nodes
from .specfun import gamma, mittag_leffler
from .tfpde import (
    FieldHistory,
    SubdiffusionProblem,
    WaveProblem,
    l2_error,
    solve_subdiffusion,
    solve_subdiffusion_l1_baseline,
    solve_wave,
    solve_wave_l1_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "CorrectionSet",
    "VandermondeDiagnostics",
    "d1_u_weight_table",
    "d1_v_weight_table",
    "starting_weight_table",
    "vandermonde_diagnostics",
    "ConvergenceError",
    "ErrorReport",
    "MultiTermProblem",
    "SolverConfig",
    "error_report",
    "solve_corrected_wsgl",
    "solve_l1",
    "solve_trapezoidal",
    "two_term_sigma_rule",
    "SampledPath",
    "gl_weights",
    "rl_deriv_power",
    "wsgl_weights",
    "ConvergenceTable",
    "StudyConfig",
    "observed_order",
    "parse_config",
    "run_study",
    "AssembledForms",
    "SpectralMesh",
    "assemble",
    "h1_projection",
    "interpolate",
    "lgl_nodes",
    "gamma",
    "mittag_leffler",
    "FieldHistory",
    "SubdiffusionProblem",
    "WaveProblem",
    "l2_error",
    "solve_subdiffusion",
    "solve_subdiffusion_l1_baseline",
    "solve_wave",
    "solve_wave_l1_baseline",
]
