"""fracstep: corrected weighted-shifted Grunwald-Letnikov time stepping.

Convolution-quadrature discretizations of Caputo/Riemann-Liouville
derivatives with Lubich-style starting-weight corrections, solvers for
multi-term fractional ODEs, and time-fractional PDE schemes (diffusion-wave
and multi-term subdiffusion) over a 1D Legendre spectral-element kernel,
plus a study harness that reproduces the reference convergence tables.

The public names load their submodule on first access (PEP 562), so
``import fracstep`` compiles no solver; ``harness.parse_config`` imports the
solvers of the study kinds a config names.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in (
        ("corrections", "CorrectionSet VandermondeDiagnostics d1_weight_table starting_weight_table "
         "vandermonde_diagnostics"),
        ("fode", "ConvergenceError MultiTermProblem error_report solve_corrected_wsgl solve_l1 solve_trapezoidal"),
        ("glweights", "SampledPath rl_deriv_power wsgl_weights"),
        ("harness", "ConvergenceTable StudyConfig observed_order parse_config run_study"),
        ("sem", "SpectralMesh h1_projection"),
        ("specfun", "gamma mittag_leffler"),
        ("tfpde", "FieldHistory SubdiffusionProblem WaveProblem l2_error solve_subdiffusion "
         "solve_subdiffusion_l1_baseline solve_wave"),
    )
    for name in names.split()
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
