"""Numerical lab for periodic stationary profiles of scalar convection-diffusion.

Layers, bottom up: grids and profiles; flux models; the periodic cell problem
and its family of stationary profiles; monotone IMEX evolution;
entropy/dispersion diagnostics; lap numbers and series bookkeeping; scenario
configs and the run driver; the ``convstab`` command-line tool.
"""

from .diagnostics import (
    DiagnosticsSeries,
    lap_number,
    sign_changes,
    weighted_energy,
)
from .entropy import (
    DispersionFit,
    EntropyField,
    FamilyInterpolant,
    FamilyRangeError,
    dispersion_fit,
    eta_field,
    nash_ratio,
)
from .evolution import (
    CFLError,
    State,
    StepKernel,
    StepPolicy,
    cfl_timestep,
    evolve,
    step,
)
from .fluxes import FluxModel, builtin_flux, normalize_about_wp
from .grids import CellGrid, LineGrid, Profile, norm, primitive
from .scenarios import (
    ConfigError,
    EdgeBufferError,
    PerturbationSpec,
    RunResult,
    RunSetup,
    ScenarioConfig,
    perturbation_values,
    prepare_run,
    run_scenario,
    semigroup_trials,
)
from .stationary import (
    StationaryFamily,
    StationarySolveError,
    build_family,
    cell_residual,
    family_verdicts,
    residual_floor,
    save_family,
    solve_dp_w,
    solve_stationary,
    solve_theta,
)

__version__ = "0.1.0"

__all__ = [
    "CFLError",
    "CellGrid",
    "ConfigError",
    "DiagnosticsSeries",
    "DispersionFit",
    "EdgeBufferError",
    "EntropyField",
    "FamilyInterpolant",
    "FamilyRangeError",
    "FluxModel",
    "LineGrid",
    "PerturbationSpec",
    "Profile",
    "RunResult",
    "RunSetup",
    "ScenarioConfig",
    "State",
    "StationaryFamily",
    "StationarySolveError",
    "StepKernel",
    "StepPolicy",
    "build_family",
    "builtin_flux",
    "cell_residual",
    "cfl_timestep",
    "dispersion_fit",
    "eta_field",
    "evolve",
    "family_verdicts",
    "lap_number",
    "nash_ratio",
    "norm",
    "normalize_about_wp",
    "perturbation_values",
    "prepare_run",
    "primitive",
    "residual_floor",
    "run_scenario",
    "save_family",
    "semigroup_trials",
    "sign_changes",
    "solve_dp_w",
    "solve_stationary",
    "solve_theta",
    "step",
    "weighted_energy",
    "__version__",
]
