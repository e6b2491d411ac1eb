"""Numerical lab for periodic stationary profiles of scalar convection-diffusion.

Layers, bottom up: grids and profiles; flux models; the periodic cell problem
and its family of stationary profiles; monotone IMEX evolution with a Duhamel
oracle; entropy/dispersion diagnostics; lap numbers and series bookkeeping;
scenario configs and the run driver; the ``convstab`` command-line tool.
"""

from .diagnostics import (
    DiagnosticsSeries,
    LapConfig,
    l1_bound_check,
    lap_number,
    sign_changes,
    weighted_energy,
)
from .entropy import (
    BalanceReport,
    DispersionFit,
    EntropyField,
    FamilyInterpolant,
    FamilyRangeError,
    dispersion_fit,
    entropy_balance_check,
    eta_field,
    invert_p,
    nash_ratio,
)
from .evolution import (
    CFLError,
    PicardDivergenceError,
    State,
    StepPolicy,
    cfl_timestep,
    duhamel_picard,
    evolve,
    step,
)
from .fluxes import FluxModel, builtin_flux
from .grids import CellGrid, LineGrid, Profile, norm, primitive
from .scenarios import (
    ConfigError,
    EdgeBufferError,
    PerturbationSpec,
    RunResult,
    RunSetup,
    ScenarioConfig,
    SnapshotSchedule,
    perturbation_values,
    prepare_run,
    run_scenario,
    semigroup_trials,
)
from .stationary import (
    NewtonConfig,
    StationaryFamily,
    StationarySolveError,
    build_family,
    cell_residual,
    load_family,
    normalize_about_wp,
    residual_floor,
    save_family,
    solve_dp_w,
    solve_stationary,
    solve_theta,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
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
    "LapConfig",
    "LineGrid",
    "NewtonConfig",
    "PerturbationSpec",
    "PicardDivergenceError",
    "Profile",
    "RunResult",
    "RunSetup",
    "ScenarioConfig",
    "SnapshotSchedule",
    "State",
    "StationaryFamily",
    "StationarySolveError",
    "StepPolicy",
    "build_family",
    "builtin_flux",
    "cell_residual",
    "cfl_timestep",
    "dispersion_fit",
    "duhamel_picard",
    "entropy_balance_check",
    "eta_field",
    "evolve",
    "invert_p",
    "l1_bound_check",
    "lap_number",
    "load_family",
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
