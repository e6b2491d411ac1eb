"""Scenario configuration and the run driver behind the command-line tools.

A scenario is one JSON document: flux, grids, stationary-family window,
initial perturbation, run horizon/snapshots, enabled checks, output paths.
Its format is declared once, in ``_DOCUMENT``: each section's keys with
their kind and default.  Reading a document against that table refuses
unknown and missing keys, values of the wrong kind and numbers that are not
finite, and fills in every default; the filled document is what a
``ScenarioConfig`` holds and what it echoes.  Loading it builds the flux,
the grids, the step policy, the perturbation and the snapshot times once.
``prepare_run`` adds the rest: the stationary profile w_p, the flux
normalized about it (so the evolved unknown is the perturbation v = u - w_p
and the zero state is an exact fixed point of the stepper), the shifted
family for the entropy diagnostics, and the theta weight.  ``run_scenario``
then marches the state, recording every diagnostic column and the state at
each snapshot.  ``OUTPUT_FILES`` names every file a command may write;
``clear_outputs`` deletes them, and ``write_outputs`` writes the family and a
run's diagnostics and snapshots.
``CHECKS`` maps each check a document may list to its judge, and
``evaluate_checks`` judges a finished run by the config's list.
``semigroup_trials`` runs the verify command's trials and judges them
against ``TRIAL_LIMITS``.

Zero-mean perturbations are zero-mean exactly: the negative part is rescaled
to balance the positive part and the leftover roundoff is pushed into the
largest-magnitude cell, so mass-conservation checks start from 0 by
construction rather than from quadrature accident.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .diagnostics import DiagnosticsSeries, lap_number, sign_changes, weighted_energy
from .entropy import FamilyInterpolant, dispersion_fit, eta_field, nash_ratio
from .evolution import (TIME_SLACK, State, StepKernel, StepPolicy, _check_step_budget, cfl_timestep,
                        evolve, step)
from .fluxes import PARAMETER_LIMIT, FluxModel, builtin_flux, normalize_about_wp
from .grids import CellGrid, LineGrid, Profile, norm, primitive
from .stationary import (
    StationaryFamily,
    _verdict,
    build_family,
    save_family,
    solve_stationary,
    solve_theta,
)

__all__ = [
    "CHECKS",
    "ConfigError",
    "EdgeBufferError",
    "KNOWN_CHECKS",
    "OUTPUT_FILES",
    "PerturbationSpec",
    "RunResult",
    "RunSetup",
    "ScenarioConfig",
    "TRIAL_LIMITS",
    "ZERO_MEAN_CHECKS",
    "clear_outputs",
    "evaluate_checks",
    "perturbation_values",
    "prepare_run",
    "run_scenario",
    "semigroup_trials",
    "write_outputs",
]


class ConfigError(ValueError):
    """A scenario document failed validation."""


class EdgeBufferError(RuntimeError):
    """Perturbation mass reached the pinned-boundary buffer; the box is too small."""


def _rise(col: np.ndarray) -> float:
    return float(np.diff(col).max()) if col.size > 1 else 0.0


def _mass_conservation(series, setup) -> dict:
    offsets = np.abs(series.column("mass_offset"))
    if setup.config.boundary_mode == "periodic":
        drift = float((offsets / np.maximum(1.0, series.column("t"))).max())
        return _verdict(drift <= 1e-10, max_drift_per_time=drift)
    budget = 1e-8 * float(series.column("l1_dist")[0])
    leak = float(offsets.max())
    return _verdict(leak <= budget, max_leakage=leak, budget=budget)


def _nonincreasing(column: str, slack: float):
    def judge(series, setup) -> dict:
        rise = _rise(series.column(column))
        return _verdict(rise <= slack, max_rise=rise)
    return judge


def _tenfold_decay(column: str):
    def judge(series, setup) -> dict:
        col = series.column(column)
        target = 0.1 * float(col[0])
        return _verdict(float(col[-1]) <= target, final=float(col[-1]), target=target)
    return judge


def _lap_non_increase(series, setup) -> dict:
    laps = series.column("lap_number")
    return _verdict(_rise(laps) <= 0, laps=[int(v) for v in laps])


def _l1_bound(series, setup) -> dict:
    bounds = 2.0 * (series.column("lap_number") + 1.0) * series.column("linf_V")
    margin = float((series.column("l1_dist") - bounds).max())
    return _verdict(margin <= 1e-9, worst_margin=margin)


def _pi_l1_bound(series, setup) -> dict:
    budget = float(series.column("l1_dist")[0]) / setup.family.alpha
    worst = float(series.column("l1_pi").max())
    return _verdict(worst <= budget + 1e-12, worst=worst, budget=budget)


def _eta_nonnegative(series, setup) -> dict:
    # enforced cellwise when each entropy field is evaluated; reaching this
    # point means no snapshot violated it
    return _verdict(True, enforced="cellwise at evaluation")


def _dispersion_exponent(series, setup) -> dict:
    fit = dispersion_fit(series, setup.config.fit_window)
    if fit.converged:
        return _verdict(True, converged=True, note="distances hit zero inside the window")
    return _verdict(fit.exponent <= -0.20, exponent=fit.exponent, constant=fit.constant,
                    r_squared=fit.r_squared)


def _nash_bounded(series, setup) -> dict:
    ratios = series.column("nash_ratio")
    finite = ratios[np.isfinite(ratios)]
    worst = float(finite.max()) if finite.size else float("nan")
    return _verdict(finite.size == 0 or worst <= 10.0, worst=worst)


# every check a config may list: its judge turns a finished run's diagnostics
# series and setup into a verdict
CHECKS: Dict[str, Callable[[DiagnosticsSeries, RunSetup], dict]] = {
    "mass_conservation": _mass_conservation,
    "l1_dist_nonincreasing": _nonincreasing("l1_dist", 1e-10),
    "l1_decay": _tenfold_decay("l1_dist"),
    "linf_V_decay": _tenfold_decay("linf_V"),
    "lap_non_increase": _lap_non_increase,
    "l1_bound": _l1_bound,
    "weighted_energy_nonincreasing": _nonincreasing("weighted_energy", 1e-9),
    "total_eta_nonincreasing": _nonincreasing("total_eta", 1e-10),
    "pi_l1_bound": _pi_l1_bound,
    "eta_nonnegative": _eta_nonnegative,
    "dispersion_exponent": _dispersion_exponent,
    "nash_bounded": _nash_bounded,
}
KNOWN_CHECKS = tuple(CHECKS)

# checks whose statements require a zero-mean perturbation; a gaussian_bump
# carries mass, and mass conservation then forbids L1 convergence to the
# background
ZERO_MEAN_CHECKS = frozenset(
    {
        "l1_decay",
        "linf_V_decay",
        "lap_non_increase",
        "l1_bound",
        "weighted_energy_nonincreasing",
    }
)


def evaluate_checks(result: RunResult) -> Dict[str, dict]:
    """The verdicts of the run's config's checks, in the config's order."""
    setup = result.setup
    return {name: CHECKS[name](result.series, setup) for name in setup.config.checks}


_SHAPES = ("gaussian_bump", "dipole", "random_zero_mean")

_REQUIRED = "required"

# The scenario document, declared once.  Each section maps its keys to a kind
# and a default: "int" and "float" are finite numbers of magnitude at most
# PARAMETER_LIMIT, "text" a string, "list" a list of check names, "object" a
# JSON object whose entries the built object validates, and "section" the
# section of the key's own name.
# _REQUIRED keys must be set; a key whose default is None may be null.
_DOCUMENT = {
    "scenario": {
        "flux": ("section", _REQUIRED),
        "grid": ("section", _REQUIRED),
        "family": ("section", {}),
        "initial": ("section", _REQUIRED),
        "run": ("section", _REQUIRED),
        "checks": ("list", []),
        "fit": ("section", None),
        "output": ("text", _REQUIRED),
    },
    "flux": {"label": ("text", _REQUIRED), "params": ("object", {})},
    "grid": {
        "n_cells_per_period": ("int", _REQUIRED),
        "n_periods": ("int", _REQUIRED),
        "boundary_mode": ("text", _REQUIRED),
    },
    "family": {"p_min": ("float", -2.0), "p_max": ("float", 2.0), "M": ("int", 32)},
    "initial": {
        "shape": ("text", _REQUIRED),
        "amplitude": ("float", 0.3),
        "width": ("float", 0.5),
        "center": ("float", 2.0),
        "seed": ("int", None),
    },
    "run": {
        "t_end": ("float", _REQUIRED),
        "snapshot_schedule": ("section", _REQUIRED),
        "cfl_fraction": ("float", 0.9),
        "dt_max": ("float", 0.1),
        "p": ("float", 0.0),
    },
    "snapshot_schedule": {
        "kind": ("text", _REQUIRED),
        "count": ("int", _REQUIRED),
        "t_lo": ("float", None),
        "t_hi": ("float", None),
    },
    "fit": {"t_lo": ("float", _REQUIRED), "t_hi": ("float", _REQUIRED)},
}


def _number(value, where: str, kind: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        article = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{where} must be {article}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if abs(value) > PARAMETER_LIMIT:
        raise ConfigError(f"{where} must be finite and at most {PARAMETER_LIMIT!r} in "
                          f"magnitude, got {value!r}")
    if kind == "float":
        return float(value)
    if float(value) != int(value):
        raise ConfigError(f"{where} must be integral, got {value!r}")
    return int(value)


def _value(value, where: str, kind: str):
    """``value`` read as ``kind``; containers are copied."""
    if kind in ("int", "float"):
        return _number(value, where, kind)
    if kind == "text":
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    if kind == "list":
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{where} must be a list of check names")
        return list(value)
    if not isinstance(value, dict):
        raise ConfigError(f"'{where}' section must be an object, got {value!r}")
    return copy.deepcopy(value)


def _section(raw, name: str) -> dict:
    """Section ``name`` of a document, checked against ``_DOCUMENT``: every
    value read as its kind, every absent key filled with its default."""
    keys = _DOCUMENT[name]
    if not isinstance(raw, dict):
        raise ConfigError(f"'{name}' section must be an object, got {raw!r}")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' section: {sorted(unknown)}")
    missing = [key for key, (_, default) in keys.items()
               if default is _REQUIRED and key not in raw]
    if missing:
        raise ConfigError(f"missing keys in '{name}' section: {missing}")
    filled = {}
    for key, (kind, default) in keys.items():
        value = raw.get(key, default)
        if value is None and default is None:
            filled[key] = None
        elif kind == "section":
            filled[key] = _section(value, key)
        else:
            filled[key] = _value(value, key if name == "scenario" else f"{name}.{key}", kind)
    return filled


def _build(section: str, make, *args):
    """``make(*args)``, its ValueError turned into a ConfigError naming ``section``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


@dataclass(frozen=True)
class PerturbationSpec:
    shape: str
    amplitude: float
    width: float
    center: float
    seed: Optional[int]

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ConfigError(f"initial.shape must be one of {list(_SHAPES)}, got {self.shape!r}")
        if self.width <= 0:
            raise ConfigError(f"initial.width must be positive, got {self.width}")
        if self.shape == "random_zero_mean" and self.seed is None:
            raise ConfigError("initial.seed: random_zero_mean needs an integer seed")


def _schedule_times(schedule: dict, t_end: float) -> np.ndarray:
    """The read-only snapshot times of a filled ``snapshot_schedule`` section."""
    kind, count, t_lo, t_hi = (schedule[k] for k in ("kind", "count", "t_lo", "t_hi"))
    if kind not in ("linear", "log"):
        raise ConfigError(f"snapshot_schedule.kind must be linear|log, got {kind!r}")
    if count < 1:
        raise ConfigError(f"snapshot_schedule.count must be >= 1, got {count}")
    if kind == "log":
        if t_lo is None or t_lo <= 0:
            raise ConfigError(f"snapshot_schedule.t_lo must be > 0 for a log schedule, got {t_lo}")
        if t_hi is not None and t_hi <= t_lo:
            raise ConfigError(
                f"snapshot_schedule.t_hi={t_hi} must exceed "
                f"snapshot_schedule.t_lo={t_lo} for a log schedule"
            )
    hi = t_end if t_hi is None else t_hi
    if hi > t_end + TIME_SLACK:
        raise ConfigError(f"snapshot_schedule.t_hi={hi} reaches beyond run.t_end={t_end}")
    lo = 0.0 if t_lo is None else t_lo
    if not 0.0 <= lo < hi:
        raise ConfigError(f"snapshot_schedule.t_lo={lo} must lie in [0, {hi})")
    if count == 1:
        times = np.array([hi])
    elif kind == "linear":
        times = np.linspace(lo, hi, count)
    else:
        times = np.geomspace(t_lo, hi, count)
    times.setflags(write=False)
    return times


def _built():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario document and the run objects built from it.

    ``document`` is the document read through ``_DOCUMENT``: every number
    finite and at most ``PARAMETER_LIMIT`` in magnitude, every absent key
    filled with its default.  ``__post_init__`` builds, once, what every
    command reads: ``flux``, the built-in flux model; ``line_grid``, whose
    ``.cell`` is the grid of one period; ``policy``, the step policy;
    ``initial``, the perturbation;
    ``schedule_times``, the read-only times of the snapshot schedule, whose
    first time lies in [0, last time) and whose last is at most ``t_end``;
    and the scalars a run reads.  A constructor's ValueError becomes a
    ConfigError that names its section.  Two configs are equal when their
    documents are.

    Every check the document lists must be one the document can support:
    none of ``ZERO_MEAN_CHECKS`` on a gaussian_bump, and
    ``dispersion_exponent`` only with a fit window holding at least 8
    snapshot times.
    """

    document: dict

    flux: FluxModel = _built()
    line_grid: LineGrid = _built()
    policy: StepPolicy = _built()
    initial: PerturbationSpec = _built()
    schedule_times: np.ndarray = _built()
    t_end: float = _built()
    p: float = _built()
    p_min: float = _built()
    p_max: float = _built()
    m_intervals: int = _built()
    boundary_mode: str = _built()
    checks: Tuple[str, ...] = _built()
    fit_window: Optional[Tuple[float, float]] = _built()
    output: str = _built()

    def __post_init__(self):
        doc = _section(self.document, "scenario")
        grid, family, run, fit = doc["grid"], doc["family"], doc["run"], doc["fit"]
        if run["t_end"] <= 0:
            raise ConfigError(f"run.t_end must be positive, got {run['t_end']}")
        flux = _build("flux", builtin_flux, doc["flux"]["label"], doc["flux"]["params"])
        cell = _build("grid.n_cells_per_period", CellGrid, grid["n_cells_per_period"], flux.period)
        values = {
            "document": doc,
            "flux": flux,
            "schedule_times": _schedule_times(run["snapshot_schedule"], run["t_end"]),
            "line_grid": _build("grid", LineGrid, cell, grid["n_periods"], grid["boundary_mode"]),
            "policy": _build("run", StepPolicy, run["cfl_fraction"], run["dt_max"]),
            "initial": PerturbationSpec(**doc["initial"]),
            "t_end": run["t_end"],
            "p": run["p"],
            "p_min": family["p_min"],
            "p_max": family["p_max"],
            "m_intervals": family["M"],
            "boundary_mode": grid["boundary_mode"],
            "checks": tuple(doc["checks"]),
            "fit_window": None if fit is None else (fit["t_lo"], fit["t_hi"]),
            "output": doc["output"],
        }
        for name, value in values.items():
            object.__setattr__(self, name, value)
        times = self.schedule_times
        if self.m_intervals < 16:
            raise ConfigError(f"family.M must be >= 16, got {self.m_intervals}")
        if not self.p_min < self.p_max:
            raise ConfigError(
                f"family.p_min={self.p_min} must be below family.p_max={self.p_max}"
            )
        if not self.p_min <= self.p <= self.p_max:
            raise ConfigError(
                f"run.p={self.p} lies outside the family window "
                f"[family.p_min, family.p_max] = [{self.p_min}, {self.p_max}]"
            )
        unknown = set(self.checks) - set(KNOWN_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
        if self.initial.shape == "gaussian_bump":
            clash = sorted(set(self.checks) & ZERO_MEAN_CHECKS)
            if clash:
                raise ConfigError(
                    f"checks {clash} need a zero-mean perturbation; "
                    "gaussian_bump carries mass (use dipole or random_zero_mean)"
                )
        if self.fit_window is not None:
            lo, hi = self.fit_window
            if not 0 < lo < hi:
                raise ConfigError(f"fit window must satisfy 0 < t_lo < t_hi, got {self.fit_window}")
            if lo < times.min() - TIME_SLACK or hi > times.max() + TIME_SLACK:
                raise ConfigError(
                    f"fit window {self.fit_window} lies outside the snapshot "
                    f"range [{times.min()}, {times.max()}]"
                )
        if "dispersion_exponent" in self.checks:
            # the fit needs a window with at least 8 snapshots in it
            if self.fit_window is None:
                raise ConfigError(
                    "the dispersion_exponent check needs a fit window "
                    "(the dispersion command infers one from a log snapshot schedule)")
            lo, hi = self.fit_window
            in_window = int(np.sum((times >= lo - TIME_SLACK) & (times <= hi + TIME_SLACK)))
            if in_window < 8:
                raise ConfigError(f"dispersion fit window {self.fit_window} holds only "
                                  f"{in_window} snapshots; at least 8 are required")

    @classmethod
    def from_dict(cls, raw, edit: Optional[Callable[[dict], None]] = None) -> "ScenarioConfig":
        """The config of the document ``raw``; ``edit``, when given, first
        rewrites the filled document in place."""
        if edit is None:
            return cls(raw)
        document = _section(raw, "scenario")
        edit(document)
        return cls(document)

    @classmethod
    def from_json(cls, path, edit: Optional[Callable[[dict], None]] = None) -> "ScenarioConfig":
        """The config of the JSON document at ``path``, as ``from_dict``."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw, edit)

    def to_dict(self) -> dict:
        """Echo of the filled document (written into run artifacts)."""
        return copy.deepcopy(self.document)


def _gaussian(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """exp(-(x - center)^2 / (2 width^2)), quietly 0 where the exponent
    overflows, which a width whose square underflows makes it off the center."""
    with np.errstate(over="ignore"):
        return np.exp(-((x - center) ** 2) / max(2.0 * width**2, np.finfo(float).tiny))


def _settle_zero_sum(values: np.ndarray) -> np.ndarray:
    """Cancel the balancing roundoff against the largest cells.

    np.sum is a pairwise reduction whose partials re-round whenever a cell
    changes, so an exact float zero is out of reach on large grids; the loop
    stops once the residual sits below the summation noise floor
    eps * log2(n) * sum|v|.
    """
    floor = np.finfo(float).eps * float(np.abs(values).sum())
    floor *= max(1.0, float(np.log2(max(values.size, 2))))
    ranked = np.argsort(np.abs(values))[::-1]
    for k in range(32):
        total = values.sum()
        if abs(total) <= floor:
            return values
        values[int(ranked[k % min(8, values.size)])] -= total
    raise RuntimeError(f"zero-mean projection failed to settle (sum {float(values.sum())!r})")


def _balance_signed(values: np.ndarray) -> np.ndarray:
    """Rescale the negative part so the discrete sum cancels to roundoff.

    Multiplicative balancing keeps the sign pattern and the support of the
    field, unlike subtracting a constant.
    """
    pos = np.clip(values, 0.0, None)
    neg = np.clip(-values, 0.0, None)
    s_pos, s_neg = pos.sum(), neg.sum()
    if s_pos <= 0 or s_neg <= 0:
        raise ConfigError("zero-mean perturbation needs mass of both signs")
    out = pos - (s_pos / s_neg) * neg
    return _settle_zero_sum(out)


def perturbation_values(spec: PerturbationSpec, grid: LineGrid) -> np.ndarray:
    """Sample the configured perturbation at the line-grid cell centers.

    Centers are measured from the domain midpoint.  dipole puts its positive
    lobe at midpoint - center and its negative lobe at midpoint + center;
    random_zero_mean draws six signed bumps in the middle 60% of the domain.
    Both are balanced to zero discrete sum up to summation roundoff.  A
    nonzero amplitude whose field is zero on every cell, off the grid or with
    cancelling lobes, raises ConfigError naming initial.center and initial.width.
    """
    x = grid.centers()
    mid = 0.5 * grid.length
    amp, width = spec.amplitude, spec.width
    if spec.shape == "gaussian_bump":
        raw = amp * _gaussian(x, mid + spec.center, width)
    elif spec.shape == "dipole":
        raw = amp * (
            _gaussian(x, mid - spec.center, width) - _gaussian(x, mid + spec.center, width)
        )
    else:
        rng = np.random.default_rng(spec.seed)
        raw = np.zeros_like(x)
        signs = rng.permutation([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        for sign in signs:
            center = rng.uniform(0.2 * grid.length, 0.8 * grid.length)
            w = width * rng.uniform(0.6, 1.6)
            raw += sign * amp * rng.uniform(0.4, 1.0) * _gaussian(x, center, w)
    if amp == 0.0:
        return raw
    if not raw.any():
        raise ConfigError("initial.center and initial.width give a perturbation that is zero "
                          "on every cell: it lies off the grid or its lobes cancel")
    return raw if spec.shape == "gaussian_bump" else _balance_signed(raw)


@dataclass(frozen=True)
class RunSetup:
    """What a scenario run needs beyond its config's flux, grids and policy."""

    config: ScenarioConfig
    flux_normalized: FluxModel      # g(v, x) = f(v + w_p, x) - f(w_p, x)
    family_raw: StationaryFamily
    family: StationaryFamily        # shifted family (zero profile at p = 0)
    w_p: Profile
    theta: Profile
    initial: np.ndarray             # perturbation v(0, .)


def prepare_run(config: ScenarioConfig) -> RunSetup:
    """Build the family and assemble the normalized run pieces."""
    flux, cell_grid = config.flux, config.line_grid.cell
    family = build_family(flux, config.p_min, config.p_max, config.m_intervals, cell_grid)

    # background profile: reuse the family member when p sits on its grid
    knot = np.flatnonzero(np.isclose(family.p_grid, config.p, rtol=0.0, atol=1e-13))
    if knot.size:
        w_p = Profile(cell_grid, family.profiles[int(knot[0])])
    else:
        w_p = solve_stationary(flux, config.p, cell_grid)

    flux_normalized = normalize_about_wp(flux, w_p)
    shifted = family.shifted_by(flux_normalized, w_p, config.p)
    theta = solve_theta(flux_normalized, cell_grid)
    initial = perturbation_values(config.initial, config.line_grid)
    return RunSetup(config=config, flux_normalized=flux_normalized, family_raw=family,
                    family=shifted, w_p=w_p, theta=theta, initial=initial)


def make_observer(setup: RunSetup) -> Callable[[State], dict]:
    """Observer recording every diagnostics column for the normalized run.

    On pinned domains it also enforces the edge-buffer contract: if more than
    1e-6 of the current perturbation mass sits within 10% of either boundary,
    the run aborts with EdgeBufferError (the box no longer emulates the line).
    """
    line_grid = setup.config.line_grid
    h = line_grid.h
    theta_tiled = line_grid.tile(setup.theta)
    interpolant = FamilyInterpolant(setup.family)
    n_buffer = max(1, int(round(0.1 * line_grid.n_total)))
    pinned = line_grid.boundary_mode == "pinned_to_wp"
    mass0 = float(h * setup.initial.sum())

    def observe(state: State) -> dict:
        v = state.u
        if pinned:
            total = float(np.abs(v).sum())
            buffer_mass = float(np.abs(v[:n_buffer]).sum() + np.abs(v[-n_buffer:]).sum())
            if total > 0 and buffer_mass > 1e-6 * total:
                raise EdgeBufferError(
                    f"at t={state.time:.6g} the edge buffer holds "
                    f"{buffer_mass / total:.3e} of the perturbation mass (limit 1e-6); "
                    "enlarge the domain or shorten the run"
                )
        V = primitive(v, h)
        ef = eta_field(interpolant, state)
        return {
            "l1_dist": norm(v, h, "L1"),
            "l2_dist": norm(v, h, "L2"),
            "linf_V": norm(V, h, "Linf"),
            "l2_V": norm(V, h, "L2"),
            "weighted_energy": weighted_energy(theta_tiled, V, h),
            "total_eta": ef.total_eta,
            "dissipation": ef.dissipation,
            "l1_pi": norm(ef.pi, h, "L1"),
            "nash_ratio": nash_ratio(ef.pi, h),
            "lap_number": lap_number(V),
            "sign_changes": sign_changes(v),
            "mass_offset": float(h * v.sum()) - mass0,
        }

    return observe


@dataclass(frozen=True)
class RunResult:
    setup: RunSetup
    final_state: State
    series: DiagnosticsSeries
    snapshots: Tuple[State, ...]    # the normalized state at each series row


def run_scenario(setup: RunSetup) -> RunResult:
    """Run the scenario, recording the diagnostics and the state at each
    snapshot time; nothing is written."""
    config = setup.config
    observer = make_observer(setup)
    snapshots: List[State] = []

    def record(state: State) -> dict:
        snapshots.append(state)
        return observer(state)

    times = [0.0, *config.schedule_times, config.t_end]
    final_state, series = evolve(State(config.line_grid, setup.initial, 0.0),
                                 setup.flux_normalized, config.t_end, policy=config.policy,
                                 snapshot_times=times, observe=record)
    return RunResult(setup, final_state, series, tuple(snapshots))


# The output contract: every file a command may leave in its output directory,
# by role.  A snapshot's * is the repr of its time; save_family puts the
# family tables beside the family header.
OUTPUT_FILES = {
    "verdicts": "verdicts.json",
    "diagnostics": "diagnostics.csv",
    "family": "family.json",
    "family_tables": "family.npy",
    "grid": "snapshots/grid.npy",
    "snapshot": "snapshots/snapshot_t*.npy",
}


def clear_outputs(out_dir: Path) -> None:
    """Delete every file ``OUTPUT_FILES`` names under ``out_dir``, and the
    snapshots folder if that leaves it empty; nothing else is touched."""
    for pattern in OUTPUT_FILES.values():
        for path in out_dir.glob(pattern):
            if path.is_file():
                path.unlink()
    snap_dir = (out_dir / OUTPUT_FILES["grid"]).parent
    if snap_dir.is_dir() and not any(snap_dir.iterdir()):
        snap_dir.rmdir()


def write_outputs(out_dir: Path, family: StationaryFamily,
                  run: Optional[RunResult] = None) -> None:
    """Write ``family`` under ``out_dir`` and, given a run, its diagnostics
    and snapshots, named by ``OUTPUT_FILES``: each snapshot u in the original
    (unshifted) variables, and once the cell centres and tiled background."""
    out_dir.mkdir(parents=True, exist_ok=True)
    save_family(family, out_dir / OUTPUT_FILES["family"])
    if run is None:
        return
    run.series.to_csv(out_dir / OUTPUT_FILES["diagnostics"])
    grid_path = out_dir / OUTPUT_FILES["grid"]
    grid_path.parent.mkdir(exist_ok=True)
    line_grid = run.setup.config.line_grid
    bg = line_grid.tile(run.setup.w_p)
    # a float64 array in .npy round-trips bit for bit
    np.save(grid_path, np.stack([line_grid.centers(), bg]))
    for state in run.snapshots:
        np.save(out_dir / OUTPUT_FILES["snapshot"].replace("*", repr(state.time)), state.u + bg)


def _random_field(rng: np.random.Generator, grid: LineGrid, n_bumps: int = 4,
                  amplitude: float = 0.4) -> np.ndarray:
    x = grid.centers()
    out = np.zeros_like(x)
    for _ in range(n_bumps):
        center = rng.uniform(0.15 * grid.length, 0.85 * grid.length)
        width = rng.uniform(0.4, 1.5)
        out += rng.uniform(-amplitude, amplitude) * _gaussian(x, center, width)
    return out


# the limit on each semigroup property's worst margin over a pair's steps
TRIAL_LIMITS = {"comparison": 1e-12, "contraction": 1e-10, "conservation": 1e-10}


def semigroup_trials(
    flux: FluxModel,
    grid: LineGrid,
    t_end: float,
    trials: int,
    seed: int,
    policy: Optional[StepPolicy] = None,
) -> Dict[str, dict]:
    """Comparison / contraction / conservation trials on random pairs.

    Each trial draws an ordered pair (v0 = u0 + nonnegative bump) and an
    unordered pair, then steps both solutions with a shared dt sequence
    (the minimum of the two CFL bounds) so the discrete semigroup is the same
    map for both.  After every step each property's margin is measured, and
    must stay within its entry of ``TRIAL_LIMITS``:

      comparison    max(u - v), ordered pairs only (u <= v componentwise)
      contraction   the rise of h sum|u - v| over the step
      conservation  |h sum(u - v) - its initial value| / max(1, t)

    Returns the verify verdicts, in this order: ``comparison``,
    ``contraction`` and ``conservation``, each passed when its worst margin
    over all pairs is within its limit, and ``pass_rate``, which names the
    trial, kind and seed of each pair with a margin outside its limit.
    Raises ConfigError unless ``grid`` is periodic (checked first) and
    ``trials`` >= 1, and CFLError past the step budget, as ``evolve`` does.
    """
    if grid.boundary_mode != "periodic":
        raise ConfigError(
            "verify runs its trials on periodic domains only; "
            f"boundary_mode {grid.boundary_mode!r} is not supported"
        )
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    policy = policy or StepPolicy()
    kernel = StepKernel.from_flux(flux, grid)
    h = grid.h
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(TRIAL_LIMITS, 0.0)
    failing: List[dict] = []

    for trial in range(trials):
        base = _random_field(rng, grid)
        bump = np.abs(_random_field(rng, grid, n_bumps=2))
        other = _random_field(rng, grid)
        for kind, u_init, v_init in (
            ("ordered", base, base + bump),
            ("unordered", base, other),
        ):
            u_state = State(grid, u_init, 0.0)
            v_state = State(grid, v_init, 0.0)
            mass_gap0 = float(h * (u_state.u - v_state.u).sum())
            l1_prev = norm(u_state.u - v_state.u, h, "L1")
            margins = dict.fromkeys(TRIAL_LIMITS, 0.0)
            while u_state.time < t_end - TIME_SLACK:
                dt = min(cfl_timestep(u_state, kernel, policy),
                         cfl_timestep(v_state, kernel, policy))
                _check_step_budget(t_end - u_state.time, dt, kernel, u_state, v_state)
                dt = min(dt, t_end - u_state.time)
                u_state = step(u_state, kernel, dt)
                v_state = step(v_state, kernel, dt)
                if kind == "ordered":
                    margins["comparison"] = max(
                        margins["comparison"], float((u_state.u - v_state.u).max())
                    )
                l1_now = norm(u_state.u - v_state.u, h, "L1")
                margins["contraction"] = max(margins["contraction"], l1_now - l1_prev)
                l1_prev = l1_now
                mass_gap = float(h * (u_state.u - v_state.u).sum())
                drift = abs(mass_gap - mass_gap0) / max(1.0, u_state.time)
                margins["conservation"] = max(margins["conservation"], drift)
            if not all(margins[name] <= limit for name, limit in TRIAL_LIMITS.items()):
                failing.append({"trial": trial, "kind": kind, "seed": seed})
            for name, margin in margins.items():
                worst[name] = max(worst[name], margin)

    verdicts = {
        name: _verdict(worst[name] <= limit, worst=worst[name])
        for name, limit in TRIAL_LIMITS.items()
    }
    verdicts["pass_rate"] = _verdict(
        not failing, trials=trials, pairs=2 * trials, failing=failing
    )
    return verdicts
