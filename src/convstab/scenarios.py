"""Scenario configuration and the run driver behind the command-line tools.

A scenario is one JSON document: flux, grids, stationary-family window,
initial perturbation, run horizon/snapshots, enabled checks, output paths.
``prepare_run`` turns a validated config into everything a run needs: the
stationary profile w_p, the flux normalized about it (so the evolved unknown
is the perturbation v = u - w_p and the zero state is an exact fixed point of
the stepper), the shifted family for the entropy diagnostics, and the theta
weight.  ``run_scenario`` then marches the state, recording every diagnostic
column at each snapshot and dumping per-cell snapshot files in the original
(unshifted) variables.

Zero-mean perturbations are zero-mean exactly: the negative part is rescaled
to balance the positive part and the leftover roundoff is pushed into the
largest-magnitude cell, so mass-conservation checks start from 0 by
construction rather than from quadrature accident.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticsSeries, lap_number, sign_changes, weighted_energy
from .entropy import FamilyInterpolant, eta_field, nash_ratio
from .evolution import State, StepPolicy, cfl_timestep, evolve, step
from .floattext import csv_lines, repr_rows
from .fluxes import FluxModel, builtin_flux
from .grids import CellGrid, LineGrid, Profile, norm, primitive
from .stationary import (
    StationaryFamily,
    build_family,
    normalize_about_wp,
    save_family,
    solve_stationary,
    solve_theta,
)

__all__ = [
    "ConfigError",
    "EdgeBufferError",
    "KNOWN_CHECKS",
    "PerturbationSpec",
    "RunResult",
    "RunSetup",
    "ScenarioConfig",
    "SnapshotSchedule",
    "ZERO_MEAN_CHECKS",
    "perturbation_values",
    "prepare_run",
    "run_scenario",
    "semigroup_trials",
]


class ConfigError(ValueError):
    """A scenario document failed validation."""


class EdgeBufferError(RuntimeError):
    """Perturbation mass reached the pinned-boundary buffer; the box is too small."""


KNOWN_CHECKS = (
    "mass_conservation",
    "l1_dist_nonincreasing",
    "l1_decay",
    "linf_V_decay",
    "lap_non_increase",
    "l1_bound",
    "weighted_energy_nonincreasing",
    "total_eta_nonincreasing",
    "pi_l1_bound",
    "eta_nonnegative",
    "dispersion_exponent",
    "nash_bounded",
)

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

_SHAPES = ("gaussian_bump", "dipole", "random_zero_mean")


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if float(value) != int(value):
        raise ConfigError(f"{name} must be integral, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _take(section: dict, name: str, keys: Sequence[str], required: Sequence[str]):
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' section: {sorted(unknown)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"missing keys in '{name}' section: {missing}")


@dataclass(frozen=True)
class PerturbationSpec:
    shape: str
    amplitude: float = 0.3
    width: float = 0.5
    center: float = 2.0
    seed: Optional[int] = None

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ConfigError(f"unknown perturbation shape {self.shape!r}")
        if self.width <= 0:
            raise ConfigError(f"perturbation width must be positive, got {self.width}")
        if self.shape == "random_zero_mean" and self.seed is None:
            raise ConfigError("random_zero_mean needs an integer seed")


@dataclass(frozen=True)
class SnapshotSchedule:
    kind: str
    count: int
    t_lo: Optional[float] = None
    t_hi: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("linear", "log"):
            raise ConfigError(f"snapshot schedule kind must be linear|log, got {self.kind!r}")
        if self.count < 1:
            raise ConfigError(f"snapshot count must be >= 1, got {self.count}")
        if self.kind == "log":
            if self.t_lo is None or self.t_lo <= 0:
                raise ConfigError("log schedule needs t_lo > 0")
            if self.t_hi is not None and self.t_hi <= self.t_lo:
                raise ConfigError("log schedule needs t_hi > t_lo")

    def times(self, t_end: float) -> np.ndarray:
        hi = t_end if self.t_hi is None else self.t_hi
        if hi > t_end + 1e-12:
            raise ConfigError(f"snapshot schedule reaches {hi} beyond t_end={t_end}")
        if self.kind == "linear":
            lo = 0.0 if self.t_lo is None else self.t_lo
            if self.count == 1:
                return np.array([hi])
            return np.linspace(lo, hi, self.count)
        if self.count == 1:
            return np.array([hi])
        return np.geomspace(self.t_lo, hi, self.count)


@dataclass(frozen=True)
class ScenarioConfig:
    flux_label: str
    flux_params: Dict[str, float]
    n_cells_per_period: int
    n_periods: int
    boundary_mode: str
    p_min: float
    p_max: float
    m_intervals: int
    initial: PerturbationSpec
    t_end: float
    schedule: SnapshotSchedule
    cfl_fraction: float
    dt_max: float
    p: float
    checks: Tuple[str, ...]
    output: str
    fit_window: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if self.boundary_mode not in ("pinned_to_wp", "periodic"):
            raise ConfigError(f"unknown boundary_mode {self.boundary_mode!r}")
        if self.n_cells_per_period < 8:
            raise ConfigError("n_cells_per_period must be >= 8")
        if self.n_periods < 1:
            raise ConfigError("n_periods must be >= 1")
        if self.m_intervals < 16:
            raise ConfigError(f"family M must be >= 16, got {self.m_intervals}")
        if not self.p_min < self.p_max:
            raise ConfigError("family needs p_min < p_max")
        if not self.p_min <= self.p <= self.p_max:
            raise ConfigError(f"background mean p={self.p} outside family window")
        if self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if not 0 < self.cfl_fraction <= 1:
            raise ConfigError(f"cfl_fraction must lie in (0, 1], got {self.cfl_fraction}")
        if self.dt_max <= 0:
            raise ConfigError(f"dt_max must be positive, got {self.dt_max}")
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
            sched = self.schedule.times(self.t_end)
            if lo < sched.min() - 1e-12 or hi > sched.max() + 1e-12:
                raise ConfigError(
                    f"fit window {self.fit_window} lies outside the snapshot "
                    f"range [{sched.min()}, {sched.max()}]"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("scenario document must be a JSON object")
        _take(raw, "scenario", ("flux", "grid", "family", "initial", "run", "checks", "fit", "output"),
              ("flux", "grid", "initial", "run", "output"))

        flux = raw["flux"]
        _take(flux, "flux", ("label", "params"), ("label",))
        params = dict(flux.get("params", {}))

        grid = raw["grid"]
        _take(grid, "grid", ("n_cells_per_period", "n_periods", "boundary_mode"),
              ("n_cells_per_period", "n_periods", "boundary_mode"))

        fam = raw.get("family", {})
        _take(fam, "family", ("p_min", "p_max", "M"), ())

        init = raw["initial"]
        _take(init, "initial", ("shape", "amplitude", "width", "center", "seed"), ("shape",))
        seed = init.get("seed")
        spec = PerturbationSpec(
            shape=init["shape"],
            amplitude=_as_float(init.get("amplitude", 0.3), "initial.amplitude"),
            width=_as_float(init.get("width", 0.5), "initial.width"),
            center=_as_float(init.get("center", 2.0), "initial.center"),
            seed=None if seed is None else _as_int(seed, "initial.seed"),
        )

        run = raw["run"]
        _take(run, "run", ("t_end", "snapshot_schedule", "cfl_fraction", "dt_max", "p"),
              ("t_end", "snapshot_schedule"))
        sched_raw = run["snapshot_schedule"]
        _take(sched_raw, "snapshot_schedule", ("kind", "count", "t_lo", "t_hi"), ("kind", "count"))
        schedule = SnapshotSchedule(
            kind=sched_raw["kind"],
            count=_as_int(sched_raw["count"], "snapshot_schedule.count"),
            t_lo=None if sched_raw.get("t_lo") is None else _as_float(sched_raw["t_lo"], "t_lo"),
            t_hi=None if sched_raw.get("t_hi") is None else _as_float(sched_raw["t_hi"], "t_hi"),
        )

        fit = raw.get("fit")
        window = None
        if fit is not None:
            _take(fit, "fit", ("t_lo", "t_hi"), ("t_lo", "t_hi"))
            window = (_as_float(fit["t_lo"], "fit.t_lo"), _as_float(fit["t_hi"], "fit.t_hi"))

        checks = raw.get("checks", [])
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise ConfigError("checks must be a list of check names")

        return cls(
            flux_label=flux["label"],
            flux_params=params,
            n_cells_per_period=_as_int(grid["n_cells_per_period"], "grid.n_cells_per_period"),
            n_periods=_as_int(grid["n_periods"], "grid.n_periods"),
            boundary_mode=grid["boundary_mode"],
            p_min=_as_float(fam.get("p_min", -2.0), "family.p_min"),
            p_max=_as_float(fam.get("p_max", 2.0), "family.p_max"),
            m_intervals=_as_int(fam.get("M", 32), "family.M"),
            initial=spec,
            t_end=_as_float(run["t_end"], "run.t_end"),
            schedule=schedule,
            cfl_fraction=_as_float(run.get("cfl_fraction", 0.9), "run.cfl_fraction"),
            dt_max=_as_float(run.get("dt_max", 0.1), "run.dt_max"),
            p=_as_float(run.get("p", 0.0), "run.p"),
            checks=tuple(checks),
            output=str(raw["output"]),
            fit_window=window,
        )

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """Echo of the validated configuration (written into run artifacts)."""
        return {
            "flux": {"label": self.flux_label, "params": dict(self.flux_params)},
            "grid": {
                "n_cells_per_period": self.n_cells_per_period,
                "n_periods": self.n_periods,
                "boundary_mode": self.boundary_mode,
            },
            "family": {
                "p_min": self.p_min,
                "p_max": self.p_max,
                "M": self.m_intervals,
            },
            "initial": {
                "shape": self.initial.shape,
                "amplitude": self.initial.amplitude,
                "width": self.initial.width,
                "center": self.initial.center,
                "seed": self.initial.seed,
            },
            "run": {
                "t_end": self.t_end,
                "snapshot_schedule": {
                    "kind": self.schedule.kind,
                    "count": self.schedule.count,
                    "t_lo": self.schedule.t_lo,
                    "t_hi": self.schedule.t_hi,
                },
                "cfl_fraction": self.cfl_fraction,
                "dt_max": self.dt_max,
                "p": self.p,
            },
            "checks": list(self.checks),
            "fit": None
            if self.fit_window is None
            else {"t_lo": self.fit_window[0], "t_hi": self.fit_window[1]},
            "output": self.output,
        }


def _gaussian(x: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-((x - center) ** 2) / (2.0 * width**2))


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
    raise RuntimeError(f"zero-mean projection failed to settle (sum {values.sum()!r})")


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
    Both are balanced to zero discrete sum up to summation roundoff.
    """
    x = grid.centers()
    mid = 0.5 * grid.length
    amp, width = spec.amplitude, spec.width
    if spec.shape == "gaussian_bump":
        return amp * _gaussian(x, mid + spec.center, width)
    if spec.shape == "dipole":
        raw = amp * (
            _gaussian(x, mid - spec.center, width) - _gaussian(x, mid + spec.center, width)
        )
        if amp == 0.0:
            return raw
        return _balance_signed(raw)
    rng = np.random.default_rng(spec.seed)
    raw = np.zeros_like(x)
    signs = rng.permutation([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    for sign in signs:
        center = rng.uniform(0.2 * grid.length, 0.8 * grid.length)
        w = width * rng.uniform(0.6, 1.6)
        raw += sign * amp * rng.uniform(0.4, 1.0) * _gaussian(x, center, w)
    if amp == 0.0:
        return raw
    return _balance_signed(raw)


@dataclass(frozen=True)
class RunSetup:
    """Everything a scenario run needs, built once from a config."""

    config: ScenarioConfig
    flux: FluxModel                 # the raw flux f
    flux_normalized: FluxModel      # g(v, x) = f(v + w_p, x) - f(w_p, x)
    cell_grid: CellGrid
    line_grid: LineGrid
    family_raw: StationaryFamily
    family: StationaryFamily        # shifted family (zero profile at p = 0)
    w_p: Profile
    theta: Profile
    initial: np.ndarray             # perturbation v(0, .)
    policy: StepPolicy

    def initial_state(self) -> State:
        return State(grid=self.line_grid, u=self.initial, time=0.0)

    def snapshot_times(self) -> np.ndarray:
        sched = self.config.schedule.times(self.config.t_end)
        times = np.unique(np.concatenate([[0.0], sched, [self.config.t_end]]))
        return times


def prepare_run(config: ScenarioConfig) -> RunSetup:
    """Build the family and assemble the normalized run pieces."""
    flux = builtin_flux(config.flux_label, dict(config.flux_params))
    cell_grid = CellGrid(config.n_cells_per_period, flux.period)
    line_grid = LineGrid(cell_grid, config.n_periods, config.boundary_mode)
    family = build_family(flux, config.p_min, config.p_max, config.m_intervals, cell_grid)

    # background profile: reuse the family member when p sits on its grid
    knot = np.flatnonzero(np.isclose(family.p_grid, config.p, rtol=0.0, atol=1e-13))
    if knot.size:
        w_p = family.profiles[int(knot[0])]
    else:
        w_p = solve_stationary(flux, config.p, cell_grid)

    flux_normalized = normalize_about_wp(flux, w_p)
    shifted = family.shifted_by(w_p, config.p)
    theta = solve_theta(flux_normalized, cell_grid)
    initial = perturbation_values(config.initial, line_grid)
    policy = StepPolicy(cfl_fraction=config.cfl_fraction, dt_max=config.dt_max)
    return RunSetup(
        config=config,
        flux=flux,
        flux_normalized=flux_normalized,
        cell_grid=cell_grid,
        line_grid=line_grid,
        family_raw=family,
        family=shifted,
        w_p=w_p,
        theta=theta,
        initial=initial,
        policy=policy,
    )


def make_observer(setup: RunSetup) -> Callable[[State], dict]:
    """Observer recording every diagnostics column for the normalized run.

    On pinned domains it also enforces the edge-buffer contract: if more than
    1e-6 of the current perturbation mass sits within 10% of either boundary,
    the run aborts with EdgeBufferError (the box no longer emulates the line).
    """
    h = setup.line_grid.h
    theta_tiled = setup.line_grid.tile(setup.theta)
    interpolant = FamilyInterpolant(setup.family)
    n_total = setup.line_grid.n_total
    n_buffer = max(1, int(round(0.1 * n_total)))
    pinned = setup.line_grid.boundary_mode == "pinned_to_wp"
    mass0: List[float] = []

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
        mass = float(h * v.sum())
        if not mass0:
            mass0.append(mass)
        V = primitive(v, h)
        ef = eta_field(setup.family, state, interpolant)
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
            "mass_offset": mass - mass0[0],
        }

    return observe


@dataclass(frozen=True)
class RunResult:
    setup: RunSetup
    final_state: State
    series: DiagnosticsSeries
    diagnostics_path: Optional[str] = None
    snapshots_dir: Optional[str] = None
    family_path: Optional[str] = None


def _write_snapshot(path, x_rows: np.ndarray, u: np.ndarray, background_rows: np.ndarray) -> None:
    # every value is its repr, the shortest digit string that parses back to
    # the same double, so the file round-trips bit for bit; the x and
    # background columns are the same in every snapshot and come formatted
    with open(path, "wb") as fh:
        fh.write(b"x,u,background\n")
        fh.writelines(csv_lines(x_rows, repr_rows(u), background_rows))


def run_scenario(setup: RunSetup, out_dir: Optional[Path] = None) -> RunResult:
    """Run the scenario and, given out_dir, write its artifacts there."""
    snapshots = setup.snapshot_times()
    observer = make_observer(setup)
    snapshots_dir = None
    family_path = None
    diagnostics_path = None

    snapshot_states: List[State] = []

    def collecting_observer(state: State) -> dict:
        if out_dir is not None:
            snapshot_states.append(state)
        return observer(state)

    final_state, series = evolve(
        setup.initial_state(),
        setup.flux_normalized,
        setup.config.t_end,
        policy=setup.policy,
        snapshot_times=snapshots,
        observers=[collecting_observer],
    )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        diagnostics_path = str(out_dir / "diagnostics.csv")
        series.to_csv(diagnostics_path)
        family_path = str(out_dir / "family.json")
        save_family(setup.family_raw, family_path)
        snap_dir = out_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        snapshots_dir = str(snap_dir)
        x_rows = repr_rows(setup.line_grid.centers())
        bg = setup.line_grid.tile(setup.w_p)
        bg_rows = repr_rows(bg)
        for state in snapshot_states:
            name = f"snapshot_t{state.time!r}.csv"
            _write_snapshot(snap_dir / name, x_rows, state.u + bg, bg_rows)

    return RunResult(
        setup=setup,
        final_state=final_state,
        series=series,
        diagnostics_path=diagnostics_path,
        snapshots_dir=snapshots_dir,
        family_path=family_path,
    )


def _random_field(rng: np.random.Generator, grid: LineGrid, n_bumps: int = 4,
                  amplitude: float = 0.4) -> np.ndarray:
    x = grid.centers()
    out = np.zeros_like(x)
    for _ in range(n_bumps):
        center = rng.uniform(0.15 * grid.length, 0.85 * grid.length)
        width = rng.uniform(0.4, 1.5)
        out += rng.uniform(-amplitude, amplitude) * _gaussian(x, center, width)
    return out


def semigroup_trials(
    flux: FluxModel,
    grid: LineGrid,
    t_end: float,
    trials: int,
    seed: int,
    policy: Optional[StepPolicy] = None,
) -> List[dict]:
    """Comparison / contraction / conservation trials on random pairs.

    Each trial draws an ordered pair (v0 = u0 + nonnegative bump) and an
    unordered pair, then steps both solutions with a shared dt sequence
    (the minimum of the two CFL bounds) so the discrete semigroup is the same
    map for both.  Checked after every step:

      comparison    u <= v + 1e-12 componentwise (ordered pairs only)
      contraction   h sum|u - v| nonincreasing up to 1e-10
      conservation  h sum(u - v) within 1e-10 * max(1, t) of its initial value

    Returns one record per (trial, pair kind) with the worst margins; raises
    nothing itself -- the caller turns records into verdicts.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    policy = policy or StepPolicy()
    h = grid.h
    rng = np.random.default_rng(seed)
    records: List[dict] = []

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
            worst_comparison = 0.0
            worst_contraction = 0.0
            worst_conservation = 0.0
            while u_state.time < t_end - 1e-13:
                dt = min(
                    cfl_timestep(u_state, flux, policy),
                    cfl_timestep(v_state, flux, policy),
                    t_end - u_state.time,
                )
                u_state = step(u_state, flux, dt)
                v_state = step(v_state, flux, dt)
                if kind == "ordered":
                    worst_comparison = max(
                        worst_comparison, float((u_state.u - v_state.u).max())
                    )
                l1_now = norm(u_state.u - v_state.u, h, "L1")
                worst_contraction = max(worst_contraction, l1_now - l1_prev)
                l1_prev = l1_now
                mass_gap = float(h * (u_state.u - v_state.u).sum())
                drift = abs(mass_gap - mass_gap0) / max(1.0, u_state.time)
                worst_conservation = max(worst_conservation, drift)
            records.append(
                {
                    "trial": trial,
                    "kind": kind,
                    "seed": seed,
                    "comparison_excess": worst_comparison,
                    "contraction_excess": worst_contraction,
                    "conservation_drift": worst_conservation,
                    "comparison_ok": kind != "ordered" or worst_comparison <= 1e-12,
                    "contraction_ok": worst_contraction <= 1e-10,
                    "conservation_ok": worst_conservation <= 1e-10,
                }
            )
    return records
