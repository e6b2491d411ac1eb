"""Independent oracles that only the tests use.

* ``duhamel_picard`` -- the short-time mild-solution oracle of criterion 4: it
  iterates the integral (Duhamel) form of the equation with a sampled
  mass-one heat kernel, circular convolutions and a midpoint rule in time,
  with no spatial stencils shared with ``convstab.step``.
* ``entropy_balance_check`` -- the centered-difference residual of
  d/dt total_eta + dissipation = 0 over uniformly spaced snapshots
  (criterion 5's refinement check).
* ``load_family`` -- reads back a ``family.json`` written by
  ``convstab.save_family``, for the round-trip test.

Test modules import them as ``from oracles import ...``; ``tests/`` has no
``__init__.py``, so pytest puts this directory on ``sys.path``.
"""

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from convstab import (
    CellGrid,
    EntropyField,
    FluxModel,
    Profile,
    State,
    StationaryFamily,
    builtin_flux,
)


class PicardDivergenceError(RuntimeError):
    """Picard iteration left the stability ball; the horizon is too long."""


def duhamel_picard(
    state: State,
    flux: FluxModel,
    t: float,
    iterations: int = 8,
    n_substeps: int = 32,
) -> State:
    """Short-time Duhamel/Picard oracle on a periodic domain.

    Starting from the constant-in-time trajectory u(s) = u0, repeatedly apply

        u(t) <- K^t * u0 - integral_0^t (grad K^{t-s}) * f(u(s, .), .) ds,

    with the heat kernel sampled on the grid and normalized to unit discrete
    mass, circular convolutions by FFT, and the s-integral by the midpoint
    rule (n_substeps >= 32 subintervals at the final time).  The iteration is
    a contraction only for short horizons (guidance: t below roughly
    0.1 / max|d_u f|^2 near the data); iterates that leave the stability ball
    of radius 2 sup|u0| raise PicardDivergenceError, meaning t is too large.
    """
    if state.grid.boundary_mode != "periodic":
        raise ValueError("the Duhamel oracle requires a periodic domain")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if n_substeps < 32:
        raise ValueError(f"n_substeps must be >= 32, got {n_substeps}")

    grid = state.grid
    n = grid.n_total
    h = grid.h
    length = grid.length
    x = grid.centers()
    d = np.arange(n) * h
    offsets = np.where(d > 0.5 * length, d - length, d)
    u0 = state.u
    ball = 2.0 * float(np.abs(u0).max()) + 1e-12

    def kernels(tau: float):
        raw = np.exp(-offsets**2 / (4.0 * tau))
        mass = h * raw.sum()
        kern = raw / mass
        grad = (-offsets / (2.0 * tau)) * kern
        return kern, grad

    def convolve(kern: np.ndarray, g: np.ndarray) -> np.ndarray:
        return h * np.fft.irfft(np.fft.rfft(kern) * np.fft.rfft(g), n=n)

    delta = t / n_substeps
    times = np.concatenate([[0.0], (np.arange(n_substeps) + 0.5) * delta, [t]])
    traj = np.tile(u0, (times.size, 1))

    def sample(traj_values: np.ndarray, s: float) -> np.ndarray:
        j = int(np.searchsorted(times, s))
        if j == 0:
            return traj_values[0]
        if j >= times.size:
            return traj_values[-1]
        t0, t1 = times[j - 1], times[j]
        w = (s - t0) / (t1 - t0)
        return (1.0 - w) * traj_values[j - 1] + w * traj_values[j]

    for _ in range(iterations):
        new = np.empty_like(traj)
        new[0] = u0
        for row, tau in enumerate(times[1:], start=1):
            acc = convolve(kernels(tau)[0], u0)
            sub = max(4, int(round(n_substeps * tau / t)))
            ds = tau / sub
            for k in range(sub):
                s = (k + 0.5) * ds
                _, grad = kernels(tau - s)
                g = flux.eval(sample(traj, s), x)
                acc -= ds * convolve(grad, g)
            new[row] = acc
        sup = float(np.abs(new).max())
        if sup > ball:
            raise PicardDivergenceError(
                f"iterate sup norm {sup:.3e} left the ball {ball:.3e}; "
                "shorten the horizon"
            )
        traj = new

    return replace(state, u=traj[-1], time=state.time + t)


@dataclass(frozen=True)
class BalanceReport:
    """Centered-difference residuals of d/dt total_eta + dissipation = 0."""

    residuals: np.ndarray
    max_residual: float

    def __post_init__(self):
        arr = np.array(self.residuals, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "residuals", arr)


def entropy_balance_check(
    fields: Sequence[EntropyField], times: Sequence[float]
) -> BalanceReport:
    """Residuals r_k = (total_eta_{k+1} - total_eta_{k-1})/(2 dt) + diss_k."""
    times = np.asarray(times, dtype=float)
    if len(fields) != times.size:
        raise ValueError("one snapshot time per entropy field required")
    if times.size < 3:
        raise ValueError("entropy balance needs at least 3 snapshots")
    gaps = np.diff(times)
    if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise ValueError("entropy balance needs uniformly spaced snapshots")
    dt = float(gaps[0])
    totals = np.array([f.total_eta for f in fields])
    diss = np.array([f.dissipation for f in fields])
    residuals = (totals[2:] - totals[:-2]) / (2.0 * dt) + diss[1:-1]
    return BalanceReport(residuals=residuals, max_residual=float(np.abs(residuals).max()))


def load_family(path) -> StationaryFamily:
    """Read a family file written by ``convstab.save_family``."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "convstab-family-1":
        raise ValueError(f"unrecognized family file format in {path}")
    flux = builtin_flux(payload["flux"]["label"], payload["flux"]["params"])
    grid = CellGrid(payload["n_cells"], payload["period"])
    profiles = [Profile(grid, np.array(v)) for v in payload["profiles"]]
    dp_profiles = [Profile(grid, np.array(v)) for v in payload["dp_profiles"]]
    return StationaryFamily(
        flux, np.array(payload["p_grid"]), profiles, dp_profiles,
        float(payload["alpha"]),
    )
