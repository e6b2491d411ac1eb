"""Time integration: monotone finite volumes in space, IMEX in time.

One step treats convection explicitly with the Engquist-Osher interface flux
(evaluated with the local interface coordinate, shared by both one-sided
integrals) and diffusion implicitly with backward Euler and the 3-point
Laplacian:

    u* = u^k - dt/h (F_{i+1/2} - F_{i-1/2]),      (I - dt D2) u^{k+1} = u*.

Under the CFL restriction dt <= h / max|d_u f| the explicit half is monotone
and the implicit half is an M-matrix solve, so the full step preserves
ordering, contracts L1 distances between solutions and conserves mass exactly
on periodic domains; the verification harness leans on those three facts.
Pinned domains hold one ghost cell at zero on each side: runs evolve the
perturbation under a flux normalized about w_p, for which zero is the pinned
state w_p itself and an exact fixed point.

Every flux is quadratic in u, so the Engquist-Osher split integrals have a
closed form in the coefficients f(0, x), d_u f(0, x) and d_uu f(0, x), which
are read once per step.

``duhamel_picard`` provides the independent short-time oracle: it iterates
the integral (Duhamel) form of the equation with a sampled mass-one heat
kernel, circular convolutions and a midpoint rule in time, with no spatial
stencils shared with ``step``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_banded

from .diagnostics import DiagnosticsSeries
from .fluxes import FluxModel
from .grids import LineGrid

__all__ = [
    "CFLError",
    "PicardDivergenceError",
    "State",
    "StepPolicy",
    "cfl_timestep",
    "duhamel_picard",
    "evolve",
    "step",
]


class CFLError(RuntimeError):
    """Requested time step violates the monotonicity (CFL) bound."""


class PicardDivergenceError(RuntimeError):
    """Picard iteration left the stability ball; the horizon is too long."""


@dataclass(frozen=True)
class StepPolicy:
    """Step-size policy: dt = cfl_fraction * h / max|d_u f| capped by dt_max."""

    cfl_fraction: float = 0.9
    dt_max: float = 0.1

    def __post_init__(self):
        if not 0 < self.cfl_fraction <= 1:
            raise ValueError(f"cfl_fraction must lie in (0, 1], got {self.cfl_fraction}")
        if not self.dt_max > 0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")


@dataclass(frozen=True)
class State:
    """Solution samples on a line grid at one time.

    Runs store the perturbation v = u - w_p of the normalized flux, so the
    stationary profile is the zero state; pinned ghost cells sit at zero.
    """

    grid: LineGrid
    u: np.ndarray
    time: float

    def __post_init__(self):
        arr = np.array(self.u, dtype=float)
        if arr.shape != (self.grid.n_total,):
            raise ValueError(
                f"u has shape {arr.shape}, expected ({self.grid.n_total},)"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "u", arr)


def _max_speed(flux: FluxModel, u: np.ndarray, x: np.ndarray) -> float:
    return float(np.abs(flux.d_u(u, x)).max())


def cfl_timestep(state: State, flux: FluxModel, policy: StepPolicy) -> float:
    """Largest step the policy allows for the current state."""
    speed = _max_speed(flux, state.u, state.grid.centers())
    if speed == 0.0:
        return policy.dt_max
    return min(policy.dt_max, policy.cfl_fraction * state.grid.h / speed)


def _eo_interface_flux(
    flux: FluxModel, u_left: np.ndarray, u_right: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Engquist-Osher flux F(a, b; x) in closed form.

    With f = f0 + f1 u + f2 u^2 / 2 and sonic point u* = -f1 / f2 the split
    integrals collapse to f(max(a, u*)) + f(min(b, u*)) - f(u*) for convex f,
    the mirrored clipping for concave f, and plain upwinding when f is linear
    in u.  The coefficients come from three model calls at u = 0; f at the
    clipped states is plain arithmetic.
    """
    zeros = np.zeros_like(x)
    f0 = flux.eval(zeros, x)
    f1 = flux.d_u(zeros, x)
    f2 = flux.d_uu(zeros, x)
    linear = np.abs(f2) < 1e-13
    u_star = np.where(linear, 0.0, -f1 / np.where(linear, 1.0, f2))
    convex = f2 > 0
    a_eff = np.where(convex, np.maximum(u_left, u_star), np.minimum(u_left, u_star))
    b_eff = np.where(convex, np.minimum(u_right, u_star), np.maximum(u_right, u_star))

    def f(u):
        return f0 + f1 * u + 0.5 * f2 * u * u

    # for a normalized flux (f0 = 0) f(u*) cancels bit for bit: F(0, 0) = 0
    quadratic = f(a_eff) + f(b_eff) - f(u_star)
    upwind = f0 + np.maximum(f1, 0.0) * u_left + np.minimum(f1, 0.0) * u_right
    return np.where(linear, upwind, quadratic)


def _solve_tridiagonal(lam: float, rhs: np.ndarray) -> np.ndarray:
    """(1 + 2 lam) on the diagonal, -lam off diagonal, Dirichlet-style ends."""
    n = rhs.size
    ab = np.empty((3, n))
    ab[0, :] = -lam
    ab[1, :] = 1.0 + 2.0 * lam
    ab[2, :] = -lam
    return solve_banded((1, 1), ab, rhs)


def _solve_cyclic_tridiagonal(lam: float, rhs: np.ndarray) -> np.ndarray:
    """Periodic version of the diffusion solve via Sherman-Morrison.

    The matrix is tridiag(-lam, 1 + 2 lam, -lam) with -lam corners.  Following
    the usual rank-one trick: write A = T + gamma e_0 e_0^T + ... with a
    modified tridiagonal T, solve twice with the banded solver and recombine.
    """
    n = rhs.size
    diag = np.full(n, 1.0 + 2.0 * lam)
    gamma = -(1.0 + 2.0 * lam)
    corner = -lam
    diag_mod = diag.copy()
    diag_mod[0] -= gamma
    diag_mod[-1] -= corner * corner / gamma
    ab = np.empty((3, n))
    ab[0, :] = -lam
    ab[1, :] = diag_mod
    ab[2, :] = -lam
    y = solve_banded((1, 1), ab, rhs)
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = corner
    z = solve_banded((1, 1), ab, u)
    factor = (y[0] + corner * y[-1] / gamma) / (1.0 + z[0] + corner * z[-1] / gamma)
    return y - factor * z


def step(state: State, flux: FluxModel, dt: float) -> State:
    """Advance one IMEX step; raises CFLError if dt breaks monotonicity.

    Periodic domains conserve the discrete mass exactly (up to solver
    roundoff); pinned domains exchange mass with the zero ghost cells, which
    the run-level diagnostics monitor.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    h = grid.h
    u = state.u
    x = grid.centers()
    speed = _max_speed(flux, u, x)
    if dt * speed > h * (1.0 + 1e-9):
        raise CFLError(
            f"dt={dt:.3e} exceeds the monotone bound h/max|d_u f|="
            f"{h / speed:.3e}"
        )

    n = grid.n_total
    lam = dt / h**2
    if grid.boundary_mode == "periodic":
        interfaces = np.arange(n) * h
        flux_vals = _eo_interface_flux(flux, np.roll(u, 1), u, interfaces)
        divergence = (np.roll(flux_vals, -1) - flux_vals) / h
        u_star = u - dt * divergence
        u_new = _solve_cyclic_tridiagonal(lam, u_star)
    else:
        # one ghost cell on each side, held at zero
        padded = np.concatenate([[0.0], u, [0.0]])
        interfaces = np.arange(n + 1) * h
        flux_vals = _eo_interface_flux(flux, padded[:-1], padded[1:], interfaces)
        divergence = (flux_vals[1:] - flux_vals[:-1]) / h
        u_star = u - dt * divergence
        u_new = _solve_tridiagonal(lam, u_star)

    return replace(state, u=u_new, time=state.time + dt)


def evolve(
    state: State,
    flux: FluxModel,
    t_end: float,
    policy: Optional[StepPolicy] = None,
    snapshot_times: Sequence[float] = (),
    observers: Iterable[Callable[[State], dict]] = (),
) -> Tuple[State, DiagnosticsSeries]:
    """March to t_end, landing on each snapshot time exactly.

    Observers are called at every snapshot (including one at the initial time
    if it is listed) and return column -> value mappings that are merged into
    the returned DiagnosticsSeries.  The step sequence is a deterministic
    function of the state, policy and snapshot list, so splitting a run at a
    snapshot and resuming reproduces the remaining steps bit for bit.
    """
    policy = policy or StepPolicy()
    observers = list(observers)
    series = DiagnosticsSeries()
    snaps = np.array(sorted(set(float(t) for t in snapshot_times)))
    if snaps.size and (snaps[0] < state.time - 1e-12 or snaps[-1] > t_end + 1e-12):
        raise ValueError(
            f"snapshot times must lie within [{state.time}, {t_end}]"
        )
    if t_end < state.time:
        raise ValueError("t_end precedes the state's current time")

    def observe(current: State) -> None:
        row = {}
        for obs in observers:
            row.update(obs(current))
        series.append(current.time, row)

    targets = [t for t in snaps if t > state.time + 1e-14]
    if snaps.size and abs(snaps[0] - state.time) <= 1e-14:
        observe(state)
    if not targets or targets[-1] < t_end - 1e-14:
        targets.append(t_end)

    current = state
    for target in targets:
        while current.time < target - 1e-13:
            dt = min(cfl_timestep(current, flux, policy), target - current.time)
            current = step(current, flux, dt)
        # land exactly on the target to keep snapshot bookkeeping deterministic
        current = replace(current, time=float(target))
        if snaps.size and np.any(np.abs(snaps - target) <= 1e-14):
            observe(current)
    return current, series


def _wrapped_offsets(n: int, h: float, length: float) -> np.ndarray:
    d = np.arange(n) * h
    return np.where(d > 0.5 * length, d - length, d)


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
    offsets = _wrapped_offsets(n, h, length)
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
