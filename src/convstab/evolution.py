"""Time integration: finite volumes in space, IMEX in time.

One step treats convection explicitly with the Engquist-Osher interface flux
(evaluated with the local interface coordinate, shared by both one-sided
integrals) and diffusion implicitly with backward Euler and the 3-point
Laplacian:

    u* = u^k - dt/h (F_{i+1/2} - F_{i-1/2}),      (I - dt D2) u^{k+1} = u*.

The implicit half is an M-matrix solve, and on periodic domains the step
conserves the discrete mass exactly.  Its matrix tridiag(-lam, 1 + 2 lam, -lam),
lam = dt / h^2, has constant coefficients, so it is solved without a
factorization: one LAPACK dpttrs call with the limit pivot of its Cholesky
factor, and a closed-form rank-1 (pinned) or rank-2 (periodic) correction
from the powers of one ratio, cut to zero where they would underflow, so no
lam runs into subnormal arithmetic.  The step size obeys
dt <= cfl_fraction * h / max_i |d_u f(u_i, x_i)|, with speeds at the cell
centers, and ``step`` refuses dt above h / max_i |d_u f(u_i, x_i)|.  That does
not make the explicit half monotone: its diagonal coefficient
1 - dt/h (max(d_u f(u_i, x_{i+1/2}), 0) - min(d_u f(u_i, x_{i-1/2}), 0))
reads interface speeds and can turn negative at cfl_fraction = 1, so ordering
and L1 contraction are checked by the tests and trials, not implied.
Pinned domains hold one ghost cell at zero on each side: runs evolve the
perturbation under a flux normalized about w_p, for which zero is the pinned
state w_p itself and an exact fixed point.

Every flux is quadratic in u, so the Engquist-Osher split integrals have a
closed form in f(0, x), d_u f(0, x) and d_uu f(0, x) at the interfaces; these,
and the speed coefficients at the centers, are sampled once per flux and grid.
The sample also records whether f is convex in u at every interface, as the
Burgers-type built-ins (and their normalizations about w_p) are; the
interface flux then skips its per-interface branches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticsSeries
from .fluxes import FluxModel
from .grids import LineGrid, _next, _prev, _toeplitz_solve

__all__ = [
    "CFLError",
    "State",
    "StepPolicy",
    "cfl_timestep",
    "evolve",
    "step",
]


class CFLError(RuntimeError):
    """Requested time step exceeds the CFL bound h / max|d_u f|."""


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


def _quadratic_at(flux: FluxModel, x: np.ndarray) -> tuple:
    """(f0, f1, f2 / 2, u*, convex, linear, all_convex) at the points x:
    f = f0 + f1 u + f2 u^2 / 2, its sonic point u* = -f1 / f2 (0 where f is
    linear in u), the masks f2 > 0 and f2 ~ 0, and whether f is convex and
    not linear at every point."""
    zeros = np.zeros_like(x)
    f0, f1, f2 = flux.eval(zeros, x), flux.d_u(zeros, x), flux.d_uu(zeros, x)
    linear = np.abs(f2) < 1e-13
    u_star = np.where(linear, 0.0, -f1 / np.where(linear, 1.0, f2))
    convex = f2 > 0
    return f0, f1, 0.5 * f2, u_star, convex, linear, bool(convex.all() and not linear.any())


def _eo_flux(q: tuple, u_left: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """Engquist-Osher flux F(a, b; x) in closed form at the sampled points.

    Convex f gives f(a') + f(b') - f(u*) with a' = max(a, u*), b' = min(b, u*);
    concave f clips the other way; f linear in u is plain upwinding.  As
    f'(u*) = 0, f(c) - f(u*) = f2 (c - u*)^2 / 2: the clipped state farther
    from u* enters through f, the nearer through that square, so a distant u*
    (tiny f2) cancels nothing and F(0, 0) = f(0) exactly.  When every point
    is convex the masks are skipped; the result is the same bit for bit.
    """
    f0, f1, half_f2, u_star, convex, linear, all_convex = q
    if all_convex:
        # a' >= u* >= b': the distances to u* need no abs
        a, b = np.maximum(u_left, u_star), np.minimum(u_right, u_star)
        dist_a, dist_b = a - u_star, u_star - b
    else:
        a = np.where(convex, np.maximum(u_left, u_star), np.minimum(u_left, u_star))
        b = np.where(convex, np.minimum(u_right, u_star), np.maximum(u_right, u_star))
        dist_a, dist_b = np.abs(a - u_star), np.abs(b - u_star)
    a_far = dist_a >= dist_b
    # the nearer state enters squared, so its distance stands in for c - u*
    far, near = np.where(a_far, a, b), np.where(a_far, dist_b, dist_a)
    quadratic = f0 + f1 * far + half_f2 * far * far + half_f2 * near * near
    if all_convex:
        return quadratic
    upwind = f0 + np.maximum(f1, 0.0) * u_left + np.minimum(f1, 0.0) * u_right
    return np.where(linear, upwind, quadratic)


# [flux, grid, sample]: FluxModel cannot be hashed (params is a dict), so the
# one-entry memo is keyed by flux identity and grid equality, and holds the
# flux so that its identity cannot pass to another object
_memo: list = [None, None, None]


def _sampled(flux: FluxModel, grid: LineGrid) -> tuple:
    """(_quadratic_at the interfaces a step uses, d_u f(0, x) and d_uu f(0, x)
    at the cell centers), read once per (flux, grid)."""
    if _memo[0] is not flux or _memo[1] != grid:
        faces, x = grid.interfaces(), grid.centers()
        if grid.boundary_mode == "periodic":
            faces = faces[:-1]
        zeros = np.zeros_like(x)
        sample = (_quadratic_at(flux, faces), flux.d_u(zeros, x), flux.d_uu(zeros, x))
        _memo[:] = [flux, grid, sample]
    return _memo[2]


def _speed(flux: FluxModel, state: State) -> float:
    """max_i |d_u f(u_i, x_i)| over the cell centers."""
    _, fu, fuu = _sampled(flux, state.grid)
    return float(np.abs(fu + fuu * state.u).max())


def cfl_timestep(state: State, flux: FluxModel, policy: StepPolicy) -> float:
    """Largest step the policy allows for the current state."""
    speed = _speed(flux, state)
    if speed == 0.0:
        return policy.dt_max
    return min(policy.dt_max, policy.cfl_fraction * state.grid.h / speed)


def _diffusion_solve(lam: float, rhs: np.ndarray, periodic: bool) -> np.ndarray:
    """Backward Euler: solve tridiag(-lam, 1 + 2 lam, -lam) u = rhs, with -lam
    corners on periodic domains, by the factor-free constant-coefficient
    solve ``_toeplitz_solve`` (one LAPACK dpttrs call and a closed-form rank-1
    or rank-2 correction)."""
    return _toeplitz_solve(1.0 + 2.0 * lam, -lam, rhs, periodic)


def step(state: State, flux: FluxModel, dt: float) -> State:
    """Advance one IMEX step; raises CFLError if dt exceeds the CFL bound.

    Periodic domains conserve the discrete mass exactly (up to solver
    roundoff); pinned domains exchange mass with the zero ghost cells, which
    the run-level diagnostics monitor.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid, u = state.grid, state.u
    h = grid.h
    speed = _speed(flux, state)
    if dt * speed > h * (1.0 + 1e-9):
        raise CFLError(f"dt={dt:.3e} exceeds the CFL bound h/max|d_u f|={h / speed:.3e}")

    faces = _sampled(flux, grid)[0]
    periodic = grid.boundary_mode == "periodic"
    if periodic:
        flux_vals = _eo_flux(faces, _prev(u), u)
        divergence = (_next(flux_vals) - flux_vals) / h
    else:
        # one ghost cell on each side, held at zero
        padded = np.concatenate([[0.0], u, [0.0]])
        flux_vals = _eo_flux(faces, padded[:-1], padded[1:])
        divergence = (flux_vals[1:] - flux_vals[:-1]) / h
    u_new = _diffusion_solve(dt / h**2, u - dt * divergence, periodic)
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

