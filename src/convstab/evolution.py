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
from the powers r^i of one ratio, cut to zero once |r|^i < eps (1 - |r|), so
the dropped tail stays below eps times the right-hand side and no lam runs
into subnormal arithmetic.  The step size obeys
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
closed form in f(0, x), d_u f(0, x) and d_uu f(0, x) at the interfaces; a
``StepKernel``, which ``step`` and ``cfl_timestep`` take in place of the flux,
samples these and the center speeds from the flux's coefficients once per run.
Where f is convex in u at every interface, as for the Burgers-type built-ins
and their normalizations about w_p, the interface flux skips its branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticsSeries
from .fluxes import FluxModel
from .grids import LineGrid, _prev, _readonly, _toeplitz_solve

__all__ = [
    "CFLError",
    "State",
    "StepKernel",
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
    ``u`` is read-only float64: such an array that owns its data is kept,
    anything else is copied, so a caller's array is never aliased.
    """

    grid: LineGrid
    u: np.ndarray
    time: float

    def __post_init__(self):
        arr = _readonly(self.u)
        if arr.shape != (self.grid.n_total,):
            raise ValueError(
                f"u has shape {arr.shape}, expected ({self.grid.n_total},)"
            )
        object.__setattr__(self, "u", arr)


@dataclass(frozen=True)
class StepKernel:
    """The flux sampled on one grid by ``from_flux``.  Read-only: f = f0 + f1 u
    + half_f2 u^2 at the interfaces a step uses (periodic domains drop the
    last), its sonic point u_star = -f1 / f2 (0 where f is linear in u), the
    masks f2 > 0 and |f2| < 1e-13, and d_u f(u, x) = center_f1 + center_f2 u
    at the centers."""

    grid: LineGrid
    f0: np.ndarray
    f1: np.ndarray
    half_f2: np.ndarray
    u_star: np.ndarray
    convex: np.ndarray
    linear: np.ndarray
    all_convex: bool  # convex and not linear at every interface
    center_f1: np.ndarray
    center_f2: np.ndarray

    @classmethod
    def from_flux(cls, flux: FluxModel, grid: LineGrid) -> "StepKernel":
        faces = grid.interfaces()
        f0, f1, f2 = flux.sample(faces[:-1] if grid.boundary_mode == "periodic" else faces)
        _, center_f1, center_f2 = flux.sample(grid.centers())
        linear, convex = np.abs(f2) < 1e-13, f2 > 0
        u_star = np.where(linear, 0.0, -f1 / np.where(linear, 1.0, f2))
        derived = dict(half_f2=0.5 * f2, u_star=u_star, convex=convex, linear=linear)
        for array in derived.values():
            array.setflags(write=False)
        return cls(grid, f0=f0, f1=f1, all_convex=bool(convex.all() and not linear.any()),
                   center_f1=center_f1, center_f2=center_f2, **derived)


def _eo_flux(kernel: StepKernel, u_left: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """Engquist-Osher flux F(a, b; x) in closed form at the kernel's interfaces.

    Convex f gives f(a') + f(b') - f(u*) with a' = max(a, u*), b' = min(b, u*);
    concave f clips the other way; f linear in u is plain upwinding.  As
    f'(u*) = 0, f(c) - f(u*) = f2 (c - u*)^2 / 2: the clipped state farther
    from u* enters through f, the nearer through that square, so a distant u*
    (tiny f2) cancels nothing and F(0, 0) = f(0) exactly.  When every point
    is convex the masks are skipped; the result is the same bit for bit.
    The sum is accumulated in its own temporaries, in the order written
    above; u_left and u_right are not written to.
    """
    f0, f1, half_f2, u_star = kernel.f0, kernel.f1, kernel.half_f2, kernel.u_star
    if kernel.all_convex:
        # a' >= u* >= b': the distances to u* need no abs
        a, b = np.maximum(u_left, u_star), np.minimum(u_right, u_star)
        dist_a, dist_b = a - u_star, u_star - b
    else:
        a = np.where(kernel.convex, np.maximum(u_left, u_star), np.minimum(u_left, u_star))
        b = np.where(kernel.convex, np.minimum(u_right, u_star), np.maximum(u_right, u_star))
        dist_a, dist_b = np.abs(a - u_star), np.abs(b - u_star)
    # b becomes the state farther from u*; the nearer enters squared, so its
    # distance (both are >= 0) stands in for c - u*
    far = b
    np.copyto(far, a, where=dist_a >= dist_b)
    near = np.minimum(dist_a, dist_b, out=dist_a)
    # f0 + f1 far + f2/2 far^2 + f2/2 near^2, summed left to right in place
    quadratic = np.multiply(f1, far, out=a)
    quadratic += f0
    term = np.multiply(half_f2, far, out=dist_b)
    term *= far
    quadratic += term
    np.multiply(half_f2, near, out=term)
    term *= near
    quadratic += term
    if kernel.all_convex:
        return quadratic
    upwind = f0 + np.maximum(f1, 0.0) * u_left + np.minimum(f1, 0.0) * u_right
    return np.where(kernel.linear, upwind, quadratic)


def _max_speed(kernel: StepKernel, u: np.ndarray) -> float:
    """max_i |d_u f(u_i, x_i)| = max_i |center_f1 + center_f2 u_i|, the same
    bits as np.abs(w).max() without forming |w|."""
    w = kernel.center_f2 * u
    w += kernel.center_f1
    return float(max(w.max(), -w.min()))


def cfl_timestep(state: State, kernel: StepKernel, policy: StepPolicy) -> float:
    """Largest step the policy allows for the current state."""
    speed = _max_speed(kernel, state.u)
    if speed == 0.0:
        return policy.dt_max
    return min(policy.dt_max, policy.cfl_fraction * state.grid.h / speed)


def step(state: State, kernel: StepKernel, dt: float) -> State:
    """Advance one IMEX step; raises CFLError if dt exceeds the CFL bound
    and ValueError if the state lives on another grid than the kernel.

    Periodic domains conserve the discrete mass exactly (up to solver
    roundoff); pinned domains exchange mass with the zero ghost cells, which
    the run-level diagnostics monitor.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid, u = state.grid, state.u
    if grid != kernel.grid:
        raise ValueError(f"the state's grid {grid} is not the kernel's grid {kernel.grid}")
    h = grid.h
    speed = _max_speed(kernel, u)
    if dt * speed > h * (1.0 + 1e-9):
        raise CFLError(f"dt={dt:.3e} exceeds the CFL bound h/max|d_u f|={h / speed:.3e}")

    periodic = grid.boundary_mode == "periodic"
    # u - dt (F_{i+1/2} - F_{i-1/2}) / h, built in one buffer
    rhs = np.empty_like(u)
    if periodic:
        flux_vals = _eo_flux(kernel, _prev(u), u)
        np.subtract(flux_vals[1:], flux_vals[:-1], out=rhs[:-1])
        rhs[-1] = flux_vals[0] - flux_vals[-1]
    else:
        # one ghost cell on each side, held at zero
        padded = np.concatenate([[0.0], u, [0.0]])
        flux_vals = _eo_flux(kernel, padded[:-1], padded[1:])
        np.subtract(flux_vals[1:], flux_vals[:-1], out=rhs)
    rhs /= h
    rhs *= dt
    np.subtract(u, rhs, out=rhs)
    lam = dt / h**2
    u_new = _toeplitz_solve(1.0 + 2.0 * lam, -lam, rhs, periodic)
    # a fresh read-only array passes into the new State without a copy
    u_new.setflags(write=False)
    return State(grid, u_new, state.time + dt)


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

    kernel = StepKernel.from_flux(flux, state.grid)
    current = state
    for target in targets:
        while current.time < target - 1e-13:
            dt = min(cfl_timestep(current, kernel, policy), target - current.time)
            current = step(current, kernel, dt)
        # land exactly on the target to keep snapshot bookkeeping deterministic
        current = State(current.grid, current.u, float(target))
        if snaps.size and np.any(np.abs(snaps - target) <= 1e-14):
            observe(current)
    return current, series

