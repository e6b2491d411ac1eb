"""Time integration: finite volumes in space, IMEX in time.

One step treats convection explicitly with a split Engquist-Osher interface
flux (evaluated with the local interface coordinate) and diffusion implicitly
with backward Euler and the 3-point Laplacian:

    u* = u^k - dt/h (F_{i+1/2} - F_{i-1/2}),      (I - dt D2) u^{k+1} = u*.

Every flux is f = c0 + c1 u + c2 u^2 / 2 (``fluxes``), and F is the sum of
the Engquist-Osher fluxes of c1 u and of c2 u^2 / 2, both with sonic point 0:

    F(a, b) = c0 + max(c1, 0) a + min(c1, 0) b
                 + a max(c2 a, 0) / 2 + b min(c2 b, 0) / 2,

that is c2/2 (max(a, 0)^2 + min(b, 0)^2) on convex faces, with the inner max
and min swapped on concave ones.  F(u, u) = f(u), F(0, 0) = c0, and
d_a F = max(c1, 0) + max(c2 a, 0) >= 0 >= min(c1, 0) + min(c2 b, 0) = d_b F,
so F is a monotone flux (Engquist & Osher 1981; Crandall & Majda 1980).

The explicit half is monotone.  Cell i's new value depends on u_(i-1), u_i
and u_(i+1) with the coefficients dt/h d_a F_(i-1/2)(u_(i-1)) >= 0,
-dt/h d_b F_(i+1/2)(u_(i+1)) >= 0 and

    1 - dt/h (max(c1, 0)_(i+1/2) - min(c1, 0)_(i-1/2)
              + max(c2_(i+1/2) u_i, 0) - min(c2_(i-1/2) u_i, 0)).

The bracket is at most B0 + G |u_i|, where B0 = max_i (max(c1_(i+1/2), 0) -
min(c1_(i-1/2), 0)) and G is the same maximum over c2 taken for both signs
of u (max|c2| at the faces when c2 keeps one sign); each off-diagonal term
is at most dt/h (B0 + G |u_(i-+1)|).  With S(u) = B0 + G max|u|, every
dt <= h / S(u) puts the three coefficients in [0, 1]: ``cfl_timestep``
takes dt <= cfl_fraction h / S(u), and ``step`` refuses dt above h / S(u).

The implicit half is an M-matrix solve, and on periodic domains the step
conserves the discrete mass exactly.  Its matrix tridiag(-lam, 1 + 2 lam, -lam),
lam = dt / h^2, has constant coefficients, so it is solved without a
factorization: one LAPACK dpttrs call with the limit pivot of its Cholesky
factor, and a closed-form rank-1 (pinned) or rank-2 (periodic) correction
from the powers r^i of one ratio, cut to zero once |r|^i < eps (1 - |r|), so
each dropped entry stays below eps times its correction's coefficient and no
lam runs into subnormal arithmetic.  Both halves are monotone, so two states
stepped with one dt that both their bounds allow (no state between them has
a larger S) keep their order and do not move apart in L1.

``step`` pads u with one ghost cell on each side and differences the n + 1
face fluxes.  Periodic ghosts are u[-1] and u[0], and the kernel samples face
n at x = 0, the same point as face 0, so the two end fluxes are the same bits
and the mass telescopes.  Pinned ghosts sit at zero: runs evolve the
perturbation under a flux normalized about w_p, for which zero is the pinned
state w_p itself and an exact fixed point.  A ``StepKernel``, which ``step``
and ``cfl_timestep`` take in place of the flux, samples the face
coefficients and the two scalars B0 and G once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import DiagnosticsSeries
from .fluxes import FluxModel
from .grids import LineGrid, _readonly, _toeplitz_solve

__all__ = [
    "CFLError",
    "MAX_STEPS",
    "State",
    "StepKernel",
    "StepPolicy",
    "TIME_SLACK",
    "cfl_timestep",
    "evolve",
    "step",
]


class CFLError(RuntimeError):
    """Requested time step exceeds the monotonicity bound h / S(u), with
    S(u) = B0 + G max|u| the kernel's bound on the explicit half's
    coefficients, or t_end lies over ``MAX_STEPS`` CFL steps away."""


# times closer than this are one time: a snapshot time this near either end
# of a run is that end, and a march this near its target takes no step
TIME_SLACK = 1e-12

# a run's step budget; 256 periods to t = 1000 take about 72 thousand steps
MAX_STEPS = 10**7


@dataclass(frozen=True)
class StepPolicy:
    """Step-size policy: dt = cfl_fraction * h / S(u) capped by dt_max, with
    S(u) = B0 + G max|u|; every cfl_fraction in (0, 1] keeps the explicit
    half monotone."""

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
    """The flux sampled on one grid by ``from_flux``.  Read-only: at the
    n + 1 faces a step uses (periodic domains sample face n at x = 0, the
    point of face 0), f0 = c0, f1_pos = max(c1, 0), f1_neg = min(c1, 0) and
    half_f2 = c2 / 2; and the speed bound S(u) = speed_floor + speed_slope
    max|u|, speed_floor = B0 = max_i (f1_pos_(i+1) - f1_neg_i) over the
    cells, speed_slope = G, the same for c2 with both signs of u."""

    grid: LineGrid
    f0: np.ndarray
    f1_pos: np.ndarray
    f1_neg: np.ndarray
    half_f2: np.ndarray
    speed_floor: float
    speed_slope: float

    @classmethod
    def from_flux(cls, flux: FluxModel, grid: LineGrid) -> "StepKernel":
        faces = grid.interfaces()
        if grid.boundary_mode == "periodic":
            faces[-1] = 0.0
        f0, f1, f2 = flux.sample(faces)
        f1_pos, f1_neg = np.maximum(f1, 0.0), np.minimum(f1, 0.0)
        f2_pos, f2_neg = np.maximum(f2, 0.0), np.minimum(f2, 0.0)
        # cell i lies between faces i and i + 1; u_i > 0 meets max(c2, 0) on
        # the right and -min(c2, 0) on the left, u_i < 0 the other two
        slope = max((f2_pos[1:] - f2_neg[:-1]).max(), (f2_pos[:-1] - f2_neg[1:]).max())
        derived = dict(f1_pos=f1_pos, f1_neg=f1_neg, half_f2=0.5 * f2)
        for array in derived.values():
            array.setflags(write=False)
        return cls(grid, f0=f0, speed_floor=float((f1_pos[1:] - f1_neg[:-1]).max()),
                   speed_slope=float(slope), **derived)


def _interface_flux(kernel: StepKernel, u_left: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """Split Engquist-Osher flux F(a, b; x) at the kernel's faces, written as
    a (max(c1, 0) + max(c2 a / 2, 0)) + b (min(c1, 0) + min(c2 b / 2, 0)) + c0
    and summed in that order in two temporaries of its own; u_left and
    u_right are not written to."""
    up = np.multiply(kernel.half_f2, u_left)
    np.maximum(up, 0.0, out=up)
    up += kernel.f1_pos
    up *= u_left
    down = np.multiply(kernel.half_f2, u_right)
    np.minimum(down, 0.0, out=down)
    down += kernel.f1_neg
    down *= u_right
    up += down
    up += kernel.f0
    return up


def _speed_bound(kernel: StepKernel, u: np.ndarray) -> float:
    """S(u) = B0 + G max|u|, with max|u| from two reductions."""
    return kernel.speed_floor + kernel.speed_slope * float(max(u.max(), -u.min()))


def _check_step_budget(time_left: float, dt: float, kernel: StepKernel, *states: State) -> None:
    """Raise CFLError if ``time_left`` takes more than MAX_STEPS steps of the
    CFL step ``dt`` of ``states``; S(u) is computed for the message only."""
    if time_left > MAX_STEPS * dt:
        speed = max(_speed_bound(kernel, state.u) for state in states)
        raise CFLError(f"{time_left:.3e} time units left need more than MAX_STEPS = "
                       f"{MAX_STEPS} steps of dt={dt:.3e} (S(u)={speed:.3e})")


def cfl_timestep(state: State, kernel: StepKernel, policy: StepPolicy) -> float:
    """Largest step the policy allows for the current state:
    min(dt_max, cfl_fraction h / S(u)), and dt_max where S(u) = 0."""
    speed = _speed_bound(kernel, state.u)
    if speed == 0.0:
        return policy.dt_max
    return min(policy.dt_max, policy.cfl_fraction * state.grid.h / speed)


def step(state: State, kernel: StepKernel, dt: float) -> State:
    """Advance one IMEX step; raises CFLError if dt exceeds the monotonicity
    bound h / S(u) and ValueError if the state lives on another grid than the
    kernel.

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
    speed = _speed_bound(kernel, u)
    if dt * speed > h * (1.0 + 1e-9):
        raise CFLError(f"dt={dt:.3e} exceeds the monotonicity bound h/S(u)={h / speed:.3e}")

    periodic = grid.boundary_mode == "periodic"
    padded = np.empty(u.size + 2)
    padded[1:-1] = u
    padded[0], padded[-1] = (u[-1], u[0]) if periodic else (0.0, 0.0)
    flux_vals = _interface_flux(kernel, padded[:-1], padded[1:])
    # u - dt (F_{i+1/2} - F_{i-1/2}) / h, built in one buffer
    rhs = np.subtract(flux_vals[1:], flux_vals[:-1])
    rhs *= dt / h
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
    observe: Optional[Callable[[State], dict]] = None,
) -> Tuple[State, DiagnosticsSeries]:
    """March to t_end, landing on each snapshot time exactly.

    A snapshot time within ``TIME_SLACK`` of the start or of t_end is that
    end.  The march visits the snapshot times and t_end in order, taking no
    step to a target within ``TIME_SLACK``, so a run shorter than that takes
    none.  ``observe`` is called once at each snapshot time, the start only
    when listed, and its column -> value rows make the DiagnosticsSeries.
    The step sequence is a deterministic function of the state, policy and
    snapshot list, so splitting a run at a snapshot and resuming reproduces
    the remaining steps bit for bit.
    Raises CFLError once t_end - t exceeds ``MAX_STEPS`` current CFL steps.
    """
    policy = policy or StepPolicy()
    series = DiagnosticsSeries()
    t_end = float(t_end)

    def snapped(t: float) -> float:
        for end in (float(state.time), t_end):
            if end - TIME_SLACK <= t <= end + TIME_SLACK:
                return end
        return t

    times = {snapped(float(t)) for t in snapshot_times}
    if times and (min(times) < state.time or max(times) > t_end):
        raise ValueError(f"snapshot times must lie within [{state.time}, {t_end}]")
    if t_end < state.time:
        raise ValueError("t_end precedes the state's current time")

    kernel = StepKernel.from_flux(flux, state.grid)
    current = state
    for target in sorted({*times, t_end}):
        while current.time < target - TIME_SLACK:
            dt = cfl_timestep(current, kernel, policy)
            _check_step_budget(t_end - current.time, dt, kernel, current)
            current = step(current, kernel, min(dt, target - current.time))
        # land exactly on the target to keep snapshot bookkeeping deterministic
        current = State(current.grid, current.u, target)
        if target in times:
            series.append(current.time, {} if observe is None else observe(current))
    return current, series
