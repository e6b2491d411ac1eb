"""Periodic stationary profiles of u_t + (f(u, x))_x = u_xx and their family.

The cell problem: find a periodic profile w with prescribed mean p solving

    -w'' + (f(w, x))' = 0   on one period.

Discretely (3-point Laplacian D2, centered first difference D1, both periodic)
the n residual equations sum to zero by telescoping, so the system is solved
in bordered form: unknowns (w, lambda) with equations

    -D2 w + D1 f(w, .) + lambda = 0,      <w> = p,

where lambda converges to zero automatically and the scalar constraint row
pins the mean exactly.  A damped Newton iteration with warm-started
continuation in p builds the whole family w_p together with the derivative
profiles dw/dp, which solve the linearized bordered system and have unit mean.
The Jacobian -D2 + D1 diag(d_u f) is cyclic tridiagonal, so every bordered
solve costs O(n): the periodic corners and the border enter a tridiagonal
LAPACK solve as a rank-two (Woodbury) update, on the same solver the time
stepper uses for its diffusion half.

The module also provides the positive periodic weight used by the
weighted-energy diagnostic.  Once the flux is normalized so that f(0, .) = 0,
the weight solves  D1(b * theta) + D2 theta = 0  with b = d_u f(0, .); summing
that stencil telescopes to the constancy of the discrete flux

    (b_i theta_i + b_{i+1} theta_{i+1}) / 2 + (theta_{i+1} - theta_i) / h = const,

so the weight follows from a one-step recurrence ("quadrature" of the
once-integrated form) in O(n), with positivity transparent.  The tests hold it
to a bordered linear solve of the same stencil.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .fluxes import FluxModel
from .grids import CellGrid, Profile, _cyclic_tridiagonal, _next, _periodic_spline, _prev

__all__ = [
    "StationaryFamily",
    "StationarySolveError",
    "build_family",
    "cell_residual",
    "normalize_about_wp",
    "residual_floor",
    "save_family",
    "solve_dp_w",
    "solve_stationary",
    "solve_theta",
]


class StationarySolveError(RuntimeError):
    """Newton failed to converge or the bordered system is singular."""


NEWTON_TOLERANCE = 1e-11      # on the sup norm of the discrete residual
NEWTON_MAX_ITERATIONS = 50
NEWTON_DAMPING = 0.5          # backtracking factor on rejected steps
CONTINUATION_STEP = 0.1       # largest jump in p taken without substeps


def _lap_apply(w: np.ndarray, h: float) -> np.ndarray:
    return (_next(w) - 2.0 * w + _prev(w)) / h**2


def _cdiff_apply(g: np.ndarray, h: float) -> np.ndarray:
    return (_next(g) - _prev(g)) / (2.0 * h)


def cell_residual(flux: FluxModel, values: np.ndarray, grid: CellGrid) -> np.ndarray:
    """Discrete residual -D2 w + D1 f(w, .) at the cell centers.

    The Laplacian is applied to the mean-subtracted profile -- identical in
    exact arithmetic (D2 annihilates constants) but it keeps the 1/h^2
    cancellation noise proportional to the profile's variation instead of its
    absolute size, which matters when the solver tolerance is tight.
    """
    x = grid.centers()
    centered = values - values.mean()
    return -_lap_apply(centered, grid.h) + _cdiff_apply(flux.eval(values, x), grid.h)


def residual_floor(values: np.ndarray, grid: CellGrid) -> float:
    """Smallest residual resolvable for a profile stored in double precision.

    The stored samples carry rounding of order eps * sup|w|; the second
    difference amplifies that by 4 / h^2, so no stored profile can certify a
    residual below roughly 2 eps sup|w| / h^2 no matter how far the solver
    iterated.  Checks on stored profiles should allow tolerance +
    residual_floor; the factor 4 adds headroom for the flux-difference term.
    Newton itself stops at tolerance plus the same floor taken at the scale of
    the mean-free deviation w - p, which is much smaller.
    """
    return _roundoff_floor(max(1.0, float(np.abs(values).max())), grid.h)


def _roundoff_floor(scale: float, h: float) -> float:
    return 4.0 * np.finfo(float).eps * scale / h**2


def _bordered_solve(fu: np.ndarray, h: float, rhs: np.ndarray, gap: float) -> tuple:
    """(d, lambda) with J d + lambda = rhs and <d> = gap, in O(n).

    J = -D2 + D1 diag(fu) is cyclic tridiagonal with 1^T J = 0, so it is
    singular on its own.  Its periodic corners and the border both go in by a
    Woodbury update with two vectors: one dgtsv call solves the corner-modified
    tridiagonal T for rhs, the ones vector and the corner vector, and a 2x2
    Schur system gives the corner weight s = v^T d and lambda.
    """
    lower = -1.0 / h**2 - _prev(fu) / (2.0 * h)
    upper = -1.0 / h**2 + _next(fu) / (2.0 * h)
    diag = np.full(fu.size, 2.0 / h**2)
    columns = np.column_stack([rhs, np.ones_like(rhs)])
    try:
        sol, row = _cyclic_tridiagonal(lower, diag, upper, columns)
    except np.linalg.LinAlgError as exc:
        raise StationarySolveError(f"bordered Jacobian solve failed: {exc}") from exc
    y, e, z = sol.T
    # [[1 + v^T z, v^T e], [<z>, <e>]] (s, lambda) = (v^T y, <y> - gap); a
    # determinant lost to cancellation (or NaN) means the system is singular
    a, b, c, d = row[2], row[1], z.mean(), e.mean()
    det = a * d - b * c
    if not abs(det) > 4.0 * np.finfo(float).eps * max(abs(a * d), abs(b * c)):
        raise StationarySolveError(f"bordered Jacobian is singular (n={fu.size})")
    r0, r1 = row[0], y.mean() - gap
    s, lam = (d * r0 - b * r1) / det, (a * r1 - c * r0) / det
    return y - s * z - lam * e, lam


def _bordered_newton(residual_fn, speed_fn, w0, h: float):
    """Damped Newton on the bordered system (residual + lambda, mean constraint).

    w is the mean-free deviation on a grid of spacing h.  speed_fn(w) gives
    d_u f at the cell centers, which fixes the cyclic tridiagonal Jacobian
    J = -D2 + D1 diag(d_u f); each step solves the bordered system in O(n)
    (``_bordered_solve``).  Newton stops once the residual and the mean gap are
    within NEWTON_TOLERANCE plus the round-off floor 4 eps sup|w| / h^2.  Returns
    the converged values; raises StationarySolveError with the last residual.
    """
    w = np.array(w0, dtype=float)
    lam = 0.0

    def merit(wv, lv):
        base = residual_fn(wv)
        gap = wv.mean()
        return base, gap, float(np.sqrt(np.sum((base + lv) ** 2) + gap**2))

    def floor():
        return _roundoff_floor(float(np.abs(w).max()), h)

    def converged():
        return max(np.abs(base).max(), abs(gap)) <= NEWTON_TOLERANCE + floor()

    base, gap, f_now = merit(w, lam)
    for _ in range(NEWTON_MAX_ITERATIONS):
        if converged():
            return w
        delta_w, delta_lam = _bordered_solve(speed_fn(w), h, -(base + lam), -gap)
        s = 1.0
        accepted = False
        for _ in range(25):
            w_try = w + s * delta_w
            lam_try = lam + s * delta_lam
            base_try, gap_try, f_try = merit(w_try, lam_try)
            if f_try <= (1.0 - 1e-4 * s) * f_now or f_try < NEWTON_TOLERANCE:
                w, lam = w_try, lam_try
                base, gap, f_now = base_try, gap_try, f_try
                accepted = True
                break
            s *= NEWTON_DAMPING
        if not accepted:
            # stalled in roundoff; the final test below decides honestly
            break
    if converged():
        return w
    raise StationarySolveError(
        f"no convergence (residual {np.abs(base).max():.3e}, "
        f"mean gap {gap:.3e}, tolerance {NEWTON_TOLERANCE:.1e} + "
        f"round-off floor {floor():.1e})"
    )


def solve_stationary(
    flux: FluxModel,
    mean: float,
    grid: CellGrid,
    initial: Optional[np.ndarray] = None,
) -> Profile:
    """Solve the periodic cell problem for the profile with the given mean.

    Parameters
    ----------
    flux : FluxModel
    mean : target cell average p
    grid : CellGrid whose period must match the flux period
    initial : optional warm-start values; defaults to the constant profile

    Returns
    -------
    Profile with cell average exactly ``mean`` and discrete residual
    ``-D2 w + D1 f(w, .)`` below ``NEWTON_TOLERANCE`` plus the round-off floor of
    the deviation w - p (see ``residual_floor``) in sup norm.
    """
    if not np.isclose(grid.period, flux.period, rtol=1e-12, atol=0.0):
        raise ValueError(
            f"grid period {grid.period} != flux period {flux.period}"
        )
    p = float(mean)
    x = grid.centers()
    h = grid.h

    # Newton runs on the deviation d = w - p.  The Laplacian acts on d alone
    # (constants are in its kernel), so the 1/h^2 roundoff floor scales with
    # the profile's variation, not with |p|; storing w directly would cap the
    # reachable residual near ulp(|p|)/h^2, above tolerance on fine grids.
    def residual_dev(d):
        return -_lap_apply(d, h) + _cdiff_apply(flux.eval(p + d, x), h)

    d0 = (
        np.zeros(grid.n_cells)
        if initial is None
        else np.asarray(initial, float) - p
    )
    dev = _bordered_newton(residual_dev, lambda d: flux.d_u(p + d, x), d0, h)
    return Profile(grid, p + dev)


def solve_dp_w(flux: FluxModel, profile: Profile) -> Profile:
    """Derivative dw/dp of the stationary profile with respect to its mean.

    Solves the linearization of the cell problem about ``profile`` in bordered
    form; the result has unit cell average by construction and must be
    strictly positive (a nonpositive value flags an under-resolved grid and
    raises).
    """
    grid = profile.grid
    fu = flux.d_u(profile.values, grid.centers())
    phi, _ = _bordered_solve(fu, grid.h, np.zeros(grid.n_cells), 1.0)
    if phi.min() <= 0.0:
        raise StationarySolveError(
            f"mean-derivative profile is not positive (min {phi.min():.3e}); "
            "refine the grid"
        )
    return Profile(grid, phi)


@dataclass(frozen=True)
class StationaryFamily:
    """Stationary profiles over a strictly increasing grid of means.

    ``alpha`` is the least value of the mean-derivative profiles over the whole
    family; it is the uniform lower bound the entropy diagnostics divide by,
    so construction fails if it is not strictly positive.
    """

    flux: FluxModel
    p_grid: np.ndarray
    profiles: List[Profile]
    dp_profiles: List[Profile]
    alpha: float

    def __post_init__(self):
        p = np.asarray(self.p_grid, dtype=float)
        if p.ndim != 1 or p.size < 2 or not np.all(np.diff(p) > 0):
            raise ValueError("p_grid must be strictly increasing with >= 2 entries")
        if len(self.profiles) != p.size or len(self.dp_profiles) != p.size:
            raise ValueError("profile lists must align with p_grid")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        arr = np.array(p, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "p_grid", arr)

    @property
    def grid(self) -> CellGrid:
        return self.profiles[0].grid

    def values_table(self) -> np.ndarray:
        """(len(p_grid), n_cells) array of profile values."""
        return np.stack([prof.values for prof in self.profiles])

    def dp_table(self) -> np.ndarray:
        return np.stack([prof.values for prof in self.dp_profiles])

    def shifted_by(self, background: Profile, mean: float) -> "StationaryFamily":
        """Family of the flux shifted about ``background`` (exact translation).

        If w solves the cell problem for f then w - background solves it for
        the shifted flux at mean p - mean, cell for cell, so no re-solve is
        needed; derivative profiles and alpha are unchanged.
        """
        shifted = [
            Profile(self.grid, prof.values - background.values)
            for prof in self.profiles
        ]
        return StationaryFamily(
            flux=normalize_about_wp(self.flux, background),
            p_grid=self.p_grid - mean,
            profiles=shifted,
            dp_profiles=list(self.dp_profiles),
            alpha=self.alpha,
        )


def _family_checks(p_grid, profiles, dp_profiles, mean_tol=1e-10, dp_mean_tol=1e-8):
    for p, prof in zip(p_grid, profiles):
        gap = abs(prof.values.mean() - p)
        if gap > mean_tol:
            raise StationarySolveError(
                f"family member at p={p} misses its mean by {gap:.3e}"
            )
    table = np.stack([prof.values for prof in profiles])
    gaps = np.diff(table, axis=0)
    if not np.all(gaps > 0):
        j, i = np.argwhere(gaps <= 0)[0]
        raise StationarySolveError(
            f"profiles not strictly increasing in p between p={p_grid[j]} and "
            f"p={p_grid[j + 1]} at cell {i}"
        )
    for p, prof in zip(p_grid, dp_profiles):
        gap = abs(prof.values.mean() - 1.0)
        if gap > dp_mean_tol:
            raise StationarySolveError(
                f"mean-derivative at p={p} has cell average off by {gap:.3e}"
            )


def build_family(
    flux: FluxModel,
    p_min: float,
    p_max: float,
    m_intervals: int,
    grid: CellGrid,
) -> StationaryFamily:
    """Build w_p for p on a uniform grid of m_intervals slices of [p_min, p_max].

    Continuation with warm starts: each member starts from the previous one
    advanced by its mean-derivative; failed solves retry with halved steps in
    p.  The family is validated (means, strict pointwise monotonicity in p,
    positive derivative profiles with unit mean) before it is returned.
    """
    if m_intervals < 16:
        raise ValueError(f"family needs m_intervals >= 16, got {m_intervals}")
    if not p_max > p_min:
        raise ValueError("p_max must exceed p_min")
    p_grid = np.linspace(float(p_min), float(p_max), m_intervals + 1)

    profiles: List[Profile] = []
    dp_profiles: List[Profile] = []
    current: Optional[Profile] = None
    current_dp: Optional[Profile] = None

    def advance(target_p, source: Profile, source_dp: Profile, depth=0) -> Profile:
        dp = target_p - source.mean
        guess = source.values + dp * source_dp.values
        try:
            return solve_stationary(flux, target_p, grid, initial=guess)
        except StationarySolveError as exc:
            if depth >= 6:
                raise StationarySolveError(
                    f"continuation failed at p={target_p}: {exc}"
                ) from exc
            midway = advance(source.mean + 0.5 * dp, source, source_dp, depth + 1)
            midway_dp = solve_dp_w(flux, midway)
            return advance(target_p, midway, midway_dp, depth + 1)

    for j, p in enumerate(p_grid):
        if current is None:
            current = solve_stationary(flux, p, grid)
        else:
            step_p = p - p_grid[j - 1]
            if step_p > CONTINUATION_STEP:
                # walk in sub-steps no larger than CONTINUATION_STEP
                n_sub = int(np.ceil(step_p / CONTINUATION_STEP))
                for k in range(1, n_sub + 1):
                    target = p_grid[j - 1] + step_p * k / n_sub
                    current = advance(target, current, current_dp)
                    if k < n_sub:
                        current_dp = solve_dp_w(flux, current)
            else:
                current = advance(p, current, current_dp)
        current_dp = solve_dp_w(flux, current)
        profiles.append(current)
        dp_profiles.append(current_dp)

    _family_checks(p_grid, profiles, dp_profiles)
    alpha = float(min(prof.values.min() for prof in dp_profiles))
    return StationaryFamily(flux, p_grid, profiles, dp_profiles, alpha)


def save_family(family: StationaryFamily, path) -> None:
    """Write a family to a structured text (JSON) file.

    The flux is recorded by its label and parameters.  Floats are written
    with shortest round-trip precision, so the file is byte-stable for
    identical inputs.
    """
    payload = {
        "format": "convstab-family-1",
        "flux": {"label": family.flux.label, "params": dict(family.flux.params)},
        "period": family.grid.period,
        "n_cells": family.grid.n_cells,
        "p_grid": family.p_grid.tolist(),
        "profiles": [prof.values.tolist() for prof in family.profiles],
        "dp_profiles": [prof.values.tolist() for prof in family.dp_profiles],
        "alpha": family.alpha,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def normalize_about_wp(flux: FluxModel, background: Profile) -> FluxModel:
    """Shift the flux so the given stationary profile becomes the zero state.

    Returns g(v, x) = f(v + w(x), x) - f(w(x), x) with w the periodic cubic
    spline through the profile samples at the cell centers (``grids``'
    spline: one cyclic tridiagonal solve, any real x wrapped into the
    period).  g(0, .) vanishes identically, which the weight solver and the
    normalized evolution runs require.
    """
    grid = background.grid
    w_of, dw_of = _periodic_spline(grid.centers()[0], grid.period, background.values)

    def f(v, x):
        v = np.asarray(v, dtype=float)
        w = w_of(x)
        return flux.eval(v + w, x) - flux.eval(w, x)

    def fv(v, x):
        return flux.d_u(np.asarray(v, float) + w_of(x), x)

    def fvv(v, x):
        return flux.d_uu(np.asarray(v, float) + w_of(x), x)

    def fx(v, x):
        v = np.asarray(v, dtype=float)
        w = w_of(x)
        ws = dw_of(x)
        return (
            flux.d_x(v + w, x)
            - flux.d_x(w, x)
            + (flux.d_u(v + w, x) - flux.d_u(w, x)) * ws
        )

    return FluxModel(
        label=f"{flux.label}_shifted",
        period=flux.period,
        eval=f,
        d_u=fv,
        d_uu=fvv,
        d_x=fx,
        params=dict(flux.params),
    )


def _require_normalized(flux: FluxModel, x: np.ndarray) -> None:
    f0 = np.abs(flux.eval(np.zeros_like(x), x))
    if f0.max() > 1e-10:
        raise ValueError(
            "flux is not normalized: f(0, .) reaches "
            f"{f0.max():.3e}; normalize_about_wp first"
        )


def solve_theta(flux: FluxModel, grid: CellGrid) -> Profile:
    """Positive periodic weight theta with unit mean for the energy diagnostic.

    Solves D1(b * theta) + D2 theta = 0 with b = d_u f(0, .), which requires a
    normalized flux (f(0, .) = 0), by the one-step recurrence on the constant
    discrete flux.
    """
    x = grid.centers()
    _require_normalized(flux, x)
    h = grid.h
    b = flux.d_u(np.zeros_like(x), x)
    if np.abs(b).max() * h >= 2.0:
        raise StationarySolveError(
            "weight recurrence needs h * max|b| < 2; refine the grid"
        )

    b_next = _next(b)
    denom = 1.0 / h + 0.5 * b_next
    r = (1.0 / h - 0.5 * b) / denom
    s = 1.0 / denom
    # homogeneous and forced prefix solutions of theta_{i+1} = r_i theta_i + Phi s_i
    A = np.concatenate([[1.0], np.cumprod(r)])
    B = np.concatenate([[0.0], A[1:] * np.cumsum(s / A[1:])])
    if B[-1] == 0.0:
        raise StationarySolveError("degenerate weight recurrence")
    phi = (1.0 - A[-1]) / B[-1]
    theta = A[:-1] + phi * B[:-1]

    theta = theta / theta.mean()
    if theta.min() <= 0.0:
        raise StationarySolveError(
            f"weight is not positive (min {theta.min():.3e}); refine the grid"
        )
    return Profile(grid, theta)
