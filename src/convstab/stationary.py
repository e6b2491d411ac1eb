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
A ``StationaryFamily`` holds them as two tables, one row per mean p.  The walk
takes one knot of the p grid per step; a failed solve is retried with halved
steps.  ``family_verdicts`` judges a family on its whole tables;
``build_family`` refuses one that fails any verdict.
The Jacobian -D2 + D1 diag(d_u f) is cyclic tridiagonal, so every bordered
solve costs O(n): the periodic corners and the border enter a tridiagonal
LAPACK dgtsv solve (``grids._cyclic_solve``) as a rank-two (Woodbury) update.

Where the walk's time goes: a member costs about three bordered solves (two
Newton steps and its dp solve) and three residual evaluations; the M = 64
family at 384 cells makes 196 of each for 65 members.  At the run sizes
(128 to 384 cells a period) each numpy call works on a few hundred entries,
so its fixed cost of about a microsecond dominates, and dgtsv on three
right-hand sides is the largest single item: about a tenth of the walk at
128 cells, a quarter at 384 and half at 2048.  So ``build_family`` checks
the grid period and samples the flux once per family and hands the samples
to the private solvers that ``solve_stationary`` and ``solve_dp_w`` wrap,
and the bordered solve writes its right-hand sides straight into the block
dgtsv overwrites.

The module also provides the positive periodic weight used by the
weighted-energy diagnostic.  Once the flux is normalized so that f(0, .) = 0,
the weight solves  D1(b * theta) + D2 theta = 0  with b = d_u f(0, .), that is
-D2 theta + D1((-b) theta) = 0: the cell problem's Jacobian at d_u f = -b.  So
one bordered solve with mean 1 gives it in O(n), the same solve every Newton
step and dp solve makes, and positivity is checked afterwards.  The tests hold
it to a dense solve of the same stencil and to its closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .fluxes import FluxModel, FluxSamples, builtin_flux
from .grids import _EPS, CellGrid, Profile, _cyclic_solve, _next, _prev, _readonly, same_period

__all__ = [
    "StationaryFamily",
    "StationarySolveError",
    "build_family",
    "cell_residual",
    "family_verdicts",
    "residual_floor",
    "save_family",
    "solve_dp_w",
    "solve_stationary",
    "solve_theta",
]


class StationarySolveError(RuntimeError):
    """Newton failed to converge or the bordered system is singular."""


NEWTON_TOLERANCE = 1e-11      # on the sup norm of the discrete residual
MEAN_TOLERANCE = 1e-10        # on |<w_p> - p| of each family member
DP_MEAN_TOLERANCE = 1e-8      # on |<dw/dp> - 1| of each derivative profile
NEWTON_MAX_ITERATIONS = 50
NEWTON_DAMPING = 0.5          # backtracking factor on rejected steps


def _mean(x: np.ndarray) -> float:
    """x.mean() of a 1-d array, bit for bit, without its Python wrapper."""
    return np.add.reduce(x) / x.size


def _check_period(flux: FluxModel, grid: CellGrid) -> None:
    if not same_period(grid.period, flux.period):
        raise ValueError(f"grid period {grid.period} != flux period {flux.period}")


def _residual(at_centers: FluxSamples, w: np.ndarray, deviation: np.ndarray,
              h: float) -> np.ndarray:
    """-D2 w + D1 f(w, .) of a profile or a table of them, one per row, with
    D2 applied to w's deviation from a constant."""
    g = at_centers.value(w)
    lap = (_next(deviation) - 2.0 * deviation + _prev(deviation)) / h**2
    # (next(g) - prev(g)) / 2h - lap is -lap + D1 g bit for bit
    return (_next(g) - _prev(g)) / (2.0 * h) - lap


def cell_residual(flux: FluxModel, values: np.ndarray, grid: CellGrid) -> np.ndarray:
    """Discrete residual -D2 w + D1 f(w, .) at the cell centers.

    ``values`` is one profile (n,) or a table (k, n) of them, one per row,
    whose residual is the stack of the rows' residuals, bit for bit.

    The Laplacian is applied to the mean-subtracted profile -- identical in
    exact arithmetic (D2 annihilates constants) but it keeps the 1/h^2
    cancellation noise proportional to the profile's variation instead of its
    absolute size, which matters when the solver tolerance is tight.
    """
    deviation = values - values.mean(axis=-1, keepdims=True)
    return _residual(flux.sample(grid.centers()), values, deviation, grid.h)


def residual_floor(values: np.ndarray, grid: CellGrid) -> float:
    """Smallest residual resolvable for a profile stored in double precision.

    The stored samples carry rounding of order eps * sup|w|; the second
    difference amplifies that by 4 / h^2, so no stored profile can certify a
    residual below roughly 2 eps sup|w| / h^2 no matter how far the solver
    iterated.  Checks on stored profiles (a table of them takes the floor of
    its largest) should allow tolerance + residual_floor; the factor 4 adds
    headroom for the flux-difference term.
    Newton itself stops at tolerance plus the same floor taken at the scale of
    the mean-free deviation w - p, which is much smaller.
    """
    return float(_roundoff_floor(max(1.0, float(np.abs(values).max())), grid.h))


def _roundoff_floor(scale: float, h: float) -> float:
    return 4.0 * _EPS * scale / h**2


def _bordered_solve(fu: np.ndarray, h: float, rhs, gap: float) -> tuple:
    """(d, lambda) with J d + lambda = rhs and <d> = gap, in O(n).

    J = -D2 + D1 diag(fu) is cyclic tridiagonal with 1^T J = 0, so it is
    singular on its own.  Its periodic corners and the border both go in by a
    Woodbury update with two vectors: one dgtsv call solves the corner-modified
    tridiagonal T for rhs (an array, or a scalar for a constant one), the ones
    vector and the corner vector, and a 2x2 Schur system gives the corner
    weight s = v^T d and lambda.  The right-hand sides are written straight
    into the Fortran-ordered block dgtsv solves in place, and d is a view of
    that block.
    """
    n = fu.size
    edge = -1.0 / h**2
    half = fu / (2.0 * h)
    # J's row i is lower[i] d[i-1] + 2/h^2 d[i] + upper[i] d[i+1] with
    # lower[i] = below[i-1] and upper[i] = above[i+1]
    below, above = edge - half, edge + half
    block = np.zeros((n, 3), order="F")
    block[:, 0] = rhs
    block[:, 1] = 1.0
    try:
        sol, row = _cyclic_solve(below[:-1], np.full(n, 2.0 / h**2), above[1:],
                                 below[-1], above[0], block)
    except np.linalg.LinAlgError as exc:
        raise StationarySolveError(f"bordered Jacobian solve failed: {exc}") from exc
    y, e, z = sol.T
    # [[1 + v^T z, v^T e], [<z>, <e>]] (s, lambda) = (v^T y, <y> - gap); a
    # determinant lost to cancellation (or NaN) means the system is singular
    a, b, c, d = row[2], row[1], _mean(z), _mean(e)
    det = a * d - b * c
    if not abs(det) > 4.0 * _EPS * max(abs(a * d), abs(b * c)):
        raise StationarySolveError(f"bordered Jacobian is singular (n={n})")
    r0, r1 = row[0], _mean(y) - gap
    s, lam = (d * r0 - b * r1) / det, (a * r1 - c * r0) / det
    # y - s z - lam e, in y's column
    z *= s
    y -= z
    e *= lam
    y -= e
    return y, lam


def _bordered_newton(at_centers: FluxSamples, p: float, w0: np.ndarray, h: float):
    """Damped Newton on the bordered system (residual + lambda, mean constraint).

    w is the mean-free deviation from p on a grid of spacing h, starting at
    the float64 array w0 (not written to), and the flux is sampled at the
    cell centers.  d_u f(p + w, .) fixes the cyclic
    tridiagonal Jacobian J = -D2 + D1 diag(d_u f); each step solves the
    bordered system in O(n) (``_bordered_solve``).  Newton stops once the
    residual and the mean gap are within NEWTON_TOLERANCE plus the round-off
    floor 4 eps sup|w| / h^2.  Returns the converged deviation w; raises
    StationarySolveError with the last residual.
    """
    w, lam = w0, 0.0

    def merit(wv, lv):
        u = p + wv
        base = _residual(at_centers, u, wv, h)
        gap = _mean(wv)
        return u, base, gap, math.sqrt(np.add.reduce((base + lv) ** 2) + gap**2)

    def floor():
        return _roundoff_floor(np.maximum.reduce(np.abs(w)), h)

    def converged():
        return max(np.maximum.reduce(np.abs(base)), abs(gap)) <= NEWTON_TOLERANCE + floor()

    u, base, gap, f_now = merit(w, lam)
    for _ in range(NEWTON_MAX_ITERATIONS):
        if converged():
            return w
        delta_w, delta_lam = _bordered_solve(at_centers.speed(u), h, -(base + lam), -gap)
        s = 1.0
        accepted = False
        for _ in range(25):
            w_try = w + s * delta_w
            lam_try = lam + s * delta_lam
            u_try, base_try, gap_try, f_try = merit(w_try, lam_try)
            if f_try <= (1.0 - 1e-4 * s) * f_now or f_try < NEWTON_TOLERANCE:
                w, lam = w_try, lam_try
                u, base, gap, f_now = u_try, base_try, gap_try, f_try
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


def _dp_values(at_centers: FluxSamples, values: np.ndarray, h: float) -> np.ndarray:
    """dw/dp about the profile ``values``; raises unless it is positive."""
    phi, _ = _bordered_solve(at_centers.speed(values), h, 0.0, 1.0)
    if phi.min() <= 0.0:
        raise StationarySolveError(
            f"mean-derivative profile is not positive (min {phi.min():.3e}); "
            "refine the grid"
        )
    return phi


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
    _check_period(flux, grid)
    p = float(mean)
    # Newton runs on the deviation d = w - p.  The Laplacian acts on d alone
    # (constants are in its kernel), so the 1/h^2 roundoff floor scales with
    # the profile's variation, not with |p|; storing w directly would cap the
    # reachable residual near ulp(|p|)/h^2, above tolerance on fine grids.
    d0 = np.zeros(grid.n_cells) if initial is None else np.asarray(initial, float) - p
    return Profile(grid, p + _bordered_newton(flux.sample(grid.centers()), p, d0, grid.h))


def solve_dp_w(flux: FluxModel, profile: Profile) -> Profile:
    """Derivative dw/dp of the stationary profile with respect to its mean.

    Solves the linearization of the cell problem about ``profile`` in bordered
    form; the result has unit cell average by construction and must be
    strictly positive (a nonpositive value flags an under-resolved grid and
    raises).  The flux period must match the grid's.
    """
    grid = profile.grid
    _check_period(flux, grid)
    return Profile(grid, _dp_values(flux.sample(grid.centers()), profile.values, grid.h))


@dataclass(frozen=True)
class StationaryFamily:
    """Stationary profiles over a strictly increasing grid of means.

    ``profiles`` and ``dp_profiles`` are read-only (len(p_grid), n_cells)
    tables of finite values: row k holds w_p and dw/dp at p = p_grid[k],
    sampled at the cell centers of ``grid``.  A read-only float64 table that
    owns its data is kept, anything else is copied.  ``alpha`` is not an
    argument: it is derived as the least value of the mean-derivative
    profiles over the whole family.  It is the uniform lower bound the
    entropy diagnostics divide by, so construction fails if it is not
    strictly positive.
    """

    flux: FluxModel
    grid: CellGrid
    p_grid: np.ndarray
    profiles: np.ndarray
    dp_profiles: np.ndarray
    alpha: float = field(init=False)

    def __post_init__(self):
        p = _readonly(self.p_grid)
        if p.ndim != 1 or p.size < 2 or not np.all(np.diff(p) > 0):
            raise ValueError("p_grid must be strictly increasing with >= 2 entries")
        shape = (p.size, self.grid.n_cells)
        for name in ("profiles", "dp_profiles"):
            table = _readonly(getattr(self, name))
            if table.shape != shape:
                raise ValueError(
                    f"{name} has shape {table.shape}; p_grid and the grid need {shape}"
                )
            if not np.all(np.isfinite(table)):
                raise ValueError(f"{name} values must be finite")
            object.__setattr__(self, name, table)
        alpha = float(self.dp_profiles.min())
        if not alpha > 0:
            raise ValueError(f"alpha = min dp_profiles must be positive, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "p_grid", p)

    def shifted_by(self, flux: FluxModel, background: Profile, mean: float) -> "StationaryFamily":
        """Family of ``flux``, the flux normalized about ``background``.

        If w solves the cell problem for f then w - background solves it for
        normalize_about_wp(f, background) at mean p - mean, cell for cell, so
        no re-solve is needed; derivative profiles and alpha are unchanged.
        ``flux`` is that normalized flux, which the caller already holds; it
        has no built-in label, so ``save_family`` refuses the shifted family.
        """
        profiles = self.profiles - background.values
        profiles.setflags(write=False)  # handed over without a copy
        return replace(self, flux=flux, p_grid=self.p_grid - mean, profiles=profiles)


def _verdict(passed: bool, **measured) -> dict:
    return {"passed": bool(passed), **measured}


def family_verdicts(family: StationaryFamily) -> Dict[str, dict]:
    """The family's verdicts with what each measured, in this order:
    ``residuals``, max |cell_residual| of the profile table <= NEWTON_TOLERANCE
    + the table's residual_floor; ``means``, max |<w_p> - p| <= MEAN_TOLERANCE;
    ``monotone``, each profile strictly below the next, cell by cell;
    ``dp_means``, max |<dw/dp> - 1| <= DP_MEAN_TOLERANCE; ``alpha_positive``,
    alpha > 0.  ``build_family`` refuses a family that fails any of them."""
    profiles, grid = family.profiles, family.grid
    residual = float(np.abs(cell_residual(family.flux, profiles, grid)).max())
    floor = residual_floor(profiles, grid)
    mean_gap = float(np.abs(profiles.mean(axis=1) - family.p_grid).max())
    dp_mean_gap = float(np.abs(family.dp_profiles.mean(axis=1) - 1.0).max())
    return {
        "residuals": _verdict(
            residual <= NEWTON_TOLERANCE + floor,
            max_residual=residual,
            tolerance=NEWTON_TOLERANCE,
            storage_floor=floor,
        ),
        "means": _verdict(mean_gap <= MEAN_TOLERANCE, max_gap=mean_gap),
        "monotone": _verdict(np.all(np.diff(profiles, axis=0) > 0)),
        "dp_means": _verdict(dp_mean_gap <= DP_MEAN_TOLERANCE, max_gap=dp_mean_gap),
        "alpha_positive": _verdict(family.alpha > 0, alpha=family.alpha),
    }


def build_family(
    flux: FluxModel,
    p_min: float,
    p_max: float,
    m_intervals: int,
    grid: CellGrid,
) -> StationaryFamily:
    """Build w_p for p on a uniform grid of m_intervals slices of [p_min, p_max].

    Continuation with warm starts, one knot per step: Newton starts each
    member from the previous one advanced by its mean-derivative; a failed
    solve is retried through the midpoint of its step, halving up to 6 times.
    A family that fails any of its ``family_verdicts`` raises
    StationarySolveError naming each failed verdict and what it measured.

    The walk's time goes to numpy's per-call overhead and to dgtsv (see the
    module docstring), so the flux is sampled and the period checked once
    here, and each member goes straight to ``_bordered_newton`` and
    ``_dp_values``, not through ``solve_stationary`` and ``solve_dp_w``.
    """
    if m_intervals < 16:
        raise ValueError(f"family needs m_intervals >= 16, got {m_intervals}")
    if not p_max > p_min:
        raise ValueError("p_max must exceed p_min")
    _check_period(flux, grid)
    p_grid = np.linspace(float(p_min), float(p_max), m_intervals + 1)
    at_centers, h = flux.sample(grid.centers()), grid.h

    values = np.empty((p_grid.size, grid.n_cells))
    dp_values = np.empty_like(values)

    def advance(target_p, source, source_dp, depth=0) -> np.ndarray:
        source_mean = _mean(source)
        dp = target_p - source_mean
        guess = source + dp * source_dp
        try:
            return target_p + _bordered_newton(at_centers, target_p, guess - target_p, h)
        except StationarySolveError as exc:
            if depth >= 6:
                raise StationarySolveError(
                    f"continuation failed at p={target_p}: {exc}"
                ) from exc
            midway = advance(source_mean + 0.5 * dp, source, source_dp, depth + 1)
            midway_dp = _dp_values(at_centers, midway, h)
            return advance(target_p, midway, midway_dp, depth + 1)

    current = p_grid[0] + _bordered_newton(at_centers, p_grid[0], np.zeros(grid.n_cells), h)
    for j, p in enumerate(p_grid):
        if j > 0:
            current = advance(p, current, current_dp)
        current_dp = _dp_values(at_centers, current, h)
        values[j], dp_values[j] = current, current_dp

    values.setflags(write=False)  # handed over without a copy
    dp_values.setflags(write=False)
    family = StationaryFamily(flux, grid, p_grid, values, dp_values)
    failed = {name: v for name, v in family_verdicts(family).items() if not v["passed"]}
    if failed:
        raise StationarySolveError(f"the family fails its verdicts: {json.dumps(failed)}")
    return family


def save_family(family: StationaryFamily, path) -> None:
    """Write a family as a JSON header at ``path`` and its tables as ``.npy``.

    ``profiles`` and ``dp_profiles``, stacked as one float64 (2, M+1, n)
    array, go to ``path`` with the suffix ``.npy``, written first so that a
    header never exists without its tables.  ``path`` gets
    ``json.dumps(header, sort_keys=True)`` plus a newline; the header holds
    the format, the flux by its label and parameters, the period,
    ``n_cells``, ``p_grid`` and ``alpha``.  A flux that ``builtin_flux``
    cannot rebuild from its label and parameters (a normalized flux, say)
    raises its ValueError, naming the label, before either file is opened.
    Both files are byte-stable for identical inputs.
    """
    builtin_flux(family.flux.label, family.flux.params)
    path = Path(path)
    tables = path.with_suffix(".npy")
    if tables == path:
        raise ValueError(f"the family header and its tables would both be {path}")
    np.save(tables, np.stack([family.profiles, family.dp_profiles]))
    header = {
        "format": "convstab-family-2",
        "flux": {"label": family.flux.label, "params": dict(family.flux.params)},
        "period": family.grid.period,
        "n_cells": family.grid.n_cells,
        "p_grid": family.p_grid.tolist(),
        "alpha": family.alpha,
    }
    path.write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


def solve_theta(flux: FluxModel, grid: CellGrid) -> Profile:
    """Positive periodic weight theta with unit mean for the energy diagnostic.

    Solves D1(b * theta) + D2 theta = 0 with b = d_u f(0, .), which requires a
    normalized flux (f(0, .) = 0) whose period matches the grid's, by the
    bordered solve of the family's Newton steps.
    """
    _check_period(flux, grid)
    at_centers = flux.sample(grid.centers())
    f0 = np.abs(at_centers.value(0.0)).max()
    if f0 > 1e-10:
        raise ValueError(f"flux is not normalized: f(0, .) reaches {f0:.3e}; "
                         "normalize_about_wp first")
    h = grid.h
    b = at_centers.speed(0.0)
    if np.abs(b).max() * h >= 2.0:
        raise StationarySolveError("weight solve needs h * max|b| < 2; refine the grid")
    # theta solves -D2 theta + D1((-b) theta) = 0, the bordered system's
    # homogeneous equation, and the border pins its mean to 1
    theta, _ = _bordered_solve(-b, h, 0.0, 1.0)
    if theta.min() <= 0.0:
        raise StationarySolveError(
            f"weight is not positive (min {theta.min():.3e}); refine the grid"
        )
    return Profile(grid, theta)
