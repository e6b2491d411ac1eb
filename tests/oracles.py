"""Independent oracles that only the tests use.

* ``flux_value``, ``flux_speed``, ``flux_curvature`` -- f, d_u f and
  d_uu f at broadcast u and x, computed from ``FluxModel.sample``: the flux's
  coefficients are its only representation.
* ``duhamel_picard`` -- the short-time mild-solution oracle of criterion 4: it
  iterates the integral (Duhamel) form of the equation with a sampled
  mass-one heat kernel, circular convolutions and a midpoint rule in time,
  with no spatial stencils shared with ``convstab.step``.
* ``entropy_balance_check`` -- the centered-difference residual of
  d/dt total_eta + dissipation = 0 over uniformly spaced snapshots
  (criterion 5's refinement check).
* ``load_family`` -- reads back a ``family.json`` header and its
  ``family.npy`` tables written by ``convstab.save_family``, for the
  round-trip tests.
* ``hysteresis_walk`` -- the lap count as a walk over every sample, the way
  ``convstab.lap_number`` counted before it skipped to the turning points.
* ``profile_at`` -- w_p at per-cell means through an interpolant's own
  profile cubics: the forward map that ``FamilyInterpolant.invert`` undoes.
* ``reference_family_solve`` -- pi, integral_0^pi w and dw/dp at pi as
  ``FamilyInterpolant._solve`` computed them with a fresh array for every
  operation, a binary-search bracket and boolean-mask compaction, verbatim;
  the in-place solve must match it bit for bit.
* ``interface_flux_reference`` -- the split Engquist-Osher interface flux
  written with a fresh array for every operation; the stepper's
  ``_interface_flux``, which works in two temporaries, must match it byte
  for byte.
* ``build_family_reference`` -- the family walk with its Newton and bordered
  solves (``solve_stationary_reference``, ``solve_dp_w_reference``) as
  ``convstab.build_family`` ran them before the walk was trimmed, verbatim;
  the trimmed walk and the public solvers must match it byte for byte.

Test modules import them as ``from oracles import ...``; ``tests/`` has no
``__init__.py``, so pytest puts this directory on ``sys.path``.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from convstab import (
    CellGrid,
    EntropyField,
    FamilyInterpolant,
    FluxModel,
    Profile,
    State,
    StationaryFamily,
    StationarySolveError,
    StepKernel,
    builtin_flux,
)
from convstab.entropy import _antiderivative, _hermite
from convstab.fluxes import FluxSamples
from convstab.grids import _next, _prev
from convstab.stationary import NEWTON_DAMPING, NEWTON_MAX_ITERATIONS, NEWTON_TOLERANCE


def _sampled_at(flux: FluxModel, u, x):
    u, x = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(x, dtype=float))
    return flux.sample(x), u


def flux_value(flux: FluxModel, u, x) -> np.ndarray:
    """f(u, x) = c0 + c1 u + c2 u^2 / 2."""
    at, u = _sampled_at(flux, u, x)
    return at.value(u)


def flux_speed(flux: FluxModel, u, x) -> np.ndarray:
    """d_u f(u, x) = c1 + c2 u."""
    at, u = _sampled_at(flux, u, x)
    return at.speed(u)


def flux_curvature(flux: FluxModel, u, x) -> np.ndarray:
    """d_uu f(u, x) = c2, in the broadcast shape of u and x."""
    return _sampled_at(flux, u, x)[0].c2


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

    at_x = flux.sample(x)
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
                g = at_x.value(sample(traj, s))
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
    """Read a family written by ``convstab.save_family``: the JSON header at
    ``path`` and the stacked tables beside it in ``family.npy``."""
    path = Path(path)
    header = json.loads(path.read_text(encoding="utf-8"))
    if header.get("format") != "convstab-family-2":
        raise ValueError(f"unrecognized family file format in {path}")
    profiles, dp_profiles = np.load(path.with_suffix(".npy"))
    flux = builtin_flux(header["flux"]["label"], header["flux"]["params"])
    grid = CellGrid(header["n_cells"], header["period"])
    family = StationaryFamily(flux, grid, np.array(header["p_grid"]), profiles, dp_profiles)
    assert family.alpha == header["alpha"], "alpha is the least dp_profiles value"
    return family


def _horner(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate per-cell polynomials (coefficient rows, highest first) at s."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * s + c
    return acc


def profile_at(interp: FamilyInterpolant, p, cells) -> np.ndarray:
    """w_p(x_i) for per-cell means p (cells index the family's grid), from the
    same Hermite cubic per cell and interval that ``invert`` solves."""
    j, s = interp._locate(np.asarray(p, dtype=float))
    return _horner(_hermite(*interp._hermite_data(j, np.asarray(cells, dtype=int))), s)


def _bracket_reference(interp: FamilyInterpolant, u: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per cell, the largest k <= M - 1 with values[k, cell] <= u, by binary
    search down the cell's column."""
    n = interp._values.shape[1]
    lo = np.zeros(u.size, dtype=int)
    hi = np.full(u.size, interp._p.size - 1)
    values = interp._values.ravel()
    for _ in range((interp._p.size - 2).bit_length()):
        mid = (lo + hi) // 2
        right = values[mid * n + cells] <= u
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return lo


def reference_family_solve(interp: FamilyInterpolant, u, cells):
    """pi with w_pi(x_i) = u_i, integral_0^pi w_q(x_i) dq and dw/dp at pi, as
    ``FamilyInterpolant._solve`` computed them before it worked in place:
    the nearer-knot cubic of a binary-search bracket, solved by safeguarded
    Newton with the live cells compacted by boolean masks."""
    u = np.asarray(u, dtype=float)
    cells = np.asarray(cells, dtype=int)
    lo_vals, hi_vals = interp._values[0, cells], interp._values[-1, cells]
    u = np.clip(u, lo_vals, hi_vals)

    k = _bracket_reference(interp, u, cells)
    data = interp._hermite_data(k, cells)
    width, secant, _, _, y_lo, y_hi = data
    right = y_hi - u < u - y_lo
    cubic = _hermite(*data, right)
    c3, c2, c1, c0 = cubic
    p_lo, p_hi = interp._p[k], interp._p[k + 1]
    origin = np.where(right, p_hi, p_lo)
    lo, hi = np.where(right, -width, 0.0), np.where(right, 0.0, width)
    s = (u - c0) / secant

    out = s.copy()
    live = np.arange(u.size)
    tol = 2.0**-60 * width
    eps8 = 8.0 * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            r = ((c3 * s + c2) * s + c1) * s + c0 - u
            a = np.abs(s)
            settled = np.abs(r) <= eps8 * (
                ((np.abs(c3) * a + np.abs(c2)) * a + np.abs(c1)) * a + np.abs(c0) + np.abs(u))
            lo, hi = np.where(r < 0, s, lo), np.where(r > 0, s, hi)
            nxt = s - r / ((3.0 * c3 * s + 2.0 * c2) * s + c1)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            nxt = np.where(settled, s, nxt)
            out[live] = nxt
            go = ~(settled | (np.abs(nxt - s) <= tol))
            if not go.any():
                break
            live, s, lo, hi, u, tol = live[go], nxt[go], lo[go], hi[go], u[go], tol[go]
            c3, c2, c1, c0 = c3[go], c2[go], c1[go], c0[go]
    knot = interp._integrals.ravel()[(k + right) * interp._values.shape[1] + cells]
    dpw = (3.0 * cubic[0] * out + 2.0 * cubic[1]) * out + cubic[2]
    return np.clip(origin + out, p_lo, p_hi), knot + _antiderivative(*cubic, out), dpw


def hysteresis_walk(samples) -> int:
    """Strict direction reversals, walking every sample with the hysteresis.

    A move of more than 10 eps |v|_inf against the current direction commits
    a reversal; the anchor is the running extremum since the last commit.
    """
    v = np.asarray(samples, dtype=float)
    if v.size < 3:
        return 0
    gap = 10.0 * np.finfo(float).eps * float(np.abs(v).max())

    direction = 0  # +1 rising, -1 falling, 0 undecided
    anchor = v[0]  # running extremum in the current direction
    reversals = 0
    for value in v[1:]:
        if direction == 0:
            if value > anchor + gap:
                direction = 1
                anchor = value
            elif value < anchor - gap:
                direction = -1
                anchor = value
        elif direction == 1:
            if value > anchor:
                anchor = value
            elif value < anchor - gap:
                reversals += 1
                direction = -1
                anchor = value
        else:
            if value < anchor:
                anchor = value
            elif value > anchor + gap:
                reversals += 1
                direction = 1
                anchor = value
    return reversals


def interface_flux_reference(kernel: StepKernel, u_left: np.ndarray,
                             u_right: np.ndarray) -> np.ndarray:
    """Split Engquist-Osher flux at a kernel's faces, one fresh array per
    operation, in the order ``_interface_flux`` evaluates."""
    up = (np.maximum(kernel.half_f2 * u_left, 0.0) + kernel.f1_pos) * u_left
    down = (np.minimum(kernel.half_f2 * u_right, 0.0) + kernel.f1_neg) * u_right
    return up + down + kernel.f0


# --- the stationary family as it was built before its walk was trimmed; the
# --- functions below are that code verbatim, only with _reference names


def _cyclic_tridiagonal_reference(lower, diag, upper, columns) -> tuple:
    """Sherman-Morrison pieces of the cyclic tridiagonal A whose row i reads
    lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1], indices mod n.

    With g = -diag[0], A = T + u v^T for u = (g, 0, ..., upper[-1]) and
    v = (1, 0, ..., lower[0] / g); T, the tridiagonal part with diag[0] - g and
    diag[-1] - upper[-1] lower[0] / g, must be invertible, A need not be.
    Returns X = T^-1 [columns, u] (one LAPACK dgtsv call) and the row v^T X
    with 1 added to its last entry; a nonzero info or a non-finite X raises
    LinAlgError.
    """
    n, k = diag.size, np.shape(columns)[1]
    gamma = -diag[0]
    d = np.array(diag, dtype=float)
    d[0] -= gamma
    d[-1] -= upper[-1] * lower[0] / gamma
    cols = np.zeros((n, k + 1), order="F")
    cols[:, :k], cols[0, k], cols[-1, k] = columns, gamma, upper[-1]
    *_, sol, info = dgtsv(lower[1:], d, upper[:-1], cols)
    if info != 0 or not np.isfinite(sol).all():
        raise np.linalg.LinAlgError(f"tridiagonal solve failed (LAPACK dgtsv info={info})")
    row = sol[0] + lower[0] * sol[-1] / gamma
    row[k] = 1.0 + sol[0, k] + lower[0] * sol[-1, k] / gamma
    return sol, row


def _residual_reference(at_centers: FluxSamples, w: np.ndarray, deviation: np.ndarray,
              h: float) -> np.ndarray:
    """-D2 w + D1 f(w, .), with D2 applied to w's deviation from a constant."""
    g = at_centers.value(w)
    lap = (_next(deviation) - 2.0 * deviation + _prev(deviation)) / h**2
    return -lap + (_next(g) - _prev(g)) / (2.0 * h)


def _roundoff_floor_reference(scale: float, h: float) -> float:
    return 4.0 * np.finfo(float).eps * scale / h**2


def _bordered_solve_reference(fu: np.ndarray, h: float, rhs: np.ndarray, gap: float) -> tuple:
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
        sol, row = _cyclic_tridiagonal_reference(lower, diag, upper, columns)
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


def _bordered_newton_reference(at_centers: FluxSamples, p: float, w0, h: float):
    """Damped Newton on the bordered system (residual + lambda, mean constraint).

    w is the mean-free deviation from p on a grid of spacing h, and the flux
    is sampled at the cell centers.  d_u f(p + w, .) fixes the cyclic
    tridiagonal Jacobian J = -D2 + D1 diag(d_u f); each step solves the
    bordered system in O(n) (``_bordered_solve``).  Newton stops once the
    residual and the mean gap are within NEWTON_TOLERANCE plus the round-off
    floor 4 eps sup|w| / h^2.  Returns the converged values; raises
    StationarySolveError with the last residual.
    """
    w = np.array(w0, dtype=float)
    lam = 0.0

    def merit(wv, lv):
        base = _residual_reference(at_centers, p + wv, wv, h)
        gap = wv.mean()
        return base, gap, float(np.sqrt(np.sum((base + lv) ** 2) + gap**2))

    def floor():
        return _roundoff_floor_reference(float(np.abs(w).max()), h)

    def converged():
        return max(np.abs(base).max(), abs(gap)) <= NEWTON_TOLERANCE + floor()

    base, gap, f_now = merit(w, lam)
    for _ in range(NEWTON_MAX_ITERATIONS):
        if converged():
            return w
        delta_w, delta_lam = _bordered_solve_reference(at_centers.speed(p + w), h, -(base + lam), -gap)
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


def solve_stationary_reference(
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
    # Newton runs on the deviation d = w - p.  The Laplacian acts on d alone
    # (constants are in its kernel), so the 1/h^2 roundoff floor scales with
    # the profile's variation, not with |p|; storing w directly would cap the
    # reachable residual near ulp(|p|)/h^2, above tolerance on fine grids.
    d0 = np.zeros(grid.n_cells) if initial is None else np.asarray(initial, float) - p
    dev = _bordered_newton_reference(flux.sample(grid.centers()), p, d0, grid.h)
    return Profile(grid, p + dev)


def solve_dp_w_reference(flux: FluxModel, profile: Profile) -> Profile:
    """Derivative dw/dp of the stationary profile with respect to its mean.

    Solves the linearization of the cell problem about ``profile`` in bordered
    form; the result has unit cell average by construction and must be
    strictly positive (a nonpositive value flags an under-resolved grid and
    raises).
    """
    grid = profile.grid
    fu = flux.sample(grid.centers()).speed(profile.values)
    phi, _ = _bordered_solve_reference(fu, grid.h, np.zeros(grid.n_cells), 1.0)
    if phi.min() <= 0.0:
        raise StationarySolveError(
            f"mean-derivative profile is not positive (min {phi.min():.3e}); "
            "refine the grid"
        )
    return Profile(grid, phi)


def build_family_reference(flux: FluxModel, p_min: float, p_max: float, m_intervals: int,
                           grid: CellGrid) -> tuple:
    """(p_grid, profiles, dp_profiles, alpha) as ``convstab.build_family``
    walked the family before it was trimmed; ``build_family`` must match it
    byte for byte."""
    p_grid = np.linspace(float(p_min), float(p_max), m_intervals + 1)

    values = np.empty((p_grid.size, grid.n_cells))
    dp_values = np.empty_like(values)

    def advance(target_p, source: Profile, source_dp: Profile, depth=0) -> Profile:
        mean = float(source.values.mean())
        dp = target_p - mean
        guess = source.values + dp * source_dp.values
        try:
            return solve_stationary_reference(flux, target_p, grid, initial=guess)
        except StationarySolveError as exc:
            if depth >= 6:
                raise StationarySolveError(
                    f"continuation failed at p={target_p}: {exc}"
                ) from exc
            midway = advance(mean + 0.5 * dp, source, source_dp, depth + 1)
            midway_dp = solve_dp_w_reference(flux, midway)
            return advance(target_p, midway, midway_dp, depth + 1)

    current = solve_stationary_reference(flux, p_grid[0], grid)
    for j, p in enumerate(p_grid):
        if j > 0:
            current = advance(p, current, current_dp)
        current_dp = solve_dp_w_reference(flux, current)
        values[j], dp_values[j] = current.values, current_dp.values

    return p_grid, values, dp_values, float(dp_values.min())
