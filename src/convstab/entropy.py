"""Entropy built on the stationary family: pi = p(u, x), eta, dispersion fits.

For each cell x_i the family's profile table gives a strictly increasing
column p -> w_p(x_i), and its mean-derivative table the exact slope dw/dp at
each knot.  The cubic Hermite interpolant with those knot values and slopes
extends the column between knots; its coefficients equal those of scipy's
``CubicHermiteSpline`` bit for bit, and it is monotone where every knot slope
is at most 3 times the secants next to it (Fritsch & Carlson 1980), which
``FamilyInterpolant`` checks once.  Inverting it defines
pi(t, x) = p(u(t, x), x), and

    eta(u, x) = integral_0^{pi} (u - w_p(x)) dp

is the entropy density.

One routine brackets u between two knot profiles and forms that interval's
cubic about the knot nearer to u (both forms come from the same knot values
and slopes), so values next to a knot profile, such as the zero member of a
shifted family, come back with their relative accuracy.  It solves the cubic
by Newton's method from the secant, with a sign bracket and a midpoint
fallback.  A cell stops at the round-off floor of its Horner evaluation,
8 eps (sum_j |c_j| |s|^j + |u|), or once its step is at most 2^-60 of the
interval width; no call runs more than 64 rounds.  The same cubic then gives
the rest: integral_0^{pi} w is the integral at that knot plus the cubic's
antiderivative from the knot to pi, and dw/dp is its derivative at pi.  Each
cubic Hermite piece integrates in closed form to h (y_k + y_{k+1}) / 2 +
h^2 (d_k - d_{k+1}) / 12, and a running sum of those, less its value at
p = 0, gives the integral at every knot.  So eta is the exact integral of the
interpolant the inversion solves, consistent with it to roundoff, and next to
the zero member it keeps its relative accuracy too.

The dissipation h sum dpw(pi_i, x_i) (D pi)_i^2 uses centered differences of
pi (wrap-around on periodic domains, one-sided end stencils otherwise).
``eta_field`` takes a ``FamilyInterpolant``, built once per family and reused
for every state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .evolution import TIME_SLACK, State
from .grids import _next, _prev, _readonly, same_period
from .stationary import StationaryFamily

__all__ = [
    "DispersionFit",
    "EntropyField",
    "FamilyInterpolant",
    "FamilyRangeError",
    "dispersion_fit",
    "eta_field",
    "nash_ratio",
]


class FamilyRangeError(ValueError):
    """A state value falls outside the p-range the family covers, or the
    family's knot slopes leave the range where its Hermite cubics in p are
    monotone (``FamilyInterpolant``)."""


# Fritsch & Carlson (1980): a cubic Hermite piece with secant m > 0 is
# monotone when both end slopes lie in [0, 3 m]
SLOPE_RATIO_LIMIT = 3.0


def _hermite(h, m, d0, d1, y0, y1, right=False):
    """Cubic Hermite coefficient rows, highest power first, of the intervals
    of width h, secant m, end slopes d0, d1 and end values y0, y1: in
    s = p - p_j about the left knot, or where ``right`` (a flag or a mask) in
    s = p - p_{j+1} about the right knot, whose constant term is y1 itself."""
    t = (d0 + d1 - 2 * m) / h
    c2 = np.where(right, (d1 - m) / h + t, (m - d0) / h - t)
    return t / h, c2, np.where(right, d1, d0), np.where(right, y1, y0)


def _knot_integrals(h, y, d) -> np.ndarray:
    """integral_{p_0}^{p_k} at every knot of the cubic Hermite interpolant with
    interval widths h, knot values y and knot slopes d, in closed form."""
    pieces = h * (y[:-1] + y[1:]) / 2 + h**2 * (d[:-1] - d[1:]) / 12
    return np.concatenate([np.zeros_like(y[:1]), np.cumsum(pieces, axis=0)])


def _antiderivative(c3, c2, c1, c0, s):
    """integral_0^s of the cubic ((c3 s + c2) s + c1) s + c0."""
    return (((c3 / 4.0 * s + c2 / 3.0) * s + c1 / 2.0) * s + c0) * s


@dataclass(frozen=True)
class FamilyInterpolant:
    """Monotone-in-p interpolant of a stationary family, per cell.

    One cubic Hermite interpolant over the family's p-knots: its knot values
    are the profile table w_p(x_i) and its knot slopes the family's own
    mean-derivative table dw/dp, so dw/dp between knots is the derivative of
    the cubic the inversion solves.  Its coefficients are those of scipy's
    ``CubicHermiteSpline(p_grid, profiles, dp_profiles)`` bit for bit.  The
    cubic is held as its knot values and slopes, and each evaluation forms
    the cubics of the cells it needs, about either knot.  One (M + 1, n)
    table holds integral_0^{p_k} w at every knot, in closed form; the
    integral to any pi adds the antiderivative of the cubic the inversion
    solved, from its knot to pi.

    Each piece is monotone when both end slopes are at most
    ``SLOPE_RATIO_LIMIT`` = 3 times its secant (Fritsch & Carlson 1980), so a
    family with a knot slope outside that box at some cell raises
    FamilyRangeError here.
    """

    family: StationaryFamily

    def __post_init__(self):
        values, slopes, p = self.family.profiles, self.family.dp_profiles, self.family.p_grid
        object.__setattr__(self, "_p", p)
        object.__setattr__(self, "_values", values)
        hk = np.diff(p)[:, None]
        # slopes are positive, so a ratio <= 0 is a column that does not increase
        with np.errstate(divide="ignore"):
            ratio = np.maximum(slopes[:-1], slopes[1:]) / (np.diff(values, axis=0) / hk)
        outside = ~((ratio > 0) & (ratio <= SLOPE_RATIO_LIMIT))
        if outside.any():
            k, cell = np.unravel_index(np.argmax(np.where(outside, np.abs(ratio), -1.0)),
                                       ratio.shape)
            raise FamilyRangeError(
                f"knot slope / secant ratio {float(ratio[k, cell])!r} at cell {int(cell)}, "
                f"interval {int(k)} (p in [{float(p[k])!r}, {float(p[k + 1])!r}]) is outside "
                f"(0, {SLOPE_RATIO_LIMIT:g}], where the Hermite cubic is monotone; "
                "build the family with a larger family.M"
            )
        # integral_{p_min}^{p_k} w, less integral_{p_min}^0 w (exactly 0 at a knot p = 0)
        integrals = _knot_integrals(hk, values, slopes)
        j, s = self._locate(0.0)
        integrals -= integrals[j] + _antiderivative(
            *_hermite(*self._hermite_data(j, np.arange(values.shape[1]))), s)
        object.__setattr__(self, "_integrals", integrals)

    def _locate(self, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        j = np.clip(np.searchsorted(self._p, p, side="right") - 1, 0, self._p.size - 2)
        return j, p - self._p[j]

    def _flat(self, k, cells):
        """Flat index of (k, cells) in an (M + 1, n) table: a gather at it
        costs a fraction of one at [k, cells]."""
        return k * self._values.shape[1] + cells

    def _hermite_data(self, k, cells):
        """Width, secant, knot slopes and knot values of the interpolant's
        interval k at each cell: the arguments of ``_hermite``."""
        n = self._values.shape[1]
        at = self._flat(k, cells)
        values, slopes = self._values.ravel(), self.family.dp_profiles.ravel()
        y0, y1 = values[at], values[at + n]
        h = self._p[k + 1] - self._p[k]
        return h, (y1 - y0) / h, slopes[at], slopes[at + n], y0, y1

    def _bracket(self, u: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Per cell, the largest k <= M - 1 with values[k, cell] <= u, by
        binary search down the cell's column (columns increase strictly, and
        u >= values[0, cell] once clipped)."""
        lo = np.zeros(u.size, dtype=int)
        hi = np.full(u.size, self._p.size - 1)
        values = self._values.ravel()
        for _ in range((self._p.size - 2).bit_length()):
            mid = (lo + hi) // 2
            right = values[self._flat(mid, cells)] <= u
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        return lo

    def invert(self, u, cells) -> np.ndarray:
        """Per-cell inverse pi with w_pi(x_i) = u_i, by safeguarded Newton.

        The knot bracket [p_k, p_{k+1}] comes from a binary search down each
        cell's column of the family table, so no (M+1) x len(u) table is
        gathered.  On it the cubic is evaluated about the knot nearer to u in
        value (the right-knot form has q(p_{k+1}) = values[k + 1] exactly), so
        a value next to a knot profile, such as the zero member of a shifted
        family, keeps its relative accuracy.  Newton starts from the secant
        between the two knot values and keeps a sign bracket; a step that
        would leave the bracket is replaced by the bracket's midpoint.  A cell
        stops, and is frozen, once |q - u| <= 8 eps (sum_j |c_j| |s|^j + |u|),
        the round-off floor of its Horner evaluation, or once its step is at
        most 2^-60 of the interval width; no call runs more than 64 rounds.
        Values matching a knot profile exactly return the knot's p exactly.
        Values outside the family's bracket at their cell raise
        FamilyRangeError (a relative slack of 1e-10 absorbs roundoff by
        clamping to the end knot).
        """
        return self._solve(u, cells)[0]

    def _solve(self, u, cells) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``invert``'s pi, with integral_0^{pi} w_q(x_i) dq and dw/dp at pi,
        both read from the cubic the inversion solved: the knot integral plus
        its antiderivative from the knot to pi, and its derivative at pi."""
        u = np.asarray(u, dtype=float)
        cells = np.asarray(cells, dtype=int)
        n = self._values.shape[1]
        if np.any(cells < 0) or np.any(cells >= n):
            raise IndexError(f"cell indices must lie in [0, {n})")
        if cells.size != u.size:
            raise ValueError("cells and u arrays must have matching size")
        lo_vals, hi_vals = self._values[0, cells], self._values[-1, cells]
        slack = 1e-10 * (1.0 + np.abs(u))
        below = u < lo_vals - slack
        above = u > hi_vals + slack
        if np.any(below) or np.any(above):
            bad = int(np.argmax(below | above))
            raise FamilyRangeError(
                f"value {float(u[bad])!r} at cell {int(cells[bad])} is outside the "
                f"family range [{float(lo_vals[bad])!r}, {float(hi_vals[bad])!r}]; "
                "build the family over a wider p interval"
            )
        u = np.clip(u, lo_vals, hi_vals)

        k = self._bracket(u, cells)
        data = self._hermite_data(k, cells)
        width, secant, _, _, y_lo, y_hi = data
        right = y_hi - u < u - y_lo
        cubic = _hermite(*data, right)
        c3, c2, c1, c0 = cubic
        # s = p - origin on [lo, hi]; at u equal to a knot value s stays 0
        p_lo, p_hi = self._p[k], self._p[k + 1]
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
        knot = self._integrals.ravel()[self._flat(k + right, cells)]
        dpw = (3.0 * cubic[0] * out + 2.0 * cubic[1]) * out + cubic[2]
        # origin + s may round past the far knot of the bracket
        return np.clip(origin + out, p_lo, p_hi), knot + _antiderivative(*cubic, out), dpw


@dataclass(frozen=True)
class EntropyField:
    """pi, eta and their aggregates for one state against one family.  pi and
    eta are held read-only: an array that is not a read-only float64 array
    owning its data is copied."""

    pi: np.ndarray
    eta: np.ndarray
    total_eta: float
    dissipation: float

    def __post_init__(self):
        for name in ("pi", "eta"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if self.eta.size and float(self.eta.min()) < 0:
            raise ValueError(f"eta must be nonnegative, got min {float(self.eta.min())!r}")


def _cell_phase(state: State, family: StationaryFamily) -> np.ndarray:
    n_cells = family.grid.n_cells
    if (state.grid.cell.n_cells != n_cells
            or not same_period(state.grid.cell.period, family.grid.period)):
        raise ValueError("state grid and family grid do not match")
    return np.arange(state.grid.n_total) % n_cells


def eta_field(interpolant: FamilyInterpolant, state: State) -> EntropyField:
    """Entropy field of a state against ``interpolant.family``: inversion,
    exact eta integral, dissipation.

    eta_i = u_i pi_i - integral_0^{pi_i} w_p(x_i) dp, with the integral taken
    exactly on the family interpolant.  Roundoff can leave eta a hair below
    zero near pi = 0; anything above -1e-12 (1 + pi^2) is clamped, anything
    below that raises FamilyRangeError, since it would mean the interpolant
    lost monotonicity.
    """
    cells = _cell_phase(state, interpolant.family)
    u = state.u
    pi, integral, dpw = interpolant._solve(u, cells)
    eta = u * pi - integral
    floor = -1e-12 * (1.0 + pi**2)
    if np.any(eta < floor):
        worst = int(np.argmin(eta - floor))
        raise FamilyRangeError(
            f"eta = {float(eta[worst])!r} at cell {int(cells[worst])} is negative beyond "
            f"roundoff (line position {worst}): the family interpolant is not monotone there"
        )
    eta = np.maximum(eta, 0.0)

    h = state.grid.h
    if state.grid.boundary_mode == "periodic":
        dpi = (_next(pi) - _prev(pi)) / (2.0 * h)
    else:
        dpi = np.gradient(pi, h)
    dissipation = float(h * np.sum(dpw * dpi**2))
    total = float(h * eta.sum())
    # fresh arrays, handed over read-only so EntropyField keeps them uncopied
    pi.setflags(write=False)
    eta.setflags(write=False)
    return EntropyField(pi=pi, eta=eta, total_eta=total, dissipation=dissipation)


@dataclass(frozen=True)
class DispersionFit:
    """Log-log OLS fit of an L2-distance decay over a time window."""

    window: Tuple[float, float]
    exponent: float
    constant: float
    r_squared: float
    converged: bool = False


def dispersion_fit(diagnostics, window: Tuple[float, float]) -> DispersionFit:
    """OLS fit of log l2_dist against log t inside the window.

    Needs at least 8 recorded snapshots in the window and t_lo > 0.  If any
    recorded distance in the window is nonpositive the run has already hit
    the stationary profile to working precision; that is reported with
    converged=True and NaN fit fields rather than as an error.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not 0 < t_lo < t_hi:
        raise ValueError(f"window must satisfy 0 < t_lo < t_hi, got {window}")
    times = diagnostics.column("t")
    dists = diagnostics.column("l2_dist")
    mask = (times >= t_lo - TIME_SLACK) & (times <= t_hi + TIME_SLACK) & ~np.isnan(dists)
    if mask.sum() < 8:
        raise ValueError(
            f"dispersion fit needs >= 8 snapshots in [{t_lo}, {t_hi}], "
            f"found {int(mask.sum())}"
        )
    t = times[mask]
    d = dists[mask]
    if np.any(d <= 0):
        return DispersionFit(
            window=(t_lo, t_hi),
            exponent=float("nan"),
            constant=float("nan"),
            r_squared=float("nan"),
            converged=True,
        )
    slope, intercept = np.polyfit(np.log(t), np.log(d), 1)
    fitted = slope * np.log(t) + intercept
    ss_res = float(np.sum((np.log(d) - fitted) ** 2))
    ss_tot = float(np.sum((np.log(d) - np.log(d).mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DispersionFit(
        window=(t_lo, t_hi),
        exponent=float(slope),
        constant=float(np.exp(intercept)),
        r_squared=r2,
    )


def nash_ratio(pi: np.ndarray, h: float) -> float:
    """|pi|_2 / (|pi|_1^(2/3) |dx pi|_2^(1/3)), the d = 1 Nash quotient.

    Interior derivatives are centered; the end stencils are one-sided, which
    perturbs the ratio at O(h^2).  A zero denominator means pi is constant
    (or identically zero) and the run has converged; that is signalled with
    +inf rather than an error.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1 or pi.size < 3:
        raise ValueError("nash_ratio needs a 1-d field with >= 3 samples")
    theta_nash = 1.0 / 3.0
    l2 = np.sqrt(h * np.sum(pi**2))
    l1 = h * np.sum(np.abs(pi))
    grad = np.gradient(pi, h)
    g2 = np.sqrt(h * np.sum(grad**2))
    denominator = l1 ** (1.0 - theta_nash) * g2**theta_nash
    if denominator == 0.0:
        return float("inf")
    return float(l2 / denominator)
