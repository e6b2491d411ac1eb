"""Entropy built on the stationary family: pi = p(u, x), eta, dispersion fits.

For each cell x_i the family's profile table gives a strictly increasing
column p -> w_p(x_i).  A monotone piecewise-cubic interpolant (PCHIP,
Fritsch & Carlson 1980) in p extends the column between knots; its
coefficients are computed here with the arithmetic of scipy's
``PchipInterpolator``, so they equal scipy's bit for bit.  Inverting it
defines pi(t, x) = p(u(t, x), x), and

    eta(u, x) = integral_0^{pi} (u - w_p(x)) dp

is the entropy density.  Because the interpolant is cubic on each p-interval,
eta is evaluated by integrating it exactly rather than by sampling: each cubic
Hermite piece integrates in closed form to h (y_k + y_{k+1}) / 2 +
h^2 (d_k - d_{k+1}) / 12, a running sum of those gives the integral at the
knots, and the cubic's antiderivative fills in between.  The result is the
exact integral of the same interpolant the inversion uses, so the two are
consistent to roundoff and eta inherits nonnegativity from its monotonicity.

The inversion brackets u between two knot profiles and solves the cubic on
that p-interval by Newton's method from the secant, with a sign bracket and
a midpoint fallback.  The cubic is evaluated about the knot nearer to u (both
forms come from the same knot values and slopes), so values next to a knot
profile, such as the zero member of a shifted family, come back with their
relative accuracy.  A cell stops at the round-off floor of its Horner
evaluation, 8 eps (sum_j |c_j| |s|^j + |u|), or once its step is at most
2^-60 of the interval width; no call runs more than 64 rounds.

The dissipation h sum dpw(pi_i, x_i) (D pi)_i^2 uses centered differences of
pi (wrap-around on periodic domains, one-sided end stencils otherwise).
``eta_field`` takes a ``FamilyInterpolant``, built once per family and reused
for every state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .evolution import State
from .grids import _next, _prev, _readonly
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
    """A state value falls outside the p-range the family covers."""


def _horner(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate per-cell polynomials (coefficient rows, highest first) at s."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * s + c
    return acc


def _pchip_end(h0, h1, m0, m1):
    """Moler's shape-preserving one-sided three-point slope at an end knot."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flipped = np.sign(d) != np.sign(m0)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flipped, 0.0, np.where(steep, 3.0 * m0, d))


def _pchip_slopes(p: np.ndarray, y: np.ndarray):
    """Interval widths, secants and knot slopes of the monotone PCHIP through
    the rows of y at knots p.

    Fritsch-Butland weighted harmonic-mean slopes inside (zero at flat runs
    and sign changes), Moler's three-point slopes at the ends.
    """
    hk = np.diff(p)[:, None]
    mk = (y[1:] - y[:-1]) / hk
    if y.shape[0] == 2:
        return hk, mk, np.concatenate([mk, mk])
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2))
    dk = np.concatenate([
        _pchip_end(hk[0], hk[1], mk[0], mk[1])[None],
        np.where(flat, 0.0, inner),
        _pchip_end(hk[-1], hk[-2], mk[-1], mk[-2])[None],
    ])
    return hk, mk, dk


def _hermite(h, m, d0, d1, y0, y1, right=False):
    """Cubic Hermite coefficient rows, highest power first, of the intervals
    of width h, secant m, end slopes d0, d1 and end values y0, y1: in
    s = p - p_j about the left knot, or where ``right`` (a flag or a mask) in
    s = p - p_{j+1} about the right knot, whose constant term is y1 itself."""
    t = (d0 + d1 - 2 * m) / h
    c2 = np.where(right, (d1 - m) / h + t, (m - d0) / h - t)
    return t / h, c2, np.where(right, d1, d0), np.where(right, y1, y0)


def _pchip_coefficients(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, len(p) - 1, n) cubic coefficients of the monotone PCHIP through the
    rows of y at knots p, highest power first in s = p - p_j.

    The arithmetic is that of
    ``scipy.interpolate.PchipInterpolator(p, y, axis=0).c``, bit for bit.
    """
    hk, mk, dk = _pchip_slopes(p, y)
    return np.stack(_hermite(hk, mk, dk[:-1], dk[1:], y[:-1], y[1:]))


def _knot_integrals(h, y, d) -> np.ndarray:
    """integral_{p_0}^{p_k} at every knot of the cubic Hermite interpolant with
    interval widths h, knot values y and knot slopes d, in closed form."""
    pieces = h * (y[:-1] + y[1:]) / 2 + h**2 * (d[:-1] - d[1:]) / 12
    return np.concatenate([np.zeros_like(y[:1]), np.cumsum(pieces, axis=0)])


def _rows_at(table: np.ndarray, at: np.ndarray) -> np.ndarray:
    """table[:, k, cells] of an (r, M, n) table, given the flat index of (k, cells)."""
    return np.take(table.reshape(table.shape[0], -1), at, axis=1)


@dataclass(frozen=True)
class FamilyInterpolant:
    """Monotone-in-p interpolant of a stationary family, per cell.

    Two PCHIPs over the family's p-knots, one for the profile table w_p(x_i)
    and one for the mean-derivative table, with the arithmetic of scipy's
    ``PchipInterpolator``.  The profile PCHIP is held as its knot values and
    slopes, and each evaluation forms the cubics of the cells it needs (bit
    for bit scipy's coefficients), so the inversion can take the same cubic
    about either knot.  One (9, M, n) table holds the profile cubic's
    antiderivative from p = 0 (rows 0-4, the constant row in closed form) and
    the mean-derivative cubic (rows 5-8), read at per-cell p -- every cell
    sits at its own pi -- with one interval search and one gather.
    """

    family: StationaryFamily

    def __post_init__(self):
        values, p = self.family.profiles, self.family.p_grid
        object.__setattr__(self, "_p", p)
        hk, mk, dk = _pchip_slopes(p, values)
        w_coeffs = np.stack(_hermite(hk, mk, dk[:-1], dk[1:], values[:-1], values[1:]))
        table = np.empty((9,) + w_coeffs.shape[1:])
        table[:4] = w_coeffs / np.array([4.0, 3.0, 2.0, 1.0])[:, None, None]
        # the constant row: integral_{p_min}^{p_k} w, less integral_{p_min}^0 w
        table[4] = _knot_integrals(hk, values, dk)[:-1]
        j, s = self._locate(0.0)
        table[4] -= _horner(table[:5, j], s)
        table[5:] = _pchip_coefficients(p, self.family.dp_profiles)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_w_slopes", dk)
        object.__setattr__(self, "_table", table)

    def _locate(self, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        j = np.clip(np.searchsorted(self._p, p, side="right") - 1, 0, self._p.size - 2)
        return j, p - self._p[j]

    def _flat(self, k, cells):
        """Flat index of (k, cells) in a table of n columns, (M + 1, n) or
        (M, n): a gather at it costs a fraction of one at [k, cells]."""
        return k * self._values.shape[1] + cells

    def _hermite_data(self, k, cells):
        """Width, secant, knot slopes and knot values of the profile PCHIP's
        interval k at each cell: the arguments of ``_hermite``."""
        n = self._values.shape[1]
        at = self._flat(k, cells)
        values, slopes = self._values.ravel(), self._w_slopes.ravel()
        y0, y1 = values[at], values[at + n]
        h = self._p[k + 1] - self._p[k]
        return h, (y1 - y0) / h, slopes[at], slopes[at + n], y0, y1

    def _integral_and_dp(self, p: np.ndarray, cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """integral_0^{p} w_q(x_i) dq, exact for the interpolant, and the
        mean-derivative table interpolated, at per-cell p values."""
        j, s = self._locate(p)
        rows = _rows_at(self._table, self._flat(j, cells))
        return _horner(rows[:5], s), _horner(rows[5:], s)

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
        c3, c2, c1, c0 = _hermite(*data, right)
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
        # origin + s may round past the far knot of the bracket
        return np.clip(origin + out, p_lo, p_hi)


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
    if state.grid.cell.n_cells != n_cells or not np.isclose(
        state.grid.cell.period, family.grid.period, rtol=1e-12, atol=0.0
    ):
        raise ValueError("state grid and family grid do not match")
    return np.arange(state.grid.n_total) % n_cells


def eta_field(interpolant: FamilyInterpolant, state: State) -> EntropyField:
    """Entropy field of a state against ``interpolant.family``: inversion,
    exact eta integral, dissipation.

    eta_i = u_i pi_i - integral_0^{pi_i} w_p(x_i) dp, with the integral taken
    exactly on the family interpolant.  Roundoff can leave eta a hair below
    zero near pi = 0; anything above -1e-12 (1 + pi^2) is clamped, anything
    below that raises, since it would mean the interpolant lost monotonicity.
    """
    cells = _cell_phase(state, interpolant.family)
    u = state.u
    pi = interpolant.invert(u, cells)

    integral, dpw = interpolant._integral_and_dp(pi, cells)
    eta = u * pi - integral
    floor = -1e-12 * (1.0 + pi**2)
    if np.any(eta < floor):
        worst = int(np.argmin(eta - floor))
        raise ValueError(
            f"eta = {float(eta[worst])!r} at cell {worst} is negative beyond roundoff"
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
    mask = (times >= t_lo - 1e-12) & (times <= t_hi + 1e-12) & ~np.isnan(dists)
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
