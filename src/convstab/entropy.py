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

One routine brackets u between two knot profiles, by a branchless binary
search down each cell's column, and forms that interval's cubic about the
knot nearer to u (both forms come from the same knot values and slopes), so
values next to a knot profile, such as the zero member of a shifted family,
come back with their relative accuracy.  It solves the cubic
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
for every state.  The interpolant keeps the solve's work arrays, one set per
line length, and every call overwrites them in place, so a call allocates
little beyond its fresh results and the heap is not handed back and faulted
in again between snapshots.  So one interpolant must not be shared by two
threads.
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


class _Workspace:
    """The work arrays of ``FamilyInterpolant._solve`` and ``eta_field`` for
    one line length: float rows, index rows and mask rows, allocated once and
    overwritten by every call, and the family cell of each line position."""

    def __init__(self, size: int, n_cells: int):
        self.rows = np.empty((14, size))
        self.index = np.empty((3, size), dtype=np.intp)
        self.masks = np.empty((4, size), dtype=bool)
        self.phase = np.arange(size) % n_cells
        self.phase.setflags(write=False)


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

    The bracket search reads a copy of the table padded with +inf rows to
    2^j rows when M is not a power of two.  The work arrays of ``_solve``
    and ``eta_field`` are kept per line length (``_Workspace``) and reused
    by every call, which is why an interpolant is not thread-safe; every
    array a call returns is fresh.
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
        object.__setattr__(self, "_widths", hk.ravel())
        # the bracket's search reads rows 0 .. 2^j - 1 for the least 2^j >= M:
        # rows 0 .. M - 1 of the table, then +inf rows, which no u reaches
        m, n = hk.size, values.shape[1]
        depth = (m - 1).bit_length()
        search = values.ravel()
        if 1 << depth > m:
            search = np.concatenate([search[:m * n], np.full(((1 << depth) - m) * n, np.inf)])
        object.__setattr__(self, "_search", search)
        object.__setattr__(self, "_search_steps", [n << i for i in reversed(range(depth))])
        object.__setattr__(self, "_workspaces", {})

    def _locate(self, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        j = np.clip(np.searchsorted(self._p, p, side="right") - 1, 0, self._p.size - 2)
        return j, p - self._p[j]

    def _hermite_data(self, k, cells):
        """Width, secant, knot slopes and knot values of the interpolant's
        interval k at each cell: the arguments of ``_hermite``."""
        n = self._values.shape[1]
        # a gather at the flat index k n + cell costs a fraction of one at [k, cells]
        at = k * n + cells
        values, slopes = self._values.ravel(), self.family.dp_profiles.ravel()
        y0, y1 = values[at], values[at + n]
        h = self._p[k + 1] - self._p[k]
        return h, (y1 - y0) / h, slopes[at], slopes[at + n], y0, y1

    def _workspace(self, size: int) -> _Workspace:
        workspace = self._workspaces.get(size)
        if workspace is None:
            workspace = self._workspaces[size] = _Workspace(size, self._values.shape[1])
        return workspace

    def invert(self, u, cells) -> np.ndarray:
        """Per-cell inverse pi with w_pi(x_i) = u_i, by safeguarded Newton.

        The knot bracket [p_k, p_{k+1}] comes from a branchless binary search
        down each cell's column of the family table, so no (M+1) x len(u)
        table is gathered.  On it the cubic is evaluated about the knot nearer
        to u in value (the right-knot form has q(p_{k+1}) = values[k + 1]
        exactly), so a value next to a knot profile, such as the zero member
        of a shifted family, keeps its relative accuracy.  Newton starts from
        the secant between the two knot values and keeps a sign bracket; a
        step that would leave the bracket is replaced by the bracket's
        midpoint.  A cell stops, and is frozen, once |q - u| <= 8 eps
        (sum_j |c_j| |s|^j + |u|), the round-off floor of its Horner
        evaluation, or once its step is at most 2^-60 of the interval width;
        no call runs more than 64 rounds.  Values matching a knot profile
        exactly return the knot's p exactly.  Values outside the family's
        bracket at their cell raise FamilyRangeError (a relative slack of
        1e-10 absorbs roundoff by clamping to the end knot).
        """
        return self._solve(u, cells)[0]

    def _solve(self, u, cells) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``invert``'s pi, with integral_0^{pi} w_q(x_i) dq and dw/dp at pi,
        both read from the cubic the inversion solved: the knot integral plus
        its antiderivative from the knot to pi, and its derivative at pi.

        The three results are fresh arrays.  The work arrays are the rows of
        the workspace of u's length, written by ``out=`` ufuncs; only the
        Newton rounds after the first, which run on the cells still live,
        allocate theirs."""
        u = np.asarray(u, dtype=float).reshape(-1)
        cells = np.asarray(cells, dtype=int).reshape(-1)
        n = self._values.shape[1]
        if cells.size and (cells.min() < 0 or cells.max() >= n):
            raise IndexError(f"cell indices must lie in [0, {n})")
        if cells.size != u.size:
            raise ValueError("cells and u arrays must have matching size")
        ws = self._workspace(u.size)
        t0, t1, t2, t3, uc, c3, c2, c1, c0, s, lo, hi, tol, out = ws.rows
        at, idx, k = ws.index
        right, m0, m1, m2 = ws.masks

        lo_vals = self._values[0].take(cells, out=t0, mode="clip")
        hi_vals = self._values[-1].take(cells, out=t1, mode="clip")
        slack = np.abs(u, out=t2)
        slack += 1.0
        slack *= 1e-10
        np.less(u, np.subtract(lo_vals, slack, out=t3), out=m0)
        np.greater(u, np.add(hi_vals, slack, out=t3), out=m1)
        if m0.any() or m1.any():
            bad = int(np.argmax(m0 | m1))
            raise FamilyRangeError(
                f"value {float(u[bad])!r} at cell {int(cells[bad])} is outside the "
                f"family range [{float(lo_vals[bad])!r}, {float(hi_vals[bad])!r}]; "
                "build the family over a wider p interval"
            )
        np.clip(u, lo_vals, hi_vals, out=uc)

        # at = k n + cell for the largest k <= M - 1 with values[k, cell] <= u
        # (columns increase strictly, and u >= values[0, cell] once clipped)
        np.copyto(at, cells)
        for step in self._search_steps:
            np.less_equal(self._search.take(np.add(at, step, out=idx), out=t0, mode="clip"),
                          uc, out=m0)
            at += np.multiply(m0, step, out=idx)
        np.floor_divide(at, n, out=k)

        # interval k's Hermite data, as ``_hermite_data`` reads it, and its
        # cubic about the knot nearer to u, as ``_hermite`` forms it
        values, slopes = self._values.ravel(), self.family.dp_profiles.ravel()
        np.add(at, n, out=idx)
        y0, y1 = values.take(at, out=lo, mode="clip"), values.take(idx, out=hi, mode="clip")
        d0, d1 = slopes.take(at, out=c1, mode="clip"), slopes.take(idx, out=t0, mode="clip")
        width = self._widths.take(k, out=tol, mode="clip")
        secant = np.divide(np.subtract(y1, y0, out=s), width, out=s)
        np.less(np.subtract(y1, uc, out=t1), np.subtract(uc, y0, out=t2), out=right)
        at += np.multiply(right, n, out=idx)
        t = np.add(d0, d1, out=t1)
        t -= np.add(secant, secant, out=t2)
        t /= width
        np.divide(t, width, out=c3)
        np.subtract(d1, secant, out=c2)
        c2 /= width
        c2 += t
        about_left = np.subtract(secant, d0, out=t2)
        about_left /= width
        about_left -= t
        np.copyto(c2, about_left, where=np.logical_not(right, out=m0))
        slopes.take(at, out=c1, mode="clip")
        values.take(at, out=c0, mode="clip")
        # s = p - origin on [lo, hi]; at u equal to a knot value s stays 0
        np.divide(np.subtract(uc, c0, out=t1), secant, out=s)
        lo.fill(0.0)
        np.negative(width, out=lo, where=right)
        np.copyto(hi, width)
        np.copyto(hi, 0.0, where=right)
        tol *= 2.0**-60

        # the first round runs on the workspace rows and writes its step into
        # out; later rounds run on the live cells, taken out of the last
        # round's arrays, and write theirs into the spent row of s
        cubic, spent = (c3, c2, c1, c0), s
        live = None
        eps8 = 8.0 * np.finfo(float).eps
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(64):
                size = s.size
                r, a, env, tmp = t0[:size], t1[:size], t2[:size], t3[:size]
                settled, mask, other = m0[:size], m1[:size], m2[:size]
                nxt = out if live is None else spent[:size]
                # r = ((c3 s + c2) s + c1) s + c0 - u
                np.multiply(c3, s, out=r)
                r += c2
                r *= s
                r += c1
                r *= s
                r += c0
                r -= uc
                # settled: |r| <= 8 eps (((|c3| a + |c2|) a + |c1|) a + |c0| + |u|)
                np.abs(s, out=a)
                np.multiply(np.abs(c3, out=env), a, out=env)
                env += np.abs(c2, out=tmp)
                env *= a
                env += np.abs(c1, out=tmp)
                env *= a
                env += np.abs(c0, out=tmp)
                env += np.abs(uc, out=tmp)
                env *= eps8
                np.less_equal(np.abs(r, out=a), env, out=settled)
                np.copyto(lo, s, where=np.less(r, 0.0, out=mask))
                np.copyto(hi, s, where=np.greater(r, 0.0, out=mask))
                # nxt = s - r / ((3 c3 s + 2 c2) s + c1), kept inside [lo, hi]
                slope = np.multiply(c3, 3.0, out=a)
                slope *= s
                slope += np.multiply(c2, 2.0, out=env)
                slope *= s
                slope += c1
                np.subtract(s, np.divide(r, slope, out=slope), out=nxt)
                np.greater_equal(nxt, lo, out=mask)
                mask &= np.less_equal(nxt, hi, out=other)
                midpoint = np.add(lo, hi, out=tmp)
                midpoint *= 0.5
                np.copyto(nxt, midpoint, where=np.logical_not(mask, out=mask))
                np.copyto(nxt, s, where=settled)
                if live is not None:
                    out[live] = nxt
                # go on where neither settled nor |nxt - s| <= tol
                np.less_equal(np.abs(np.subtract(nxt, s, out=tmp), out=tmp), tol, out=mask)
                mask |= settled
                go = np.flatnonzero(np.logical_not(mask, out=mask))
                if not go.size:
                    break
                live = go if live is None else live.take(go)
                s, lo, hi, uc, tol = (x.take(go) for x in (nxt, lo, hi, uc, tol))
                c3, c2, c1, c0 = (x.take(go) for x in (c3, c2, c1, c0))

        c3, c2, c1, c0 = cubic
        knot = self._integrals.ravel().take(at, out=t0, mode="clip")
        # dw/dp = (3 c3 out + 2 c2) out + c1
        slope = np.multiply(c3, 3.0, out=t1)
        slope *= out
        slope += np.multiply(c2, 2.0, out=t2)
        slope *= out
        dpw = np.add(slope, c1)
        # _antiderivative(c3, c2, c1, c0, out), term by term
        anti = np.divide(c3, 4.0, out=t1)
        anti *= out
        anti += np.divide(c2, 3.0, out=t2)
        anti *= out
        anti += np.divide(c1, 2.0, out=t2)
        anti *= out
        anti += c0
        anti *= out
        integral = np.add(knot, anti)
        # origin + s may round past the far knot of the bracket
        origin = self._p.take(np.add(k, right, out=idx), out=t0, mode="clip")
        origin += out
        p_lo = self._p.take(k, out=t1, mode="clip")
        p_hi = self._p.take(np.add(k, 1, out=idx), out=t2, mode="clip")
        return np.clip(origin, p_lo, p_hi), integral, dpw


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


def _cell_phase(state: State, interpolant: FamilyInterpolant) -> np.ndarray:
    """The family cell of each line position, cached per line length."""
    grid = interpolant.family.grid
    if (state.grid.cell.n_cells != grid.n_cells
            or not same_period(state.grid.cell.period, grid.period)):
        raise ValueError("state grid and family grid do not match")
    return interpolant._workspace(state.grid.n_total).phase


def eta_field(interpolant: FamilyInterpolant, state: State) -> EntropyField:
    """Entropy field of a state against ``interpolant.family``: inversion,
    exact eta integral, dissipation.

    eta_i = u_i pi_i - integral_0^{pi_i} w_p(x_i) dp, with the integral taken
    exactly on the family interpolant.  Roundoff can leave eta a hair below
    zero near pi = 0; anything above -1e-12 (1 + pi^2) is clamped, anything
    below that raises FamilyRangeError, since it would mean the interpolant
    lost monotonicity.

    pi and eta are fresh arrays; the work arrays are the interpolant's, so
    two threads must not share one interpolant.
    """
    cells = _cell_phase(state, interpolant)
    u = state.u
    pi, eta, dpw = interpolant._solve(u, cells)
    t0, t1 = interpolant._workspace(u.size).rows[:2]
    # eta = u pi - integral, in the integral's own array
    np.subtract(np.multiply(u, pi, out=t0), eta, out=eta)
    floor = np.square(pi, out=t1)
    floor += 1.0
    floor *= -1e-12
    if np.any(eta < floor):
        worst = int(np.argmin(eta - floor))
        raise FamilyRangeError(
            f"eta = {float(eta[worst])!r} at cell {int(cells[worst])} is negative beyond "
            f"roundoff (line position {worst}): the family interpolant is not monotone there"
        )
    np.maximum(eta, 0.0, out=eta)

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
