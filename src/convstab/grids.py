"""Cell-centered grids, quadrature and elementary discrete calculus.

Everything downstream (stationary solves, time stepping, diagnostics) works on
midpoint samples: one spatial period of length ``period`` is split into
``n_cells`` cells with nodes at the cell centers x_i = (i + 1/2) h, and the
computational line domain is an integer number of periods so that periodic
profiles restrict to it exactly.  Midpoint quadrature keeps the discrete mass
bookkeeping of the finite-volume scheme exact, which the conservation and
contraction checks rely on.

The module also holds the periodic helpers the other modules share:
wrap-around shifts; one banded solver per kind of matrix, the cyclic
tridiagonal LAPACK dgtsv solve for varying coefficients (the stationary
Newton) and the factor-free dpttrs solve for constant ones (the diffusion
step and the spline); and the periodic cubic spline.

The two LAPACK routines come from ``scipy.linalg._flapack``, the extension
that ``scipy.linalg.lapack`` re-exports, loaded by itself: importing it
through ``scipy.linalg`` would run that package's init, 74 more scipy modules
and about 24 MiB, for two routines.  CPython caches an extension by name and
file, so a later ``import scipy.linalg`` hands out these same function
objects, and every solve is scipy's own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Callable, Literal

import numpy as np
import scipy

__all__ = [
    "BoundaryMode",
    "CellGrid",
    "LineGrid",
    "NormKind",
    "Profile",
    "norm",
    "primitive",
]

NormKind = Literal["L1", "L2", "Linf"]

# "pinned_to_wp" holds ghost cells at zero in the normalized variables, i.e. at
# the stationary profile w_p (the domain is a truncation of the line,
# perturbations must stay away from the edges); "periodic" wraps the domain
# into a torus of n_periods periods.
BoundaryMode = Literal["pinned_to_wp", "periodic"]


_EPS = np.finfo(float).eps


def _load_flapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded without
    running the ``scipy.linalg`` package init."""
    name, where = "scipy.linalg._flapack", os.path.join(scipy.__path__[0], "linalg")
    spec = PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"cannot find {name} in {where}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgtsv, dpttrs = _flapack.dgtsv, _flapack.dpttrs


def _readonly(values) -> np.ndarray:
    """values as read-only float64: a read-only float64 ndarray that owns its
    data is kept, anything else is copied, so a caller's array is never
    aliased."""
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable):
        return values
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def same_period(period: float, reference: float) -> bool:
    """Whether ``period`` agrees with ``reference`` to the relative bound
    1e-14: the one rule by which two cell grids, or a cell grid and a flux,
    share a period."""
    return abs(period - reference) <= 1e-14 * abs(reference)


@dataclass(frozen=True)
class CellGrid:
    """One spatial period split into uniform cells, nodes at cell centers."""

    n_cells: int
    period: float

    def __post_init__(self):
        if int(self.n_cells) != self.n_cells or self.n_cells < 8:
            raise ValueError(f"n_cells must be an integer >= 8, got {self.n_cells}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def h(self) -> float:
        return self.period / self.n_cells

    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h


@dataclass(frozen=True)
class Profile:
    """A periodic function sampled at the cell centers of one period.

    The dataclass is frozen and ``values`` is marked read-only.
    """

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values)
        if values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"profile has {values.shape} values for a grid of "
                f"{self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class LineGrid:
    """An integer number of periods laid side by side.

    The domain is [0, n_periods * period] with the same cell size as ``cell``,
    so a periodic profile tiles onto it without interpolation.
    """

    cell: CellGrid
    n_periods: int
    boundary_mode: BoundaryMode

    def __post_init__(self):
        if int(self.n_periods) != self.n_periods or self.n_periods < 1:
            raise ValueError(
                f"n_periods must be a positive integer, got {self.n_periods}"
            )
        object.__setattr__(self, "n_periods", int(self.n_periods))
        if self.boundary_mode not in ("pinned_to_wp", "periodic"):
            raise ValueError(f"unknown boundary_mode {self.boundary_mode!r}")

    @property
    def h(self) -> float:
        return self.cell.h

    @property
    def n_total(self) -> int:
        return self.cell.n_cells * self.n_periods

    @property
    def length(self) -> float:
        return self.cell.period * self.n_periods

    def centers(self) -> np.ndarray:
        return (np.arange(self.n_total) + 0.5) * self.h

    def interfaces(self) -> np.ndarray:
        return np.arange(self.n_total + 1) * self.h

    def tile(self, profile: Profile) -> np.ndarray:
        """Tile a one-period profile over the whole line domain (exact copy)."""
        if (profile.grid.n_cells != self.cell.n_cells
                or not same_period(profile.grid.period, self.cell.period)):
            raise ValueError("profile grid does not match the line's cell grid")
        return np.tile(profile.values, self.n_periods)


def norm(values: np.ndarray, h: float, kind: NormKind) -> float:
    """Discrete norm of midpoint samples: L1 = h*sum|v|, L2 = sqrt(h*sum v^2),
    Linf = max|v|."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("norm of an empty sample array is undefined")
    if kind == "L1":
        return float(h * np.abs(values).sum())
    if kind == "L2":
        return float(np.sqrt(h * np.square(values).sum()))
    if kind == "Linf":
        return float(np.abs(values).max())
    raise ValueError(f"unknown norm kind {kind!r}")


def primitive(u: np.ndarray, h: float) -> np.ndarray:
    """Running integral V_i = h * sum_{j<=i} u_j (zero inflow at the left edge).

    The forward difference (V_i - V_{i-1})/h recovers u exactly in floating
    point, which the diagnostics rely on when reconstructing perturbations
    from their primitives.
    """
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        raise ValueError("primitive of an empty sample array is undefined")
    return h * np.cumsum(u)


def _prev(a: np.ndarray) -> np.ndarray:
    """a[..., i - 1] with periodic wrap along the last axis (np.roll(a, 1,
    axis=-1), without the index bookkeeping np.roll makes)."""
    return np.concatenate((a[..., -1:], a[..., :-1]), axis=-1)


def _next(a: np.ndarray) -> np.ndarray:
    """a[..., i + 1] with periodic wrap along the last axis (np.roll(a, -1,
    axis=-1))."""
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _cyclic_solve(dl, d, du, first, last, block) -> tuple:
    """Sherman-Morrison pieces of the cyclic tridiagonal A whose row i reads
    lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1], indices mod n.

    The operands are as dgtsv reads them: the float64 sub-, main and
    super-diagonals dl = lower[1:], d = diag and du = upper[:-1], the corners
    first = lower[0] and last = upper[-1], and block, a Fortran-ordered
    float64 (n, k + 1) array holding k columns and a zero last column.
    With g = -diag[0], A = T + u v^T for u = (g, 0, ..., last) and
    v = (1, 0, ..., first / g); T, the tridiagonal part with diag[0] - g and
    diag[-1] - last first / g, must be invertible, A need not be.
    Returns X = T^-1 [columns, u] (one LAPACK dgtsv call) and the row v^T X
    with 1 added to its last entry; a nonzero info or a non-finite X raises
    LinAlgError.  All four arrays are overwritten; X is block itself, so
    nothing is copied.
    """
    gamma = -d[0]
    d[0] -= gamma
    d[-1] -= last * first / gamma
    block[0, -1], block[-1, -1] = gamma, last
    *_, sol, info = dgtsv(dl, d, du, block, overwrite_dl=True, overwrite_d=True,
                          overwrite_du=True, overwrite_b=True)
    if info != 0 or not np.isfinite(sol).all():
        raise np.linalg.LinAlgError(f"tridiagonal solve failed (LAPACK dgtsv info={info})")
    row = sol[0] + first * sol[-1] / gamma
    row[-1] = 1.0 + sol[0, -1] + first * sol[-1, -1] / gamma
    return sol, row


def _powers(r: float, n: int) -> np.ndarray:
    """r^i for |r| < 1 and i < m <= n, where m keeps the computed powers with
    |r|^i >= eps (1 - |r|), eps the float64 machine epsilon, and cuts the
    rest.  A column c r^i cut there leaves out entries of at most
    |c| |r|^m < eps |c|, the size of its own rounding, and every kept power
    is a normal number (at least eps 2^-53 >> tiny), so no lam runs into
    subnormal arithmetic.
    r^(64 j + i) is the outer product of two short np.power calls, r^(64 j)
    and r^i for i < 64."""
    a = abs(r)
    cut = _EPS * (1.0 - a)
    m = n
    if a == 0.0:
        m = 1
    elif a < 1.0:
        # a^i >= cut for i <= log(cut) / log(a); one more index covers the
        # rounding of the logs, and the loop trims the computed powers
        m = min(n, math.floor(math.log(cut) / math.log(a)) + 2)
    k = 64
    out = np.multiply.outer(r ** (k * np.arange(-(-m // k))),
                            r ** np.arange(min(m, k))).ravel()[:m]
    while abs(out[m - 1]) < cut:
        m -= 1
    return out[:m]


def _toeplitz_solve(d: float, e: float, rhs: np.ndarray, periodic: bool) -> np.ndarray:
    """Solve tridiag(e, d, e) x = rhs, with e in both corners if periodic,
    for constant d > 2|e| (Meurant 1992, explicit Toeplitz inverses).

    T, that matrix without corners and with the (0, 0) entry replaced by the
    limit pivot p = (d + sqrt(d^2 - 4 e^2)) / 2, is exactly L (p I) L^T with L
    unit lower bidiagonal of subdiagonal e / p, so one LAPACK dpttrs call
    solves with T and nothing is factored.  The matrix is T + U C U^T with
    U = [e_0, e_(n-1)], C = [[e^2 / p, e], [e, 0]] (periodic) or
    [[e^2 / p, 0], [0, 0]] (no corners), and the columns of T^-1 U are known
    in closed form: with r = -e / p,

        T^-1 e_0 = (r^i - r^(n+1) r^(n-1-i)) / (p (1 - r^2)),
        T^-1 e_(n-1) = r^(n-1-i) / p.

    So x = z - T^-1 U c with z = T^-1 rhs and (I + C W) c = C U^T z,
    W = U^T T^-1 U; T is symmetric, so U^T T^-1 rhs is z's two end entries.
    The two columns are subtracted over ``_powers``, which cuts r^i once
    |r|^i < eps (1 - |r|): each leaves out less than eps times its
    coefficient, so at lam = 150-213 on 8192 cells they span 470-570
    entries, not 8192; on short domains the two spans overlap.  rhs is not
    written to.  A non-finite or not diagonally dominant (d, e), a nonzero
    info or a non-finite result raises LinAlgError.
    """
    if not (math.isfinite(d) and d > 2.0 * abs(e)):
        raise np.linalg.LinAlgError(f"Toeplitz solve needs finite d > 2|e|, got d={d}, e={e}")
    n = rhs.size
    root_minus, root_plus = math.sqrt(d - 2.0 * abs(e)), math.sqrt(d + 2.0 * abs(e))
    p = 0.5 * (d + root_minus * root_plus)
    r = -e / p
    # 1 - r^2 = (p - |e|)(p + |e|) / p^2, p - |e| = root_minus (root_minus + root_plus) / 2
    one_minus_r2 = 0.5 * root_minus * (root_minus + root_plus) * (p + abs(e)) / (p * p)
    r_last = r ** (n - 1)
    x, info = dpttrs(np.full(n, p), np.full(n - 1, e / p), rhs)
    if info != 0:
        raise np.linalg.LinAlgError(f"Toeplitz solve failed (LAPACK dpttrs info={info})")
    y0, y1 = x[0], x[-1]
    g = e * e / p
    # W = U^T T^-1 U
    w00, w01, w11 = (1.0 - (r * r_last) ** 2) / (p * one_minus_r2), r_last / p, 1.0 / p
    if periodic:
        s00, s01, s10, s11 = 1.0 + g * w00 + e * w01, g * w01 + e * w11, e * w00, 1.0 + e * w01
        v0, v1 = g * y0 + e * y1, e * y0
        det = s00 * s11 - s01 * s10
        c0, c1 = (s11 * v0 - s01 * v1) / det, (s00 * v1 - s10 * v0) / det
    else:
        c0, c1 = g * y0 / (1.0 + g * w00), 0.0
    # x -= c0 T^-1 e_0 + c1 T^-1 e_(n-1): r^i from the head, r^(n-1-i) from the tail
    pw = _powers(r, n)
    head = c0 / (p * one_minus_r2)
    tail = c1 / p - head * r * r * r_last
    x[:pw.size] -= head * pw
    x[n - pw.size:] -= tail * pw[::-1]
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("Toeplitz solve failed: non-finite result")
    return x


def _periodic_spline(x0: float, period: float, samples) -> Callable[[np.ndarray], np.ndarray]:
    """Periodic cubic spline through samples[i] at x0 + i h, h = period / n.

    The knot second derivatives M solve the cyclic system
    M[i-1] + 4 M[i] + M[i+1] = 6 (y[i+1] - 2 y[i] + y[i-1]) / h^2 in one
    ``_toeplitz_solve`` call.  Returns the spline as one vectorized callable
    of x that wraps any real x into [x0, x0 + period).
    """
    y = np.asarray(samples, dtype=float)
    n = y.size
    h = period / n
    rhs = 6.0 * (_next(y) - 2.0 * y + _prev(y)) / h**2
    m = _toeplitz_solve(4.0, 1.0, rhs, periodic=True)
    m_next = _next(m)
    # the cubic on [x_i, x_i + h] in s = x - x_i, highest power first
    coeffs = np.stack([(m_next - m) / (6.0 * h), 0.5 * m,
                       (_next(y) - y) / h - h * (2.0 * m + m_next) / 6.0, y])

    def value(x):
        t = np.mod(np.asarray(x, dtype=float) - x0, period)
        i = np.clip((t / h).astype(int), 0, n - 1)
        (a, b, c, d), s = coeffs[:, i], t - i * h
        return ((a * s + b) * s + c) * s + d

    return value
