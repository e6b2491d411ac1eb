"""Flux models f(u, x): periodic in x, quadratic in u.

Every flux is

    f(u, x) = c0(x) + c1(x) u + c2(x) u^2 / 2

and a :class:`FluxModel` is that (c0, c1, c2) triple of periodic
coefficients, each a real number or one vectorized function of x.  That
triple is the only representation of a flux, and this module is the only one
that reads its format: the rest of the package samples it with
``FluxModel.sample``, whose ``value`` and ``speed`` give f and d_u f, and
whose ``c2`` gives d_uu f, at the sample points.  No run path needs d_x f.
The built-in labels are coefficient declarations:

* ``constant_flux_burgers``   c2 = 1
* ``forced_burgers``          c1 = A sin(2 pi x / T),  c2 = 1
* ``periodic_advection``      c1 = a0 (1 + A cos(2 pi x / T)),  |A| < 1
* ``custom_table``            c0, c1, c2 constants or tabulated periodic
                              samples at uniform knots k T / n, interpolated
                              by the periodic cubic spline of ``grids``

``normalize_about_wp`` shifts the triple about a stationary profile, so f
stays quadratic in u.  Once normalized, f(0, .) = 0 and the zero state -- the
value at which pinned ghost cells sit -- is an exact fixed point of the scheme.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from .grids import Profile, _periodic_spline

__all__ = [
    "FluxModel",
    "FluxSamples",
    "builtin_flux",
    "normalize_about_wp",
]

ArrayFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
XFn = Callable[[np.ndarray], np.ndarray]
# a real number, or a vectorized periodic function of x
Coefficient = Union[float, XFn]


class FluxSamples(NamedTuple):
    """(c0, c1, c2) at some points: read-only float arrays of their shape."""

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def value(self, u):
        """f(u, .) = c0 + c1 u + c2 u^2 / 2 at the sample points."""
        return self.c0 + self.c1 * u + 0.5 * self.c2 * u * u

    def speed(self, u):
        """d_u f(u, .) = c1 + c2 u at the sample points."""
        return self.c1 + self.c2 * u


@dataclass(frozen=True)
class FluxModel:
    """f = c0 + c1 u + c2 u^2 / 2 with one period T in x: the triple
    ``coefficients`` is the flux, and the package reads it through ``sample``.

    A coefficient that is neither a real number nor callable, such as a
    (value, slope) pair, raises ValueError naming its position.

    ``eval``, ``d_u``, ``d_uu`` and ``d_x`` are tracer slots: they default to
    None, nothing derives them and the package never reads them.  They exist
    only because the bench's instrumentation passes all four to
    ``dataclasses.replace``; ROADMAP item 5 removes them with that tracer.
    """

    label: str
    period: float
    coefficients: Tuple[Coefficient, Coefficient, Coefficient]
    params: Mapping[str, Union[float, list]] = field(default_factory=dict)
    eval: Optional[ArrayFn] = field(default=None, repr=False, compare=False)
    d_u: Optional[ArrayFn] = field(default=None, repr=False, compare=False)
    d_uu: Optional[ArrayFn] = field(default=None, repr=False, compare=False)
    d_x: Optional[ArrayFn] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError(f"flux period must be positive, got {self.period}")
        for position, coefficient in enumerate(self.coefficients):
            real = isinstance(coefficient, numbers.Real) and not isinstance(coefficient, bool)
            if not (real or callable(coefficient)):
                raise ValueError(f"flux coefficient c{position} must be a real number or a "
                                 f"vectorized function of x, got {coefficient!r}")

    def sample(self, points) -> FluxSamples:
        """The coefficients at ``points``, sampled once for many values of u."""
        points = np.asarray(points, dtype=float)
        arrays = []
        for coefficient in self.coefficients:
            # + 0.0 makes a fresh array of the points' shape, from a constant too
            array = np.broadcast_to(_function(coefficient)(points), points.shape) + 0.0
            array.setflags(write=False)
            arrays.append(array)
        return FluxSamples(*arrays)


def normalize_about_wp(flux: FluxModel, background: Profile) -> FluxModel:
    """Shift the flux so the given stationary profile becomes the zero state.

    Returns g(v, x) = f(v + w(x), x) - f(w(x), x) with w the periodic cubic
    spline of ``grids`` through the profile samples at the cell centers: the
    coefficient map c0 -> 0, c1 -> c1 + c2 w, c2 -> c2.  g(0, .) vanishes
    identically, which the weight solver and the normalized evolution runs
    require.
    """
    grid = background.grid
    w = _periodic_spline(grid.centers()[0], grid.period, background.values)
    _, c1, c2 = flux.coefficients
    v1, v2 = _function(c1), _function(c2)
    return FluxModel(f"{flux.label}_shifted", flux.period,
                     (0.0, lambda x: v1(x) + v2(x) * w(x), c2), dict(flux.params))


def _function(coefficient: Coefficient) -> XFn:
    """The coefficient as a function of x; a constant returns its float."""
    if callable(coefficient):
        return coefficient
    value = float(coefficient)
    return lambda x: value


def _take_number(params: dict, name: str, default: float) -> float:
    """Pop a parameter that must be a finite number."""
    value = params.pop(name, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"flux parameter {name!r} must be a number, got {value!r}") from None
    return _finite(name, number)


# the largest flux parameter magnitude accepted: far above any physical
# scale, and far enough below the float range that the flux, its Newton
# solves and the CFL bound do not overflow
PARAMETER_LIMIT = 1e100


def _finite(name: str, values):
    """values, a number or a table, once NaN, +-Infinity (json reads them)
    and magnitudes above PARAMETER_LIMIT are refused."""
    if not np.all(np.abs(values) <= PARAMETER_LIMIT):
        raise ValueError(f"flux parameter {name!r} must be finite and at most "
                         f"{PARAMETER_LIMIT!r} in magnitude")
    return values


def _take_period(params: dict) -> float:
    period = _take_number(params, "period", 1.0)
    if not period > 0:
        raise ValueError(f"flux period must be positive, got {period}")
    return period


def _constant_burgers(params: dict) -> FluxModel:
    period = _take_period(params)
    return FluxModel("constant_flux_burgers", period, (0.0, 0.0, 1.0), {"period": period})


def _forced_burgers(params: dict) -> FluxModel:
    amplitude = _take_number(params, "amplitude", 0.5)
    period = _take_period(params)
    k = 2.0 * np.pi / period
    return FluxModel("forced_burgers", period,
                     (0.0, lambda x: amplitude * np.sin(k * x), 1.0),
                     {"amplitude": amplitude, "period": period})


def _periodic_advection(params: dict) -> FluxModel:
    a0 = _take_number(params, "a0", 1.0)
    amplitude = _take_number(params, "amplitude", 0.5)
    period = _take_period(params)
    if not abs(amplitude) < 1.0:
        raise ValueError(f"periodic_advection requires |amplitude| < 1, got {amplitude}")
    k = 2.0 * np.pi / period
    return FluxModel("periodic_advection", period,
                     (0.0, lambda x: a0 * (1.0 + amplitude * np.cos(k * x)), 0.0),
                     {"a0": a0, "amplitude": amplitude, "period": period})


def _table_coefficient(params: dict, name: str,
                       period: float) -> Tuple[Coefficient, Union[float, list]]:
    """A scalar stays constant; a table becomes a periodic cubic spline.  The
    coefficient comes with its parameter as recorded: a float, or the table
    as a list of floats."""
    if np.ndim(params.get(name, 0.0)) == 0:
        value = _take_number(params, name, 0.0)
        return value, value
    try:
        samples = np.asarray(params.pop(name), dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"flux parameter {name!r} must be a table of numbers") from None
    if samples.ndim != 1 or samples.size < 4:
        raise ValueError("tabulated coefficients need a 1-D table with >= 4 samples")
    return _periodic_spline(0.0, period, _finite(name, samples)), samples.tolist()


def _custom_table(params: dict) -> FluxModel:
    period = _take_period(params)
    recorded = {"period": period}
    coefficients = []
    for name in ("const", "linear", "quadratic"):
        coefficient, recorded[name] = _table_coefficient(params, name, period)
        coefficients.append(coefficient)
    return FluxModel("custom_table", period, tuple(coefficients), recorded)


_BUILDERS = {
    "constant_flux_burgers": _constant_burgers,
    "forced_burgers": _forced_burgers,
    "periodic_advection": _periodic_advection,
    "custom_table": _custom_table,
}


def builtin_flux(label: str, params: Optional[Mapping] = None) -> FluxModel:
    """Construct one of the built-in flux models by label.

    Parameters go by their names (amplitude, period, ...) and must be finite
    numbers, or for ``custom_table`` finite tables, of magnitude at most
    ``PARAMETER_LIMIT`` = 1e100; ``FluxModel.params``
    records them all, tables as lists.  Unknown labels, unused, non-finite
    or too large parameters and out-of-range values raise ValueError naming
    them.
    """
    if not isinstance(label, str) or label not in _BUILDERS:
        raise ValueError(f"unknown flux label {label!r}; available: {sorted(_BUILDERS)}")
    work = dict(params or {})
    flux = _BUILDERS[label](work)
    if work:
        raise ValueError(f"unused flux parameters for {label!r}: {sorted(work)}")
    return flux
