"""Flux models f(u, x): periodic in x, quadratic in u.

Every flux is

    f(u, x) = c0(x) + c1(x) u + c2(x) u^2 / 2

and a :class:`FluxModel` is that (c0, c1, c2) triple of periodic
coefficients, each a float or a (value, slope) pair of vectorized functions
of x.  This module is the only one that reads the triple's format: the rest
of the package samples it with ``FluxModel.sample``, whose ``value`` and
``speed`` give f and d_u f at the sample points.  The built-in labels are
coefficient declarations:

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
# a constant, or a pair (c, dc/dx) of vectorized periodic functions of x
Coefficient = Union[float, Tuple[XFn, XFn]]


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

    ``eval``, ``d_u``, ``d_uu`` and ``d_x`` (f and its derivatives at
    broadcastable u and x) are views derived from the triple when not given.
    They exist only for instrumentation, which swaps them with
    ``dataclasses.replace``; no run path calls them.  As ``replace`` keeps
    the views, a model with other coefficients comes from the constructor.
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

        def view(read, part=0):
            def call(u, x):
                u, x = np.broadcast_arrays(np.asarray(u, float), np.asarray(x, float))
                return read(_sampled(self.coefficients, x, part), u)
            return call

        views = dict(eval=view(FluxSamples.value), d_u=view(FluxSamples.speed),
                     d_uu=view(lambda at, u: at.c2), d_x=view(FluxSamples.value, part=1))
        for name, fn in views.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, fn)

    def sample(self, points) -> FluxSamples:
        """The coefficients at ``points``, sampled once for many values of u."""
        return _sampled(self.coefficients, np.asarray(points, dtype=float), 0)


def _sampled(coefficients, points: np.ndarray, part: int) -> FluxSamples:
    """The coefficients' values (part 0) or slopes (part 1) at points; the
    slopes as a FluxSamples give d_x f through ``value``."""
    arrays = []
    for coefficient in coefficients:
        # + 0.0 makes a fresh array of the points' shape, from a constant too
        array = np.broadcast_to(_value_and_slope(coefficient)[part](points), points.shape) + 0.0
        array.setflags(write=False)
        arrays.append(array)
    return FluxSamples(*arrays)


def normalize_about_wp(flux: FluxModel, background: Profile) -> FluxModel:
    """Shift the flux so the given stationary profile becomes the zero state.

    Returns g(v, x) = f(v + w(x), x) - f(w(x), x) with w the periodic cubic
    spline of ``grids`` through the profile samples at the cell centers: the
    coefficient map c0 -> 0, c1 -> c1 + c2 w (slope c1' + c2' w + c2 w'),
    c2 -> c2.  g(0, .) vanishes identically, which the weight solver and the
    normalized evolution runs require.
    """
    grid = background.grid
    w, dw = _periodic_spline(grid.centers()[0], grid.period, background.values)
    _, c1, c2 = flux.coefficients
    (v1, s1), (v2, s2) = _value_and_slope(c1), _value_and_slope(c2)
    shifted_c1 = (lambda x: v1(x) + v2(x) * w(x),
                  lambda x: s1(x) + s2(x) * w(x) + v2(x) * dw(x))
    return FluxModel(f"{flux.label}_shifted", flux.period, (0.0, shifted_c1, c2),
                     dict(flux.params))


def _value_and_slope(coefficient: Coefficient) -> Tuple[XFn, XFn]:
    if isinstance(coefficient, tuple):
        return coefficient
    value = float(coefficient)
    return (lambda x: value), (lambda x: 0.0)


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
    forcing = (lambda x: amplitude * np.sin(k * x),
               lambda x: amplitude * k * np.cos(k * x))
    return FluxModel("forced_burgers", period, (0.0, forcing, 1.0),
                     {"amplitude": amplitude, "period": period})


def _periodic_advection(params: dict) -> FluxModel:
    a0 = _take_number(params, "a0", 1.0)
    amplitude = _take_number(params, "amplitude", 0.5)
    period = _take_period(params)
    if not abs(amplitude) < 1.0:
        raise ValueError(f"periodic_advection requires |amplitude| < 1, got {amplitude}")
    k = 2.0 * np.pi / period
    speed = (lambda x: a0 * (1.0 + amplitude * np.cos(k * x)),
             lambda x: -a0 * amplitude * k * np.sin(k * x))
    return FluxModel("periodic_advection", period, (0.0, speed, 0.0),
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
