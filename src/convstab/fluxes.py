"""Flux models f(u, x): periodic in x, quadratic in u.

Every flux is

    f(u, x) = c0(x) + c1(x) u + c2(x) u^2 / 2

with periodic coefficients, each a float or a (value, slope) pair of
vectorized functions of x.  A :class:`FluxModel` records that triple; its
callables ``eval``, ``d_u``, ``d_uu`` and ``d_x`` are views derived from it
by one constructor, kept as replaceable fields for instrumentation.  The
built-in labels are coefficient declarations:

* ``constant_flux_burgers``   c2 = 1
* ``forced_burgers``          c1 = A sin(2 pi x / T),  c2 = 1
* ``periodic_advection``      c1 = a0 (1 + A cos(2 pi x / T)),  |A| < 1
* ``custom_table``            c0, c1, c2 constants or tabulated periodic
                              samples at uniform knots k T / n, interpolated
                              by the periodic cubic spline of ``grids``

Shifting about a stationary profile w (``normalize_about_wp``) maps the
coefficients c0 -> 0, c1 -> c1 + c2 w, c2 -> c2, so f stays quadratic in u
and the time stepper samples the shifted triple.  Once normalized, f(0, .) = 0
and the zero state -- the value at which pinned ghost cells sit -- is an
exact fixed point of the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple, Union

import numpy as np

from .grids import _periodic_spline

__all__ = [
    "FluxModel",
    "builtin_flux",
]

ArrayFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
XFn = Callable[[np.ndarray], np.ndarray]
# a constant, or a pair (c, dc/dx) of vectorized periodic functions of x
Coefficient = Union[float, Tuple[XFn, XFn]]


@dataclass(frozen=True)
class FluxModel:
    """Vectorized flux f(u, x) with one period T in x.

    ``eval``, ``d_u``, ``d_uu`` and ``d_x`` accept broadcastable arrays and
    return arrays of the broadcast shape.  f must be quadratic in u (d_uu
    independent of u): the time stepper's Engquist-Osher flux is exact only
    for such models.  ``coefficients`` is the (c0, c1, c2) triple the
    callables derive from; a model built from callables alone has none, and
    can be neither normalized about a stationary profile nor stepped.
    """

    label: str
    period: float
    eval: ArrayFn
    d_u: ArrayFn
    d_uu: ArrayFn
    d_x: ArrayFn
    params: Mapping[str, float] = field(default_factory=dict)
    coefficients: Optional[Tuple[Coefficient, Coefficient, Coefficient]] = None

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError(f"flux period must be positive, got {self.period}")


def _value_and_slope(coefficient: Coefficient) -> Tuple[XFn, XFn]:
    if isinstance(coefficient, tuple):
        return coefficient
    value = float(coefficient)
    return (lambda x: value), (lambda x: 0.0)


def _broadcast(fn: ArrayFn) -> ArrayFn:
    """fn on float arrays u and x broadcast to one shape."""
    def call(u, x):
        return fn(*np.broadcast_arrays(np.asarray(u, float), np.asarray(x, float)))
    return call


def _quadratic_flux(
    label: str,
    period: float,
    c0: Coefficient,
    c1: Coefficient,
    c2: Coefficient,
    params: Mapping[str, float],
) -> FluxModel:
    """FluxModel of f = c0(x) + c1(x) u + c2(x) u^2 / 2.

    Constant coefficients stay Python floats, so a constant term costs one
    scalar-array operation per evaluation.
    """
    (v0, s0), (v1, s1), (v2, s2) = (_value_and_slope(c) for c in (c0, c1, c2))
    f = _broadcast(lambda u, x: v0(x) + v1(x) * u + 0.5 * v2(x) * u * u)
    fu = _broadcast(lambda u, x: v1(x) + v2(x) * u)
    fuu = _broadcast(lambda u, x: v2(x) + np.zeros_like(u))
    fx = _broadcast(lambda u, x: s0(x) + s1(x) * u + 0.5 * s2(x) * u * u)
    return FluxModel(label, period, f, fu, fuu, fx, params=dict(params),
                     coefficients=(c0, c1, c2))


def _take_period(params: dict) -> float:
    return float(params.pop("period", params.pop("T", 1.0)))


def _constant_burgers(params: dict) -> FluxModel:
    period = _take_period(params)
    return _quadratic_flux("constant_flux_burgers", period, 0.0, 0.0, 1.0,
                           {"period": period})


def _forced_burgers(params: dict) -> FluxModel:
    amplitude = float(params.pop("amplitude", params.pop("A", 0.5)))
    period = _take_period(params)
    k = 2.0 * np.pi / period
    forcing = (lambda x: amplitude * np.sin(k * x),
               lambda x: amplitude * k * np.cos(k * x))
    return _quadratic_flux("forced_burgers", period, 0.0, forcing, 1.0,
                           {"amplitude": amplitude, "period": period})


def _periodic_advection(params: dict) -> FluxModel:
    a0 = float(params.pop("a0", 1.0))
    amplitude = float(params.pop("amplitude", params.pop("A", 0.5)))
    period = _take_period(params)
    if not abs(amplitude) < 1.0:
        raise ValueError(
            f"periodic_advection requires |amplitude| < 1, got {amplitude}"
        )
    k = 2.0 * np.pi / period
    speed = (lambda x: a0 * (1.0 + amplitude * np.cos(k * x)),
             lambda x: -a0 * amplitude * k * np.sin(k * x))
    return _quadratic_flux("periodic_advection", period, 0.0, speed, 0.0,
                           {"a0": a0, "amplitude": amplitude, "period": period})


def _table_coefficient(data, period: float) -> Coefficient:
    """A scalar stays constant; a table becomes a periodic cubic spline."""
    if np.ndim(data) == 0:
        return float(data)
    samples = np.asarray(data, dtype=float)
    if samples.ndim != 1 or samples.size < 4:
        raise ValueError("tabulated coefficients need a 1-D table with >= 4 samples")
    return _periodic_spline(0.0, period, samples)


def _custom_table(params: dict) -> FluxModel:
    period = _take_period(params)
    if not period > 0:
        raise ValueError(f"custom_table needs period > 0, got {period}")
    c0, c1, c2 = (_table_coefficient(params.pop(name, 0.0), period)
                  for name in ("const", "linear", "quadratic"))
    return _quadratic_flux("custom_table", period, c0, c1, c2, {"period": period})


_BUILDERS = {
    "constant_flux_burgers": _constant_burgers,
    "forced_burgers": _forced_burgers,
    "periodic_advection": _periodic_advection,
    "custom_table": _custom_table,
}


def builtin_flux(label: str, params: Optional[Mapping] = None) -> FluxModel:
    """Construct one of the built-in flux models by label.

    Parameters accept both long names (amplitude, period) and the short
    conventional aliases (A, T).  Unknown labels and out-of-range parameters
    raise ValueError.
    """
    if label not in _BUILDERS:
        raise ValueError(
            f"unknown flux label {label!r}; available: {sorted(_BUILDERS)}"
        )
    work = dict(params or {})
    flux = _BUILDERS[label](work)
    if work:
        raise ValueError(f"unused flux parameters for {label!r}: {sorted(work)}")
    return flux
