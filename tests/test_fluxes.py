"""Built-in flux models: closed forms, derivative consistency, normalization."""

import numpy as np
import pytest
from oracles import flux_curvature, flux_speed, flux_value

from convstab import CellGrid, FluxModel, builtin_flux, normalize_about_wp, solve_stationary
from convstab.grids import _periodic_spline

LABELS = ("constant_flux_burgers", "forced_burgers", "periodic_advection", "custom_table")

# parameters under which each coefficient a label can vary in x does so
SHIFT_PARAMS = {
    "forced_burgers": {"amplitude": 0.5},
    "periodic_advection": {"amplitude": 0.5},
    "custom_table": {
        "const": 0.3,
        "linear": (0.4 * np.sin(2 * np.pi * np.arange(8) / 8)).tolist(),
        "quadratic": (1.0 + 0.3 * np.cos(2 * np.pi * np.arange(8) / 8)).tolist(),
    },
}


def _fd_check(flux, seed=0, n=200, delta=1e-6):
    """Worst mismatch between the sampled u-derivatives and central differences."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-2.0, 2.0, n)
    x = rng.uniform(0.0, flux.period, n)
    du = (flux_value(flux, u + delta, x) - flux_value(flux, u - delta, x)) / (2 * delta)
    duu = (flux_speed(flux, u + delta, x) - flux_speed(flux, u - delta, x)) / (2 * delta)
    return max(
        np.abs(du - flux_speed(flux, u, x)).max(),
        np.abs(duu - flux_curvature(flux, u, x)).max(),
    )


@pytest.mark.parametrize("label", LABELS)
def test_derivatives_match_finite_differences(label):
    params = {"forced_burgers": {"amplitude": 0.5}, "periodic_advection": {"amplitude": 0.5}}
    flux = builtin_flux(label, params.get(label))
    worst = _fd_check(flux)
    assert worst < 5e-9, f"{label}: analytic vs FD derivative mismatch {worst:.2e}"


@pytest.mark.parametrize("label", LABELS)
def test_periodicity_in_x(label):
    flux = builtin_flux(label)
    rng = np.random.default_rng(3)
    u = rng.uniform(-2.0, 2.0, 100)
    x = rng.uniform(0.0, flux.period, 100)
    for fn in (flux_value, flux_speed):
        gap = np.abs(fn(flux, u, x + flux.period) - fn(flux, u, x)).max()
        assert gap < 1e-12, f"{label}: period-{flux.period} shift changes values by {gap:.2e}"


def test_constant_flux_burgers_closed_form():
    flux = builtin_flux("constant_flux_burgers")
    u = np.linspace(-3, 3, 13)
    x = np.zeros_like(u)
    assert np.array_equal(flux_value(flux, u, x), 0.5 * u * u)
    assert np.array_equal(flux_speed(flux, u, x), u)
    c0, c1, c2 = flux.sample(x + 0.37)
    assert np.all(c0 == 0.0) and np.all(c1 == 0.0) and np.all(c2 == 1.0)


def test_forced_burgers_closed_form_and_zero_at_origin():
    flux = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    x = np.linspace(0.0, 1.0, 17, endpoint=False)
    u = np.linspace(-2.0, 2.0, 17)
    expected = 0.5 * u * u + 0.5 * np.sin(2 * np.pi * x) * u
    assert np.allclose(flux_value(flux, u, x), expected, atol=1e-15)
    # f(0, x) = 0: the zero state is stationary
    assert np.all(flux_value(flux, np.zeros_like(x), x) == 0.0)


def test_periodic_advection_is_linear_in_u():
    flux = builtin_flux("periodic_advection", {"a0": 1.0, "amplitude": 0.5, "period": 1.0})
    x = np.linspace(0.0, 1.0, 11, endpoint=False)
    u = np.linspace(-2.0, 2.0, 11)
    a = 1.0 + 0.5 * np.cos(2 * np.pi * x)
    assert np.allclose(flux_value(flux, u, x), a * u, atol=1e-15)
    assert np.all(flux_curvature(flux, u, x) == 0.0)


def test_custom_table_defaults_to_zero_flux():
    flux = builtin_flux("custom_table")
    u = np.linspace(-2.0, 2.0, 9)
    x = np.linspace(0.0, 1.0, 9, endpoint=False)
    assert np.all(flux_value(flux, u, x) == 0.0)
    assert np.all(flux_speed(flux, u, x) == 0.0)


# every number parameter each label reads
NUMBER_PARAMS = {
    "constant_flux_burgers": ("period",),
    "forced_burgers": ("amplitude", "period"),
    "periodic_advection": ("a0", "amplitude", "period"),
    "custom_table": ("period", "const", "linear", "quadratic"),
}


@pytest.mark.parametrize("label, name", [(label, name) for label, names in NUMBER_PARAMS.items()
                                         for name in names])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_parameters_raise_naming_them(label, name, bad):
    with pytest.raises(ValueError, match=f"flux parameter '{name}' must be finite"):
        builtin_flux(label, {name: bad})


@pytest.mark.parametrize("name", ["const", "linear", "quadratic"])
def test_a_non_finite_table_sample_raises_naming_its_parameter(name):
    for bad in (float("nan"), float("inf")):
        table = [0.0, 0.5, bad, -0.5]
        with pytest.raises(ValueError, match=f"flux parameter '{name}' must be finite"):
            builtin_flux("custom_table", {name: table})


@pytest.mark.parametrize("label, name", [(label, name) for label, names in NUMBER_PARAMS.items()
                                         for name in names])
@pytest.mark.parametrize("big", [1.0000000000000002e100, -1e150, 1e308])
def test_parameters_past_the_magnitude_limit_raise_naming_it(label, name, big):
    with pytest.raises(ValueError, match=f"flux parameter '{name}' must be finite and at most "
                                         r"1e\+100 in magnitude"):
        builtin_flux(label, {name: big})


def test_parameters_at_the_magnitude_limit_are_accepted():
    assert builtin_flux("forced_burgers", {"amplitude": -1e100}).params["amplitude"] == -1e100
    flux = builtin_flux("custom_table", {"quadratic": [1.0, 1e100, -1e100, 0.5]})
    assert flux.params["quadratic"][1] == 1e100


@pytest.mark.parametrize("name", ["const", "linear", "quadratic"])
def test_a_table_entry_past_the_magnitude_limit_raises_naming_its_parameter(name):
    with pytest.raises(ValueError, match=f"flux parameter '{name}' must be finite and at most"):
        builtin_flux("custom_table", {name: [0.0, 0.5, -1e101, -0.5]})


def test_custom_table_records_its_coefficients():
    params = {"linear": [0.0, 0.5, 0.0, -0.5], "quadratic": 1, "period": 2}
    flux = builtin_flux("custom_table", params)
    assert flux.params == {"const": 0.0, "linear": [0.0, 0.5, 0.0, -0.5],
                           "quadratic": 1.0, "period": 2.0}
    assert all(type(flux.params[name]) is float for name in ("const", "quadratic", "period"))


def test_unknown_label_and_leftover_params_raise():
    with pytest.raises(ValueError):
        builtin_flux("kpz")
    with pytest.raises(ValueError):
        builtin_flux("constant_flux_burgers", {"amplitude": 0.5})
    # a parameter goes by its name alone: the short forms are unused parameters
    for short in ("A", "T"):
        with pytest.raises(ValueError, match=f"unused flux parameters .*'{short}'"):
            builtin_flux("forced_burgers", {short: 0.7})
    # malformed values raise ValueError too, naming the parameter they fail on
    for label, params, named in [
        (["forced_burgers"], {}, "label"),
        ("forced_burgers", {"period": 0.0}, "period"),
        ("forced_burgers", {"amplitude": [1]}, "'amplitude'"),
        ("custom_table", {"const": None}, "'const'"),
        ("custom_table", {"linear": [1.0, {}, 2.0, 3.0]}, "'linear'"),
    ]:
        with pytest.raises(ValueError, match=named):
            builtin_flux(label, params)


def _normalized(label):
    """(f, w_p, g, the cell grid, the spline of w_p)."""
    flux = builtin_flux(label, SHIFT_PARAMS.get(label))
    grid = CellGrid(64, flux.period)
    w = solve_stationary(flux, 0.7, grid)
    spline = _periodic_spline(grid.centers()[0], grid.period, w.values)
    return flux, w, normalize_about_wp(flux, w), grid, spline


@pytest.mark.parametrize("label", LABELS)
def test_normalize_about_wp_vanishes_at_zero(label):
    _, _, g, grid, _ = _normalized(label)
    for x in (grid.centers(), grid.centers() + grid.h / 3):
        z = np.zeros_like(x)
        assert np.all(flux_value(g, z, x) == 0.0), "normalized flux must vanish on the zero state"


@pytest.mark.parametrize("label", LABELS)
def test_normalize_about_wp_is_a_shift_of_the_original(label):
    flux, w, g, grid, w_of = _normalized(label)
    x = grid.centers()
    rng = np.random.default_rng(5)
    v = rng.uniform(-1.0, 1.0, x.size)
    expected = flux_value(flux, w.values + v, x) - flux_value(flux, w.values, x)
    assert np.allclose(flux_value(g, v, x), expected, atol=1e-14)
    assert np.allclose(flux_speed(g, v, x), flux_speed(flux, w.values + v, x), atol=1e-14)
    # off the knots w is the spline
    y = x + grid.h / 3
    wy = w_of(y)
    assert np.allclose(flux_value(g, v, y),
                       flux_value(flux, wy + v, y) - flux_value(flux, wy, y), atol=1e-14)
    assert np.allclose(flux_speed(g, v, y), flux_speed(flux, wy + v, y), atol=1e-14)
    assert np.allclose(flux_curvature(g, v, y), flux_curvature(flux, wy + v, y), atol=1e-14)
    worst = _fd_check(g)
    assert worst < 5e-9, f"{label}: normalized flux vs FD derivative mismatch {worst:.2e}"
    assert g.period == flux.period
    assert g.label == f"{label}_shifted"


@pytest.mark.parametrize("position, coefficients", [
    (1, (0.0, (np.sin, np.cos), 1.0)),
    (0, ("0.5", 0.0, 1.0)),
    (2, (0.0, 0.0, None)),
    (2, (0.0, 0.0, True)),
])
def test_a_coefficient_neither_real_nor_callable_raises_naming_its_position(position,
                                                                           coefficients):
    # the retired (value, slope) pair included: refused at construction, not in sample
    with pytest.raises(ValueError, match=f"flux coefficient c{position} must be a real number"):
        FluxModel("retired", 1.0, coefficients)


def test_coefficients_are_numbers_or_functions_and_the_tracer_slots_stay_empty():
    flux = FluxModel("mixed", 2.0, (np.float64(0.25), lambda x: np.cos(np.pi * x), 1))
    x = np.linspace(0.0, 2.0, 7)
    c0, c1, c2 = flux.sample(x)
    assert np.all(c0 == 0.25) and np.array_equal(c1, np.cos(np.pi * x)) and np.all(c2 == 1.0)
    for made in (flux, builtin_flux("forced_burgers"), _normalized("forced_burgers")[2]):
        assert (made.eval, made.d_u, made.d_uu, made.d_x) == (None, None, None, None)
