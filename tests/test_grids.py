"""Grid containers, discrete norms, and the perturbation primitive."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from convstab import CellGrid, LineGrid, Profile, builtin_flux, norm, primitive, solve_stationary
from convstab.grids import _next, _periodic_spline, _prev, _toeplitz_solve


def test_cell_grid_centers_are_midpoints():
    grid = CellGrid(8, 2.0)
    assert grid.h == 0.25
    expected = (np.arange(8) + 0.5) * 0.25
    assert np.array_equal(grid.centers(), expected)


@pytest.mark.parametrize("n_cells", [0, 4, 7, 8.5])
def test_cell_grid_rejects_bad_cell_counts(n_cells):
    with pytest.raises(ValueError):
        CellGrid(n_cells, 1.0)


@pytest.mark.parametrize("period", [0.0, -1.0])
def test_cell_grid_rejects_bad_periods(period):
    with pytest.raises(ValueError):
        CellGrid(8, period)


def test_profile_caches_mean_and_freezes_values():
    grid = CellGrid(8, 1.0)
    values = np.linspace(-1.0, 1.0, 8)
    prof = Profile(grid, values)
    assert prof.mean == pytest.approx(values.mean(), abs=0.0)
    with pytest.raises(ValueError):
        prof.values[0] = 3.0  # read-only array


def test_profile_rejects_wrong_shape_and_nonfinite():
    grid = CellGrid(8, 1.0)
    with pytest.raises(ValueError):
        Profile(grid, np.ones(9))
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Profile(grid, bad)


def test_line_grid_tiles_cell_centers():
    cell = CellGrid(8, 1.0)
    line = LineGrid(cell, 4, "periodic")
    assert line.n_total == 32
    assert line.length == 4.0
    assert line.h == cell.h
    assert np.array_equal(line.centers(), (np.arange(32) + 0.5) * cell.h)
    assert np.array_equal(line.interfaces(), np.arange(33) * cell.h)


def test_line_grid_tile_repeats_profile_exactly():
    cell = CellGrid(8, 1.0)
    line = LineGrid(cell, 3, "pinned_to_wp")
    prof = Profile(cell, np.arange(8.0))
    tiled = line.tile(prof)
    assert tiled.shape == (24,)
    assert np.array_equal(tiled[8:16], prof.values)


def test_line_grid_tile_rejects_mismatched_profile():
    line = LineGrid(CellGrid(8, 1.0), 2, "periodic")
    with pytest.raises(ValueError):
        line.tile(Profile(CellGrid(16, 1.0), np.zeros(16)))


def test_line_grid_rejects_unknown_boundary_and_bad_periods():
    cell = CellGrid(8, 1.0)
    with pytest.raises(ValueError):
        LineGrid(cell, 2, "reflecting")
    with pytest.raises(ValueError):
        LineGrid(cell, 0, "periodic")


def test_norms_match_midpoint_formulas():
    v = np.array([1.0, -2.0, 0.5])
    h = 0.1
    assert norm(v, h, "L1") == pytest.approx(0.35, abs=1e-15)
    assert norm(v, h, "L2") == pytest.approx(np.sqrt(0.525), abs=1e-15)
    assert norm(v, h, "Linf") == 2.0


def test_norm_rejects_unknown_kind_and_empty_input():
    with pytest.raises(ValueError):
        norm(np.ones(3), 0.1, "L3")
    with pytest.raises(ValueError):
        norm(np.array([]), 0.1, "L1")


def test_primitive_is_h_times_cumsum():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(17)
    h = 0.25
    V = primitive(u, h)
    assert np.allclose(V, h * np.cumsum(u), atol=0.0), "primitive must be h * cumsum"
    assert V[-1] == pytest.approx(h * u.sum(), abs=1e-15)


def test_primitive_of_zero_mean_field_returns_to_zero():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(64)
    u -= u.mean()
    V = primitive(u, 0.1)
    assert abs(V[-1]) < 1e-13, f"primitive of zero-sum data should close, got {V[-1]:.2e}"


@pytest.mark.parametrize("n", [1, 2, 7])
def test_periodic_shifts_match_np_roll(n):
    a = np.random.default_rng(n).standard_normal(n)
    assert _prev(a).tobytes() == np.roll(a, 1).tobytes()
    assert _next(a).tobytes() == np.roll(a, -1).tobytes()


def _spline_gaps(x0, period, y, rng):
    """Largest value and slope gaps of the periodic spline to scipy's
    CubicSpline(bc_type="periodic") at x inside, left and right of the period
    and at the knots."""
    n = y.size
    knots = x0 + np.arange(n + 1) * (period / n)
    oracle = CubicSpline(knots, np.append(y, y[0]), bc_type="periodic")
    x = np.concatenate([
        rng.uniform(x0, x0 + period, 400),
        rng.uniform(x0 - 3.0 * period, x0, 200),
        rng.uniform(x0 + period, x0 + 4.0 * period, 200),
        knots,
    ])
    inside = np.mod(x - x0, period) + x0
    value, slope = _periodic_spline(x0, period, y)
    return (np.abs(value(x) - oracle(inside)).max(),
            np.abs(slope(x) - oracle(inside, 1)).max())


@pytest.mark.parametrize("n", [4, 5, 16, 128, 1024])
def test_periodic_spline_matches_scipy_on_random_tables(n):
    rng = np.random.default_rng(n)
    for x0, period in ((0.0, 1.0), (0.37, 2.5)):
        y = 3.0 * rng.standard_normal(n)
        scale = np.abs(y).max()
        value_gap, slope_gap = _spline_gaps(x0, period, y, rng)
        assert value_gap <= 1e-12 * scale
        assert slope_gap <= 1e-12 * scale * n / period


@pytest.mark.parametrize("n", [16, 128, 1024])
def test_periodic_spline_matches_scipy_on_stationary_profiles(n):
    # the knots are the cell centers, as in normalize_about_wp
    flux = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    grid = CellGrid(n, 1.0)
    w = solve_stationary(flux, 0.7, grid).values
    value_gap, slope_gap = _spline_gaps(grid.h / 2, 1.0, w, np.random.default_rng(n))
    assert value_gap <= 1e-13 * np.abs(w).max()
    assert slope_gap <= 1e-13 * np.abs(np.diff(w)).max() / grid.h


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
@pytest.mark.parametrize("d, e", [(4.0, 1.0), (4.0, -1.0), (2.5, 1.2)])
@pytest.mark.parametrize("n", [3, 4, 5, 16, 1024])
def test_toeplitz_solve_matches_a_dense_solve(n, d, e, periodic):
    # (4, 1) is the spline's system; r = -e / p alternates in sign for e > 0
    A = d * np.eye(n) + e * (np.eye(n, k=1) + np.eye(n, k=-1))
    if periodic:
        A[0, -1] += e
        A[-1, 0] += e
    rhs = np.random.default_rng(n).standard_normal(n)
    want = np.linalg.solve(A, rhs)
    got = _toeplitz_solve(d, e, rhs, periodic)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
def test_toeplitz_solve_raises_on_bad_matrices_and_non_finite_results(periodic):
    for d in (2.0, float("nan"), float("inf")):  # not diagonally dominant
        with pytest.raises(np.linalg.LinAlgError):
            _toeplitz_solve(d, 1.0, np.ones(8), periodic)
    rhs = np.ones(8)
    rhs[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _toeplitz_solve(4.0, 1.0, rhs, periodic)
