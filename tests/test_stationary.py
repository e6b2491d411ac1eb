"""Cell-problem solver: exact cases, quadrature oracles, family invariants.

The independent oracles here were written against the continuum equations
before the solver outputs were inspected: the advection profile comes from
integrating-factor quadrature of the once-integrated first-order form, the
mean-derivative profile from symmetric differencing of neighbouring solves,
and the weight from its exponential closed form.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from convstab import (
    CellGrid,
    FluxModel,
    Profile,
    StationaryFamily,
    StationarySolveError,
    build_family,
    builtin_flux,
    cell_residual,
    family_verdicts,
    normalize_about_wp,
    residual_floor,
    save_family,
    solve_dp_w,
    solve_stationary,
    solve_theta,
)
from convstab import stationary
from convstab.stationary import (
    DP_MEAN_TOLERANCE,
    MEAN_TOLERANCE,
    NEWTON_TOLERANCE,
    _bordered_solve,
)
import oracles
from oracles import flux_speed, load_family


def forced(amplitude=0.5):
    return builtin_flux("forced_burgers", {"amplitude": amplitude, "period": 1.0})


# ---------------------------------------------------------------------------
# exact cases


@pytest.mark.parametrize("p", [-2.0, -0.4, 0.0, 1.3, 2.0])
def test_constant_flux_profile_is_the_constant(p):
    grid = CellGrid(64, 1.0)
    prof = solve_stationary(builtin_flux("constant_flux_burgers"), p, grid)
    assert np.array_equal(prof.values, np.full(64, p)), f"w_{p} should be constant"
    res = cell_residual(builtin_flux("constant_flux_burgers"), prof.values, grid)
    assert np.all(res == 0.0), f"constant profile residual should vanish, got {np.abs(res).max():.2e}"


def test_forced_burgers_zero_mean_profile_is_zero():
    # f(0, x) = 0, so the zero profile solves the p = 0 cell problem exactly
    grid = CellGrid(128, 1.0)
    prof = solve_stationary(forced(), 0.0, grid)
    assert np.all(prof.values == 0.0)


def test_residuals_meet_tolerance_plus_storage_floor():
    grid = CellGrid(128, 1.0)
    tol = NEWTON_TOLERANCE
    flux = forced()
    for p in (-2.0, -1.1, 0.3, 0.7, 2.0):
        prof = solve_stationary(flux, p, grid)
        res = np.abs(cell_residual(flux, prof.values, grid)).max()
        cap = tol + residual_floor(prof.values, grid)
        assert res <= cap, f"p={p}: residual {res:.3e} above {cap:.3e}"
        assert abs(prof.values.mean() - p) < 1e-13, f"p={p}: mean off by {prof.values.mean() - p:.2e}"


@pytest.mark.parametrize("n_cells", [512, 1024, 2048])
@pytest.mark.parametrize("p", [-2.0, 0.0, 2.0])
def test_newton_converges_on_fine_grids(n_cells, p):
    # the tolerance alone sits below the 1/h^2 round-off floor at these sizes
    grid = CellGrid(n_cells, 1.0)
    prof = solve_stationary(forced(), p, grid)
    res = np.abs(cell_residual(forced(), prof.values, grid)).max()
    cap = NEWTON_TOLERANCE + residual_floor(prof.values, grid)
    assert res <= cap, f"n={n_cells}, p={p}: residual {res:.3e} above {cap:.3e}"
    assert abs(prof.values.mean() - p) < 1e-13


def test_family_builds_at_2048_cells():
    # build_family refuses a family that fails any of its family_verdicts
    family = build_family(forced(), -2.0, 2.0, 16, CellGrid(2048, 1.0))
    assert family.alpha == pytest.approx(0.922046, abs=1e-6)


def _nan_speed(flux):
    c0, c1, _ = flux.coefficients
    return FluxModel("nan_speed", flux.period, (c0, c1, float("nan")))


def test_non_finite_jacobian_raises():
    grid = CellGrid(64, 1.0)
    with pytest.raises(StationarySolveError):
        solve_stationary(_nan_speed(forced()), 0.7, grid)
    with pytest.raises(StationarySolveError):
        solve_dp_w(_nan_speed(forced()), solve_stationary(forced(), 0.7, grid))


def test_solvers_refuse_a_flux_of_another_period():
    grid = CellGrid(64, 1.0)
    longer = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 2.0})
    profile = solve_stationary(forced(), 0.7, grid)
    named = re.escape("grid period 1.0 != flux period 2.0")
    with pytest.raises(ValueError, match=named):
        solve_stationary(longer, 0.7, grid)
    # both would sample the T = 2 flux at the T = 1 grid's centres
    with pytest.raises(ValueError, match=named):
        solve_dp_w(longer, profile)
    with pytest.raises(ValueError, match=named):
        solve_theta(longer, grid)
    with pytest.raises(ValueError, match=named):
        build_family(longer, -1.0, 1.0, 16, grid)


def test_residual_floor_formula():
    grid = CellGrid(128, 1.0)
    values = np.full(128, 2.0)
    eps = np.finfo(float).eps
    assert residual_floor(values, grid) == pytest.approx(4 * eps * 2.0 * 128**2, rel=1e-12)
    # profiles below unit size use the unit scale
    assert residual_floor(0.1 * values, grid) == pytest.approx(4 * eps * 128**2, rel=1e-12)


def test_residual_floor_is_a_python_float():
    # a numpy scalar would read np.float64(...) in a message built with repr
    floor = residual_floor(np.full(128, 2.0), CellGrid(128, 1.0))
    assert type(floor) is float


# ---------------------------------------------------------------------------
# quadrature oracle for the linear advection cell problem


def advection_oracle(centers, p, a0=1.0, amp=0.5, period=1.0, upsample=2048):
    """Integrating-factor solution of -w' + a(x) w = c with mean p.

    The once-integrated cell equation for f = a(x) u is first order; with
    A(x) = int_0^x a, the periodic solution is w = c e^A (w0/c - I(x)),
    I(x) = int_0^x e^-A, with w0/c fixed by periodicity and c by the mean.
    All integrals are dense trapezoid sums on a grid that contains the cell
    centers, so no interpolation enters the comparison.
    """
    n = centers.size
    fine = np.linspace(0.0, period, n * upsample + 1)
    a = a0 * (1 + amp * np.cos(2 * np.pi * fine / period))
    A = cumulative_trapezoid(a, fine, initial=0.0)
    expA = np.exp(A)
    I = cumulative_trapezoid(np.exp(-A), fine, initial=0.0)
    w0_over_c = np.exp(A[-1]) * I[-1] / (np.exp(A[-1]) - 1.0)
    W = expA * (w0_over_c - I)
    c = p / (np.trapezoid(W, fine) / period)
    idx = ((np.arange(n) + 0.5) * upsample).astype(int)
    assert np.allclose(fine[idx], centers, atol=0.0), "oracle grid must contain the centers"
    return c * W[idx]


def test_advection_profile_matches_quadrature_oracle():
    flux = builtin_flux("periodic_advection", {"a0": 1.0, "amplitude": 0.5, "period": 1.0})
    gaps = {}
    for n in (64, 256):
        grid = CellGrid(n, 1.0)
        prof = solve_stationary(flux, 1.0, grid)
        gaps[n] = np.abs(prof.values - advection_oracle(grid.centers(), 1.0)).max()
    assert gaps[64] < 1e-4, f"n=64 oracle gap {gaps[64]:.3e}"
    assert gaps[256] < 7e-6, f"n=256 oracle gap {gaps[256]:.3e}"
    ratio = gaps[64] / gaps[256]
    assert 12.0 < ratio < 20.0, f"expected ~16x second-order gain, got {ratio:.2f}"


def test_refinement_order_is_second():
    # restrict 2n -> n by averaging cell pairs (centers are never nested)
    flux = forced()
    solved = {n: solve_stationary(flux, 0.7, CellGrid(n, 1.0)).values for n in (64, 128, 256)}
    restrict = lambda v: 0.5 * (v[::2] + v[1::2])
    d_coarse = np.abs(restrict(solved[128]) - solved[64]).max()
    d_fine = np.abs(restrict(solved[256]) - solved[128]).max()
    ratio = d_coarse / d_fine
    assert 3.5 < ratio < 4.5, f"halving h should quarter the error, ratio {ratio:.3f}"


# ---------------------------------------------------------------------------
# mean-derivative profiles


def test_dp_profile_matches_symmetric_difference():
    grid = CellGrid(128, 1.0)
    flux = forced()
    w0 = solve_stationary(flux, 0.0, grid)
    dp = solve_dp_w(flux, w0)
    delta = 1e-4
    wp = solve_stationary(flux, delta, grid, initial=w0.values)
    wm = solve_stationary(flux, -delta, grid, initial=w0.values)
    fd = (wp.values - wm.values) / (2 * delta)
    gap = np.abs(dp.values - fd).max()
    assert gap < 1e-6, f"dp profile vs symmetric difference: {gap:.3e}"
    assert abs(dp.values.mean() - 1.0) < 1e-8, f"dp mean {dp.values.mean()!r}"


def test_dp_profile_of_constant_flux_is_one():
    grid = CellGrid(64, 1.0)
    flux = builtin_flux("constant_flux_burgers")
    dp = solve_dp_w(flux, solve_stationary(flux, 1.3, grid))
    assert np.abs(dp.values - 1.0).max() < 1e-12


def test_dp_profile_of_linear_flux_ignores_p():
    # the linearized cell problem has p-independent coefficients for f = a(x) u
    flux = builtin_flux("periodic_advection", {"a0": 1.0, "amplitude": 0.5, "period": 1.0})
    grid = CellGrid(128, 1.0)
    dp1 = solve_dp_w(flux, solve_stationary(flux, 0.3, grid))
    dp2 = solve_dp_w(flux, solve_stationary(flux, -1.1, grid))
    assert np.abs(dp1.values - dp2.values).max() < 1e-12


# ---------------------------------------------------------------------------
# family construction


@pytest.fixture(scope="module")
def family_128():
    return build_family(forced(), -2.0, 2.0, 32, CellGrid(128, 1.0))


def test_family_knots_and_monotonicity(family_128):
    fam = family_128
    assert np.array_equal(fam.p_grid, np.linspace(-2.0, 2.0, 33))
    assert np.all(np.diff(fam.profiles, axis=0) > 0), "profiles must be pointwise increasing in p"
    assert fam.alpha > 0


def test_family_alpha_regression(family_128):
    # pinned value for the forced-burgers family, amplitude 0.5, M=32, n=128
    assert family_128.alpha == pytest.approx(0.9220826347872779, rel=1e-9)


def test_family_mean_and_dp_invariants(family_128):
    fam = family_128
    for prof, p in zip(fam.profiles, fam.p_grid):
        assert abs(prof.mean() - p) < 1e-10
    for dp in fam.dp_profiles:
        assert abs(dp.mean() - 1.0) < 1e-8
        assert dp.min() > 0
    assert fam.alpha == pytest.approx(min(dp.min() for dp in fam.dp_profiles), abs=0.0)


def test_family_residuals(family_128):
    fam = family_128
    flux = forced()
    tol = NEWTON_TOLERANCE
    worst = max(
        np.abs(cell_residual(flux, prof, fam.grid)).max() for prof in fam.profiles
    )
    cap = tol + max(residual_floor(prof, fam.grid) for prof in fam.profiles)
    assert worst <= cap, f"family residual {worst:.3e} above {cap:.3e}"


@pytest.mark.parametrize("n_cells, m_intervals", [(128, 32), (384, 64)])
def test_cell_residual_of_a_table_stacks_its_rows_bit_for_bit(n_cells, m_intervals):
    flux, grid = forced(2.0), CellGrid(n_cells, 1.0)
    family = build_family(flux, -2.0, 2.0, m_intervals, grid)
    table = cell_residual(flux, family.profiles, grid)
    rows = np.stack([cell_residual(flux, row, grid) for row in family.profiles])
    assert table.shape == family.profiles.shape
    assert table.tobytes() == rows.tobytes()


def test_family_verdicts_in_order(family_128):
    verdicts = family_verdicts(family_128)
    assert list(verdicts) == ["residuals", "means", "monotone", "dp_means", "alpha_positive"]
    assert all(verdict["passed"] for verdict in verdicts.values())
    assert verdicts["residuals"]["tolerance"] == NEWTON_TOLERANCE
    assert verdicts["residuals"]["storage_floor"] == residual_floor(family_128.profiles,
                                                                    family_128.grid)
    assert verdicts["alpha_positive"] == {"passed": True, "alpha": family_128.alpha}


# family_128's row 16 is the p = 0 member, w = 0 up to 1e-20
ZERO_ROW = 16


def residual_kink(fam, scale):
    # on w = 0 (f(0, .) = 0 for forced Burgers) a kink delta at one cell
    # makes that cell's residual 2 delta / h^2 and every other one smaller
    limit = NEWTON_TOLERANCE + residual_floor(fam.profiles, fam.grid)
    profiles = fam.profiles.copy()
    profiles[ZERO_ROW] = 0.0
    profiles[ZERO_ROW, 40] = scale * limit * fam.grid.h**2 / 2.0
    return {"profiles": profiles}


def mean_lift(fam, scale):
    profiles = fam.profiles.copy()
    profiles[ZERO_ROW] += scale * MEAN_TOLERANCE
    return {"profiles": profiles}


def touching(fam, scale):
    # row 8 one ulp above row 7 at cell 5 (inside), or on it (past)
    profiles = fam.profiles.copy()
    profiles[8, 5] = np.nextafter(profiles[7, 5], np.inf) if scale < 1 else profiles[7, 5]
    return {"profiles": profiles}


def dp_mean_lift(fam, scale):
    dp_profiles = fam.dp_profiles.copy()
    dp_profiles[7] += scale * DP_MEAN_TOLERANCE
    return {"dp_profiles": dp_profiles}


@pytest.mark.parametrize("name, doctor", [
    ("residuals", residual_kink),
    ("means", mean_lift),
    ("monotone", touching),
    ("dp_means", dp_mean_lift),
])
def test_each_family_verdict_flips_at_its_limit(family_128, name, doctor):
    inside = replace(family_128, **doctor(family_128, 1.0 - 1e-4))
    past = replace(family_128, **doctor(family_128, 1.0 + 1e-4))
    assert family_verdicts(inside)[name]["passed"]
    assert not family_verdicts(past)[name]["passed"]


def test_family_refinement_in_p_nests(family_128):
    fine = build_family(forced(), -2.0, 2.0, 64, CellGrid(128, 1.0))
    for i, p in enumerate(family_128.p_grid):
        j = int(np.flatnonzero(np.isclose(fine.p_grid, p, atol=1e-14))[0])
        gap = np.abs(family_128.profiles[i] - fine.profiles[j]).max()
        assert gap < 1e-9, f"shared knot p={p}: profiles differ by {gap:.2e}"


def test_family_json_round_trip(tmp_path, family_128):
    path = tmp_path / "family.json"
    save_family(family_128, path)
    back = load_family(path)
    assert np.array_equal(back.p_grid, family_128.p_grid)
    assert back.alpha == family_128.alpha
    assert back.grid == family_128.grid
    assert np.array_equal(back.profiles, family_128.profiles), "values must round-trip exactly"
    assert np.array_equal(back.dp_profiles, family_128.dp_profiles)
    assert back.flux.label == "forced_burgers"
    # the header is plain JSON without the tables; they sit beside it
    header = json.loads(path.read_text())
    assert "profiles" not in header and "dp_profiles" not in header
    assert sorted(p.name for p in tmp_path.iterdir()) == ["family.json", "family.npy"]


def test_family_tables_are_one_plain_little_endian_float64_array(tmp_path, family_128):
    # the version 1.0 header alone tells a reader outside numpy how to read
    # the (2, M+1, n) tables: no pickle, no Fortran order, no byte swapping
    save_family(family_128, tmp_path / "family.json")
    with open(tmp_path / "family.npy", "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    assert (shape, fortran_order, dtype.str) == ((2, *family_128.profiles.shape), False, "<f8")
    tables = np.load(tmp_path / "family.npy", allow_pickle=False)
    assert tables[0].tobytes() == family_128.profiles.tobytes()
    assert tables[1].tobytes() == family_128.dp_profiles.tobytes()
    assert tables[1].min() == json.loads((tmp_path / "family.json").read_text())["alpha"]


def test_family_json_rebuilds_a_custom_table_flux(tmp_path):
    # the file names the flux its profiles solve, tables included
    flux = builtin_flux("custom_table", {"linear": [0.0, 0.5, 0.0, -0.5], "quadratic": 1.0,
                                         "period": 1.0})
    family = build_family(flux, -1.0, 1.0, 16, CellGrid(32, 1.0))
    path = tmp_path / "family.json"
    save_family(family, path)
    assert json.loads(path.read_text())["flux"] == {
        "label": "custom_table",
        "params": {"const": 0.0, "linear": [0.0, 0.5, 0.0, -0.5], "quadratic": 1.0,
                   "period": 1.0},
    }
    back = load_family(path).flux
    centers = family.grid.centers()
    for ours, theirs in zip(back.sample(centers), flux.sample(centers)):
        assert ours.tobytes() == theirs.tobytes()
    assert np.any(flux.sample(centers).c1 != 0.0)


def spliced(table, at, values):
    table = table.copy()
    table[:, at:at + len(values)] = values
    return table


def shifted_about(family, knot, mean):
    w = Profile(family.grid, family.profiles[knot])
    return family.shifted_by(normalize_about_wp(family.flux, w), w, mean)


# -0.0, the exponent form at both ends and on both sides of 1, and a decimal
# point at each position repr writes without an exponent (1.5e-05 .. 1.5e+16)
SPLICED = [-0.0, 5e-324, 1e-05, 1e16, 1.5e300, 2.0] + [1.5 * 10.0**k for k in range(-5, 17)]


def header_dump_of(fam) -> bytes:
    """json.dumps of a family's header, as save_family must write it."""
    header = {
        "format": "convstab-family-2",
        "flux": {"label": fam.flux.label, "params": dict(fam.flux.params)},
        "period": fam.grid.period,
        "n_cells": fam.grid.n_cells,
        "p_grid": fam.p_grid.tolist(),
        "alpha": fam.alpha,
    }
    return (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")


def test_family_file_is_the_json_dump_of_its_payload(tmp_path, family_128):
    # the header's bytes are json.dumps'; the tables sit in family.npy.  The
    # profiles take every spliced value of either sign; the derivative
    # profiles only positive ones, so alpha reads 5e-324
    fam = family_128
    spliced_fam = replace(
        fam,
        profiles=spliced(spliced(fam.profiles, 5, SPLICED), 100, [-v for v in SPLICED]),
        dp_profiles=spliced(fam.dp_profiles, 100, [v for v in SPLICED if v > 0]),
    )
    assert spliced_fam.alpha == 5e-324
    for fam in (fam, spliced_fam):
        path = tmp_path / "family.json"
        save_family(fam, path)
        assert path.read_bytes() == header_dump_of(fam)
        assert_tables_round_trip(path, fam)
    assert b'"alpha": 5e-324' in path.read_bytes()


def assert_tables_round_trip(path, fam):
    """family.npy beside ``path`` and load_family both give fam's tables, bit
    for bit."""
    tables = np.load(path.with_suffix(".npy"))
    back = load_family(path)
    for k, name in enumerate(("profiles", "dp_profiles")):
        assert tables[k].tobytes() == getattr(fam, name).tobytes(), name
        assert getattr(back, name).tobytes() == getattr(fam, name).tobytes(), name
    assert back.alpha == fam.alpha


def edge_values() -> np.ndarray:
    """Finite values where shortest round-trip digits go wrong first.

    Zero, the smallest subnormals, every power of two, the powers of ten and
    the neighbours of both, the integers next to 2**53, and the switches
    between positional and exponent form; positive, in no particular order.
    """
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    knots = np.concatenate([powers, tens])
    integers = [float(2**53 + d) for d in range(-40, 41)]
    switches = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0]
    values = np.concatenate([knots, np.nextafter(knots, np.inf), np.nextafter(knots, 0.0),
                             integers, switches, np.arange(1, 22) * 5e-324, [0.0]])
    return values[np.isfinite(values)]


@pytest.mark.parametrize("name", ["profiles", "dp_profiles"])
def test_family_file_round_trips_edge_values_bit_for_bit(tmp_path, family_128, name):
    # the edge values of either sign, a table at a time; the derivative
    # table takes positive values only, as alpha must stay positive
    values = edge_values()
    values = values[values > 0] if name == "dp_profiles" else np.concatenate([values, -values])
    table = getattr(family_128, name)
    path = tmp_path / "family.json"
    for start in range(0, values.size, table.size):
        chunk = values[start:start + table.size]
        filled = table.copy().reshape(-1)
        filled[:chunk.size] = chunk
        fam = replace(family_128, **{name: filled.reshape(table.shape)})
        save_family(fam, path)
        assert path.read_bytes() == header_dump_of(fam)
        assert_tables_round_trip(path, fam)


@pytest.mark.parametrize("seed", range(4))
def test_family_file_of_raw_bit_pattern_tables_is_the_json_dump(tmp_path, family_128, seed):
    # every finite double is as likely as any other: the header must read as
    # json.dumps writes it, and the tables come back with the same bits
    rng = np.random.default_rng(seed)
    shape = family_128.profiles.shape
    profiles, dp_profiles = rng.integers(0, 2**64, size=(2, *shape), dtype=np.uint64).view(
        np.float64)
    profiles[~np.isfinite(profiles)] = -0.0
    dp_profiles = np.abs(dp_profiles)
    dp_profiles[~np.isfinite(dp_profiles) | (dp_profiles == 0.0)] = 5e-324
    fam = replace(family_128, profiles=profiles, dp_profiles=dp_profiles)
    path = tmp_path / "family.json"
    save_family(fam, path)
    assert path.read_bytes() == header_dump_of(fam)
    assert_tables_round_trip(path, fam)


def test_a_family_whose_flux_the_file_cannot_name_is_not_saved(tmp_path, family_128):
    # the shifted family's normalized flux has no built-in label to rebuild
    # from: neither the header nor the tables are written
    fam = shifted_about(family_128, 16, 0.0)
    path = tmp_path / "family.json"
    with pytest.raises(ValueError, match=repr(fam.flux.label)):
        save_family(fam, path)
    assert not list(tmp_path.iterdir())


def test_a_header_path_that_is_its_own_table_path_is_refused(tmp_path, family_128):
    # the tables go to path.with_suffix(".npy"), so a header path ending in
    # .npy would be overwritten by its own header
    path = tmp_path / "family.npy"
    with pytest.raises(ValueError, match="header and its tables would both be"):
        save_family(family_128, path)
    assert not list(tmp_path.iterdir())


def test_shifted_family_centers_the_background(family_128):
    knot = int(np.flatnonzero(np.isclose(family_128.p_grid, 0.5))[0])
    w_p = Profile(family_128.grid, family_128.profiles[knot])
    g = normalize_about_wp(family_128.flux, w_p)
    shifted = family_128.shifted_by(g, w_p, 0.5)
    assert shifted.flux is g
    assert np.array_equal(shifted.p_grid, family_128.p_grid - 0.5)
    zero = int(np.flatnonzero(np.isclose(shifted.p_grid, 0.0))[0])
    assert np.all(shifted.profiles[zero] == 0.0)
    assert np.array_equal(shifted.profiles, family_128.profiles - w_p.values)
    assert np.array_equal(shifted.dp_profiles, family_128.dp_profiles)
    assert shifted.alpha == family_128.alpha


def test_family_tables_are_checked_read_only_copies(family_128):
    fam = family_128
    assert fam.profiles.shape == fam.dp_profiles.shape == (33, 128)
    assert not fam.profiles.flags.writeable and not fam.dp_profiles.flags.writeable
    args = dict(flux=fam.flux, grid=fam.grid, p_grid=fam.p_grid)
    for name in ("profiles", "dp_profiles"):
        tables = dict(profiles=fam.profiles, dp_profiles=fam.dp_profiles)
        for bad in (tables[name][:-1], tables[name][:, 1:], tables[name][0]):
            with pytest.raises(ValueError, match=f"{name} has shape"):
                StationaryFamily(**args, **{**tables, name: bad})
        for value in (np.nan, np.inf, -np.inf):
            bad = tables[name].copy()
            bad[3, 7] = value
            with pytest.raises(ValueError, match=f"{name} values must be finite"):
                StationaryFamily(**args, **{**tables, name: bad})
    # a caller's writeable array is copied, never aliased; a read-only one is kept
    mine = fam.profiles.copy()
    copy = StationaryFamily(**args, profiles=mine, dp_profiles=fam.dp_profiles)
    mine[0, 0] += 1.0
    assert np.array_equal(copy.profiles, fam.profiles)
    assert copy.dp_profiles is fam.dp_profiles


def test_family_alpha_is_derived_from_the_derivative_table(family_128):
    fam = family_128
    assert fam.alpha == float(fam.dp_profiles.min())
    args = dict(flux=fam.flux, grid=fam.grid, p_grid=fam.p_grid, profiles=fam.profiles)
    with pytest.raises(TypeError, match="alpha"):
        StationaryFamily(**args, dp_profiles=fam.dp_profiles, alpha=1.0)
    for value in (0.0, -0.0, -1.5e300):
        bad = fam.dp_profiles.copy()
        bad[3, 7] = value
        with pytest.raises(ValueError, match="alpha"):
            StationaryFamily(**args, dp_profiles=bad)


def test_newton_failure_raises(family_128, monkeypatch):
    monkeypatch.setattr(stationary, "NEWTON_MAX_ITERATIONS", 1)
    with pytest.raises(StationarySolveError):
        solve_stationary(forced(), 2.0, CellGrid(64, 1.0))


def failing_at(monkeypatch, p, times, owner=stationary, name="_bordered_newton"):
    """Make the Newton solve ``owner.name`` raise for mean ``p``, ``times`` times."""
    real = getattr(owner, name)
    means = []

    def solve(at_centers, mean, w0, h):
        means.append(mean)
        if mean == p and means.count(p) <= times:
            raise StationarySolveError("forced failure")
        return real(at_centers, mean, w0, h)

    monkeypatch.setattr(owner, name, solve)
    return means


def test_a_failed_continuation_step_is_retried_through_its_midpoint(family_128, monkeypatch):
    knot = family_128.p_grid[20]
    means = failing_at(monkeypatch, knot, times=1)
    fam = build_family(forced(), -2.0, 2.0, 32, CellGrid(128, 1.0))
    # the one failure at the knot halves its step: midpoint, then the knot again
    at = means.index(knot)
    assert means[at:at + 3] == [knot, knot - 0.0625, knot]
    assert len(means) == fam.p_grid.size + 2
    assert all(verdict["passed"] for verdict in family_verdicts(fam).values())
    assert np.array_equal(fam.p_grid, family_128.p_grid)
    assert np.abs(fam.profiles - family_128.profiles).max() <= NEWTON_TOLERANCE
    assert np.abs(fam.dp_profiles - family_128.dp_profiles).max() <= NEWTON_TOLERANCE


def doctored_at(monkeypatch, p, doctor):
    """Make ``stationary._bordered_newton`` hand back doctor(w) for mean ``p``."""
    real = stationary._bordered_newton

    def solve(at_centers, mean, w0, h):
        w = real(at_centers, mean, w0, h)
        return doctor(w.copy()) if mean == p else w

    monkeypatch.setattr(stationary, "_bordered_newton", solve)


def spike(w):
    # a zero-sum kink: the mean stays, the residual jumps by about 3e-6 / h^2
    w[40] += 1e-6
    w[41] -= 1e-6
    return w


def lifted(w):
    # the member's mean misses p by 1e-9, ten times the limit
    return w + 1e-9


@pytest.mark.parametrize("doctor, failed", [
    (spike, ["residuals"]),
    (lifted, ["residuals", "means"]),
])
def test_build_family_refuses_a_family_that_fails_a_verdict(family_128, monkeypatch, doctor,
                                                            failed):
    doctored_at(monkeypatch, family_128.p_grid[20], doctor)
    with pytest.raises(StationarySolveError, match="the family fails its verdicts: ") as exc:
        build_family(forced(), -2.0, 2.0, 32, CellGrid(128, 1.0))
    # the failed verdicts as family_verdicts gives them, in JSON
    named = json.loads(str(exc.value).split(": ", 1)[1])
    assert list(named) == failed, named
    assert not any(verdict["passed"] for verdict in named.values())
    assert named["residuals"]["max_residual"] > 1e-9
    assert sorted(named["residuals"]) == ["max_residual", "passed", "storage_floor", "tolerance"]
    if "means" in failed:
        assert MEAN_TOLERANCE < named["means"]["max_gap"] < 2e-9, named


def test_a_continuation_step_that_keeps_failing_names_its_target(family_128, monkeypatch):
    knot = family_128.p_grid[20]
    failing_at(monkeypatch, knot, times=np.inf)
    with pytest.raises(StationarySolveError, match=re.escape(f"continuation failed at p={knot}")):
        build_family(forced(), -2.0, 2.0, 32, CellGrid(128, 1.0))


def assert_family_bytes(flux, n_cells, m_intervals):
    grid = CellGrid(n_cells, 1.0)
    fam = build_family(flux, -2.0, 2.0, m_intervals, grid)
    p_grid, profiles, dp_profiles, alpha = oracles.build_family_reference(
        flux, -2.0, 2.0, m_intervals, grid)
    assert fam.p_grid.tobytes() == p_grid.tobytes()
    assert fam.profiles.tobytes() == profiles.tobytes()
    assert fam.dp_profiles.tobytes() == dp_profiles.tobytes()
    assert fam.alpha == alpha


REFERENCE_FLUXES = {
    "forced_A0.5": forced(0.5),
    "forced_A2": forced(2.0),
    "advection": builtin_flux("periodic_advection"),
}


@pytest.mark.parametrize("m_intervals", [16, 32, 64])
@pytest.mark.parametrize("n_cells", [8, 16, 128, 384])
@pytest.mark.parametrize("flux", list(REFERENCE_FLUXES.values()), ids=list(REFERENCE_FLUXES))
def test_family_equals_the_reference_walk_byte_for_byte(flux, n_cells, m_intervals):
    # the reference is the walk, the Newton solver and the bordered solve as
    # they were before the walk was trimmed, verbatim
    assert_family_bytes(flux, n_cells, m_intervals)


def test_a_retried_family_equals_the_reference_walk_byte_for_byte(family_128, monkeypatch):
    knot = family_128.p_grid[20]
    means = failing_at(monkeypatch, knot, times=1)
    reference_means = failing_at(monkeypatch, knot, times=1, owner=oracles,
                                 name="_bordered_newton_reference")
    assert_family_bytes(forced(), 128, 32)
    assert means == reference_means and means.count(knot) == 2


def test_an_off_knot_profile_equals_the_reference_byte_for_byte(family_128):
    flux, grid = forced(), family_128.grid
    guess = family_128.profiles[17]
    for initial in (None, guess):
        prof = solve_stationary(flux, 0.1234, grid, initial=initial)
        ref = oracles.solve_stationary_reference(flux, 0.1234, grid, initial=initial)
        assert prof.values.tobytes() == ref.values.tobytes()
        dp, dp_ref = solve_dp_w(flux, prof), oracles.solve_dp_w_reference(flux, ref)
        assert dp.values.tobytes() == dp_ref.values.tobytes()


# ---------------------------------------------------------------------------
# the weight theta


def cosine_advection(beta=0.05):
    """f(u, x) = beta cos(2 pi x) u, for which theta has a closed form."""
    k = 2.0 * np.pi
    return FluxModel("custom_table", 1.0, (0.0, lambda x: beta * np.cos(k * x), 0.0),
                     params={"beta": beta})


def test_theta_matches_exponential_closed_form():
    # continuum: theta ~ exp(-B sin(2 pi x) / (2 pi)) for b = B cos(2 pi x);
    # discretization converges at O(h^2), reaching 1e-9 at n = 8192
    beta = 0.05
    grid = CellGrid(8192, 1.0)
    theta = solve_theta(cosine_advection(beta), grid)
    x = grid.centers()
    exact = np.exp(-beta * np.sin(2 * np.pi * x) / (2 * np.pi))
    exact /= exact.mean()
    gap = np.abs(theta.values - exact).max()
    assert gap < 1e-9, f"closed-form weight gap {gap:.3e}"


def _theta_bordered(flux, grid):
    """Dense bordered solve of D1(b theta) + D2 theta = 0 with <theta> = 1."""
    n, h = grid.n_cells, grid.h
    x = grid.centers()
    b = flux.sample(x).c1
    idx = np.arange(n)
    up, dn = (idx + 1) % n, (idx - 1) % n
    A = np.zeros((n + 1, n + 1))
    A[idx, idx] = -2.0 / h**2
    A[idx, up] = 1.0 / h**2 + 0.5 * b[up] / h
    A[idx, dn] = 1.0 / h**2 - 0.5 * b[dn] / h
    A[:n, n] = 1.0
    A[n, :n] = 1.0 / n
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    theta = np.linalg.solve(A, rhs)[:n]
    return theta / theta.mean()


def _bordered_dense(fu, h, rhs, gap):
    """Dense solve of [J 1; 1^T/n 0] (d, lambda) = (rhs, gap), J = -D2 + D1 diag(fu)."""
    n = fu.size
    idx = np.arange(n)
    up, dn = (idx + 1) % n, (idx - 1) % n
    A = np.zeros((n + 1, n + 1))
    A[idx, idx] = 2.0 / h**2
    A[idx, up] = -1.0 / h**2 + 0.5 * fu[up] / h
    A[idx, dn] = -1.0 / h**2 - 0.5 * fu[dn] / h
    A[:n, n] = 1.0
    A[n, :n] = 1.0 / n
    sol = np.linalg.solve(A, np.append(rhs, gap))
    return sol[:n], sol[n]


@pytest.mark.parametrize("n_cells", [64, 128])
@pytest.mark.parametrize("p", [-2.0, 0.3, 2.0])
def test_bordered_solves_match_the_dense_oracle(n_cells, p):
    grid = CellGrid(n_cells, 1.0)
    flux, x = forced(), grid.centers()
    prof = solve_stationary(flux, p, grid)
    # one Newton update from a perturbed start, as _bordered_newton takes it
    guess = prof.values + 0.05 * np.sin(2 * np.pi * x) + 0.01
    rhs, gap = -cell_residual(flux, guess, grid), p - guess.mean()
    fu = flux_speed(flux, guess, x)
    d, lam = _bordered_solve(fu, grid.h, rhs, gap)
    d_ref, lam_ref = _bordered_dense(fu, grid.h, rhs, gap)
    assert np.abs(d - d_ref).max() < 1e-10 and abs(lam - lam_ref) < 1e-10
    dp = solve_dp_w(flux, prof).values
    dp_ref = _bordered_dense(flux_speed(flux, prof.values, x), grid.h, np.zeros(n_cells), 1.0)[0]
    assert np.abs(dp - dp_ref).max() < 1e-10


def test_theta_two_solvers_agree():
    grid = CellGrid(128, 1.0)
    g = normalize_about_wp(forced(), solve_stationary(forced(), 0.7, grid))
    rec = solve_theta(g, grid)
    bor = _theta_bordered(g, grid)
    gap = np.abs(rec.values - bor).max()
    assert gap < 1e-9, f"recurrence vs bordered: {gap:.3e}"
    assert rec.values.min() > 0
    assert abs(rec.values.mean() - 1.0) < 1e-13


def test_theta_of_zero_advection_is_one():
    theta = solve_theta(builtin_flux("custom_table"), CellGrid(64, 1.0))
    assert np.allclose(theta.values, 1.0, atol=1e-14)


def test_theta_is_the_dp_profile_of_the_reversed_flux():
    # theta solves the adjoint cell linearization: negating the advection
    # turns it into the mean-derivative equation at the zero profile
    grid = CellGrid(128, 1.0)
    g = normalize_about_wp(forced(), solve_stationary(forced(), 0.7, grid))
    theta = solve_theta(g, grid)
    # the exact negation of g's c1 and c2 = 1
    c0, c1, c2 = g.coefficients
    rev = FluxModel("reversed", g.period, (c0, lambda x: -c1(x), -c2))
    w0 = solve_stationary(rev, 0.0, grid)
    assert np.abs(w0.values).max() == 0.0
    dp = solve_dp_w(rev, w0)
    gap = np.abs(theta.values - dp.values).max()
    assert gap < 1e-10, f"theta vs reversed-flux dp profile: {gap:.3e}"


def test_theta_requires_normalized_flux():
    lifted = builtin_flux("custom_table", {"const": 0.3})
    with pytest.raises((StationarySolveError, ValueError)):
        solve_theta(lifted, CellGrid(64, 1.0))


def test_normalized_flux_has_zero_stationary_profile():
    grid = CellGrid(128, 1.0)
    g = normalize_about_wp(forced(), solve_stationary(forced(), 0.7, grid))
    z = solve_stationary(g, 0.0, grid)
    assert np.abs(z.values).max() < 1e-12
