"""Cell-problem solver: exact cases, quadrature oracles, family invariants.

The independent oracles here were written against the continuum equations
before the solver outputs were inspected: the advection profile comes from
integrating-factor quadrature of the once-integrated first-order form, the
mean-derivative profile from symmetric differencing of neighbouring solves,
and the weight from its exponential closed form.
"""

import json

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from convstab import (
    CellGrid,
    FluxModel,
    StationarySolveError,
    build_family,
    builtin_flux,
    cell_residual,
    normalize_about_wp,
    residual_floor,
    save_family,
    solve_dp_w,
    solve_stationary,
    solve_theta,
)
from convstab import stationary
from convstab.stationary import NEWTON_TOLERANCE, _bordered_solve
from oracles import load_family


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
    # build_family validates the family (_family_checks) before returning it
    family = build_family(forced(), -2.0, 2.0, 16, CellGrid(2048, 1.0))
    assert family.alpha == pytest.approx(0.922046, abs=1e-6)


def _nan_speed(flux):
    return FluxModel("nan_speed", flux.period, flux.eval,
                     lambda u, x: np.full(np.shape(u), np.nan), flux.d_uu, flux.d_x)


def test_non_finite_jacobian_raises():
    grid = CellGrid(64, 1.0)
    with pytest.raises(StationarySolveError):
        solve_stationary(_nan_speed(forced()), 0.7, grid)
    with pytest.raises(StationarySolveError):
        solve_dp_w(_nan_speed(forced()), solve_stationary(forced(), 0.7, grid))


def test_residual_floor_formula():
    grid = CellGrid(128, 1.0)
    values = np.full(128, 2.0)
    eps = np.finfo(float).eps
    assert residual_floor(values, grid) == pytest.approx(4 * eps * 2.0 * 128**2, rel=1e-12)
    # profiles below unit size use the unit scale
    assert residual_floor(0.1 * values, grid) == pytest.approx(4 * eps * 128**2, rel=1e-12)


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
    table = fam.values_table()
    assert np.all(np.diff(table, axis=0) > 0), "profiles must be pointwise increasing in p"
    assert fam.alpha > 0


def test_family_alpha_regression(family_128):
    # pinned value for the forced-burgers family, amplitude 0.5, M=32, n=128
    assert family_128.alpha == pytest.approx(0.9220826347872779, rel=1e-9)


def test_family_mean_and_dp_invariants(family_128):
    fam = family_128
    for prof, p in zip(fam.profiles, fam.p_grid):
        assert abs(prof.values.mean() - p) < 1e-10
    for dp in fam.dp_profiles:
        assert abs(dp.values.mean() - 1.0) < 1e-8
        assert dp.values.min() > 0
    assert fam.alpha == pytest.approx(min(dp.values.min() for dp in fam.dp_profiles), abs=0.0)


def test_family_residuals(family_128):
    fam = family_128
    flux = forced()
    tol = NEWTON_TOLERANCE
    worst = max(
        np.abs(cell_residual(flux, prof.values, fam.grid)).max() for prof in fam.profiles
    )
    cap = tol + max(residual_floor(prof.values, fam.grid) for prof in fam.profiles)
    assert worst <= cap, f"family residual {worst:.3e} above {cap:.3e}"


def test_family_refinement_in_p_nests(family_128):
    fine = build_family(forced(), -2.0, 2.0, 64, CellGrid(128, 1.0))
    for i, p in enumerate(family_128.p_grid):
        j = int(np.flatnonzero(np.isclose(fine.p_grid, p, atol=1e-14))[0])
        gap = np.abs(family_128.profiles[i].values - fine.profiles[j].values).max()
        assert gap < 1e-9, f"shared knot p={p}: profiles differ by {gap:.2e}"


def test_family_json_round_trip(tmp_path, family_128):
    path = tmp_path / "family.json"
    save_family(family_128, path)
    back = load_family(path)
    assert np.array_equal(back.p_grid, family_128.p_grid)
    assert back.alpha == family_128.alpha
    for a, b in zip(back.profiles, family_128.profiles):
        assert np.array_equal(a.values, b.values), "values must round-trip exactly"
    for a, b in zip(back.dp_profiles, family_128.dp_profiles):
        assert np.array_equal(a.values, b.values)
    assert back.flux.label == "forced_burgers"
    # the file is plain JSON
    with open(path) as handle:
        json.load(handle)


def test_shifted_family_centers_the_background(family_128):
    knot = int(np.flatnonzero(np.isclose(family_128.p_grid, 0.5))[0])
    w_p = family_128.profiles[knot]
    shifted = family_128.shifted_by(w_p, 0.5)
    assert np.array_equal(shifted.p_grid, family_128.p_grid - 0.5)
    zero = int(np.flatnonzero(np.isclose(shifted.p_grid, 0.0))[0])
    assert np.all(shifted.profiles[zero].values == 0.0)
    assert shifted.alpha == family_128.alpha


def test_newton_failure_raises(family_128, monkeypatch):
    monkeypatch.setattr(stationary, "NEWTON_MAX_ITERATIONS", 1)
    with pytest.raises(StationarySolveError):
        solve_stationary(forced(), 2.0, CellGrid(64, 1.0))


# ---------------------------------------------------------------------------
# the weight theta


def cosine_advection(beta=0.05):
    """f(u, x) = beta cos(2 pi x) u, for which theta has a closed form."""
    k = 2.0 * np.pi

    def b(x):
        return beta * np.cos(k * np.asarray(x, float))

    return FluxModel(
        "custom_table",
        1.0,
        lambda u, x: b(x) * np.asarray(u, float),
        lambda u, x: b(x) + np.zeros_like(np.asarray(u, float)),
        lambda u, x: np.zeros_like(np.asarray(u, float)),
        lambda u, x: -beta * k * np.sin(k * np.asarray(x, float)) * np.asarray(u, float),
        params={"beta": beta},
    )


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
    b = flux.d_u(np.zeros_like(x), x)
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
    fu = flux.d_u(guess, x)
    d, lam = _bordered_solve(fu, grid.h, rhs, gap)
    d_ref, lam_ref = _bordered_dense(fu, grid.h, rhs, gap)
    assert np.abs(d - d_ref).max() < 1e-10 and abs(lam - lam_ref) < 1e-10
    dp = solve_dp_w(flux, prof).values
    dp_ref = _bordered_dense(flux.d_u(prof.values, x), grid.h, np.zeros(n_cells), 1.0)[0]
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
    rev = FluxModel(
        "reversed", g.period,
        lambda u, x: -g.eval(u, x),
        lambda u, x: -g.d_u(u, x),
        lambda u, x: -g.d_uu(u, x),
        lambda u, x: -g.d_x(u, x),
    )
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
