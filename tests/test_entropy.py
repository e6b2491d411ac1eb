"""Entropy machinery: inversion, the eta integral, balance, fits, Nash ratio.

Closed forms used as oracles: for the constant flux the profiles are the
constants, so eta reduces to v^2/2 exactly; for a power-law decay series the
log-log fit must recover the planted exponent to regression accuracy.
"""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import convstab as cs
from convstab import (
    CellGrid,
    DiagnosticsSeries,
    FamilyInterpolant,
    FamilyRangeError,
    LineGrid,
    State,
    build_family,
    builtin_flux,
    dispersion_fit,
    entropy_balance_check,
    eta_field,
    invert_p,
    nash_ratio,
)
from convstab.entropy import _antiderivative, _pchip_coefficients


def forced():
    return builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})


@pytest.fixture(scope="module")
def forced_family():
    return build_family(forced(), -1.0, 1.0, 32, CellGrid(64, 1.0))


@pytest.fixture(scope="module")
def constant_family():
    return build_family(builtin_flux("constant_flux_burgers"), -1.0, 1.0, 32, CellGrid(64, 1.0))


def state_on(family, values, n_periods=2):
    grid = LineGrid(family.grid, n_periods, "periodic")
    return State(grid, np.asarray(values, float), 0.0)


# ---------------------------------------------------------------------------
# interpolation and inversion


def test_interpolant_is_exact_at_the_knots(forced_family):
    interp = FamilyInterpolant(forced_family)
    cells = np.arange(forced_family.grid.n_cells)
    for k in (0, 7, 16, 32):
        p = forced_family.p_grid[k]
        vals = interp.profile_at(np.full(cells.size, p), cells)
        gap = np.abs(vals - forced_family.profiles[k].values).max()
        assert gap < 1e-14, f"knot p={p}: interpolant off by {gap:.2e}"


def test_inversion_round_trip(forced_family):
    interp = FamilyInterpolant(forced_family)
    rng = np.random.default_rng(12)
    cells = np.arange(forced_family.grid.n_cells)
    for _ in range(5):
        p_star = rng.uniform(-0.95, 0.95)
        u = interp.profile_at(np.full(cells.size, p_star), cells)
        back = interp.invert(u, cells)
        gap = np.abs(back - p_star).max()
        assert gap < 1e-8, f"invert(profile_at({p_star:.4f})) off by {gap:.2e}"


def test_invert_p_matches_the_vector_path(forced_family):
    interp = FamilyInterpolant(forced_family)
    u = interp.profile_at(np.array([0.4]), np.array([10]))[0]
    p = invert_p(forced_family, u, 10)
    assert p == pytest.approx(0.4, abs=1e-8)


def _invert_by_profile_at(interp, u, cells):
    """The bisection as first written: 64 halvings, each through profile_at."""
    table = interp._values[:, cells]
    u = np.clip(u, table[0], table[-1])
    k = np.clip((u[None, :] >= table).sum(axis=0) - 1, 0, interp._p.size - 2)
    exact = table[k, np.arange(u.size)] == u
    exact_hi = table[k + 1, np.arange(u.size)] == u
    lo, hi = interp._p[k].copy(), interp._p[k + 1].copy()
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        go_right = interp.profile_at(mid, cells) < u
        lo, hi = np.where(go_right, mid, lo), np.where(go_right, hi, mid)
    pi = np.where(exact, interp._p[k], 0.5 * (lo + hi))
    return np.where(exact_hi, interp._p[k + 1], pi)


def test_invert_matches_the_profile_at_bisection_bit_for_bit(forced_family):
    interp = FamilyInterpolant(forced_family)
    table = forced_family.values_table()
    m, n = table.shape
    rng = np.random.default_rng(31)
    cells = np.tile(np.arange(n), 6)
    rows = rng.integers(0, m, cells.size)
    knots = table[rows, cells]
    # one ulp below an inner knot: the bisection's midpoint rounds onto p_{k+1}
    below_inner = np.nextafter(table[rng.integers(1, m - 1, cells.size), cells], -np.inf)
    last = interp.profile_at(rng.uniform(forced_family.p_grid[-2], 1.0, cells.size), cells)
    spread = rng.uniform(table[0, cells], table[-1, cells])
    for u in (knots, below_inner, last, spread, table[0, cells], table[-1, cells]):
        got, want = interp.invert(u, cells), _invert_by_profile_at(interp, u, cells)
        assert got.tobytes() == want.tobytes(), (
            f"{np.count_nonzero(got != want)} cells differ, max {np.abs(got - want).max():.2e}")


def _same_bits(ours, theirs):
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def test_interpolant_coefficients_equal_scipy_bit_for_bit(forced_family):
    interp = FamilyInterpolant(forced_family)
    p = forced_family.p_grid
    w_oracle = PchipInterpolator(p, forced_family.values_table(), axis=0)
    dp_oracle = PchipInterpolator(p, forced_family.dp_table(), axis=0)
    assert _same_bits(interp._w_coeffs, w_oracle.c)
    assert _same_bits(interp._w_anti, w_oracle.antiderivative().c)
    assert _same_bits(interp._dp_coeffs, dp_oracle.c)


def test_pchip_coefficients_equal_scipy_on_flat_runs_and_sign_changes():
    rng = np.random.default_rng(17)
    p = np.sort(rng.uniform(-1.0, 1.0, 12))
    y = rng.integers(-2, 3, (12, 400)) * rng.choice([1.0, 0.3, 1e-3], (12, 400))
    # both shape-preserving branches at the ends must run: a three-point
    # slope against the first secant's sign, and one over 3x a secant that
    # changes sign
    h0, h1 = p[1] - p[0], p[2] - p[1]
    m0, m1 = (y[1] - y[0]) / h0, (y[2] - y[1]) / h1
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flipped = np.sign(d) != np.sign(m0)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    assert flipped.any() and (steep & ~flipped).any()
    assert (np.diff(y, axis=0) == 0).any()
    oracle = PchipInterpolator(p, y, axis=0)
    coeffs = _pchip_coefficients(p, y)
    assert _same_bits(coeffs, oracle.c)
    assert _same_bits(_antiderivative(p, coeffs), oracle.antiderivative().c)
    two = np.array([-0.5, 0.75])
    assert _same_bits(_pchip_coefficients(two, y[:2]), PchipInterpolator(two, y[:2], axis=0).c)


def test_inversion_rejects_values_outside_the_family(forced_family):
    with pytest.raises(FamilyRangeError):
        invert_p(forced_family, 5.0, 0)
    with pytest.raises(FamilyRangeError):
        invert_p(forced_family, -5.0, 0)


# ---------------------------------------------------------------------------
# the eta field


def test_constant_flux_eta_is_half_v_squared(constant_family):
    c = 0.37
    state = state_on(constant_family, np.full(128, c))
    field = eta_field(constant_family, state)
    assert np.abs(field.pi - c).max() < 1e-8
    assert np.abs(field.eta - 0.5 * c * c).max() < 1e-9, "eta must reduce to v^2/2"
    assert field.total_eta == pytest.approx(state.grid.length * 0.5 * c * c, rel=1e-8)
    assert field.dissipation == pytest.approx(0.0, abs=1e-12)


def test_eta_is_nonnegative_and_zero_on_the_background(forced_family):
    # the inversion bisects, so pi lands within one bisection width of zero
    state = state_on(forced_family, np.zeros(128))
    field = eta_field(forced_family, state)
    assert np.abs(field.pi).max() < 1e-15
    assert field.eta.max() < 1e-15
    assert abs(field.total_eta) < 1e-15

    rng = np.random.default_rng(4)
    bumpy = state_on(forced_family, rng.uniform(-0.6, 0.6, 128))
    field = eta_field(forced_family, bumpy)
    assert np.all(field.eta >= 0.0)


def test_eta_sandwich_between_dp_extremes(forced_family):
    # alpha pi^2/2 <= eta <= (max dp) pi^2/2 up to interpolation slack: the
    # piecewise-cubic slope can exceed the knot-sampled extremes by O(dp^2)
    max_dp = max(dp.values.max() for dp in forced_family.dp_profiles)
    rng = np.random.default_rng(8)
    slack = lambda pi: 1e-8 * (1.0 + pi**2)
    for seed in range(3):
        values = rng.uniform(-0.7, 0.7, 128)
        field = eta_field(forced_family, state_on(forced_family, values))
        lower = 0.5 * forced_family.alpha * field.pi**2 - slack(field.pi)
        upper = 0.5 * max_dp * field.pi**2 + slack(field.pi)
        assert np.all(field.eta >= lower), f"seed {seed}: eta below alpha pi^2/2"
        assert np.all(field.eta <= upper), f"seed {seed}: eta above max-dp pi^2/2"


def test_eta_field_requires_values_in_range(forced_family):
    state = state_on(forced_family, np.full(128, 3.0))
    with pytest.raises(FamilyRangeError):
        eta_field(forced_family, state)


# ---------------------------------------------------------------------------
# entropy balance


def test_balance_residual_is_zero_for_a_stationary_sequence(forced_family):
    state = state_on(forced_family, np.zeros(128))
    fields = [eta_field(forced_family, state) for _ in range(4)]
    report = entropy_balance_check(fields, [0.0, 1.0, 2.0, 3.0])
    assert report.max_residual < 1e-30, f"stationary balance residual {report.max_residual:.2e}"
    assert report.residuals.shape == (2,)


def test_balance_requires_uniform_times(forced_family):
    state = state_on(forced_family, np.zeros(128))
    fields = [eta_field(forced_family, state) for _ in range(3)]
    with pytest.raises(ValueError):
        entropy_balance_check(fields, [0.0, 1.0, 2.5])
    with pytest.raises(ValueError):
        entropy_balance_check(fields[:2], [0.0, 1.0])


# ---------------------------------------------------------------------------
# decay-rate fitting


def power_law_series(exponent, constant=0.8, n=20):
    series = DiagnosticsSeries()
    for t in np.geomspace(1.0, 100.0, n):
        series.append(t, {"l2_dist": constant * t**exponent})
    return series


def test_dispersion_fit_recovers_a_planted_power_law():
    fit = dispersion_fit(power_law_series(-0.6), (1.0, 100.0))
    assert fit.exponent == pytest.approx(-0.6, abs=1e-9)
    assert fit.constant == pytest.approx(0.8, rel=1e-9)
    assert fit.r_squared > 1 - 1e-12
    assert not fit.converged


def test_dispersion_fit_flags_converged_runs():
    series = DiagnosticsSeries()
    for i, t in enumerate(np.geomspace(1.0, 100.0, 12)):
        series.append(t, {"l2_dist": 0.0 if i > 8 else 0.5 / (1 + t)})
    fit = dispersion_fit(series, (1.0, 100.0))
    assert fit.converged
    assert np.isnan(fit.exponent)


def test_dispersion_fit_validation():
    series = power_law_series(-0.5, n=5)
    with pytest.raises(ValueError):
        dispersion_fit(series, (1.0, 100.0))  # too few points
    with pytest.raises(ValueError):
        dispersion_fit(power_law_series(-0.5), (-1.0, 2.0))


# ---------------------------------------------------------------------------
# the Nash quotient


def test_nash_ratio_is_scale_invariant():
    rng = np.random.default_rng(3)
    h = 1 / 256
    pi = np.abs(np.sin(np.pi * np.arange(512) * h) * rng.uniform(0.5, 1.5, 512)) + 0.01
    base = nash_ratio(pi, h)
    for lam in (7.3, 1e-6, 4096.0):
        assert abs(nash_ratio(lam * pi, h) - base) < 1e-12, f"scaling by {lam} moved the ratio"


def test_nash_ratio_is_stable_under_refinement():
    f = lambda x: np.exp(-8 * (x - 1.5) ** 2) * (1 + 0.2 * np.sin(5 * x))
    vals = []
    for n in (256, 1024):
        h = 3.0 / n
        vals.append(nash_ratio(f((np.arange(n) + 0.5) * h), h))
    drift = abs(vals[0] - vals[1]) / vals[1]
    assert drift < 1e-3, f"refinement moved the Nash ratio by {drift:.2e}"


def test_nash_ratio_of_a_constant_signals_convergence():
    assert nash_ratio(np.full(64, 2.5), 0.1) == float("inf")
    assert nash_ratio(np.zeros(64), 0.1) == float("inf")


def test_nash_ratio_validation():
    with pytest.raises(ValueError):
        nash_ratio(np.ones(2), 0.1)
