"""Entropy machinery: inversion, the eta integral, balance, fits, Nash ratio.

Closed forms used as oracles: for the constant flux the profiles are the
constants, so eta reduces to v^2/2 exactly; for a power-law decay series the
log-log fit must recover the planted exponent to regression accuracy.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

import convstab as cs
from convstab import (
    CellGrid,
    DiagnosticsSeries,
    FamilyInterpolant,
    FamilyRangeError,
    LineGrid,
    Profile,
    State,
    build_family,
    builtin_flux,
    dispersion_fit,
    eta_field,
    nash_ratio,
    normalize_about_wp,
)
from convstab.entropy import SLOPE_RATIO_LIMIT, EntropyField, _hermite, _knot_integrals
from oracles import _horner, entropy_balance_check, profile_at


def forced():
    return builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})


@pytest.fixture(scope="module")
def forced_family():
    return build_family(forced(), -1.0, 1.0, 32, CellGrid(64, 1.0))


@pytest.fixture(scope="module")
def constant_family():
    return build_family(builtin_flux("constant_flux_burgers"), -1.0, 1.0, 32, CellGrid(64, 1.0))


def hermite_oracle(family):
    """scipy's cubic Hermite spline through the family's profiles with its
    own dp_profiles as knot slopes: the interpolant's cubic."""
    return CubicHermiteSpline(family.p_grid, family.profiles, family.dp_profiles, axis=0)


def shifted_about(family, knot):
    w = Profile(family.grid, family.profiles[knot])
    return family.shifted_by(normalize_about_wp(family.flux, w), w, 0.0)


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
        vals = profile_at(interp, np.full(cells.size, p), cells)
        gap = np.abs(vals - forced_family.profiles[k]).max()
        assert gap < 1e-14, f"knot p={p}: interpolant off by {gap:.2e}"


def test_inversion_round_trip(forced_family):
    interp = FamilyInterpolant(forced_family)
    rng = np.random.default_rng(12)
    cells = np.arange(forced_family.grid.n_cells)
    for _ in range(5):
        p_star = rng.uniform(-0.95, 0.95)
        u = profile_at(interp, np.full(cells.size, p_star), cells)
        back = interp.invert(u, cells)
        gap = np.abs(back - p_star).max()
        assert gap < 1e-8, f"invert(profile_at({p_star:.4f})) off by {gap:.2e}"


def test_invert_recovers_p_at_a_single_cell(forced_family):
    interp = FamilyInterpolant(forced_family)
    u = profile_at(interp, np.array([0.4]), np.array([10]))
    p = interp.invert(u, np.array([10]))[0]
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
        go_right = profile_at(interp, mid, cells) < u
        lo, hi = np.where(go_right, mid, lo), np.where(go_right, hi, mid)
    pi = np.where(exact, interp._p[k], 0.5 * (lo + hi))
    return np.where(exact_hi, interp._p[k + 1], pi)


EPS = np.finfo(float).eps


def _residual_and_bound(interp, pi, u, cells):
    """|w_pi - u| through profile_at, and 16 eps times the Horner envelope
    sum_j |c_j| |s|^j + |u| of the cubic profile_at evaluates (scipy's
    coefficients, which the interpolant's equal bit for bit)."""
    coeffs = hermite_oracle(interp.family).c
    j, s = interp._locate(pi)
    envelope = _horner(np.abs(coeffs[:, j, cells]), np.abs(s))
    return np.abs(profile_at(interp, pi, cells) - u), 16 * EPS * (envelope + np.abs(u))


def test_invert_agrees_with_the_profile_at_bisection(forced_family):
    interp = FamilyInterpolant(forced_family)
    table = forced_family.profiles
    m, n = table.shape
    rng = np.random.default_rng(31)
    cells = np.tile(np.arange(n), 6)
    rows = rng.integers(0, m, cells.size)
    knots = table[rows, cells]
    # one ulp below an inner knot: the bisection's midpoint rounds onto p_{k+1}
    below_inner = np.nextafter(table[rng.integers(1, m - 1, cells.size), cells], -np.inf)
    last = profile_at(interp, rng.uniform(forced_family.p_grid[-2], 1.0, cells.size), cells)
    spread = rng.uniform(table[0, cells], table[-1, cells])
    for u in (knots, below_inner, last, spread, table[0, cells], table[-1, cells]):
        got, want = interp.invert(u, cells), _invert_by_profile_at(interp, u, cells)
        residual, bound = _residual_and_bound(interp, got, u, cells)
        assert np.all(residual <= bound), f"residual {np.max(residual / bound):.2f}x its bound"
        gap = np.abs(got - want).max()
        assert gap <= 1e-14, f"{np.count_nonzero(got != want)} cells differ, max {gap:.2e}"
    # a knot's own value returns the knot's p bit for bit, the ends included
    assert interp.invert(knots, cells).tobytes() == forced_family.p_grid[rows].tobytes()
    assert np.all(interp.invert(table[0, cells], cells) == forced_family.p_grid[0])
    assert np.all(interp.invert(table[-1, cells], cells) == forced_family.p_grid[-1])


@pytest.fixture(scope="module")
def pinned_family():
    # the benchmark's pinned_snapshots family, shifted about its p = 0 member
    family = build_family(forced(), -2.0, 2.0, 64, CellGrid(384, 1.0))
    return shifted_about(family, 32)


@pytest.fixture(scope="module")
def canonical_family():
    # the canonical run's family (128 cells, M = 32), shifted about its p = 0 member
    family = build_family(forced(), -2.0, 2.0, 32, CellGrid(128, 1.0))
    return shifted_about(family, 16)


@pytest.mark.parametrize("u", [1e-30, -1e-30, 1e-20, -1e-20])
def test_invert_keeps_sign_and_relative_accuracy_next_to_a_zero_member(pinned_family, u):
    interp = FamilyInterpolant(pinned_family)
    zero = int(np.flatnonzero(pinned_family.p_grid == 0.0)[0])
    assert np.all(pinned_family.profiles[zero] == 0.0)
    cells = np.array([5, 100, 200])
    pi = interp.invert(np.full(cells.size, u), cells)
    # the interpolant's slope at the knot, which both adjacent cubics share:
    # the zero member's own dw/dp
    slope = pinned_family.dp_profiles[zero, cells]
    assert np.all(np.sign(pi) == np.sign(u)), f"pi = {pi} for u = {u}"
    assert np.all(np.abs(pi * slope / u - 1.0) <= 1e-8), f"pi = {pi} for u = {u}"


@functools.lru_cache(maxsize=None)
def _sweep_interpolant(which):
    # built here rather than in a fixture: hypothesis reprs every argument of
    # a failing example, and a family's repr runs to megabytes
    family = build_family(forced(), -1.0, 1.0, 32, CellGrid(64, 1.0))
    if which == "shifted":  # about its zero member
        family = shifted_about(family, 16)
    return FamilyInterpolant(family)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    which=st.sampled_from(["forced", "shifted"]),
    cell=st.integers(0, 63),
    knot=st.integers(0, 32),
    kind=st.sampled_from(["ulps", "tiny", "between", "beyond"]),
    ulps=st.integers(-2, 2),
    tiny=st.floats(1e-300, 1e-8),
    sign=st.sampled_from([-1.0, 1.0]),
    frac=st.floats(0.0, 1.0),
)
def test_invert_sweep(which, cell, knot, kind, ulps, tiny, sign, frac):
    interp = _sweep_interpolant(which)
    column = interp._values[:, cell]
    cells = np.array([cell])
    if kind == "ulps":  # a knot's value or a few ulps either side, the ends included
        u = column[knot]
        for _ in range(abs(ulps)):
            u = np.nextafter(u, np.sign(ulps) * np.inf)
    elif kind == "tiny":
        u = sign * tiny
    elif kind == "between":
        u = column[0] + frac * (column[-1] - column[0])
    else:  # past an end by more than the 1e-10 slack
        end = column[-1] if sign > 0 else column[0]
        u = end + sign * (1e-9 + frac) * (1.0 + abs(end))
        with pytest.raises(FamilyRangeError):
            interp.invert(np.array([u]), cells)
        return
    u = np.clip(np.array([u]), column[0], column[-1])
    pi = interp.invert(u, cells)
    k = min(int(np.searchsorted(column, u[0], side="right")) - 1, column.size - 2)
    assert interp._p[k] <= pi[0] <= interp._p[k + 1], f"pi {pi[0]!r} left bracket {k}"
    if u[0] in column:
        assert pi[0] == interp._p[int(np.flatnonzero(column == u[0])[0])]
    residual, bound = _residual_and_bound(interp, pi, u, cells)
    assert residual[0] <= bound[0], f"residual {residual[0]:.3e} above {bound[0]:.3e}"


def _same_bits(ours, theirs):
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def test_interpolant_coefficients_equal_scipy_bit_for_bit(forced_family):
    interp = FamilyInterpolant(forced_family)
    p = forced_family.p_grid
    w_oracle = hermite_oracle(forced_family)
    # the profile cubics that profile_at and invert form per cell, at every cell
    m, n = p.size - 1, forced_family.grid.n_cells
    formed = _hermite(*interp._hermite_data(np.repeat(np.arange(m), n), np.tile(np.arange(n), m)))
    assert _same_bits(np.stack(formed).reshape(4, m, n), w_oracle.c)
    # the (M + 1, n) knot-integral table is the closed-form integral from
    # p = 0 to each knot; scipy's antiderivative sums the pieces otherwise
    # (measured gap 4.4e-16 against a largest entry of 0.54)
    anti = w_oracle.antiderivative()
    want = anti(p) - anti(0.0)
    assert interp._integrals.shape == (m + 1, n)
    gap = np.abs(interp._integrals - want).max()
    assert gap <= 8 * EPS * np.abs(want).max(), f"knot integrals off by {gap:.2e}"


def test_hermite_coefficients_and_knot_integrals_match_scipy_with_arbitrary_slopes():
    rng = np.random.default_rng(17)
    p = np.sort(rng.uniform(-1.0, 1.0, 12))
    # flat runs, sign changes and slopes of either sign, none of them monotone
    y = rng.integers(-2, 3, (12, 400)) * rng.choice([1.0, 0.3, 1e-3], (12, 400))
    d = rng.standard_normal((12, 400)) * rng.choice([1.0, 10.0, 1e-3], (12, 400))
    assert (np.diff(y, axis=0) == 0).any()
    oracle = CubicHermiteSpline(p, y, d, axis=0)
    hk = np.diff(p)[:, None]
    coeffs = _hermite(hk, np.diff(y, axis=0) / hk, d[:-1], d[1:], y[:-1], y[1:])
    assert _same_bits(np.stack(coeffs), oracle.c)
    # the closed-form knot integrals against scipy's quadrature of the same
    # cubics (measured gap 5.0e-16 against a largest integral of 1.6)
    got = _knot_integrals(hk, y, d)
    want = np.stack([oracle.integrate(p[0], q) for q in p])
    assert np.all(got[0] == 0.0)
    gap = np.abs(got - want).max()
    assert gap <= 8 * EPS * np.abs(want).max(), f"knot integrals off by {gap:.2e}"


def test_profile_integral_starts_at_zero(forced_family, constant_family):
    cells = np.arange(64)
    # the p = 0 member's own values invert to p = 0 exactly, where the
    # integral is zero exactly
    interp = FamilyInterpolant(forced_family)
    assert forced_family.p_grid[16] == 0.0 and np.all(interp._integrals[16] == 0.0)
    pi, integral, _ = interp._solve(forced_family.profiles[16], cells)
    assert np.all(pi == 0.0) and np.all(integral == 0.0)
    # the constant flux's profiles are w_q = q, so the integral is p^2 / 2
    # and the mean derivative is 1
    p = np.linspace(-1.0, 1.0, 64)
    _, integral, dp = FamilyInterpolant(constant_family)._solve(p, cells)
    assert np.abs(integral - 0.5 * p**2).max() < 1e-14
    assert np.abs(dp - 1.0).max() < 1e-14


@pytest.mark.parametrize("which", ["forced", "pinned"])
def test_integral_and_dp_match_scipy_at_per_cell_p(which, forced_family, pinned_family):
    family = forced_family if which == "forced" else pinned_family
    interp = FamilyInterpolant(family)
    p, n = family.p_grid, family.grid.n_cells
    w = hermite_oracle(family).antiderivative()
    dp = hermite_oracle(family).derivative()
    rng = np.random.default_rng(23)
    # random p per cell, every knot at every cell, and both ends of the family,
    # each given as its value on the interpolant; scipy is read at the pi found
    p_star = np.concatenate([rng.uniform(p[0], p[-1], 2 * n), np.repeat(p, n),
                             p[[0, -1]].repeat(n)])
    cells = np.tile(np.arange(n), p_star.size // n)
    at, integral, dpw = interp._solve(profile_at(interp, p_star, cells), cells)
    # scipy evaluates every cell at each p: one block of n p values at a time
    diagonal = lambda oracle: np.concatenate(
        [np.diagonal(oracle(block)) for block in at.reshape(-1, n)])
    want_integral = diagonal(w) - w(0.0)[cells]
    want_dp = diagonal(dp)
    # measured gaps: the integral 4.4e-16 (forced) and 3.1e-15 (pinned), 3.7
    # and 6.5 eps of largest entries 0.54 and 2.2; dp 4.4e-16 against 1.08
    # (1.9 eps) on both, from the cubic about the nearer knot
    gap = np.abs(integral - want_integral).max()
    assert gap <= 8 * EPS * np.abs(want_integral).max(), f"integral off by {gap:.2e}"
    gap = np.abs(dpw - want_dp).max()
    assert gap <= 8 * EPS * np.abs(want_dp).max(), f"dp off by {gap:.2e}"


def test_midpoints_match_the_refined_family():
    # the canonical family (128 cells, p in [-2, 2]) at M = 32, read at its
    # interval midpoints, where the odd members of the M = 64 family sit;
    # measured 4.95e-9 in w and 8.53e-10 in dw/dp, against 1.29e-6 and
    # 2.33e-5 from monotone PCHIPs with secant-based slopes
    coarse, fine = (build_family(forced(), -2.0, 2.0, m, CellGrid(128, 1.0)) for m in (32, 64))
    interp = FamilyInterpolant(coarse)
    mid = fine.p_grid[1::2]
    assert np.array_equal(mid, (coarse.p_grid[:-1] + coarse.p_grid[1:]) / 2)
    at, cells = np.repeat(mid, 128), np.tile(np.arange(128), mid.size)
    w = profile_at(interp, at, cells)
    w_gap = np.abs(w - fine.profiles[1::2].ravel()).max()
    # dw/dp at the pi of each midpoint's value on the interpolant
    dp_gap = np.abs(interp._solve(w, cells)[2] - fine.dp_profiles[1::2].ravel()).max()
    assert w_gap < 2e-8, f"w off by {w_gap:.2e} at the midpoints"
    assert dp_gap < 4e-9, f"dw/dp off by {dp_gap:.2e} at the midpoints"


def _with_slope(family, knot, cell, times_secant):
    """The family with dp_profiles[knot, cell] set to times_secant times the
    smaller secant of the two intervals at that knot."""
    secants = np.diff(family.profiles[:, cell]) / np.diff(family.p_grid)
    dp = family.dp_profiles.copy()
    dp[knot, cell] = times_secant * min(secants[knot - 1], secants[knot])
    return replace(family, dp_profiles=dp), secants


def test_a_knot_slope_past_three_secants_is_refused_naming_the_limit(forced_family):
    assert SLOPE_RATIO_LIMIT == 3.0
    inside, _ = _with_slope(forced_family, 5, 7, 2.99)
    FamilyInterpolant(inside)
    outside, secants = _with_slope(forced_family, 5, 7, 3.01)
    # the worst ratio is the one over the smaller secant
    k = 4 if secants[4] < secants[5] else 5
    ratio = float(outside.dp_profiles[5, 7] / secants[k])
    with pytest.raises(FamilyRangeError) as info:
        FamilyInterpolant(outside)
    message = str(info.value)
    assert message.startswith(f"knot slope / secant ratio {ratio!r} at cell 7, interval {k} ")
    assert "is outside (0, 3]" in message and "larger family.M" in message
    # a column that does not increase has a ratio <= 0 and is refused too
    profiles = forced_family.profiles.copy()
    profiles[1, 3] = profiles[0, 3]
    with pytest.raises(FamilyRangeError, match="ratio inf at cell 3, interval 0 "):
        FamilyInterpolant(replace(forced_family, profiles=profiles))


def test_inversion_rejects_values_outside_the_family(forced_family):
    interp = FamilyInterpolant(forced_family)
    with pytest.raises(FamilyRangeError):
        interp.invert(np.array([5.0]), np.array([0]))
    with pytest.raises(FamilyRangeError):
        interp.invert(np.array([-5.0]), np.array([0]))


def test_invert_refuses_bad_cells(forced_family):
    interp = FamilyInterpolant(forced_family)
    for cells in ([-1], [64]):
        with pytest.raises(IndexError, match=r"cell indices must lie in \[0, 64\)"):
            interp.invert(np.zeros(1), np.array(cells))
    with pytest.raises(ValueError, match="matching size"):
        interp.invert(np.zeros(3), np.arange(2))


def test_an_out_of_range_message_prints_plain_floats(forced_family):
    # numpy scalars would print as np.float64(...) in stderr and verdicts.json
    u = np.array([0.0, 5.25, 0.0])
    cells = np.array([0, 7, 1])
    interp = FamilyInterpolant(forced_family)
    with pytest.raises(FamilyRangeError) as exc:
        interp.invert(u, cells)
    message = str(exc.value)
    assert repr(float(u[1])) in message and "at cell 7" in message
    assert repr(float(forced_family.profiles[-1, 7])) in message
    assert "np.float64" not in message


# ---------------------------------------------------------------------------
# the eta field


def test_constant_flux_eta_is_half_v_squared(constant_family):
    c = 0.37
    state = state_on(constant_family, np.full(128, c))
    field = eta_field(FamilyInterpolant(constant_family), state)
    assert np.abs(field.pi - c).max() < 1e-8
    assert np.abs(field.eta - 0.5 * c * c).max() < 1e-9, "eta must reduce to v^2/2"
    assert field.total_eta == pytest.approx(state.grid.length * 0.5 * c * c, rel=1e-8)
    assert field.dissipation == pytest.approx(0.0, abs=1e-12)


def test_eta_is_nonnegative_and_zero_on_the_background(forced_family):
    # the p = 0 member is zero only to about 5e-23, so pi is the root of the
    # cubic next to that knot, evaluated about the knot: a few times 1e-23
    interp = FamilyInterpolant(forced_family)
    state = state_on(forced_family, np.zeros(128))
    field = eta_field(interp, state)
    assert np.abs(field.pi).max() < 1e-20
    assert field.eta.max() < 1e-15
    assert abs(field.total_eta) < 1e-15

    rng = np.random.default_rng(4)
    bumpy = state_on(forced_family, rng.uniform(-0.6, 0.6, 128))
    field = eta_field(interp, bumpy)
    assert np.all(field.eta >= 0.0)


def test_eta_sandwich_between_dp_extremes(forced_family):
    # alpha pi^2/2 <= eta <= (max dp) pi^2/2 up to interpolation slack: the
    # piecewise-cubic slope can exceed the knot-sampled extremes by O(dp^2)
    max_dp = forced_family.dp_profiles.max()
    interp = FamilyInterpolant(forced_family)
    rng = np.random.default_rng(8)
    slack = lambda pi: 1e-8 * (1.0 + pi**2)
    for seed in range(3):
        values = rng.uniform(-0.7, 0.7, 128)
        field = eta_field(interp, state_on(forced_family, values))
        lower = 0.5 * forced_family.alpha * field.pi**2 - slack(field.pi)
        upper = 0.5 * max_dp * field.pi**2 + slack(field.pi)
        assert np.all(field.eta >= lower), f"seed {seed}: eta below alpha pi^2/2"
        assert np.all(field.eta <= upper), f"seed {seed}: eta above max-dp pi^2/2"


def test_entropy_field_copies_a_writeable_array_and_keeps_eta_fields_own(forced_family):
    pi, eta = np.linspace(-0.5, 0.5, 8), np.linspace(0.0, 1.0, 8)
    field = EntropyField(pi=pi, eta=eta, total_eta=1.0, dissipation=0.0)
    for given, kept in ((pi, field.pi), (eta, field.eta)):
        assert not np.shares_memory(given, kept) and not kept.flags.writeable
    pi[0] = eta[0] = 9.0
    assert field.pi[0] == -0.5 and field.eta[0] == 0.0
    # eta_field hands over fresh read-only arrays, which are kept as they are
    made = eta_field(FamilyInterpolant(forced_family), state_on(forced_family, np.zeros(128)))
    again = EntropyField(made.pi, made.eta, made.total_eta, made.dissipation)
    assert again.pi is made.pi and again.eta is made.eta
    with pytest.raises(ValueError, match="nonnegative"):
        EntropyField(pi=pi, eta=-eta, total_eta=0.0, dissipation=0.0)


def test_eta_field_requires_values_in_range(forced_family):
    state = state_on(forced_family, np.full(128, 3.0))
    with pytest.raises(FamilyRangeError):
        eta_field(FamilyInterpolant(forced_family), state)


def test_eta_below_roundoff_is_a_family_range_error_naming_the_cell(forced_family):
    # knot integrals offset at one cell stand for an interpolant that lost
    # monotonicity there: eta = u pi - integral reads about -1 at that cell
    interp = FamilyInterpolant(forced_family)
    integrals = interp._integrals.copy()
    integrals[:, 37] += 1.0
    object.__setattr__(interp, "_integrals", integrals)
    with pytest.raises(FamilyRangeError, match=r"^eta = -\S+ at cell 37 is negative beyond roundoff"):
        eta_field(interp, state_on(forced_family, np.zeros(128)))


def test_eta_refusal_in_a_later_period_names_the_family_cell(forced_family):
    # the offset sits at knots p >= 0.5 only, so only the second period,
    # whose cell 37 reads w_1, is at fault there: line position 64 + 37
    interp = FamilyInterpolant(forced_family)
    integrals = interp._integrals.copy()
    integrals[forced_family.p_grid >= 0.5, 37] += 1.0
    object.__setattr__(interp, "_integrals", integrals)
    u = np.concatenate([np.zeros(64), forced_family.profiles[-1]])
    with pytest.raises(FamilyRangeError,
                       match=r"^eta = -\S+ at cell 37 is negative beyond roundoff "
                             r"\(line position 101\)"):
        eta_field(interp, state_on(forced_family, u))


@pytest.mark.parametrize("u", [1e-20, -1e-20, 1e-8, -1e-8])
@pytest.mark.parametrize("which", ["canonical", "pinned"])
def test_eta_keeps_relative_accuracy_next_to_a_zero_member(which, u, canonical_family,
                                                           pinned_family):
    # eta = u^2 / (2 dw/dp) to leading order at the zero member, on either
    # side of it: the integral is read from the cubic about that knot
    # (measured 2.2e-16 relative at 1e-20 and 8.5e-11 at 1e-8, on both families)
    family = canonical_family if which == "canonical" else pinned_family
    zero = int(np.flatnonzero(family.p_grid == 0.0)[0])
    assert np.all(family.profiles[zero] == 0.0)
    n = family.grid.n_cells
    field = eta_field(FamilyInterpolant(family), state_on(family, np.full(n, u), n_periods=1))
    want = u**2 / (2.0 * family.dp_profiles[zero])
    gap = np.abs(field.eta / want - 1.0).max()
    assert gap <= 1e-8, f"eta off u^2 / (2 dw/dp) by {gap:.2e} relative at u = {u}"


# ---------------------------------------------------------------------------
# entropy balance


def test_balance_residual_is_zero_for_a_stationary_sequence(forced_family):
    state = state_on(forced_family, np.zeros(128))
    interp = FamilyInterpolant(forced_family)
    fields = [eta_field(interp, state) for _ in range(4)]
    report = entropy_balance_check(fields, [0.0, 1.0, 2.0, 3.0])
    assert report.max_residual < 1e-30, f"stationary balance residual {report.max_residual:.2e}"
    assert report.residuals.shape == (2,)


def test_balance_requires_uniform_times(forced_family):
    state = state_on(forced_family, np.zeros(128))
    interp = FamilyInterpolant(forced_family)
    fields = [eta_field(interp, state) for _ in range(3)]
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
