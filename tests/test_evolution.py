"""Time stepping: fixed points, CFL guard, heat-kernel oracle, determinism.

The pure-diffusion oracle is a dense wrapped-Gaussian convolution assembled
independently of the FFT path used by the solver, and the scheme order checks
pin the backward-Euler O(dt) error before any property tests rely on it.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import convstab as cs
from convstab import evolution
from convstab.evolution import _diffusion_solve, _eo_flux, _quadratic_at
from convstab.grids import _powers
from oracles import PicardDivergenceError, duhamel_picard


def forced():
    return cs.builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})


def periodic_line(n_cells=64, n_periods=8, period=1.0):
    return cs.LineGrid(cs.CellGrid(n_cells, period), n_periods, "periodic")


def initial_state(grid, u):
    return cs.State(grid, np.asarray(u, float), 0.0)


def random_zero_mean(grid, seed, amplitude=0.3):
    rng = np.random.default_rng(seed)
    x = grid.centers()
    u = np.zeros_like(x)
    for _ in range(4):
        c = rng.uniform(0.25, 0.75) * grid.length
        w = rng.uniform(0.2, 0.6)
        u += rng.uniform(-amplitude, amplitude) * np.exp(-((x - c) ** 2) / (2 * w * w))
    return u - u.mean()


def wrapped_heat_matrix(x, length, h, t):
    dx = x[:, None] - x[None, :]
    K = np.zeros_like(dx)
    for m in range(-6, 7):
        K += np.exp(-((dx + m * length) ** 2) / (4.0 * t))
    K *= h / np.sqrt(4.0 * np.pi * t)
    return K / K.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# stationary states are fixed points


@pytest.mark.parametrize("boundary_mode", ["periodic", "pinned_to_wp"])
def test_zero_state_is_an_exact_fixed_point_of_a_normalized_flux(boundary_mode):
    # pinned ghost cells sit at zero, so the pinned step is held to the same
    # exact fixed point as the periodic one
    cell = cs.CellGrid(64, 1.0)
    g = cs.normalize_about_wp(forced(), cs.solve_stationary(forced(), 0.7, cell))
    grid = cs.LineGrid(cell, 4, boundary_mode)
    state = initial_state(grid, np.zeros(grid.n_total))
    final, _ = cs.evolve(state, g, 1.0, cs.StepPolicy(dt_max=0.05))
    assert np.all(final.u == 0.0), "zero data under a normalized flux must stay zero"


# ---------------------------------------------------------------------------
# the Engquist-Osher closed form against its definition


def _eo_by_quadrature(flux, a, b, x):
    """F(a, b) = f(0) + int_0^a max(f_u, 0) + int_0^b min(f_u, 0), split at u*."""
    fu = lambda u: float(flux.d_u(u, x))
    f1, f2 = fu(0.0), float(flux.d_uu(0.0, x))
    sonic = [-f1 / f2] if f2 != 0.0 else []

    def integral(end, part):
        lo, hi = sorted((0.0, end))
        knots = [lo] + [s for s in sonic if lo < s < hi] + [hi]
        total = sum(quad(lambda u: part(fu(u), 0.0), p, q)[0]
                    for p, q in zip(knots[:-1], knots[1:]))
        return total if end >= 0.0 else -total

    return float(flux.eval(0.0, x)) + integral(a, max) + integral(b, min)


@pytest.mark.parametrize("flux", [
    forced(),                                                      # convex
    cs.builtin_flux("periodic_advection", {"amplitude": 0.5}),     # linear
    cs.builtin_flux("custom_table", {                              # concave
        "const": [0.1, -0.2, 0.3, 0.0, -0.1],
        "linear": [0.4, -0.3, 0.6, 0.1, -0.5],
        "quadratic": [-1.0, -0.6, -1.4, -0.8, -1.2],
    }),
    # a tiny quadratic puts the sonic point -f1/f2 at -+1e10
    cs.builtin_flux("custom_table", {"linear": 1.0, "quadratic": 1e-10}),
    cs.builtin_flux("custom_table", {"linear": -1.0, "quadratic": 1e-10}),
], ids=["forced_burgers", "periodic_advection", "concave_custom_table",
        "tiny_quadratic_rightward", "tiny_quadratic_leftward"])
def test_eo_closed_form_matches_its_definition(flux):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, flux.period, 60)
    a = rng.uniform(-2.0, 2.0, x.size)
    b = rng.uniform(-2.0, 2.0, x.size)
    closed = _eo_flux(_quadratic_at(flux, x), a, b)
    ref = np.array([_eo_by_quadrature(flux, ai, bi, xi) for ai, bi, xi in zip(a, b, x)])
    gap = np.abs(closed - ref).max()
    assert gap < 1e-14, f"closed-form vs quadrature Engquist-Osher flux: {gap:.2e}"


def normalized_forced():
    cell = cs.CellGrid(64, 1.0)
    return cs.normalize_about_wp(forced(), cs.solve_stationary(forced(), 0.7, cell))


@pytest.mark.parametrize("flux", [
    forced(),
    cs.builtin_flux("constant_flux_burgers"),
    normalized_forced(),
], ids=["forced_burgers", "constant_flux_burgers", "normalized_forced_burgers"])
def test_eo_fast_path_equals_the_general_path_bit_for_bit(flux):
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, flux.period, 4000)
    fast = _quadratic_at(flux, x)
    assert fast[-1], "every point of a Burgers-type flux is convex"
    general = fast[:-1] + (False,)
    u_star = fast[3]
    # states at u*, near it, at the unit scale and far from it, on both sides
    for spread in (0.0, 1e-9, 1.0, 1e4, 1e9):
        for centre in (0.0, u_star):
            a = centre + spread * rng.standard_normal(x.size)
            b = centre + spread * rng.standard_normal(x.size)
            assert _eo_flux(fast, a, b).tobytes() == _eo_flux(general, a, b).tobytes()


@pytest.mark.parametrize("flux", [
    cs.builtin_flux("periodic_advection", {"amplitude": 0.5}),
    cs.builtin_flux("custom_table", {"quadratic": [1.0, -0.5, 0.8, -1.2]}),
    # convex, but below the 1e-13 cut under which f counts as linear
    cs.builtin_flux("custom_table", {"linear": 1.0, "quadratic": 1e-14}),
], ids=["periodic_advection", "sign_changing_custom_table", "nearly_linear_custom_table"])
def test_linear_or_sign_changing_fluxes_take_the_general_path(flux):
    grid = cs.LineGrid(cs.CellGrid(64, flux.period), 2, "periodic")
    q = evolution._sampled(flux, grid)[0]
    assert not q[-1]
    # the branches matter: the convex-only path gives another flux here
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, q[0].size))
    assert not np.array_equal(_eo_flux(q[:-1] + (True,), a, b), _eo_flux(q, a, b))


# ---------------------------------------------------------------------------
# step mechanics


def test_cfl_timestep_formula():
    grid = periodic_line()
    u = np.full(grid.n_total, 2.0)
    state = initial_state(grid, u)
    flux = cs.builtin_flux("constant_flux_burgers")  # max |d_u f| = 2
    policy = cs.StepPolicy(cfl_fraction=0.5, dt_max=10.0)
    assert cs.cfl_timestep(state, flux, policy) == pytest.approx(0.5 * grid.h / 2.0, rel=1e-14)
    capped = cs.StepPolicy(cfl_fraction=0.5, dt_max=1e-4)
    assert cs.cfl_timestep(state, flux, capped) == 1e-4


def test_step_rejects_cfl_violation():
    grid = periodic_line()
    state = initial_state(grid, np.full(grid.n_total, 2.0))
    with pytest.raises(cs.CFLError):
        cs.step(state, cs.builtin_flux("constant_flux_burgers"), 10.0 * grid.h)


@pytest.mark.parametrize("boundary_mode", ["periodic", "pinned_to_wp"])
@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_step_raises_when_the_diffusion_solve_fails(dt, boundary_mode):
    # a zero flux passes the CFL guard at any dt, so the solve sees lam = dt / h^2
    grid = cs.LineGrid(cs.CellGrid(64, 1.0), 8, boundary_mode)
    state = initial_state(grid, random_zero_mean(grid, 8))
    with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
        cs.step(state, cs.builtin_flux("custom_table"), dt)


def dense_diffusion_matrix(lam, n, periodic):
    A = ((1.0 + 2.0 * lam) * np.eye(n)
         - lam * np.eye(n, k=1) - lam * np.eye(n, k=-1))
    if periodic:
        A[0, -1] = A[-1, 0] = -lam
    return A


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "pinned"])
@pytest.mark.parametrize("lam", [1e-300, 1e-9, 1e-3, 0.2, 16.4, 156.0, 1e4])
@pytest.mark.parametrize("n", [8, 9, 64, 1024])
def test_diffusion_solve_matches_a_dense_oracle(n, lam, periodic):
    rng = np.random.default_rng(n)
    smooth = np.sin(2.0 * np.pi * np.arange(n) / n) + 0.5
    units = sorted({0, 1, n // 3, n // 2, n - 2, n - 1})
    columns = np.column_stack([rng.standard_normal(n), smooth, np.eye(n)[:, units]])
    oracle = np.linalg.solve(dense_diffusion_matrix(lam, n, periodic), columns)
    for k, want in enumerate(oracle.T):
        got = _diffusion_solve(lam, columns[:, k], periodic)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
        if k >= 2:
            # unit right-hand sides: the inverse of the M-matrix is nonnegative,
            # and on periodic domains each response carries the unit mass
            assert got.min() >= 0.0
            if periodic:
                assert abs(got.sum() - 1.0) <= 1e-12


def test_the_diffusion_powers_hold_no_subnormal_number():
    # lam = 16.4 on 8192 cells: r^i passes the subnormal range mid-domain
    lam, n = 16.4, 8192
    r = lam / (0.5 * (1.0 + 2.0 * lam + np.sqrt(1.0 + 4.0 * lam)))
    pw = _powers(r, n)
    tiny = np.finfo(float).tiny
    assert 0 < pw.size < n and r ** pw.size < tiny, "only the underflowing tail is cut"
    assert np.all(np.abs(pw) >= tiny)
    assert np.abs(pw / r ** np.arange(pw.size, dtype=float) - 1.0).max() < 1e-13


def test_step_is_deterministic():
    grid = periodic_line()
    u = random_zero_mean(grid, 7)
    a = cs.step(initial_state(grid, u), forced(), 0.001)
    b = cs.step(initial_state(grid, u), forced(), 0.001)
    assert np.array_equal(a.u, b.u)


def _counting(flux, counts):
    """Copy of ``flux`` whose four callables count their calls in counts[0]."""
    def counted(fn):
        def call(*args):
            counts[0] += 1
            return fn(*args)
        return call
    return replace(flux, **{name: counted(getattr(flux, name))
                            for name in ("eval", "d_u", "d_uu", "d_x")})


def test_flux_is_sampled_once_per_flux_and_grid(monkeypatch):
    cell = cs.CellGrid(64, 1.0)
    g = cs.normalize_about_wp(forced(), cs.solve_stationary(forced(), 0.7, cell))
    grid = cs.LineGrid(cell, 4, "periodic")
    u0 = random_zero_mean(grid, 4)
    steps = [0]

    def counted_step(*args):
        steps[0] += 1
        return step(*args)

    step = evolution.step
    monkeypatch.setattr(evolution, "step", counted_step)
    calls = {}
    for n_steps in (10, 100):
        steps[0], counts = 0, [0]
        cs.evolve(initial_state(grid, u0), _counting(g, counts), 0.02,
                  cs.StepPolicy(dt_max=0.02 / n_steps))
        assert steps[0] == n_steps
        calls[n_steps] = counts[0]
    assert 0 < calls[10] == calls[100], f"model calls per run: {calls}"

    # alternating fluxes and grids: each step must match a step on a freshly
    # built flux, so a memo keyed on too little shows up here
    builders = (forced, lambda: cs.builtin_flux("periodic_advection", {"amplitude": 0.5}))
    fluxes = [build() for build in builders]
    grids = (periodic_line(64, 2), periodic_line(32, 4),
             cs.LineGrid(cs.CellGrid(64, 1.0), 2, "pinned_to_wp"))
    states = [initial_state(gr, random_zero_mean(gr, k)) for k, gr in enumerate(grids)]
    order = [(0, 0), (0, 0), (0, 1), (1, 1), (1, 2), (0, 2), (0, 0), (1, 0)]
    fresh = [cs.step(states[gi], builders[fi](), 1e-3).u for fi, gi in order]
    for (fi, gi), want in zip(order, fresh):
        # the state carries an equal copy of the grid: the memo compares grids
        # by equality, not identity
        state = replace(states[gi], grid=replace(grids[gi]))
        assert np.array_equal(cs.step(state, fluxes[fi], 1e-3).u, want)


def test_policy_validation():
    with pytest.raises(ValueError):
        cs.StepPolicy(cfl_fraction=0.0)
    with pytest.raises(ValueError):
        cs.StepPolicy(dt_max=-1.0)


# ---------------------------------------------------------------------------
# pure diffusion against the dense heat-kernel oracle


def test_diffusion_matches_wrapped_heat_kernel():
    grid = cs.LineGrid(cs.CellGrid(256, 1.0), 4, "periodic")
    x = grid.centers()
    u0 = np.exp(-((x - 2.0) ** 2) / 0.02)
    t_end = 0.25
    ref = wrapped_heat_matrix(x, grid.length, grid.h, t_end) @ u0
    gaps = {}
    for steps in (400, 800):
        state = initial_state(grid, u0.copy())
        final, _ = cs.evolve(state, cs.builtin_flux("custom_table"), t_end,
                             cs.StepPolicy(dt_max=t_end / steps))
        gaps[steps] = np.abs(final.u - ref).max()
    assert gaps[400] < 2e-4, f"heat oracle gap {gaps[400]:.3e}"
    ratio = gaps[400] / gaps[800]
    assert 1.7 < ratio < 2.3, f"backward Euler should be first order in dt, ratio {ratio:.3f}"


# ---------------------------------------------------------------------------
# conservation, comparison, contraction


def test_mass_is_conserved_on_periodic_domains():
    grid = periodic_line()
    u0 = random_zero_mean(grid, 21) + 0.4
    state = initial_state(grid, u0)
    final, _ = cs.evolve(state, forced(), 1.0, cs.StepPolicy(dt_max=0.01))
    drift = abs(grid.h * final.u.sum() - grid.h * u0.sum())
    assert drift < 1e-11, f"mass drift {drift:.3e}"


def test_comparison_principle():
    grid = periodic_line()
    lo = random_zero_mean(grid, 3)
    hi = lo + 0.05 + 0.05 * (1 + np.sin(grid.centers()))
    policy = cs.StepPolicy(dt_max=0.01)
    a, _ = cs.evolve(initial_state(grid, lo), forced(), 0.5, policy)
    b, _ = cs.evolve(initial_state(grid, hi), forced(), 0.5, policy)
    excess = float(np.max(a.u - b.u))
    assert excess <= 1e-12, f"ordered data must stay ordered, excess {excess:.3e}"


def test_l1_contraction():
    grid = periodic_line()
    u0 = random_zero_mean(grid, 5)
    v0 = random_zero_mean(grid, 6)
    policy = cs.StepPolicy(dt_max=0.01)
    a, _ = cs.evolve(initial_state(grid, u0), forced(), 0.5, policy)
    b, _ = cs.evolve(initial_state(grid, v0), forced(), 0.5, policy)
    before = cs.norm(u0 - v0, grid.h, "L1")
    after = cs.norm(a.u - b.u, grid.h, "L1")
    assert after <= before + 1e-10, f"L1 distance grew: {before:.6f} -> {after:.6f}"


# ---------------------------------------------------------------------------
# snapshots and resume determinism


def test_snapshots_land_exactly_and_resume_is_bitwise():
    grid = periodic_line()
    u0 = random_zero_mean(grid, 9)
    policy = cs.StepPolicy(dt_max=0.013)
    times = (0.4, 1.0, 1.7)
    full, series = cs.evolve(initial_state(grid, u0), forced(), 2.0, policy,
                             snapshot_times=times)
    assert np.array_equal(series.times, np.array(times))

    # resuming from a snapshot with the same remaining snapshot list replays
    # the identical step sequence
    half, _ = cs.evolve(initial_state(grid, u0), forced(), 1.0, policy,
                        snapshot_times=(0.4, 1.0))
    assert half.time == 1.0
    resumed, _ = cs.evolve(half, forced(), 2.0, policy, snapshot_times=(1.7,))
    assert np.array_equal(resumed.u, full.u), "split-and-resume must reproduce bit for bit"


def test_evolve_validates_times():
    grid = periodic_line()
    state = initial_state(grid, np.zeros(grid.n_total))
    with pytest.raises(ValueError):
        cs.evolve(state, forced(), -1.0)
    with pytest.raises(ValueError):
        cs.evolve(state, forced(), 1.0, snapshot_times=(2.0,))


# ---------------------------------------------------------------------------
# the Duhamel/Picard short-time oracle


def test_picard_with_zero_flux_is_plain_convolution():
    grid = cs.LineGrid(cs.CellGrid(64, 1.0), 8, "periodic")
    x = grid.centers()
    u0 = 0.3 * np.exp(-((x - 4.0) ** 2) / 0.25)
    t = 0.1
    out = duhamel_picard(initial_state(grid, u0.copy()),
                         cs.builtin_flux("custom_table"), t)
    ref = wrapped_heat_matrix(x, grid.length, grid.h, t) @ u0
    gap = np.abs(out.u - ref).max()
    assert gap < 1e-10, f"zero-flux Picard vs dense convolution: {gap:.3e}"


def test_picard_agrees_with_the_scheme_at_short_times():
    grid = cs.LineGrid(cs.CellGrid(64, 1.0), 8, "periodic")
    x = grid.centers()
    u0 = 0.3 * np.exp(-((x - 4.0) ** 2) / 0.25)
    u0 -= u0.mean()
    t = 0.05
    pic = duhamel_picard(initial_state(grid, u0.copy()), forced(), t)
    imex, _ = cs.evolve(initial_state(grid, u0.copy()), forced(), t,
                        cs.StepPolicy(dt_max=t / 64), snapshot_times=(t,))
    gap = np.abs(pic.u - imex.u).max()
    assert gap < 1e-2, f"independent solvers disagree by {gap:.3e} at t={t}"


def test_picard_diverges_for_long_horizons():
    grid = cs.LineGrid(cs.CellGrid(64, 1.0), 8, "periodic")
    x = grid.centers()
    u0 = 6.0 * np.exp(-((x - 4.0) ** 2) / 0.25)
    state = initial_state(grid, u0)
    with pytest.raises(PicardDivergenceError):
        duhamel_picard(state, cs.builtin_flux("constant_flux_burgers"), 10.0)


def test_picard_input_validation():
    pinned = cs.LineGrid(cs.CellGrid(64, 1.0), 8, "pinned_to_wp")
    state = initial_state(pinned, np.zeros(pinned.n_total))
    with pytest.raises(ValueError):
        duhamel_picard(state, forced(), 0.1)
    grid = periodic_line()
    ok = initial_state(grid, np.zeros(grid.n_total))
    with pytest.raises(ValueError):
        duhamel_picard(ok, forced(), -0.1)
    with pytest.raises(ValueError):
        duhamel_picard(ok, forced(), 0.1, n_substeps=8)


# ---------------------------------------------------------------------------
# state container


def test_state_requires_matching_shape():
    grid = periodic_line(n_cells=8, n_periods=2)
    with pytest.raises(ValueError):
        cs.State(grid, np.zeros(5), 0.0)
