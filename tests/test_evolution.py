"""Time stepping: fixed points, CFL guard, heat-kernel oracle, determinism.

The pure-diffusion oracle is a dense wrapped-Gaussian convolution assembled
independently of the FFT path used by the solver, and the scheme order checks
pin the backward-Euler O(dt) error before any property tests rely on it.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_banded

import convstab as cs
from convstab import evolution, scenarios
from convstab.evolution import _interface_flux
from convstab.grids import _cyclic_solve, _powers, _toeplitz_solve
from oracles import (
    PicardDivergenceError,
    duhamel_picard,
    flux_curvature,
    flux_speed,
    flux_value,
    interface_flux_reference,
)


EPS = np.finfo(float).eps


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


def kernel_on(flux, n_cells, n_periods=1, boundary_mode="periodic"):
    grid = cs.LineGrid(cs.CellGrid(n_cells, flux.period), n_periods, boundary_mode)
    return cs.StepKernel.from_flux(flux, grid)


def kernel_faces(grid):
    """The n + 1 faces a step's kernel samples: periodic domains sample the
    last at x = 0, the point of the first."""
    faces = grid.interfaces()
    if grid.boundary_mode == "periodic":
        faces[-1] = 0.0
    return faces


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
# the split Engquist-Osher flux against its definition


def _eo_by_quadrature(flux, a, b, x):
    """F(a, b) = c0 + int_0^a max(c1, 0) + int_0^b min(c1, 0)
    + int_0^a max(c2 s, 0) ds + int_0^b min(c2 s, 0) ds: the Engquist-Osher
    fluxes of c1 u and of c2 u^2 / 2, both integrals taken by quadrature."""
    c0, c1, c2 = (float(c) for c in flux.sample(x))

    def integral(end, part):
        value = quad(lambda s: part(c1, 0.0) + part(c2 * s, 0.0), *sorted((0.0, end)))[0]
        return value if end >= 0.0 else -value

    return c0 + integral(a, max) + integral(b, min)


EO_FLUXES = [
    forced(),                                                      # convex
    cs.builtin_flux("periodic_advection", {"amplitude": 0.5}),     # linear
    cs.builtin_flux("custom_table", {                              # concave
        "const": [0.1, -0.2, 0.3, 0.0, -0.1],
        "linear": [0.4, -0.3, 0.6, 0.1, -0.5],
        "quadratic": [-1.0, -0.6, -1.4, -0.8, -1.2],
    }),
    # a tiny quadratic: the old sonic point -c1/c2 sat at -+1e10
    cs.builtin_flux("custom_table", {"linear": 1.0, "quadratic": 1e-10}),
    cs.builtin_flux("custom_table", {"linear": -1.0, "quadratic": 1e-10}),
]
EO_FLUX_IDS = ["forced_burgers", "periodic_advection", "concave_custom_table",
               "tiny_quadratic_rightward", "tiny_quadratic_leftward"]


@pytest.mark.parametrize("flux", EO_FLUXES, ids=EO_FLUX_IDS)
def test_eo_closed_form_matches_its_definition(flux):
    rng = np.random.default_rng(11)
    kernel = kernel_on(flux, 60)
    x = kernel_faces(kernel.grid)
    a = rng.uniform(-2.0, 2.0, x.size)
    b = rng.uniform(-2.0, 2.0, x.size)
    closed = _interface_flux(kernel, a, b)
    ref = np.array([_eo_by_quadrature(flux, ai, bi, xi) for ai, bi, xi in zip(a, b, x)])
    gap = np.abs(closed - ref).max()
    assert gap < 1e-14, f"closed-form vs quadrature split Engquist-Osher flux: {gap:.2e}"


def normalized_forced():
    cell = cs.CellGrid(64, 1.0)
    return cs.normalize_about_wp(forced(), cs.solve_stationary(forced(), 0.7, cell))


SPLIT_FLUXES = [*EO_FLUXES, normalized_forced()]
SPLIT_FLUX_IDS = [*EO_FLUX_IDS, "normalized_forced_burgers"]


@pytest.mark.parametrize("boundary_mode", ["periodic", "pinned_to_wp"])
@pytest.mark.parametrize("flux", SPLIT_FLUXES, ids=SPLIT_FLUX_IDS)
def test_split_flux_is_consistent(flux, boundary_mode):
    # F(u, u) = f(u) to rounding, at every face and over ten decades of u
    kernel = kernel_on(flux, 60, 2, boundary_mode)
    c0, c1, c2 = flux.sample(kernel_faces(kernel.grid))
    rng = np.random.default_rng(19)
    for spread in (1e-6, 1e-3, 1.0, 1e2, 1e4):
        u = spread * rng.standard_normal(c0.size)
        want = flux.sample(kernel_faces(kernel.grid)).value(u)
        scale = np.abs(c0) + np.abs(c1 * u) + np.abs(c2 * u * u)
        assert np.all(np.abs(_interface_flux(kernel, u, u) - want) <= 4.0 * EPS * scale)


@pytest.mark.parametrize("flux", SPLIT_FLUXES, ids=SPLIT_FLUX_IDS)
def test_split_flux_is_nondecreasing_in_a_and_nonincreasing_in_b(flux):
    # a ladder of 1201 states through 0, against a random partner at each face
    kernel = kernel_on(flux, 60)
    n = kernel.f0.size
    rng = np.random.default_rng(23)
    ladder = np.linspace(-3.0, 3.0, 1201)
    partner = rng.uniform(-3.0, 3.0, n)
    in_a = np.array([_interface_flux(kernel, np.full(n, s), partner) for s in ladder])
    in_b = np.array([_interface_flux(kernel, partner, np.full(n, s)) for s in ladder])
    assert np.all(np.diff(in_a, axis=0) >= 0.0)
    assert np.all(np.diff(in_b, axis=0) <= 0.0)


@pytest.mark.parametrize("boundary_mode", ["periodic", "pinned_to_wp"])
@pytest.mark.parametrize("flux", SPLIT_FLUXES, ids=SPLIT_FLUX_IDS)
def test_split_flux_at_zero_is_c0_bit_for_bit(flux, boundary_mode):
    # F(0, 0) = c0 is what makes zero a fixed point of a normalized flux
    kernel = kernel_on(flux, 60, 2, boundary_mode)
    zeros = np.zeros(kernel.f0.size)
    for a, b in ((zeros, zeros), (-zeros, -zeros), (zeros, -zeros), (-zeros, zeros)):
        assert _interface_flux(kernel, a, b).tobytes() == kernel.f0.tobytes()


@pytest.mark.parametrize("flux", SPLIT_FLUXES, ids=SPLIT_FLUX_IDS)
def test_interface_flux_equals_the_reference_byte_for_byte(flux):
    # _interface_flux works in two temporaries; the reference forms every
    # intermediate afresh
    kernel = kernel_on(flux, 60, 4)
    rng = np.random.default_rng(17)
    n = kernel.f0.size
    zeros, signed = np.zeros(n), np.where(rng.random(n) < 0.5, 0.0, -0.0)
    states = [(zeros, zeros), (-zeros, -zeros), (signed, -signed)]
    for spread in (1e-9, 1.0, 1e4, 1e9):
        states.append(tuple(spread * rng.standard_normal((2, n))))
    # the overlapping views of one padded array, as step passes them
    padded = rng.standard_normal(n + 1)
    states.append((padded[:-1], padded[1:]))
    for u_left, u_right in states:
        before = u_left.tobytes(), u_right.tobytes()
        got = _interface_flux(kernel, u_left, u_right)
        assert got.tobytes() == interface_flux_reference(kernel, u_left, u_right).tobytes()
        assert (u_left.tobytes(), u_right.tobytes()) == before


# ---------------------------------------------------------------------------
# step mechanics


def test_cfl_timestep_formula():
    grid = periodic_line()
    u = np.full(grid.n_total, 2.0)
    state = initial_state(grid, u)
    # max |d_u f| = 2
    kernel = cs.StepKernel.from_flux(cs.builtin_flux("constant_flux_burgers"), grid)
    policy = cs.StepPolicy(cfl_fraction=0.5, dt_max=10.0)
    assert cs.cfl_timestep(state, kernel, policy) == pytest.approx(0.5 * grid.h / 2.0, rel=1e-14)
    capped = cs.StepPolicy(cfl_fraction=0.5, dt_max=1e-4)
    assert cs.cfl_timestep(state, kernel, capped) == 1e-4


def test_step_rejects_cfl_violation():
    grid = periodic_line()
    state = initial_state(grid, np.full(grid.n_total, 2.0))
    kernel = cs.StepKernel.from_flux(cs.builtin_flux("constant_flux_burgers"), grid)
    with pytest.raises(cs.CFLError):
        cs.step(state, kernel, 10.0 * grid.h)


@pytest.mark.parametrize("boundary_mode", ["periodic", "pinned_to_wp"])
@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_step_raises_when_the_diffusion_solve_fails(dt, boundary_mode):
    # a zero flux passes the CFL guard at any dt, so the solve sees lam = dt / h^2
    grid = cs.LineGrid(cs.CellGrid(64, 1.0), 8, boundary_mode)
    state = initial_state(grid, random_zero_mean(grid, 8))
    kernel = cs.StepKernel.from_flux(cs.builtin_flux("custom_table"), grid)
    with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
        cs.step(state, kernel, dt)


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
        got = _toeplitz_solve(1.0 + 2.0 * lam, -lam, columns[:, k], periodic)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
        if k >= 2:
            # unit right-hand sides: the inverse of the M-matrix is nonnegative,
            # and on periodic domains each response carries the unit mass
            assert got.min() >= 0.0
            if periodic:
                assert abs(got.sum() - 1.0) <= 1e-12


def banded_diffusion_oracle(lam, rhs, periodic):
    """(I - lam D2)^-1 rhs by other solvers: the Newton's cyclic dgtsv path
    with its Sherman-Morrison row when periodic, scipy's banded LU when not."""
    n = rhs.size
    if periodic:
        block = np.zeros((n, 2), order="F")
        block[:, 0] = rhs
        sol, row = _cyclic_solve(np.full(n - 1, -lam), np.full(n, 1.0 + 2.0 * lam),
                                 np.full(n - 1, -lam), -lam, -lam, block)
        return sol[:, 0] - sol[:, 1] * (row[0] / row[1])
    bands = np.zeros((3, n))
    bands[0, 1:], bands[1], bands[2, :-1] = -lam, 1.0 + 2.0 * lam, -lam
    return solve_banded((1, 1), bands, rhs)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "pinned"])
@pytest.mark.parametrize("lam", [0.2, 16.4, 156.0, 213.0, 1e4])
def test_diffusion_solve_matches_a_banded_oracle_at_8192_cells(lam, periodic):
    # the canonical grid; lam = 156 and 213 span the canonical run, where the
    # correction dots keep a few hundred powers of 8192
    n = 8192
    rng = np.random.default_rng(n)
    x = np.arange(n) / n
    columns = [rng.standard_normal(n), np.sin(2.0 * np.pi * x) + 0.5,
               np.sin(128.0 * np.pi * x) * np.exp(-(((x - 0.5) / 0.1) ** 2))]
    columns += [np.eye(1, n, k).ravel() for k in (0, 1, n // 2, n - 2, n - 1)]
    # measured gaps reach 0.74 (1 + 4 lam) eps at lam = 0.2 and at most 0.15 of
    # it from lam = 16.4 on; 1 + 4 lam bounds the condition number
    bound = 2.0 * (1.0 + 4.0 * lam) * np.finfo(float).eps
    for rhs in columns:
        before = rhs.copy()
        got = _toeplitz_solve(1.0 + 2.0 * lam, -lam, rhs, periodic)
        assert rhs.tobytes() == before.tobytes(), "the solve wrote into its right-hand side"
        want = banded_diffusion_oracle(lam, rhs, periodic)
        assert np.abs(got - want).max() <= bound * np.abs(want).max()


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "pinned"])
@pytest.mark.parametrize("lam", [0.2, 1e4, 1e6])
@pytest.mark.parametrize("n", [8, 16])
def test_the_end_corrections_overlap_on_short_domains(n, lam, periodic):
    # the powers of r span the whole domain here, so the corrections from the
    # two ends overlap, and at lam = 1e4 and 1e6 the r^(n+1) term of the
    # first column is of order one
    r = lam / (0.5 * (1.0 + 2.0 * lam + np.sqrt(1.0 + 4.0 * lam)))
    assert _powers(r, n).size == n
    rng = np.random.default_rng(n)
    smooth = np.sin(2.0 * np.pi * np.arange(n) / n) + 0.5
    columns = np.column_stack([rng.standard_normal(n), smooth,
                               np.eye(n)[:, [0, 1, n // 2, n - 2, n - 1]]])
    oracle = np.linalg.solve(dense_diffusion_matrix(lam, n, periodic), columns)
    # the same bound as at 8192 cells; measured gaps reach 1.13 (1 + 4 lam)
    # eps at lam = 0.2 and 0.03 of it from lam = 1e4 on
    bound = 2.0 * (1.0 + 4.0 * lam) * EPS
    for k, want in enumerate(oracle.T):
        got = _toeplitz_solve(1.0 + 2.0 * lam, -lam, columns[:, k], periodic)
        assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_the_diffusion_powers_hold_no_subnormal_number():
    # lam = 16.4 on 8192 cells: r^i would pass the subnormal range mid-domain
    lam, n = 16.4, 8192
    r = lam / (0.5 * (1.0 + 2.0 * lam + np.sqrt(1.0 + 4.0 * lam)))
    pw = _powers(r, n)
    cut = np.finfo(float).eps * (1.0 - r)
    assert 0 < pw.size < n
    assert r ** pw.size < cut, "the first dropped power lies below eps (1 - |r|)"
    assert np.abs(pw).min() >= cut >= np.finfo(float).tiny
    assert np.abs(pw / r ** np.arange(pw.size, dtype=float) - 1.0).max() < 1e-13


def test_step_is_deterministic():
    grid = periodic_line()
    u = random_zero_mean(grid, 7)
    a = cs.step(initial_state(grid, u), cs.StepKernel.from_flux(forced(), grid), 0.001)
    b = cs.step(initial_state(grid, u), cs.StepKernel.from_flux(forced(), grid), 0.001)
    assert np.array_equal(a.u, b.u)


def _raising_slots(flux):
    """Copy of ``flux`` whose four tracer slots raise when called."""
    def slot(name):
        def call(*args):
            raise AssertionError(f"a run path called the tracer slot {name}")
        return call
    return replace(flux, **{name: slot(name) for name in ("eval", "d_u", "d_uu", "d_x")})


def test_runs_and_family_builds_never_call_the_tracer_slots(monkeypatch, tmp_path):
    # instrumentation fills the four slots with dataclasses.replace; a run,
    # the verify trials and the stationary command's family build and
    # residual check complete with every slot raising
    builtin, normalize = scenarios.builtin_flux, scenarios.normalize_about_wp
    monkeypatch.setattr(scenarios, "builtin_flux", lambda *args: _raising_slots(builtin(*args)))
    monkeypatch.setattr(scenarios, "normalize_about_wp",
                        lambda *args: _raising_slots(normalize(*args)))
    config = cs.ScenarioConfig.from_dict({
        "flux": {"label": "forced_burgers", "params": {"amplitude": 0.5}},
        "grid": {"n_cells_per_period": 32, "n_periods": 8, "boundary_mode": "periodic"},
        "family": {"p_min": -1.0, "p_max": 1.0, "M": 16},
        "initial": {"shape": "dipole", "amplitude": 0.3, "width": 0.4, "center": 1.0},
        "run": {"t_end": 0.5, "snapshot_schedule": {"kind": "linear", "count": 3}},
        "checks": [],
        "output": str(tmp_path),
    })
    setup = cs.prepare_run(config)
    scenarios.write_outputs(tmp_path, setup.family_raw, cs.run_scenario(setup))
    verdicts = cs.semigroup_trials(config.flux, config.line_grid, 0.05, 1, 0)
    assert all(v["passed"] for v in verdicts.values())
    flux, cell = _raising_slots(forced()), cs.CellGrid(32, 1.0)
    family = cs.build_family(flux, -1.0, 1.0, 16, cell)
    for row in family.profiles:
        cs.cell_residual(flux, row, cell)
    # the raising slots were live: the run held the fluxes that carry them
    for held in (setup.flux_normalized, setup.family_raw.flux, config.flux):
        with pytest.raises(AssertionError, match="tracer slot d_x"):
            held.d_x(0.0, 0.0)


def test_evolve_samples_the_coefficients_once_per_run(monkeypatch):
    g = normalized_forced()
    calls = [0]

    def counted(coefficient):
        if not callable(coefficient):
            return coefficient

        def call(x):
            calls[0] += 1
            return coefficient(x)
        return call

    counted_flux = cs.FluxModel(g.label, g.period, tuple(map(counted, g.coefficients)))
    grid = cs.LineGrid(cs.CellGrid(64, 1.0), 4, "periodic")
    u0 = random_zero_mean(grid, 4)
    steps = [0]

    def counted_step(*args):
        steps[0] += 1
        return step(*args)

    step = evolution.step
    monkeypatch.setattr(evolution, "step", counted_step)
    reads = []
    for n_steps in (10, 100):
        steps[0], calls[0] = 0, 0
        cs.evolve(initial_state(grid, u0), counted_flux, 0.02,
                  cs.StepPolicy(dt_max=0.02 / n_steps))
        assert steps[0] == n_steps
        reads.append(calls[0])
    # the shifted c1 is the one function of x: one kernel, one read
    assert reads == [1, 1]


def test_step_refuses_a_kernel_built_for_another_grid():
    # all three grids hold 128 cells, so a kernel for one fits the others' arrays
    grids = (periodic_line(64, 2), periodic_line(32, 4),
             cs.LineGrid(cs.CellGrid(64, 1.0), 2, "pinned_to_wp"))
    kernels = [cs.StepKernel.from_flux(forced(), grid) for grid in grids]
    for k, (grid, kernel) in enumerate(zip(grids, kernels)):
        state = initial_state(grid, random_zero_mean(grid, k))
        want = cs.step(state, kernel, 1e-3).u
        # an equal copy of the grid is the same grid
        copy = replace(state, grid=replace(grid))
        assert copy.grid is not grid
        assert np.array_equal(cs.step(copy, kernel, 1e-3).u, want)
        for other in kernels[:k] + kernels[k + 1:]:
            with pytest.raises(ValueError, match="kernel's grid"):
                cs.step(state, other, 1e-3)


@pytest.mark.parametrize("boundary_mode", ["periodic", "pinned_to_wp"])
@pytest.mark.parametrize("flux", [
    cs.builtin_flux("constant_flux_burgers"),
    forced(),
    cs.builtin_flux("periodic_advection", {"amplitude": 0.5}),
    cs.builtin_flux("custom_table", {
        "const": [0.1, -0.2, 0.3, 0.0, -0.1],
        "linear": [0.4, -0.3, 0.6, 0.1, -0.5],
        "quadratic": [-1.0, -0.6, -1.4, -0.8, -1.2],
    }),
    normalized_forced(),
], ids=["constant_flux_burgers", "forced_burgers", "periodic_advection", "custom_table",
        "normalized_forced_burgers"])
def test_kernel_samples_equal_the_flux_callables(flux, boundary_mode):
    # the kernel holds f, d_u f and d_uu f at u = 0 on the faces, as the
    # flux's sampled coefficients give them, value for value
    grid = cs.LineGrid(cs.CellGrid(64, flux.period), 3, boundary_mode)
    kernel = cs.StepKernel.from_flux(flux, grid)
    faces = kernel_faces(grid)
    at_faces = np.zeros_like(faces)
    f1, f2 = flux_speed(flux, at_faces, faces), flux_curvature(flux, at_faces, faces)
    assert np.array_equal(kernel.f0, flux_value(flux, at_faces, faces))
    assert np.array_equal(kernel.f1_pos, np.maximum(f1, 0.0))
    assert np.array_equal(kernel.f1_neg, np.minimum(f1, 0.0))
    assert np.array_equal(kernel.half_f2, 0.5 * f2)
    if boundary_mode == "periodic":
        # the two end faces are one point, so their fluxes telescope
        for array in (kernel.f0, kernel.f1_pos, kernel.f1_neg, kernel.half_f2):
            assert array[-1].tobytes() == array[0].tobytes()
    # B0 and G cell by cell: c1 on the faces u > 0 and u < 0 each meet, and
    # c2 for both signs of u
    cells = range(grid.n_total)
    floor = max(max(f1[i + 1], 0.0) - min(f1[i], 0.0) for i in cells)
    slope = max(max(max(f2[i + 1], 0.0) - min(f2[i], 0.0),
                    max(f2[i], 0.0) - min(f2[i + 1], 0.0)) for i in cells)
    assert kernel.speed_floor == floor and kernel.speed_slope == slope
    arrays = [getattr(kernel, f.name) for f in fields(kernel)
              if isinstance(getattr(kernel, f.name), np.ndarray)]
    assert len(arrays) == 4 and not any(a.flags.writeable for a in arrays)


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
# the monotonicity bound: both halves of a step at cfl_fraction = 1


MONOTONE_FLUXES = [
    cs.builtin_flux("constant_flux_burgers"),
    forced(),
    cs.builtin_flux("periodic_advection"),
    cs.builtin_flux("custom_table"),
    EO_FLUXES[2],
    # c2 = +-1 at the knots k / 8: on 8 cells a period adjacent faces differ
    # in sign, and u_i < 0 meets |c2| from both faces, 2 max|c2| in all
    cs.builtin_flux("custom_table", {"quadratic": [1.0, -1.0] * 4}),
    normalized_forced(),
]
MONOTONE_FLUX_IDS = ["constant_flux_burgers", "forced_burgers", "periodic_advection",
                     "custom_table", "concave_custom_table", "alternating_custom_table",
                     "normalized_forced_burgers"]


def reach_states(n, seed):
    """States up to |u| = 3, past the packaged family windows p in [-2, 2]:
    smooth, rough, constant and alternating ones."""
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    normal = rng.standard_normal(n)
    return [3.0 * normal / np.abs(normal).max(), rng.uniform(-3.0, 3.0, n),
            2.5 * np.sin(6.0 * np.pi * x) + 0.5, np.full(n, 3.0), np.full(n, -3.0),
            np.where(np.arange(n) % 2 == 0, 3.0, -3.0), np.zeros(n)]


def explicit_coefficients(flux, grid, u, dt):
    """The explicit half's coefficients on u_(i-1), u_i and u_(i+1), formed
    from d_a F and d_b F of the split flux at each cell's two faces, with
    the flux sampled here, not through the kernel."""
    _, c1, c2 = flux.sample(grid.interfaces())
    if grid.boundary_mode == "periodic":
        left, right = np.roll(u, 1), np.roll(u, -1)
    else:
        left, right = np.concatenate([[0.0], u[:-1]]), np.concatenate([u[1:], [0.0]])
    d_a = lambda a, k: np.maximum(c1[k], 0.0) + np.maximum(c2[k] * a, 0.0)
    d_b = lambda b, k: np.minimum(c1[k], 0.0) + np.minimum(c2[k] * b, 0.0)
    cells = np.arange(u.size)
    lam = dt / grid.h
    lower = lam * d_a(left, cells)
    upper = -lam * d_b(right, cells + 1)
    diag = 1.0 - lam * (d_a(u, cells + 1) - d_b(u, cells))
    return lower, diag, upper


@pytest.mark.parametrize("boundary_mode", ["periodic", "pinned_to_wp"])
@pytest.mark.parametrize("n_cells", [8, 128, 1024])
@pytest.mark.parametrize("flux", MONOTONE_FLUXES, ids=MONOTONE_FLUX_IDS)
def test_both_halves_of_a_step_are_monotone_at_cfl_fraction_one(
        flux, n_cells, boundary_mode, monkeypatch):
    grid = cs.LineGrid(cs.CellGrid(n_cells, flux.period), 2, boundary_mode)
    kernel = cs.StepKernel.from_flux(flux, grid)
    policy = cs.StepPolicy(cfl_fraction=1.0, dt_max=1.0)
    solves = []

    def recorded(d, e, rhs, periodic):
        solves.append((d, e, periodic))
        return _toeplitz_solve(d, e, rhs, periodic)

    monkeypatch.setattr(evolution, "_toeplitz_solve", recorded)
    # dt meets S(u) = B0 + G max|u| at rounding, so a coefficient that is 0 in
    # exact arithmetic may come out a few eps below it
    slack = 8.0 * EPS
    for k, u in enumerate(reach_states(grid.n_total, n_cells)):
        state = initial_state(grid, u)
        dt = cs.cfl_timestep(state, kernel, policy)
        for coefficient in explicit_coefficients(flux, grid, u, dt):
            assert coefficient.min() >= -slack and coefficient.max() <= 1.0 + slack, (
                f"state {k}: explicit coefficient in "
                f"[{coefficient.min():.3e}, {coefficient.max():.3e}]")
        cs.step(state, kernel, dt)
        # the implicit half's matrix tridiag(e, d, e), as step hands it to the
        # solve: off-diagonals e <= 0, and column sums d + 2 e = 1, or
        # d + e >= 1 in the two pinned end columns
        d, e, periodic = solves.pop()
        assert periodic == (boundary_mode == "periodic")
        assert e <= 0.0 < d
        assert abs(d + 2.0 * e - 1.0) <= 4.0 * EPS * d
        if not periodic:
            assert d + e >= 1.0 - 4.0 * EPS * d


def _table(values):
    return st.lists(values, min_size=4, max_size=6)


SWEPT_FLUXES = st.one_of(
    st.floats(-2.0, 2.0).map(
        lambda a: cs.builtin_flux("forced_burgers", {"amplitude": a})),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-0.95, 0.95)).map(
        lambda p: cs.builtin_flux("periodic_advection", {"a0": p[0], "amplitude": p[1]})),
    # concave, near-zero and sign-changing c2 over tabulated c0 and c1
    st.tuples(_table(st.floats(-1.0, 1.0)), _table(st.floats(-1.5, 1.5)),
              st.one_of(_table(st.floats(-1.5, -0.1)), _table(st.floats(-1e-12, 1e-12)),
                        _table(st.floats(-1.5, 1.5)))).map(
        lambda t: cs.builtin_flux("custom_table",
                                  {"const": t[0], "linear": t[1], "quadratic": t[2]})),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(flux=SWEPT_FLUXES, n_cells=st.integers(8, 256), n_periods=st.integers(1, 2),
       boundary_mode=st.sampled_from(["periodic", "pinned_to_wp"]),
       amplitude=st.floats(0.01, 3.0), seed=st.integers(0, 2**32 - 1))
def test_one_step_at_cfl_fraction_one_orders_contracts_and_conserves(
        flux, n_cells, n_periods, boundary_mode, amplitude, seed):
    grid = cs.LineGrid(cs.CellGrid(n_cells, flux.period), n_periods, boundary_mode)
    kernel = cs.StepKernel.from_flux(flux, grid)
    rng = np.random.default_rng(seed)
    u, v = amplitude * rng.uniform(-1.0, 1.0, (2, grid.n_total))
    w = np.minimum(u + amplitude * rng.random(grid.n_total), amplitude)  # w >= u
    states = [initial_state(grid, a) for a in (u, v, w)]
    policy = cs.StepPolicy(cfl_fraction=1.0, dt_max=1.0)
    dt = min(cs.cfl_timestep(state, kernel, policy) for state in states)
    u1, v1, w1 = (cs.step(state, kernel, dt).u for state in states)
    h = grid.h
    # over the 150 examples w1 - u1 stayed above 1.4e-5 and the L1 distance
    # fell by at least 2.1e-3; the mass moved by up to 4.5e-14 in rounding
    assert (w1 - u1).min() >= -1e-13, "ordered states must stay ordered"
    before, after = h * np.abs(u - v).sum(), h * np.abs(u1 - v1).sum()
    assert after <= before + 1e-13, f"L1 distance grew: {before!r} -> {after!r}"
    if boundary_mode == "periodic":
        for a, b in ((u, u1), (v, v1), (w, w1)):
            assert abs(h * b.sum() - h * a.sum()) <= 1e-12


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
    assert np.array_equal(series.column("t"), np.array(times))

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


@pytest.mark.parametrize("early", [-1e-12, -5e-13, -1e-14, 0.0, 5e-13, 1e-12])
def test_a_snapshot_at_the_start_within_the_slack_is_observed_once(early):
    grid = periodic_line()
    state = cs.State(grid, random_zero_mean(grid, 3), 1.0)
    observer = lambda s: {"l1_dist": float(np.abs(s.u).sum())}
    _, series = cs.evolve(state, forced(), 1.5, snapshot_times=(1.0 + early, 1.5),
                          observe=observer)
    assert series.column("t").tolist() == [1.0, 1.5]
    # several times inside the slack, and t_end at the start, still observe once
    _, series = cs.evolve(state, forced(), 1.0, snapshot_times=(1.0 - 5e-13, 1.0),
                          observe=observer)
    assert series.column("t").tolist() == [1.0]
    with pytest.raises(ValueError, match="snapshot times must lie within"):
        cs.evolve(state, forced(), 1.5, snapshot_times=(1.0 - 2e-12, 1.5))


def test_a_snapshot_within_the_slack_past_t_end_ends_the_run_at_t_end():
    grid = periodic_line()
    state = initial_state(grid, random_zero_mean(grid, 3))
    observer = lambda s: {"l1_dist": float(np.abs(s.u).sum())}
    for late in (5e-13, evolution.TIME_SLACK, -5e-13):
        final, series = cs.evolve(state, forced(), 1.0, snapshot_times=[0.5, 1.0 + late],
                                  observe=observer)
        assert final.time == 1.0
        assert series.column("t").tolist() == [0.5, 1.0]
    # the start is an ordinary target: observed once when listed, never otherwise
    _, series = cs.evolve(state, forced(), 0.5, snapshot_times=[0.5], observe=observer)
    assert series.column("t").tolist() == [0.5]


def test_a_run_shorter_than_the_slack_takes_no_step(monkeypatch):
    grid = periodic_line()
    state = initial_state(grid, random_zero_mean(grid, 3))
    steps = counted_steps(monkeypatch)
    final, series = cs.evolve(state, forced(), 5e-13, snapshot_times=[0.0, 5e-13],
                              observe=lambda s: {"l1_dist": 0.0})
    assert steps == [] and final.time == 5e-13 and final.u is state.u
    # both ends are one time: the snapshots share the start's observation
    assert series.column("t").tolist() == [0.0]
    # the verify trials end their march by the same slack
    trial_steps = []
    monkeypatch.setattr(scenarios, "step",
                        lambda *args: trial_steps.append(args[2]) or evolution.step(*args))
    cs.semigroup_trials(forced(), grid, 5e-13, 1, 0)
    assert trial_steps == []
    cs.semigroup_trials(forced(), grid, 2e-12, 1, 0)
    # one step of each state of both pairs
    assert trial_steps == [2e-12] * 4


def counted_steps(monkeypatch):
    steps = []
    real = evolution.step

    def counting(state, kernel, dt):
        steps.append(dt)
        return real(state, kernel, dt)

    monkeypatch.setattr(evolution, "step", counting)
    return steps


def test_evolve_refuses_a_run_past_its_step_budget_before_its_first_step(monkeypatch):
    grid = periodic_line()
    state = initial_state(grid, random_zero_mean(grid, 3))
    steps = counted_steps(monkeypatch)
    monkeypatch.setattr(evolution, "MAX_STEPS", 10)
    # the CFL step is about 0.014 here: t = 2 is some 140 steps away
    with pytest.raises(cs.CFLError, match=r"need more than MAX_STEPS = 10 steps of dt=\S+ "
                                          r"\(S\(u\)=\S+\)"):
        cs.evolve(state, forced(), 2.0, snapshot_times=(1.0,))
    assert steps == []
    # t = 0.1 is fewer than 10 such steps away: the run goes to its end
    final, _ = cs.evolve(state, forced(), 0.1)
    assert final.time == 0.1 and 0 < len(steps) <= 10


def test_evolve_refuses_a_huge_finite_horizon_at_once(monkeypatch):
    grid = periodic_line()
    steps = counted_steps(monkeypatch)
    with pytest.raises(cs.CFLError, match=f"MAX_STEPS = {evolution.MAX_STEPS} steps"):
        cs.evolve(initial_state(grid, random_zero_mean(grid, 3)), forced(), 1e300)
    assert steps == []


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


def test_state_copies_a_writeable_array():
    grid = periodic_line(n_cells=8, n_periods=2)
    u = np.linspace(-1.0, 1.0, grid.n_total)
    state = cs.State(grid, u, 0.0)
    assert not np.shares_memory(state.u, u)
    u[0] = 7.0
    assert state.u[0] == -1.0
    assert not state.u.flags.writeable
    # a read-only view of a writeable array is copied too
    view = u[:]
    view.setflags(write=False)
    assert not np.shares_memory(cs.State(grid, view, 0.0).u, u)


def test_state_keeps_a_read_only_array_that_owns_its_data():
    grid = periodic_line(n_cells=8, n_periods=2)
    u = np.linspace(-1.0, 1.0, grid.n_total).copy()  # linspace returns a view
    u.setflags(write=False)
    assert cs.State(grid, u, 0.0).u is u


def test_step_output_is_read_only_and_passes_without_a_copy():
    grid = periodic_line(n_cells=16, n_periods=2)
    kernel = cs.StepKernel.from_flux(forced(), grid)
    after = cs.step(initial_state(grid, random_zero_mean(grid, 3)), kernel, 0.01)
    assert not after.u.flags.writeable
    assert replace(after, time=1.0).u is after.u
