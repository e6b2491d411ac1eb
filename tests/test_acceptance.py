"""End-to-end acceptance checks on the shipped scenario configurations.

Each test covers one headline guarantee, computes its quantities from a full
run of the packaged configurations, and prints a single [PASS]/[FAIL] line
with the measured numbers before asserting.  The canonical dipole run and its
doubled-domain variant are module fixtures shared across the later checks.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import convstab as cs
from convstab import cli
from convstab.scenarios import ScenarioConfig, prepare_run, run_scenario, write_outputs
from oracles import duhamel_picard, entropy_balance_check

CONFIG_DIR = Path(cs.__file__).parent / "configs"


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def load_snapshots(result, snapshots_dir):
    """Rebuild the normalized states from the .npy snapshot artifacts."""
    grid = result.setup.config.line_grid
    snapshots_dir = Path(snapshots_dir)
    background = np.load(snapshots_dir / "grid.npy")[1]
    states = []
    for path in sorted(snapshots_dir.glob("snapshot_t*.npy"),
                       key=lambda p: float(p.name[10:-4])):
        t = float(path.name[10:-4])
        states.append(cs.State(grid, np.load(path) - background, t))
    return states


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    config = ScenarioConfig.from_json(CONFIG_DIR / "canonical_dipole.json")
    out = tmp_path_factory.mktemp("canonical")
    setup = prepare_run(config)
    start = time.perf_counter()
    result = run_scenario(setup)
    paths = write_outputs(out, setup.family_raw, result)
    return {"result": result, "paths": paths, "seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def doubled():
    def edit(doc):
        doc["grid"]["n_periods"] = 128
        doc["checks"] = ["dispersion_exponent"]
        doc["output"] = "out/doubled"

    config = ScenarioConfig.from_json(CONFIG_DIR / "canonical_dipole.json", edit)
    setup = prepare_run(config)
    start = time.perf_counter()
    result = run_scenario(setup)
    return {"result": result, "seconds": time.perf_counter() - start}


def test_criterion_1_constant_flux_cell_problem():
    flux = cs.builtin_flux("constant_flux_burgers")
    grid = cs.CellGrid(128, 1.0)
    start = time.perf_counter()
    worst_res, worst_gap = 0.0, 0.0
    for p in np.linspace(-2.0, 2.0, 16):
        prof = cs.solve_stationary(flux, p, grid)
        worst_gap = max(worst_gap, float(np.abs(prof.values - p).max()))
        worst_res = max(worst_res, float(np.abs(cs.cell_residual(flux, prof.values, grid)).max()))
    seconds = time.perf_counter() - start
    ok = worst_gap == 0.0 and worst_res <= 1e-11 and seconds < 1.0
    report("criterion 1 (constant cell problem)", ok,
           f"sup|w_p - p| = {worst_gap:.1e}, residual = {worst_res:.1e}, {seconds:.2f}s")


def test_criterion_2_family_invariants():
    flux = cs.builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    start = time.perf_counter()
    family = cs.build_family(flux, -2.0, 2.0, 64, cs.CellGrid(256, 1.0))
    monotone = bool(np.all(np.diff(family.profiles, axis=0) > 0))
    dp_gap = max(abs(dp.mean() - 1.0) for dp in family.dp_profiles)
    solved = {n: cs.solve_stationary(flux, 0.7, cs.CellGrid(n, 1.0)).values
              for n in (64, 128, 256)}
    restrict = lambda v: 0.5 * (v[::2] + v[1::2])
    ratio = (np.abs(restrict(solved[128]) - solved[64]).max()
             / np.abs(restrict(solved[256]) - solved[128]).max())
    order = float(np.log2(ratio))
    seconds = time.perf_counter() - start
    ok = (monotone and dp_gap <= 1e-8 and family.alpha > 0
          and 1.7 <= order <= 2.3 and seconds < 30.0)
    report("criterion 2 (family invariants)", ok,
           f"monotone={monotone}, <dp>-1 = {dp_gap:.1e}, alpha = {family.alpha:.6f}, "
           f"order = {order:.3f}, {seconds:.1f}s")
    assert family.alpha == pytest.approx(0.9220552811713707, rel=1e-9)


def semigroup_trio(config_path, out, name):
    start = time.perf_counter()
    code = cli.main(["verify", "--config", str(config_path),
                     "--out", str(out), "--trials", "20", "--seed", "0"])
    seconds = time.perf_counter() - start
    verdicts = json.loads((out / "verdicts.json").read_text())["verdicts"]
    worst = {k: verdicts[k]["worst"] for k in ("comparison", "contraction", "conservation")}
    ok = (code == 0 and worst["comparison"] <= 1e-12 and worst["contraction"] <= 1e-10
          and worst["conservation"] <= 1e-10 and seconds < 300.0)
    report(name, ok,
           f"exit={code}, comparison {worst['comparison']:.1e}, "
           f"contraction {worst['contraction']:.1e}, conservation {worst['conservation']:.1e}, "
           f"{seconds:.1f}s")


def test_criterion_3_semigroup_trio(tmp_path):
    semigroup_trio(CONFIG_DIR / "verify_forced_burgers.json", tmp_path,
                   "criterion 3 (semigroup trio)")


def test_criterion_3_semigroup_trio_at_cfl_fraction_one(tmp_path):
    # the largest step the policy accepts, where the scheme's monotonicity
    # bound is met with equality
    doc = json.loads((CONFIG_DIR / "verify_forced_burgers.json").read_text())
    doc["run"]["cfl_fraction"] = 1.0
    config = tmp_path / "verify_cfl1.json"
    config.write_text(json.dumps(doc))
    semigroup_trio(config, tmp_path / "out", "criterion 3 (semigroup trio, cfl_fraction = 1)")


def test_criterion_4_duhamel_oracle():
    # flux = 0: the Picard solve must reduce to plain Gaussian convolution
    grid = cs.LineGrid(cs.CellGrid(64, 1.0), 8, "periodic")
    x = grid.centers()
    u0 = 0.3 * np.exp(-((x - 4.0) ** 2) / 0.25)
    out = duhamel_picard(cs.State(grid, u0.copy(), 0.0),
                         cs.builtin_flux("custom_table"), 0.1)
    dx = x[:, None] - x[None, :]
    K = np.zeros_like(dx)
    for m in range(-6, 7):
        K += np.exp(-((dx + m * grid.length) ** 2) / 0.4)
    K /= K.sum(axis=1, keepdims=True)
    conv_gap = float(np.abs(out.u - K @ u0).max())

    # forced flux: oracle-vs-scheme gap must shrink as h and dt are halved
    flux = cs.builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    t = 0.05
    gaps = []
    for n in (64, 128, 256):
        fine = cs.LineGrid(cs.CellGrid(n, 1.0), 8, "periodic")
        xf = fine.centers()
        v0 = 0.3 * (np.exp(-((xf - 3.0) ** 2) / 0.125) - np.exp(-((xf - 5.0) ** 2) / 0.125))
        v0 -= v0.mean()
        state = lambda: cs.State(fine, v0.copy(), 0.0)
        pic = duhamel_picard(state(), flux, t)
        imex, _ = cs.evolve(state(), flux, t, cs.StepPolicy(dt_max=t / (8 * n)),
                            snapshot_times=(t,))
        gaps.append(float(np.abs(pic.u - imex.u).max()))
    ok = conv_gap <= 1e-10 and gaps[0] > gaps[1] > gaps[2]
    report("criterion 4 (Duhamel oracle)", ok,
           f"zero-flux gap {conv_gap:.1e}, refinement gaps "
           f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}")


def test_criterion_5_entropy_suite(canonical):
    result = canonical["result"]
    family = result.setup.family
    series = result.series
    interp = cs.FamilyInterpolant(family)
    max_dp = family.dp_profiles.max()

    # slack covers the monotone-interpolation error of the family in p,
    # which grows with the knot spacing; it sits three orders below the
    # physical gap (max_dp - alpha) pi^2 / 2 between the two bounds
    eta_min, sandwich_low, sandwich_high = np.inf, np.inf, -np.inf
    for state in load_snapshots(result, canonical["paths"]["snapshots_dir"]):
        field = cs.eta_field(interp, state)
        slack = 1e-7 * (1.0 + field.pi**2)
        eta_min = min(eta_min, float(field.eta.min()))
        sandwich_low = min(sandwich_low, float(
            (field.eta - 0.5 * family.alpha * field.pi**2 + slack).min()))
        sandwich_high = max(sandwich_high, float(
            (field.eta - 0.5 * max_dp * field.pi**2 - slack).max()))

    l1_pi_worst = float(series.column("l1_pi").max())
    pi_budget = float(series.column("l1_dist")[0]) / family.alpha
    eta_rise = float(np.diff(series.column("total_eta")).max())

    # balance residual must at least halve when h (and the snapshot spacing)
    # is halved; smooth window after the initial layer
    residuals = []
    flux = cs.builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    for n, n_snap in ((32, 9), (64, 17), (128, 33)):
        cell = cs.CellGrid(n, 1.0)
        fam = cs.build_family(flux, -1.0, 1.0, 32, cell)
        knot = int(np.flatnonzero(np.isclose(fam.p_grid, 0.0))[0])
        w = cs.Profile(cell, fam.profiles[knot])
        g = cs.normalize_about_wp(flux, w)
        shifted = fam.shifted_by(g, w, 0.0)
        line = cs.LineGrid(cell, 8, "periodic")
        v0 = cs.perturbation_values(cs.PerturbationSpec("dipole", 0.3, 0.25, 0.8, None), line)
        fields, times = [], []
        sub = cs.FamilyInterpolant(shifted)

        def observe(state):
            fields.append(cs.eta_field(sub, state))
            times.append(state.time)
            return {}

        cs.evolve(cs.State(line, v0, 0.0), g, 3.0,
                  cs.StepPolicy(dt_max=0.02 * 32 / n),
                  snapshot_times=np.linspace(1.0, 3.0, n_snap), observe=observe)
        residuals.append(entropy_balance_check(fields, times).max_residual)
    halving = (residuals[0] / residuals[1], residuals[1] / residuals[2])

    ok = (eta_min >= 0.0 and sandwich_low >= 0.0 and sandwich_high <= 0.0
          and l1_pi_worst <= pi_budget + 1e-12 and eta_rise <= 1e-10
          and halving[0] >= 2.0 and halving[1] >= 2.0)
    report("criterion 5 (entropy suite)", ok,
           f"min eta = {eta_min:.1e}, sandwich margins ({sandwich_low:.1e}, {-sandwich_high:.1e}), "
           f"|pi|_1 {l1_pi_worst:.4f} <= {pi_budget:.4f}, max eta rise {eta_rise:.1e}, "
           f"balance ratios {halving[0]:.2f}/{halving[1]:.2f}")


def test_criterion_6_dispersion_rate(canonical, doubled):
    fit64 = cs.dispersion_fit(canonical["result"].series, (10.0, 100.0))
    fit128 = cs.dispersion_fit(doubled["result"].series, (10.0, 100.0))
    seconds = canonical["seconds"] + doubled["seconds"]
    toward = abs(fit128.exponent + 0.25) <= abs(fit64.exponent + 0.25)
    ok = (fit64.exponent <= -0.20 and fit64.r_squared >= 0.9
          and not fit64.converged and toward and seconds < 600.0)
    report("criterion 6 (dispersion rate)", ok,
           f"exponent {fit64.exponent:.4f} (r2 {fit64.r_squared:.4f}), doubled "
           f"{fit128.exponent:.4f} (r2 {fit128.r_squared:.4f}), {seconds:.0f}s")
    assert fit64.exponent == pytest.approx(-0.751, abs=0.02)


def test_criterion_7_lap_and_l1_suite(canonical):
    series = canonical["result"].series
    laps = series.column("lap_number")
    l1 = series.column("l1_dist")
    linf_V = series.column("linf_V")
    energy = series.column("weighted_energy")

    lap_ok = bool(np.all(np.diff(laps) <= 0))
    bound_margin = float((l1 - (2 * (laps + 1) * linf_V + 1e-9)).max())
    energy_rise = float(np.diff(energy).max())
    l1_rise = float(np.diff(l1).max())
    ratios = (l1[-1] / l1[0], linf_V[-1] / linf_V[0])

    ok = (lap_ok and bound_margin <= 0.0 and energy_rise <= 1e-9
          and l1_rise <= 1e-10 and ratios[0] <= 0.1 and ratios[1] <= 0.1)
    report("criterion 7 (lap and L1 suite)", ok,
           f"laps {int(laps[0])}->{int(laps[-1])}, bound margin {bound_margin:.1e}, "
           f"energy rise {energy_rise:.1e}, decay ratios l1 {ratios[0]:.4f}, "
           f"linf_V {ratios[1]:.4f}")


def test_criterion_8_determinism(tmp_path):
    config = str(CONFIG_DIR / "gaussian_l2.json")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["evolve", "--config", config, "--out", str(out)])
        assert code == 0, f"gaussian run exited {code}"
        outs.append(out)
    csv_match = (outs[0] / "diagnostics.csv").read_bytes() == \
                (outs[1] / "diagnostics.csv").read_bytes()
    snaps = [sorted((o / "snapshots").iterdir()) for o in outs]
    snap_match = all(a.name == b.name and a.read_bytes() == b.read_bytes()
                     for a, b in zip(*snaps))
    ok = csv_match and snap_match and len(snaps[0]) > 0
    report("criterion 8 (determinism)", ok,
           f"diagnostics byte-identical: {csv_match}, "
           f"{len(snaps[0])} snapshot files byte-identical: {snap_match}")
