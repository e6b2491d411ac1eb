"""Scenario documents, perturbations, prepared runs, and semigroup trials."""

import json
from pathlib import Path

import numpy as np
import pytest

from convstab import (
    CellGrid,
    ConfigError,
    EdgeBufferError,
    LineGrid,
    PerturbationSpec,
    builtin_flux,
    perturbation_values,
    prepare_run,
    run_scenario,
    semigroup_trials,
)
from convstab.floattext import repr_rows
from convstab.scenarios import ScenarioConfig, _write_snapshot


def base_document():
    return {
        "flux": {"label": "forced_burgers", "params": {"amplitude": 0.5, "period": 1.0}},
        "grid": {"n_cells_per_period": 32, "n_periods": 8, "boundary_mode": "periodic"},
        "family": {"p_min": -1.0, "p_max": 1.0, "M": 16},
        "initial": {"shape": "dipole", "amplitude": 0.3, "width": 0.4, "center": 1.0},
        "run": {
            "t_end": 2.0,
            "snapshot_schedule": {"kind": "linear", "count": 5},
            "cfl_fraction": 0.9,
            "dt_max": 0.05,
            "p": 0.0,
        },
        "checks": ["mass_conservation", "l1_dist_nonincreasing"],
        "output": "out/test_run",
    }


def mutate(path, value):
    doc = base_document()
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is ...:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


# ---------------------------------------------------------------------------
# document validation


def test_base_document_parses():
    config = ScenarioConfig.from_dict(base_document())
    assert config.flux_label == "forced_burgers"
    assert config.n_cells_per_period == 32
    assert config.checks == ("mass_conservation", "l1_dist_nonincreasing")


@pytest.mark.parametrize(
    "path, value",
    [
        (("family", "M"), 8),
        (("family", "m_intervals"), 16),  # wrong key name
        (("family", "p_min"), 2.0),
        (("grid", "n_cells_per_period"), 4),
        (("grid", "n_periods"), 0),
        (("grid", "boundary_mode"), "outflow"),
        (("initial", "shape"), "sawtooth"),
        (("initial", "width"), -0.5),
        (("run", "t_end"), 0.0),
        (("run", "cfl_fraction"), 1.5),
        (("run", "dt_max"), 0.0),
        (("run", "p"), 3.0),
        (("run", "snapshot_schedule"), {"kind": "log", "count": 5, "t_lo": 0.0, "t_hi": 2.0}),
        (("run", "snapshot_schedule"), {"kind": "quadratic", "count": 5}),
        (("checks",), ["mass_conservation", "positivity"]),
        (("checks",), "mass_conservation"),
    ],
)
def test_invalid_documents_raise_config_error(path, value):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(mutate(path, value))


def test_unknown_sections_and_keys_raise():
    doc = base_document()
    doc["extra"] = {}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(mutate(("grid", "n_ghost"), 2))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict([1, 2, 3])


def test_gaussian_bump_conflicts_with_zero_mean_checks():
    doc = mutate(("initial", "shape"), "gaussian_bump")
    doc["checks"] = ["l1_decay"]
    with pytest.raises(ConfigError, match="zero-mean"):
        ScenarioConfig.from_dict(doc)
    doc["checks"] = ["mass_conservation"]
    ScenarioConfig.from_dict(doc)  # mass-style checks are fine


def test_random_shape_requires_a_seed():
    doc = mutate(("initial", "shape"), "random_zero_mean")
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(doc)
    doc["initial"]["seed"] = 42
    ScenarioConfig.from_dict(doc)


def test_fit_window_must_sit_inside_the_snapshots():
    doc = base_document()
    doc["fit"] = {"t_lo": 0.5, "t_hi": 10.0}
    with pytest.raises(ConfigError, match="fit window"):
        ScenarioConfig.from_dict(doc)
    doc["fit"] = {"t_lo": 0.5, "t_hi": 2.0}
    config = ScenarioConfig.from_dict(doc)
    assert config.fit_window == (0.5, 2.0)


def test_document_round_trips_through_to_dict():
    original = ScenarioConfig.from_dict(base_document())
    back = ScenarioConfig.from_dict(json.loads(json.dumps(original.to_dict())))
    assert back == original


def test_from_json_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json(bad)
    with pytest.raises(OSError):
        ScenarioConfig.from_json(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# perturbations


def line_grid(n_cells=32, n_periods=8, mode="periodic"):
    return LineGrid(CellGrid(n_cells, 1.0), n_periods, mode)


def zero_sum_floor(values):
    """Pairwise summation noise floor the balancing is settled against."""
    return np.finfo(float).eps * np.log2(values.size) * np.abs(values).sum()


@pytest.mark.parametrize("n_cells", [32, 64, 128, 256])
def test_dipole_sum_cancels_to_summation_roundoff(n_cells):
    spec = PerturbationSpec("dipole", 0.3, 0.4, 1.0, None)
    values = perturbation_values(spec, line_grid(n_cells))
    floor = zero_sum_floor(values)
    assert abs(values.sum()) <= floor, (
        f"dipole sum {values.sum()!r} exceeds the noise floor {floor:.3e}"
    )
    assert values.max() > 0 > values.min()


def test_random_zero_mean_is_seeded_and_balanced():
    grid = line_grid()
    spec = PerturbationSpec("random_zero_mean", 0.3, 0.4, 0.0, 7)
    a = perturbation_values(spec, grid)
    b = perturbation_values(spec, grid)
    assert np.array_equal(a, b), "same seed must give the same field"
    assert abs(a.sum()) <= zero_sum_floor(a)
    other = perturbation_values(PerturbationSpec("random_zero_mean", 0.3, 0.4, 0.0, 8), grid)
    assert not np.array_equal(a, other), "different seeds must differ"


def test_gaussian_bump_is_positive_with_requested_amplitude():
    spec = PerturbationSpec("gaussian_bump", 0.3, 0.4, 0.0, None)
    values = perturbation_values(spec, line_grid())
    assert values.min() >= 0
    assert values.max() == pytest.approx(0.3, rel=1e-3)


# ---------------------------------------------------------------------------
# prepared runs


@pytest.fixture(scope="module")
def prepared():
    return prepare_run(ScenarioConfig.from_dict(base_document()))


def test_prepare_run_reuses_the_family_knot(prepared):
    knot = int(np.flatnonzero(np.isclose(prepared.family_raw.p_grid, 0.0))[0])
    assert prepared.w_p is prepared.family_raw.profiles[knot]


def test_prepare_run_centers_the_family(prepared):
    zero = int(np.flatnonzero(np.isclose(prepared.family.p_grid, 0.0))[0])
    assert np.all(prepared.family.profiles[zero].values == 0.0)


def test_prepare_run_weight_is_positive_unit_mean(prepared):
    theta = prepared.theta
    assert theta.values.min() > 0
    assert abs(theta.values.mean() - 1.0) < 1e-12


def test_prepare_run_normalized_flux_kills_the_background(prepared):
    x = prepared.cell_grid.centers()
    assert np.all(prepared.flux_normalized.eval(np.zeros_like(x), x) == 0.0)


def test_run_scenario_writes_reproducible_artifacts(tmp_path, prepared):
    first = run_scenario(prepared, tmp_path / "a")
    second = run_scenario(prepared, tmp_path / "b")
    csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b, "identical runs must serialize identically"
    assert (tmp_path / "a" / "family.json").exists()
    snaps = sorted((tmp_path / "a" / "snapshots").glob("snapshot_t*.csv"))
    assert len(snaps) == len(first.series)
    assert np.array_equal(first.series.times, second.series.times)


def test_snapshot_files_round_trip_the_final_state(tmp_path, prepared):
    result = run_scenario(prepared, tmp_path)
    t_end = prepared.config.t_end
    path = Path(result.snapshots_dir) / f"snapshot_t{t_end!r}.csv"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert float(path.name[10:-4]) == t_end
    assert np.array_equal(data[:, 0], prepared.line_grid.centers())
    background = np.tile(prepared.w_p.values, prepared.config.n_periods)
    assert np.array_equal(data[:, 2], background)
    assert np.array_equal(data[:, 1], result.final_state.u + background)


def test_snapshot_rows_match_per_value_formatting(tmp_path):
    # reference: every value formatted on its own, as the writer first did
    rng = np.random.default_rng(4)
    x, u, bg = rng.standard_normal((3, 50)) * np.logspace(-300, 300, 50)
    u[:3] = [0.0, -0.0, 1e-320]
    _write_snapshot(tmp_path / "s.csv", repr_rows(x), u, repr_rows(bg))
    rows = [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x, u, bg)]
    assert (tmp_path / "s.csv").read_text() == "\n".join(["x,u,background"] + rows) + "\n"


def test_run_scenario_populates_every_column(tmp_path, prepared):
    result = run_scenario(prepared)
    for column in ("l1_dist", "l2_dist", "linf_V", "l2_V", "weighted_energy",
                   "total_eta", "dissipation", "l1_pi", "nash_ratio",
                   "lap_number", "sign_changes", "mass_offset"):
        values = result.series.column(column)
        assert not np.isnan(values).any(), f"column {column} has gaps"
    laps = result.series.column("lap_number")
    assert np.array_equal(laps, laps.astype(int)), "lap counts must be integral"


def test_pinned_runs_abort_when_mass_reaches_the_edge(tmp_path):
    doc = base_document()
    doc["grid"]["n_periods"] = 4
    doc["grid"]["boundary_mode"] = "pinned_to_wp"
    doc["initial"] = {"shape": "dipole", "amplitude": 0.3, "width": 0.4, "center": 1.7}
    setup = prepare_run(ScenarioConfig.from_dict(doc))
    with pytest.raises(EdgeBufferError):
        run_scenario(setup, tmp_path)


# ---------------------------------------------------------------------------
# semigroup property trials


def test_semigroup_trials_all_pass_and_reproduce():
    flux = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    grid = LineGrid(CellGrid(64, 1.0), 8, "periodic")
    records = semigroup_trials(flux, grid, 1.0, 3, 11)
    assert len(records) == 6, "each trial runs an ordered and an unordered pair"
    for rec in records:
        assert rec["comparison_ok"], f"trial {rec['trial']} ({rec['kind']}): comparison"
        assert rec["contraction_ok"], f"trial {rec['trial']} ({rec['kind']}): contraction"
        assert rec["conservation_ok"], f"trial {rec['trial']} ({rec['kind']}): conservation"
        assert rec["comparison_excess"] <= 1e-12
        assert rec["contraction_excess"] <= 1e-10
    again = semigroup_trials(flux, grid, 1.0, 3, 11)
    assert records == again, "trials must be a pure function of the seed"


def test_semigroup_trials_validate_the_trial_count():
    flux = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    grid = LineGrid(CellGrid(32, 1.0), 4, "periodic")
    with pytest.raises(ConfigError):
        semigroup_trials(flux, grid, 1.0, 0, 1)
