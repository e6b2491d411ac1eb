"""Scenario documents, perturbations, prepared runs, and semigroup trials."""

import json
import re
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import convstab
from convstab import (
    CellGrid,
    ConfigError,
    DiagnosticsSeries,
    EdgeBufferError,
    LineGrid,
    PerturbationSpec,
    StepPolicy,
    builtin_flux,
    perturbation_values,
    prepare_run,
    run_scenario,
    semigroup_trials,
)
from convstab import evolution, fluxes, scenarios
from convstab.scenarios import RunResult, ScenarioConfig, clear_outputs, write_outputs
from oracles import flux_value


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
    assert config.document["flux"]["label"] == "forced_burgers"
    assert config.document["grid"]["n_cells_per_period"] == 32
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
        # sections that are not objects, and a flux parameter of the wrong type
        (("grid",), 5),
        (("family",), []),
        (("run", "snapshot_schedule"), 3),
        (("fit",), 3),
        (("flux", "params"), {"amplitude": [1]}),
        # snapshot schedules whose first time is not in [0, last time) or that
        # reach past t_end = 2
        (("run", "snapshot_schedule"), {"kind": "linear", "count": 5, "t_lo": -1.0}),
        (("run", "snapshot_schedule"), {"kind": "linear", "count": 5, "t_lo": 3.0}),
        (("run", "snapshot_schedule"), {"kind": "linear", "count": 5, "t_hi": 50.0}),
        (("run", "snapshot_schedule"),
         {"kind": "linear", "count": 5, "t_lo": 1.5, "t_hi": 1.0}),
        (("run", "snapshot_schedule"), {"kind": "log", "count": 5, "t_lo": 3.0}),
    ],
)
def test_invalid_documents_raise_config_error(path, value):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(mutate(path, value))


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("flux", "label"), "kpz", "flux: "),
        (("grid", "n_cells_per_period"), 4, "grid.n_cells_per_period: "),
        (("grid", "n_periods"), 0, "grid: "),
        (("grid", "boundary_mode"), "outflow", "grid: "),
        (("run", "cfl_fraction"), 1.5, "run: "),
        (("run", "dt_max"), 0.0, "run: "),
        (("run", "snapshot_schedule"), {"kind": "linear", "count": 5, "t_lo": -1.0},
         "snapshot_schedule.t_lo"),
        (("run", "snapshot_schedule"), {"kind": "linear", "count": 5, "t_hi": 50.0},
         "snapshot_schedule.t_hi"),
        (("run", "snapshot_schedule"), {"kind": "linear", "count": 5, "t_lo": "soon"},
         r"snapshot_schedule\.t_lo must be a number"),
        (("run", "snapshot_schedule"), {"kind": "linear", "count": 5, "t_hi": "late"},
         r"snapshot_schedule\.t_hi must be a number"),
        (("run", "snapshot_schedule"), {"kind": "log", "count": 5, "t_lo": 0.0},
         r"snapshot_schedule\.t_lo must be > 0"),
        (("run", "snapshot_schedule"), {"kind": "log", "count": 5, "t_lo": 1.5, "t_hi": 1.0},
         r"snapshot_schedule\.t_hi=1\.0 must exceed snapshot_schedule\.t_lo=1\.5"),
        (("run", "snapshot_schedule"), {"kind": "linear", "count": 0},
         r"snapshot_schedule\.count must be >= 1"),
        (("run", "snapshot_schedule"), {"kind": "quadratic", "count": 5},
         r"snapshot_schedule\.kind must be linear\|log"),
        (("initial", "width"), -0.5, r"initial\.width must be positive"),
        (("run", "t_end"), 0.0, r"run\.t_end must be positive"),
        (("family", "M"), 8, r"family\.M must be >= 16"),
        (("run", "p"), 3.0,
         r"run\.p=3\.0 lies outside the family window \[family\.p_min, family\.p_max\] "
         r"= \[-1\.0, 1\.0\]"),
    ],
)
def test_config_errors_name_their_section(path, value, named):
    with pytest.raises(ConfigError, match=named):
        ScenarioConfig.from_dict(mutate(path, value))


def test_the_config_holds_the_run_objects_it_validated():
    config = ScenarioConfig.from_dict(base_document())
    assert config.flux.label == "forced_burgers" and config.flux.period == 1.0
    assert config.line_grid == LineGrid(CellGrid(32, 1.0), 8, "periodic")
    assert config.policy == StepPolicy(cfl_fraction=0.9, dt_max=0.05)
    assert np.array_equal(config.schedule_times, np.linspace(0.0, 2.0, 5))
    assert not config.schedule_times.flags.writeable


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


def test_dispersion_exponent_needs_a_window_holding_8_snapshots():
    doc = base_document()
    doc["checks"] = ["dispersion_exponent"]
    with pytest.raises(ConfigError, match="needs a fit window"):
        ScenarioConfig.from_dict(doc)
    doc["fit"] = {"t_lo": 0.5, "t_hi": 2.0}  # 4 of the 5 linear snapshot times
    with pytest.raises(ConfigError, match="holds only 4 snapshots"):
        ScenarioConfig.from_dict(doc)
    doc["run"]["snapshot_schedule"] = {"kind": "log", "count": 8, "t_lo": 0.5, "t_hi": 2.0}
    assert ScenarioConfig.from_dict(doc).checks == ("dispersion_exponent",)


def test_check_names_are_declared_once_by_the_table():
    assert scenarios.KNOWN_CHECKS == tuple(scenarios.CHECKS)
    assert len(scenarios.KNOWN_CHECKS) == 12
    assert scenarios.ZERO_MEAN_CHECKS <= set(scenarios.CHECKS)


def _series(columns, times=None):
    n = len(next(iter(columns.values())))
    series = DiagnosticsSeries()
    for k, t in enumerate(times or range(1, n + 1)):
        series.append(t, {name: values[k] for name, values in columns.items()})
    return series


# (check, columns inside the threshold, columns past it, times, boundary mode)
JUDGE_CASES = [
    ("mass_conservation", {"mass_offset": [0.0, 1.9e-10]}, {"mass_offset": [0.0, 2.2e-10]},
     [0.0, 2.0], "periodic"),
    ("mass_conservation", {"l1_dist": [1.0, 0.5], "mass_offset": [0.0, 0.9e-8]},
     {"l1_dist": [1.0, 0.5], "mass_offset": [0.0, 1.1e-8]}, None, "pinned_to_wp"),
    ("l1_dist_nonincreasing", {"l1_dist": [1.0, 1.0 + 5e-11]}, {"l1_dist": [1.0, 1.0 + 2e-10]},
     None, "periodic"),
    ("l1_decay", {"l1_dist": [1.0, 0.5, 0.1]}, {"l1_dist": [1.0, 0.05, 0.11]}, None, "periodic"),
    ("linf_V_decay", {"linf_V": [2.0, 0.2]}, {"linf_V": [2.0, 0.21]}, None, "periodic"),
    ("lap_non_increase", {"lap_number": [3, 3, 1]}, {"lap_number": [3, 1, 2]}, None, "periodic"),
    ("l1_bound", {"l1_dist": [1.0], "lap_number": [0], "linf_V": [0.5]},
     {"l1_dist": [1.0 + 1e-8], "lap_number": [0], "linf_V": [0.5]}, None, "periodic"),
    ("weighted_energy_nonincreasing", {"weighted_energy": [1.0, 1.0 + 5e-10]},
     {"weighted_energy": [1.0, 1.0 + 2e-9]}, None, "periodic"),
    ("total_eta_nonincreasing", {"total_eta": [1.0, 1.0 + 5e-11]},
     {"total_eta": [1.0, 1.0 + 2e-10]}, None, "periodic"),
    ("pi_l1_bound", {"l1_dist": [1.0, 0.5], "l1_pi": [2.0, 1.0]},
     {"l1_dist": [1.0, 0.5], "l1_pi": [1.0, 2.0 + 1e-11]}, None, "periodic"),
    ("dispersion_exponent", {"l2_dist": [t ** -0.5 for t in range(1, 9)]},
     {"l2_dist": [t ** -0.1 for t in range(1, 9)]}, None, "periodic"),
    ("nash_bounded", {"nash_ratio": [float("nan"), 10.0]}, {"nash_ratio": [1.0, 10.5]},
     None, "periodic"),
]


@pytest.mark.parametrize("name, inside, past, times, mode", JUDGE_CASES,
                         ids=[f"{case[0]}-{case[4]}" for case in JUDGE_CASES])
def test_each_judge_flips_at_its_threshold(name, inside, past, times, mode):
    # alpha = 0.5 makes pi_l1_bound's budget 2 l1_dist(0)
    setup = SimpleNamespace(config=SimpleNamespace(boundary_mode=mode, fit_window=(1.0, 8.0)),
                            family=SimpleNamespace(alpha=0.5))
    judge = scenarios.CHECKS[name]
    assert judge(_series(inside, times), setup)["passed"]
    assert not judge(_series(past, times), setup)["passed"]


def test_evaluate_checks_judges_the_config_list_in_order():
    config = SimpleNamespace(checks=("nash_bounded", "eta_nonnegative", "l1_decay"))
    result = SimpleNamespace(setup=SimpleNamespace(config=config),
                             series=_series({"l1_dist": [1.0, 0.1], "nash_ratio": [1.0, 2.0]}))
    verdicts = scenarios.evaluate_checks(result)
    assert list(verdicts) == list(config.checks)
    assert all(v["passed"] for v in verdicts.values())


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
# the document table


def _section_paths(name="scenario", path=()):
    """(section name, path from the document root) of every table section."""
    yield name, path
    for key, (kind, _) in scenarios._DOCUMENT[name].items():
        if kind == "section":
            yield from _section_paths(key, path + (key,))


NUMBER_KEYS = [(path + (key,), f"{name}.{key}")
               for name, path in _section_paths()
               for key, (kind, _) in scenarios._DOCUMENT[name].items()
               if kind in ("int", "float")]


def test_the_table_declares_eighteen_number_keys():
    assert len(NUMBER_KEYS) == 18
    assert {named for _, named in NUMBER_KEYS} >= {
        "grid.n_periods", "run.t_end", "run.dt_max", "family.p_max", "initial.width",
        "snapshot_schedule.count", "fit.t_hi"}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e300, -1e308,
                                   json.loads("1" + "0" * 101)],
                         ids=["nan", "inf", "-inf", "1e300", "-1e308", "int_1e101"])
@pytest.mark.parametrize("path, named", NUMBER_KEYS, ids=[n for _, n in NUMBER_KEYS])
def test_every_number_key_must_be_finite(path, named, value):
    doc = base_document()
    doc["fit"] = {"t_lo": 0.5, "t_hi": 2.0}
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    # a finite magnitude past PARAMETER_LIMIT = 1e100 names the limit
    tail = ", got" if not np.isfinite(float(value)) else r" and at most 1e\+100 in magnitude"
    with pytest.raises(ConfigError, match=rf"^{re.escape(named)} must be finite{tail}"):
        ScenarioConfig.from_dict(doc)


def test_output_must_be_a_string():
    with pytest.raises(ConfigError, match="^output must be a string, got 5$"):
        ScenarioConfig.from_dict(mutate(("output",), 5))


def test_a_document_of_required_keys_echoes_every_default():
    required = {
        "flux": {"label": "forced_burgers"},
        "grid": {"n_cells_per_period": 32, "n_periods": 8, "boundary_mode": "periodic"},
        "initial": {"shape": "dipole"},
        "run": {"t_end": 2, "snapshot_schedule": {"kind": "linear", "count": 5}},
        "output": "out/defaults",
    }
    assert ScenarioConfig.from_dict(required).to_dict() == {
        "flux": {"label": "forced_burgers", "params": {}},
        "grid": {"n_cells_per_period": 32, "n_periods": 8, "boundary_mode": "periodic"},
        "family": {"p_min": -2.0, "p_max": 2.0, "M": 32},
        "initial": {"shape": "dipole", "amplitude": 0.3, "width": 0.5, "center": 2.0,
                    "seed": None},
        "run": {"t_end": 2.0,
                "snapshot_schedule": {"kind": "linear", "count": 5, "t_lo": None, "t_hi": None},
                "cfl_fraction": 0.9, "dt_max": 0.1, "p": 0.0},
        "checks": [],
        "fit": None,
        "output": "out/defaults",
    }


def test_numbers_take_their_kind():
    doc = mutate(("run", "t_end"), 2)
    doc["grid"]["n_periods"] = 8.0
    echo = ScenarioConfig.from_dict(doc).to_dict()
    assert type(echo["run"]["t_end"]) is float and type(echo["grid"]["n_periods"]) is int
    with pytest.raises(ConfigError, match=r"^grid\.n_periods must be integral, got 8\.5$"):
        ScenarioConfig.from_dict(mutate(("grid", "n_periods"), 8.5))
    with pytest.raises(ConfigError, match=r"^family\.M must be an integer, got True$"):
        ScenarioConfig.from_dict(mutate(("family", "M"), True))
    # json reads a long integer literal as an int past the float range
    for path in (("run", "t_end"), ("grid", "n_periods")):
        with pytest.raises(ConfigError, match=rf"^{'.'.join(path)} must be finite"):
            ScenarioConfig.from_dict(mutate(path, json.loads("1" + "0" * 400)))


def test_the_echo_and_the_input_are_copies():
    raw = base_document()
    config = ScenarioConfig.from_dict(raw)
    raw["flux"]["params"]["amplitude"] = 0.1
    raw["checks"].append("nash_bounded")
    echo = config.to_dict()
    echo["flux"]["params"]["amplitude"] = 0.2
    echo["grid"]["n_periods"] = 99
    echo["checks"].append("l1_decay")
    assert config.to_dict() == ScenarioConfig.from_dict(base_document()).to_dict()
    assert config == ScenarioConfig.from_dict(base_document())


@pytest.mark.parametrize("name", ["canonical_dipole", "gaussian_l2", "verify_forced_burgers"])
def test_packaged_configs_round_trip_through_their_echo(name):
    path = Path(convstab.__file__).parent / "configs" / f"{name}.json"
    config = ScenarioConfig.from_json(path)
    assert ScenarioConfig.from_dict(config.to_dict()) == config


def test_an_edit_sees_the_filled_document_and_is_validated():
    seen = []

    def edit(doc):
        seen.append(doc["family"]["M"])
        doc["family"]["M"] = 20

    assert ScenarioConfig.from_dict(base_document(), edit).m_intervals == 20
    base = base_document()
    del base["family"]
    ScenarioConfig.from_dict(base, edit)
    assert seen == [16, 32]

    def infinite(doc):
        doc["run"]["t_end"] = float("inf")

    with pytest.raises(ConfigError, match=r"^run\.t_end must be finite"):
        ScenarioConfig.from_dict(base_document(), infinite)


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


@pytest.mark.parametrize("center, width", [(1e100, 1e100), (-1e100, 1e-300), (0.0, 1e-300),
                                           (1e100, 1e-300), (0.3, 1e-160), (2.0, 1e-100)])
def test_gaussian_is_quiet_for_every_accepted_center_and_width(center, width):
    x = line_grid().centers()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = scenarios._gaussian(x, center, width)
        spike = scenarios._gaussian(np.array([center]), center, width)
    assert np.all((values >= 0.0) & (values <= 1.0)) and spike.tolist() == [1.0]


@pytest.mark.parametrize("shape, center, width", [
    ("gaussian_bump", 1e100, 0.5),
    ("gaussian_bump", -1e100, 1e40),
    ("gaussian_bump", 0.0, 1e-300),
    ("dipole", 2.0, 1e-300),
    ("dipole", 1e100, 0.5),
    ("random_zero_mean", 0.0, 1e-300),
    ("dipole", 0.0, 0.5),  # the lobes cancel on the grid
])
def test_a_perturbation_zero_on_every_cell_names_center_and_width(shape, center, width):
    spec = PerturbationSpec(shape, 0.3, width, center, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"^initial\.center and initial\.width give a "
                                              r"perturbation that is zero on every cell"):
            perturbation_values(spec, line_grid())
    # a zero amplitude asks for the zero field
    zero = PerturbationSpec(shape, 0.0, width, center, 1)
    assert not perturbation_values(zero, line_grid()).any()


# ---------------------------------------------------------------------------
# prepared runs


@pytest.fixture(scope="module")
def prepared():
    return prepare_run(ScenarioConfig.from_dict(base_document()))


def test_prepare_run_reuses_the_family_knot(prepared):
    knot = int(np.flatnonzero(np.isclose(prepared.family_raw.p_grid, 0.0))[0])
    assert prepared.w_p.values.tobytes() == prepared.family_raw.profiles[knot].tobytes()


def test_prepare_run_centers_the_family(prepared):
    zero = int(np.flatnonzero(np.isclose(prepared.family.p_grid, 0.0))[0])
    assert np.all(prepared.family.profiles[zero] == 0.0)


def test_prepare_run_normalizes_the_flux_once(monkeypatch):
    # one periodic spline of w_p per run: the shifted family takes the
    # normalized flux prepare_run built
    calls = []
    spline = fluxes._periodic_spline

    def counting(*args):
        calls.append(args)
        return spline(*args)

    monkeypatch.setattr(fluxes, "_periodic_spline", counting)
    path = Path(convstab.__file__).parent / "configs" / "canonical_dipole.json"
    setup = prepare_run(ScenarioConfig.from_json(path))
    assert len(calls) == 1
    assert setup.family.flux is setup.flux_normalized


def test_prepare_run_weight_is_positive_unit_mean(prepared):
    theta = prepared.theta
    assert theta.values.min() > 0
    assert abs(theta.values.mean() - 1.0) < 1e-12


def test_prepare_run_normalized_flux_kills_the_background(prepared):
    x = prepared.config.line_grid.cell.centers()
    assert np.all(flux_value(prepared.flux_normalized, np.zeros_like(x), x) == 0.0)


def written(setup, out_dir):
    """A run of ``setup`` and the paths ``write_outputs`` wrote it to."""
    result = run_scenario(setup)
    return result, write_outputs(out_dir, setup.family_raw, result)


def test_write_outputs_writes_reproducible_artifacts(tmp_path, prepared):
    first, _ = written(prepared, tmp_path / "a")
    second, _ = written(prepared, tmp_path / "b")
    csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert csv_a == csv_b, "identical runs must serialize identically"
    assert (tmp_path / "a" / "family.json").exists()
    snaps = sorted((tmp_path / "a" / "snapshots").glob("snapshot_t*.npy"))
    assert len(snaps) == len(first.series.rows)
    assert np.array_equal(first.series.column("t"), second.series.column("t"))
    names = sorted(p.name for p in (tmp_path / "a" / "snapshots").iterdir())
    assert names == sorted(["grid.npy", *(p.name for p in snaps)]), "no csv or other file"
    assert names == sorted(p.name for p in (tmp_path / "b" / "snapshots").iterdir())
    for name in names:
        assert (tmp_path / "a" / "snapshots" / name).read_bytes() == \
            (tmp_path / "b" / "snapshots" / name).read_bytes(), name


def test_write_outputs_returns_the_paths_it_wrote(tmp_path, prepared):
    # keyed by the verdict file's fields; a family alone writes only its files
    _, paths = written(prepared, tmp_path / "run")
    assert paths == {"family_file": str(tmp_path / "run" / "family.json"),
                     "diagnostics_csv": str(tmp_path / "run" / "diagnostics.csv"),
                     "snapshots_dir": str(tmp_path / "run" / "snapshots")}
    paths = write_outputs(tmp_path / "family", prepared.family_raw)
    assert paths == {"family_file": str(tmp_path / "family" / "family.json")}
    assert sorted(p.name for p in (tmp_path / "family").iterdir()) == ["family.json",
                                                                       "family.npy"]


def test_snapshot_files_round_trip_the_final_state(tmp_path, prepared):
    result, paths = written(prepared, tmp_path)
    t_end = prepared.config.t_end
    path = Path(paths["snapshots_dir"]) / f"snapshot_t{t_end!r}.npy"
    u = np.load(path)
    grid = np.load(Path(paths["snapshots_dir"]) / "grid.npy")
    assert float(path.name[10:-4]) == t_end
    n_total = prepared.config.line_grid.n_total
    assert u.dtype == grid.dtype == np.float64
    assert u.shape == (n_total,) and grid.shape == (2, n_total)
    assert np.array_equal(grid[0], prepared.config.line_grid.centers())
    background = np.tile(prepared.w_p.values, prepared.config.line_grid.n_periods)
    assert np.array_equal(grid[1], background)
    assert np.array_equal(u, result.final_state.u + background)


def test_snapshot_files_are_named_by_their_times(tmp_path, prepared):
    # one file per diagnostics row, whose name parses back to the row's time
    result, paths = written(prepared, tmp_path)
    times = result.series.column("t").tolist()
    names = sorted(p.name for p in Path(paths["snapshots_dir"]).glob("snapshot_t*.npy"))
    assert names == sorted(f"snapshot_t{t!r}.npy" for t in times)
    assert sorted(float(name[10:-4]) for name in names) == sorted(times)
    assert times[0] == 0.0 and times[-1] == prepared.config.t_end


def test_a_cleared_rerun_into_one_directory_leaves_only_its_own_snapshots(tmp_path, prepared):
    # a shorter schedule into the directory of a longer run: the snapshot
    # times are exactly the second run's, and a file that is no snapshot stays
    written(prepared, tmp_path)
    (tmp_path / "snapshots" / "notes.txt").write_text("kept")
    doc = base_document()
    doc["run"].update(t_end=1.0, snapshot_schedule={"kind": "linear", "count": 3})
    clear_outputs(tmp_path)
    second, _ = written(prepare_run(ScenarioConfig.from_dict(doc)), tmp_path)
    snap_dir = tmp_path / "snapshots"
    times = sorted(float(p.name[10:-4]) for p in snap_dir.glob("snapshot_t*.npy"))
    assert times == second.series.column("t").tolist()
    assert times == [0.0, 0.5, 1.0]
    assert (snap_dir / "notes.txt").read_text() == "kept"
    assert np.array_equal(np.load(snap_dir / "snapshot_t1.0.npy"),
                          second.final_state.u + np.load(snap_dir / "grid.npy")[1])


def test_clear_outputs_deletes_the_table_names_and_nothing_else(tmp_path, prepared):
    written(prepared, tmp_path)
    (tmp_path / "verdicts.json").write_text("{}")
    kept = [tmp_path / "notes.txt", tmp_path / "family.json.bak", tmp_path / "snapshot_t1.npy",
            tmp_path / "snapshots" / "keep.txt", tmp_path / "sub" / "diagnostics.csv"]
    for path in kept:
        path.parent.mkdir(exist_ok=True)
        path.write_text("kept")
    clear_outputs(tmp_path)
    left = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert left == sorted(kept)
    # an emptied snapshots folder goes with its files; a missing directory is no error
    (tmp_path / "snapshots" / "keep.txt").unlink()
    clear_outputs(tmp_path)
    assert not (tmp_path / "snapshots").exists()
    clear_outputs(tmp_path / "absent")
    assert not (tmp_path / "absent").exists()


def test_snapshot_files_are_plain_little_endian_float64_arrays(tmp_path, prepared):
    # the version 1.0 header alone tells a reader outside numpy how to read
    # the data: no pickle, no Fortran order, no byte swapping
    result, paths = written(prepared, tmp_path)
    n_total = prepared.config.line_grid.n_total
    files = sorted(Path(paths["snapshots_dir"]).iterdir())
    assert len(files) == len(result.series.rows) + 1
    for path in files:
        with open(path, "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        assert shape == ((2, n_total) if path.name == "grid.npy" else (n_total,)), path.name
        assert not fortran_order and dtype == np.dtype("<f8"), path.name
        assert np.load(path, allow_pickle=False).shape == shape


def test_every_snapshot_is_at_its_l1_distance_from_the_background(tmp_path, prepared):
    # the file's u less grid.npy's background gives back the perturbation
    # whose L1 norm the diagnostics row holds, up to the rounding of u + w_p
    result, paths = written(prepared, tmp_path)
    snap_dir = Path(paths["snapshots_dir"])
    background = np.load(snap_dir / "grid.npy")[1]
    h = prepared.config.line_grid.h
    rows = zip(result.series.column("t").tolist(), result.series.column("l1_dist").tolist())
    for t, l1_dist in rows:
        u = np.load(snap_dir / f"snapshot_t{t!r}.npy")
        assert h * np.abs(u - background).sum() == pytest.approx(l1_dist, rel=1e-12), t


def test_run_scenario_writes_nothing_and_keeps_each_snapshot_state(tmp_path, prepared,
                                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_scenario(prepared)
    assert list(tmp_path.iterdir()) == []
    assert [f.name for f in fields(RunResult)] == ["setup", "final_state", "series", "snapshots"]
    assert [s.time for s in result.snapshots] == result.series.column("t").tolist()
    assert result.snapshots[0].u.tolist() == prepared.initial.tolist()
    assert result.snapshots[-1] is result.final_state


def test_a_rerun_into_the_same_directory_rewrites_the_same_files(tmp_path, prepared):
    def artifacts():
        return {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    written(prepared, tmp_path)
    first = artifacts()
    written(prepared, tmp_path)
    assert artifacts() == first


def test_run_scenario_populates_every_column(tmp_path, prepared):
    result = run_scenario(prepared)
    for column in ("l1_dist", "l2_dist", "linf_V", "l2_V", "weighted_energy",
                   "total_eta", "dissipation", "l1_pi", "nash_ratio",
                   "lap_number", "sign_changes", "mass_offset"):
        values = result.series.column(column)
        assert not np.isnan(values).any(), f"column {column} has gaps"
    laps = result.series.column("lap_number")
    assert np.array_equal(laps, laps.astype(int)), "lap counts must be integral"


def test_pinned_runs_abort_when_mass_reaches_the_edge():
    doc = base_document()
    doc["grid"]["n_periods"] = 4
    doc["grid"]["boundary_mode"] = "pinned_to_wp"
    doc["initial"] = {"shape": "dipole", "amplitude": 0.3, "width": 0.4, "center": 1.7}
    setup = prepare_run(ScenarioConfig.from_dict(doc))
    with pytest.raises(EdgeBufferError):
        run_scenario(setup)


# ---------------------------------------------------------------------------
# semigroup property trials


def test_semigroup_trials_all_pass_and_reproduce():
    flux = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    grid = LineGrid(CellGrid(64, 1.0), 8, "periodic")
    verdicts = semigroup_trials(flux, grid, 1.0, 3, 11)
    assert list(verdicts) == ["comparison", "contraction", "conservation", "pass_rate"]
    rate = verdicts["pass_rate"]
    assert rate["pairs"] == 6, "each trial runs an ordered and an unordered pair"
    assert rate["passed"] and rate["failing"] == [] and rate["trials"] == 3
    for name, limit in scenarios.TRIAL_LIMITS.items():
        assert verdicts[name]["passed"], name
        assert 0.0 <= verdicts[name]["worst"] <= limit, name
    again = semigroup_trials(flux, grid, 1.0, 3, 11)
    assert verdicts == again, "trials must be a pure function of the seed"


@pytest.mark.parametrize("trials", [1, 0])
def test_semigroup_trials_refuse_a_pinned_grid_before_the_trial_count(trials):
    flux = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    grid = LineGrid(CellGrid(32, 1.0), 4, "pinned_to_wp")
    with pytest.raises(ConfigError, match="periodic domains only; "
                                          "boundary_mode 'pinned_to_wp' is not supported"):
        semigroup_trials(flux, grid, 1.0, trials, 1)


def test_semigroup_trials_stop_at_the_step_budget(monkeypatch):
    flux = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    grid = LineGrid(CellGrid(32, 1.0), 4, "periodic")
    steps = []
    real = scenarios.step
    monkeypatch.setattr(scenarios, "step", lambda *args: steps.append(args) or real(*args))
    monkeypatch.setattr(evolution, "MAX_STEPS", 10)
    with pytest.raises(convstab.CFLError, match="need more than MAX_STEPS = 10 steps of dt="):
        semigroup_trials(flux, grid, 1.0, 1, 1)
    assert steps == []


def test_semigroup_trials_validate_the_trial_count():
    flux = builtin_flux("forced_burgers", {"amplitude": 0.5, "period": 1.0})
    grid = LineGrid(CellGrid(32, 1.0), 4, "periodic")
    with pytest.raises(ConfigError):
        semigroup_trials(flux, grid, 1.0, 0, 1)
