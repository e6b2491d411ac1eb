"""Command-line front end: artifacts, verdict files, and the exit-code map.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration problems,
3 the pinned edge buffer filled up, 4 a solver gave up.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convstab
from convstab import StepPolicy, cli


def write_config(tmp_path, name="scenario.json", **overrides):
    doc = {
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
        "output": "out/scenario",
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def read_verdicts(out_dir):
    return json.loads((Path(out_dir) / "verdicts.json").read_text())


# ---------------------------------------------------------------------------
# stationary


def test_stationary_writes_family_and_verdicts(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["stationary", "--config", str(config), "--out", str(out)]) == 0
    payload = read_verdicts(out)
    assert payload["command"] == "stationary"
    assert payload["exit_code"] == 0
    verdicts = payload["verdicts"]
    assert set(verdicts) == {"residuals", "means", "monotone", "dp_means", "alpha_positive"}
    assert all(v["passed"] for v in verdicts.values())
    assert verdicts["residuals"]["max_residual"] <= (
        verdicts["residuals"]["tolerance"] + verdicts["residuals"]["storage_floor"]
    )
    assert (out / "family.json").exists()
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert len(lines) == 5
    assert all(line.startswith("[PASS]") for line in lines)


# ---------------------------------------------------------------------------
# evolve


def test_evolve_produces_byte_stable_artifacts(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["evolve", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli.main(["evolve", "--config", str(config), "--out", str(out_b)]) == 0
    csv_a = (out_a / "diagnostics.csv").read_bytes()
    assert csv_a == (out_b / "diagnostics.csv").read_bytes()
    snaps_a = sorted((out_a / "snapshots").iterdir())
    snaps_b = sorted((out_b / "snapshots").iterdir())
    assert [s.name for s in snaps_a] == [s.name for s in snaps_b]
    for a, b in zip(snaps_a, snaps_b):
        assert a.read_bytes() == b.read_bytes(), f"snapshot {a.name} differs between reruns"
    verdicts = read_verdicts(out_a)["verdicts"]
    assert "mass_conservation" in verdicts and "l1_dist_nonincreasing" in verdicts


def test_evolve_seed_override_changes_random_data(tmp_path):
    config = write_config(
        tmp_path,
        initial={"shape": "random_zero_mean", "amplitude": 0.3, "width": 0.4,
                 "center": 0.0, "seed": 1},
    )
    outs = {}
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert cli.main(["evolve", "--config", str(config), "--out", str(out),
                         "--seed", seed]) == 0
        outs[seed] = (out / "diagnostics.csv").read_bytes()
    assert outs["1"] != outs["2"], "different seeds must change the run"


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_fits_a_diffusive_run(tmp_path):
    config = write_config(
        tmp_path,
        flux={"label": "custom_table", "params": {}},
        run={
            "t_end": 4.0,
            "snapshot_schedule": {"kind": "log", "count": 10, "t_lo": 1.0, "t_hi": 4.0},
            "cfl_fraction": 0.9,
            "dt_max": 0.02,
            "p": 0.0,
        },
        checks=[],
    )
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", str(config), "--out", str(out)]) == 0
    verdict = read_verdicts(out)["verdicts"]["dispersion_exponent"]
    assert verdict["passed"]
    assert verdict["exponent"] <= -0.20


def test_dispersion_requires_a_window_or_log_schedule(tmp_path):
    config = write_config(tmp_path)  # linear schedule, no fit section
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", str(config), "--out", str(out)]) == 2
    assert read_verdicts(out)["exit_code"] == 2


def test_dispersion_requires_enough_snapshots(tmp_path):
    config = write_config(
        tmp_path,
        run={
            "t_end": 4.0,
            "snapshot_schedule": {"kind": "log", "count": 4, "t_lo": 1.0, "t_hi": 4.0},
            "cfl_fraction": 0.9,
            "dt_max": 0.02,
            "p": 0.0,
        },
    )
    assert cli.main(["dispersion", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# lap


def test_lap_tracks_a_burgers_dipole(tmp_path):
    config = write_config(
        tmp_path,
        grid={"n_cells_per_period": 64, "n_periods": 24, "boundary_mode": "periodic"},
        initial={"shape": "dipole", "amplitude": 0.3, "width": 0.5, "center": 2.0},
        run={
            "t_end": 60.0,
            "snapshot_schedule": {"kind": "log", "count": 12, "t_lo": 2.0, "t_hi": 60.0},
            "cfl_fraction": 0.9,
            "dt_max": 0.1,
            "p": 0.0,
        },
        checks=[],
    )
    out = tmp_path / "out"
    assert cli.main(["lap", "--config", str(config), "--out", str(out)]) == 0
    verdicts = read_verdicts(out)["verdicts"]
    for name in ("lap_non_increase", "l1_bound", "linf_V_decay", "l1_decay"):
        assert verdicts[name]["passed"], f"{name} failed: {verdicts[name]}"
    assert verdicts["lap_non_increase"]["laps"][0] >= verdicts["lap_non_increase"]["laps"][-1]


def test_lap_rejects_gaussian_data(tmp_path):
    config = write_config(
        tmp_path,
        initial={"shape": "gaussian_bump", "amplitude": 0.3, "width": 0.4, "center": 0.0},
        checks=[],
    )
    assert cli.main(["lap", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_runs_seeded_trials(tmp_path, capsys):
    config = write_config(tmp_path, run={"t_end": 0.5, "snapshot_schedule":
                                         {"kind": "linear", "count": 2},
                                         "cfl_fraction": 0.9, "dt_max": 0.05, "p": 0.0})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(config), "--out", str(out),
                     "--trials", "2", "--seed", "5"]) == 0
    payload = read_verdicts(out)
    assert set(payload["verdicts"]) == {"comparison", "contraction", "conservation", "pass_rate"}
    assert payload["verdicts"]["pass_rate"]["pairs"] == 4
    printed = capsys.readouterr().out
    assert "[PASS] comparison" in printed


def test_verify_steps_with_the_configured_policy(tmp_path, monkeypatch):
    seen = []
    real = cli.semigroup_trials

    def spy(*args, **kwargs):
        seen.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("policy"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "semigroup_trials", spy)
    config = write_config(tmp_path, run={"t_end": 0.1, "snapshot_schedule":
                                         {"kind": "linear", "count": 2},
                                         "cfl_fraction": 0.5, "dt_max": 0.02, "p": 0.0})
    assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--trials", "1"]) == 0
    assert seen == [StepPolicy(cfl_fraction=0.5, dt_max=0.02)]


def test_verify_rejects_pinned_boundaries(tmp_path, capsys):
    config = write_config(
        tmp_path,
        grid={"n_cells_per_period": 32, "n_periods": 8, "boundary_mode": "pinned_to_wp"},
    )
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(config), "--out", str(out),
                     "--trials", "1"]) == 2
    message = read_verdicts(out)["error"]
    assert "periodic" in message and "pinned_to_wp" in message
    assert message in capsys.readouterr().err


def test_verify_rejects_zero_trials(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--trials", "0"]) == 2


# ---------------------------------------------------------------------------
# failure exit codes


def test_missing_and_malformed_configs_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)]) == 2
    assert read_verdicts(out)["error"]
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
    capsys.readouterr()


def test_invalid_document_exits_2(tmp_path):
    config = write_config(tmp_path, family={"p_min": -1.0, "p_max": 1.0, "M": 8})
    assert cli.main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2


def test_family_file_key_is_rejected(tmp_path):
    # a family saved for other flux parameters and another p-window would
    # otherwise pass for this scenario's family
    saved = write_config(
        tmp_path, name="saved.json",
        flux={"label": "forced_burgers", "params": {"amplitude": 0.3, "period": 1.0}},
        family={"p_min": -2.0, "p_max": 2.0, "M": 32},
    )
    assert cli.main(["stationary", "--config", str(saved), "--out", str(tmp_path / "fam")]) == 0
    config = write_config(
        tmp_path,
        family={"p_min": -1.0, "p_max": 1.0, "M": 16,
                "file": str(tmp_path / "fam" / "family.json")},
        run={"t_end": 2.0, "snapshot_schedule": {"kind": "linear", "count": 5},
             "cfl_fraction": 0.9, "dt_max": 0.05, "p": 0.5},
    )
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(config), "--out", str(out)]) == 2
    assert "'file'" in read_verdicts(out)["error"]
    assert not (out / "diagnostics.csv").exists()


def test_edge_buffer_exits_3(tmp_path):
    config = write_config(
        tmp_path,
        grid={"n_cells_per_period": 32, "n_periods": 4, "boundary_mode": "pinned_to_wp"},
        initial={"shape": "dipole", "amplitude": 0.3, "width": 0.4, "center": 1.7},
        checks=[],
    )
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(config), "--out", str(out)]) == 3
    assert read_verdicts(out)["exit_code"] == 3


def test_solver_failure_exits_4(tmp_path):
    config = write_config(
        tmp_path,
        flux={"label": "forced_burgers", "params": {"amplitude": 20.0, "period": 1.0}},
        grid={"n_cells_per_period": 8, "n_periods": 4, "boundary_mode": "periodic"},
        family={"p_min": -0.5, "p_max": 0.5, "M": 16},
        run={"t_end": 0.5, "snapshot_schedule": {"kind": "linear", "count": 3},
             "cfl_fraction": 0.9, "dt_max": 0.05, "p": 0.0},
        checks=[],
    )
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(config), "--out", str(out)]) == 4
    assert read_verdicts(out)["exit_code"] == 4


def test_default_output_directory_comes_from_the_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, output="artifacts/run1")
    assert cli.main(["stationary", "--config", str(config)]) == 0
    assert (tmp_path / "artifacts" / "run1" / "verdicts.json").exists()


def test_importing_the_cli_leaves_heavy_scipy_modules_unloaded():
    # the run path needs scipy.linalg.lapack only; scipy.interpolate would
    # pull in scipy.sparse, scipy.special and more (about 23 MiB)
    src = str(Path(convstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, convstab.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.interpolate', 'scipy.sparse', 'scipy.special')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
