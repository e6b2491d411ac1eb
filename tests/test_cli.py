"""Command-line front end: artifacts, verdict files, and the exit-code map.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration problems,
3 the pinned edge buffer filled up, 4 a solver gave up.
"""

import inspect
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import convstab
from convstab import StepPolicy, cli, evolution, scenarios, stationary


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
    assert (out / "family.npy").exists()
    # alpha is min dw/dp by definition, so the verdict reports it once
    alpha = json.loads((out / "family.json").read_text())["alpha"]
    assert verdicts["alpha_positive"] == {"passed": True, "alpha": alpha}
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert [line.split()[:2] for line in lines] == [
        ["[PASS]", name] for name in ("residuals", "means", "monotone", "dp_means",
                                      "alpha_positive")]


@pytest.mark.parametrize("command", ["stationary", "evolve"])
def test_a_family_that_fails_a_verdict_exits_4_without_a_family_file(tmp_path, monkeypatch,
                                                                     capsys, command):
    # a zero-sum kink in the p = 0.5 member breaks its residual alone
    real = stationary._bordered_newton

    def kinked(at_centers, mean, w0, h):
        w = real(at_centers, mean, w0, h).copy()
        if mean == 0.5:
            w[10] += 1e-6
            w[11] -= 1e-6
        return w

    monkeypatch.setattr(stationary, "_bordered_newton", kinked)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 4
    payload = read_verdicts(out)
    assert payload["exit_code"] == 4
    assert payload["error"].startswith('the family fails its verdicts: {"residuals": '
                                       '{"passed": false, "max_residual": ')
    assert payload["error"] in capsys.readouterr().err
    assert not (out / "family.json").exists()
    assert not (out / "family.npy").exists()


def test_a_family_whose_hermite_cubic_is_not_monotone_exits_4_naming_the_limit(
        tmp_path, monkeypatch, capsys):
    # one knot slope at four times the smaller secant next to it
    real = scenarios.build_family

    def steep(*args):
        family = real(*args)
        secants = np.diff(family.profiles[:, 3]) / np.diff(family.p_grid)
        dp = family.dp_profiles.copy()
        dp[8, 3] = 4.0 * secants[7:9].min()
        return replace(family, dp_profiles=dp)

    monkeypatch.setattr(scenarios, "build_family", steep)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 4
    payload = read_verdicts(out)
    assert payload["exit_code"] == 4
    assert payload["error"].startswith("knot slope / secant ratio ")
    assert "at cell 3, interval " in payload["error"]
    assert "is outside (0, 3]" in payload["error"]
    assert payload["error"] in capsys.readouterr().err


def test_stationary_names_the_checks_and_fit_it_skips(tmp_path, capsys):
    config = write_config(tmp_path, fit={"t_lo": 0.5, "t_hi": 2.0})
    out = tmp_path / "out"
    assert cli.main(["stationary", "--config", str(config), "--out", str(out)]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1
    for word in ("mass_conservation", "l1_dist_nonincreasing", "fit window [0.5, 2.0]"):
        assert word in notes[0]
    assert read_verdicts(out)["notes"] == [notes[0][len("note: "):]]


def test_stationary_without_checks_or_fit_adds_no_note(tmp_path, capsys):
    config = write_config(tmp_path, checks=[])
    out = tmp_path / "out"
    assert cli.main(["stationary", "--config", str(config), "--out", str(out)]) == 0
    assert "note:" not in capsys.readouterr().err
    assert read_verdicts(out)["notes"] == []


def test_stationary_builds_only_the_family(tmp_path):
    # a dipole centred at 0 cancels to zero, so no perturbation can be built;
    # stationary reports the family alone and must not need one
    doc = json.loads((Path(convstab.__file__).parent / "configs" / "gaussian_l2.json").read_text())
    doc["initial"] = {"shape": "dipole", "amplitude": 0.3, "width": 0.5, "center": 0.0}
    config = tmp_path / "dipole_at_zero.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["stationary", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "family.json").exists()
    assert (out / "family.npy").exists()
    assert read_verdicts(out)["exit_code"] == 0
    assert cli.main(["evolve", "--config", str(config), "--out", str(tmp_path / "e")]) == 2


def test_the_module_entry_point_runs_as_a_process(tmp_path):
    config = write_config(tmp_path)
    src = str(Path(convstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "convstab.cli", "stationary", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("note: stationary ignores the config's checks")
    assert (tmp_path / "out" / "family.json").exists()


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


def test_an_inferred_window_leaves_a_bad_t_end_to_its_own_key(tmp_path):
    # dispersion writes t_end into the document as the window's t_hi before
    # the config is read; the error still names the key the user wrote
    config = write_config(tmp_path, run={
        "t_end": "long", "snapshot_schedule": {"kind": "log", "count": 10, "t_lo": 1.0}})
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", str(config), "--out", str(out)]) == 2
    assert "run.t_end must be a number" in read_verdicts(out)["error"]


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


@pytest.mark.parametrize("command", ["evolve", "lap", "stationary", "verify"])
@pytest.mark.parametrize("schedule, fit", [
    # only the dispersion command infers a window from a log schedule
    ({"kind": "log", "count": 12, "t_lo": 0.2, "t_hi": 2.0}, None),
    ({"kind": "linear", "count": 5}, {"t_lo": 1.0, "t_hi": 2.0}),
], ids=["no_window", "five_snapshots"])
def test_a_run_without_a_fit_window_is_refused_before_it_starts(tmp_path, command, schedule,
                                                                fit):
    # the window is checked when the config is built, under every command, so
    # nothing is built or written
    extra = {} if fit is None else {"fit": fit}
    config = write_config(
        tmp_path,
        run={"t_end": 2.0, "snapshot_schedule": schedule, "cfl_fraction": 0.9,
             "dt_max": 0.05, "p": 0.0},
        checks=["mass_conservation", "dispersion_exponent"],
        **extra,
    )
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    assert "dispersion" in read_verdicts(out)["error"]
    assert not (out / "family.json").exists()
    assert not (out / "family.npy").exists()
    assert not (out / "diagnostics.csv").exists()


def test_the_run_commands_require_known_checks():
    assert set(cli.REQUIRED_CHECKS) == {"evolve", "dispersion", "lap"}
    for required in cli.REQUIRED_CHECKS.values():
        assert set(required) <= set(scenarios.CHECKS)


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
    out = tmp_path / "out"
    assert cli.main(["lap", "--config", str(config), "--out", str(out)]) == 2
    error = read_verdicts(out)["error"]
    assert "zero-mean" in error
    for name in ("lap_non_increase", "l1_bound", "linf_V_decay", "l1_decay"):
        assert name in error
    assert not (out / "family.json").exists()
    assert not (out / "family.npy").exists()


def test_lap_echoes_the_config_checks_and_its_own(tmp_path, capsys):
    config = write_config(tmp_path, checks=["mass_conservation"])
    out = tmp_path / "out"
    assert cli.main(["lap", "--config", str(config), "--out", str(out)]) in (0, 1)
    want = ["mass_conservation", "lap_non_increase", "l1_bound", "linf_V_decay", "l1_decay"]
    assert read_verdicts(out)["config"]["checks"] == want
    printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("[")]
    assert printed == want


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


def test_verify_names_the_checks_and_fit_it_skips(tmp_path, capsys):
    config = write_config(tmp_path, run={"t_end": 0.2, "snapshot_schedule":
                                         {"kind": "linear", "count": 2},
                                         "cfl_fraction": 0.9, "dt_max": 0.05, "p": 0.0},
                          fit={"t_lo": 0.1, "t_hi": 0.2})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(config), "--out", str(out),
                     "--trials", "1"]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    assert len(notes) == 1
    assert "mass_conservation" in notes[0] and "fit window [0.1, 0.2]" in notes[0]
    assert notes[0][len("note: "):] in read_verdicts(out)["notes"]


def test_trials_is_a_verify_option_only(tmp_path, capsys):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--config", str(config), "--out", str(tmp_path / "out"),
                  "--trials", "3"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


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


@pytest.mark.parametrize("trials", ["1", "0"])
def test_verify_reports_the_pinned_refusal_before_the_trial_count(tmp_path, capsys, trials):
    # the config lists checks, but a refused run prints no note on skipping them
    config = write_config(
        tmp_path,
        grid={"n_cells_per_period": 32, "n_periods": 8, "boundary_mode": "pinned_to_wp"},
    )
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(config), "--out", str(out),
                     "--trials", trials]) == 2
    message = read_verdicts(out)["error"]
    assert "pinned_to_wp" in message
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_on_a_huge_flux_exits_4_naming_the_step_budget(tmp_path):
    # dt = 0.9 h / S(u) shrinks with the amplitude: t_end = 1 would take
    # about 1e11 steps, so the trials stop before their first one
    doc = json.loads((Path(convstab.__file__).parent / "configs"
                      / "verify_forced_burgers.json").read_text())
    doc["flux"]["params"]["amplitude"] = 1e10
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(config), "--out", str(out),
                     "--trials", "1"]) == 4
    error = read_verdicts(out)["error"]
    assert f"MAX_STEPS = {evolution.MAX_STEPS}" in error and "S(u)=" in error, error


def test_verify_rejects_zero_trials(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--trials", "0"]) == 2
    assert "trials must be >= 1, got 0" in read_verdicts(tmp_path / "out")["error"]


def test_verify_fails_a_pair_that_breaks_the_semigroup_properties(tmp_path, monkeypatch,
                                                                   capsys):
    # lift u by 1 after the second step of trial 0's ordered pair: u then
    # exceeds v = u + bump, |u - v| grows and h sum(u - v) moves, so every
    # property fails on that pair alone
    calls = []
    real = scenarios.step

    def bumped(state, kernel, dt):
        calls.append(None)
        out = real(state, kernel, dt)
        return replace(out, u=out.u + 1.0) if len(calls) == 3 else out

    monkeypatch.setattr(scenarios, "step", bumped)
    config = write_config(tmp_path, run={"t_end": 0.2, "snapshot_schedule":
                                         {"kind": "linear", "count": 2},
                                         "cfl_fraction": 0.9, "dt_max": 0.05, "p": 0.0})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(config), "--out", str(out),
                     "--trials", "2", "--seed", "4"]) == 1
    printed = capsys.readouterr().out
    for name in ("comparison", "contraction", "conservation", "pass_rate"):
        assert f"[FAIL] {name} " in printed, name
    payload = read_verdicts(out)
    assert payload["exit_code"] == 1
    rate = payload["verdicts"]["pass_rate"]
    assert rate["pairs"] == 4
    assert rate["failing"] == [{"trial": 0, "kind": "ordered", "seed": 4}]


def test_a_run_artifact_exits_by_its_verdicts():
    with pytest.raises(TypeError, match="exit_code"):
        cli.RunArtifact(command="verify", config={}, verdicts={}, exit_code=0)
    passed, failed = {"passed": True}, {"passed": False, "worst": 1.0}
    for verdicts, code in (({}, 0), ({"a": passed}, 0), ({"a": passed, "b": passed}, 0),
                           ({"a": failed}, 1), ({"a": passed, "b": failed}, 1)):
        artifact = cli.RunArtifact(command="verify", config={}, verdicts=verdicts)
        assert artifact.exit_code == code, verdicts
        assert artifact.to_dict()["exit_code"] == code


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


def test_invalid_document_exits_2(tmp_path, capsys):
    # malformed sections and flux parameters exit 2 with an error that names them
    documents = [
        ({"family": {"p_min": -1.0, "p_max": 1.0, "M": 8}}, "M"),
        ({"grid": 5}, "'grid'"),
        ({"family": []}, "'family'"),
        ({"run": {"snapshot_schedule": 3}}, "'snapshot_schedule'"),
        ({"fit": 3}, "'fit'"),
        ({"flux": {"params": {"amplitude": [1]}}}, "'amplitude'"),
        # a parameter goes by its name alone: A is not amplitude
        ({"flux": {"params": {"A": 0.7}}}, "unused flux parameters for 'forced_burgers': ['A']"),
    ]
    for k, (override, named) in enumerate(documents):
        config = write_config(tmp_path, name=f"doc{k}.json", **override)
        for command in ("stationary", "evolve"):
            out = tmp_path / f"{command}{k}"
            assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
            verdicts = read_verdicts(out)
            assert verdicts["exit_code"] == 2 and named in verdicts["error"], verdicts
            assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stationary", "evolve", "dispersion", "lap", "verify"])
@pytest.mark.parametrize("override, named", [
    ({"grid": {"n_periods": float("inf")}}, "grid.n_periods must be finite"),
    ({"initial": {"width": float("nan")}}, "initial.width must be finite"),
    ({"flux": {"params": {"amplitude": float("inf"), "period": 1.0}}},
     "flux: flux parameter 'amplitude' must be finite"),
], ids=["n_periods", "width", "amplitude"])
def test_non_finite_numbers_exit_2_under_every_command(tmp_path, capsys, command, override,
                                                       named):
    # json writes and reads these as Infinity and NaN
    config = write_config(tmp_path, **override)
    assert "Infinity" in config.read_text() or "NaN" in config.read_text()
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    verdicts = read_verdicts(out)
    assert verdicts["exit_code"] == 2 and named in verdicts["error"], verdicts
    assert not (out / "family.json").exists()
    assert not (out / "family.npy").exists()
    assert f"error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("command, override, named", [
    ("stationary", {"family": {"p_min": -1e300}}, "family.p_min"),
    ("stationary", {"family": {"p_max": 1e300}}, "family.p_max"),
    ("evolve", {"initial": {"amplitude": 1e308}}, "initial.amplitude"),
    ("evolve", {"initial": {"amplitude": -1e308}}, "initial.amplitude"),
    ("evolve", {"initial": {"width": 1e300}}, "initial.width"),
    ("evolve", {"initial": {"width": 1e-300}}, "initial.center and initial.width"),
    ("evolve", {"initial": {"shape": "gaussian_bump", "center": 1e100}},
     "initial.center and initial.width"),
], ids=["p_min", "p_max", "amplitude", "-amplitude", "wide", "narrow", "far"])
def test_numbers_near_the_float_range_exit_2_naming_their_key(tmp_path, capsys, command,
                                                              override, named):
    config = write_config(tmp_path, checks=[], **override)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    verdicts = read_verdicts(out)
    assert verdicts["exit_code"] == 2 and named in verdicts["error"], verdicts
    assert not (out / "family.json").exists()
    assert not (out / "family.npy").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_dispersion_names_a_log_schedule_without_t_lo(tmp_path):
    # no window is inferred from a log schedule that lacks its first time;
    # the schedule's own rule names the key
    config = write_config(tmp_path, run={"snapshot_schedule": {"kind": "log", "count": 10}})
    out = tmp_path / "out"
    assert cli.main(["dispersion", "--config", str(config), "--out", str(out)]) == 2
    assert "snapshot_schedule.t_lo must be > 0" in read_verdicts(out)["error"]


@pytest.mark.parametrize("schedule", [
    {"kind": "linear", "count": 5, "t_lo": -1.0},
    {"kind": "linear", "count": 5, "t_lo": 9.0},
    {"kind": "linear", "count": 5, "t_hi": 50.0},
    {"kind": "linear", "count": 5, "t_lo": 1.5, "t_hi": 1.0},
], ids=["t_lo_negative", "t_lo_past_t_end", "t_hi_past_t_end", "t_lo_above_t_hi"])
def test_a_bad_snapshot_schedule_is_refused_before_anything_runs(tmp_path, schedule):
    # the schedule's times are computed when the config loads, so no command
    # builds a family for a schedule the run cannot honour
    config = write_config(tmp_path, run={"t_end": 2.0, "snapshot_schedule": schedule,
                                         "cfl_fraction": 0.9, "dt_max": 0.05, "p": 0.0})
    for command in ("stationary", "evolve"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
        verdicts = read_verdicts(out)
        assert verdicts["exit_code"] == 2 and "snapshot_schedule" in verdicts["error"]
        assert not (out / "family.json").exists()
        assert not (out / "family.npy").exists()


def test_each_command_builds_the_flux_once(tmp_path, monkeypatch):
    calls = []
    real = scenarios.builtin_flux

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scenarios, "builtin_flux", counting)
    run = {"t_end": 0.2, "snapshot_schedule": {"kind": "linear", "count": 2},
           "cfl_fraction": 0.9, "dt_max": 0.05, "p": 0.0}
    config = write_config(tmp_path, run=run)
    # no fit section: dispersion infers its window from the log schedule, up to
    # t_end on a diffusive run that decays fast enough to pass
    logged = write_config(tmp_path, name="logged.json",
                          flux={"label": "custom_table", "params": {}}, checks=[],
                          run={**run, "t_end": 4.0, "dt_max": 0.02,
                               "snapshot_schedule": {"kind": "log", "count": 10, "t_lo": 1.0}})
    for command, path, extra in (
        ("evolve", config, []),
        ("evolve", config, ["--seed", "3"]),
        ("stationary", config, []),
        ("verify", config, ["--trials", "1"]),
        ("verify", config, ["--trials", "1", "--seed", "3"]),
        ("dispersion", logged, []),
    ):
        calls.clear()
        out = tmp_path / "-".join([command, *extra])
        assert cli.main([command, "--config", str(path), "--out", str(out)] + extra) == 0
        assert len(calls) == 1, (command, extra)
        # the config echo records both overrides
        echo = read_verdicts(out)["config"]
        assert echo["initial"]["seed"] == (3 if "--seed" in extra else None)
        if command == "dispersion":
            assert echo["fit"] == {"t_lo": 1.0, "t_hi": 4.0}


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
    (tmp_path / "artifacts" / "run1").mkdir(parents=True)
    (tmp_path / "artifacts" / "run1" / "diagnostics.csv").write_text("stale")
    assert cli.main(["stationary", "--config", str(config)]) == 0
    assert files_under(tmp_path / "artifacts" / "run1") == ["family.json", "family.npy",
                                                           "verdicts.json"]


def test_importing_the_cli_leaves_heavy_scipy_modules_unloaded():
    # the run path needs two routines of the extension scipy.linalg._flapack
    # only; the scipy.linalg package init would add about 24 MiB, and
    # scipy.interpolate would pull in scipy.sparse, scipy.special and more
    src = str(Path(convstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, convstab.cli; print(sorted(m for m in sys.modules if m in "
            "('scipy.interpolate', 'scipy.linalg', 'scipy.sparse', 'scipy.special')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_a_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma (about 20 ms) on its first call; nothing
    # else the run path loads brings it in
    config = write_config(tmp_path)
    src = str(Path(convstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, convstab.cli as c; "
            f"c.main(['evolve', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[-1] == "False"


# ---------------------------------------------------------------------------
# the output contract: before a command runs, every file of
# scenarios.OUTPUT_FILES in its output directory is deleted, and nothing else

GAUSSIAN = Path(convstab.__file__).parent / "configs" / "gaussian_l2.json"


def gaussian_copy(tmp_path, name, edit):
    doc = json.loads(GAUSSIAN.read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def files_under(out_dir):
    return sorted(p.relative_to(out_dir).as_posix() for p in Path(out_dir).rglob("*")
                  if p.is_file())


def contents(out_dir):
    return {name: (Path(out_dir) / name).read_bytes() for name in files_under(out_dir)}


def run_into(out_dir, command, config):
    extra = ["--trials", "1"] if command == "verify" else []
    return cli.main([command, "--config", str(config), "--out", str(out_dir), *extra])


def test_a_refused_rerun_leaves_only_its_own_verdict_file(tmp_path):
    out = tmp_path / "out"
    assert run_into(out, "evolve", GAUSSIAN) == 0
    assert len(files_under(out)) > 4
    short = gaussian_copy(tmp_path, "short.json", lambda doc: doc["grid"].update(n_periods=8))
    assert run_into(out, "evolve", short) == 3
    assert files_under(out) == ["verdicts.json"]
    payload = read_verdicts(out)
    assert payload["exit_code"] == 3 and "edge buffer" in payload["error"]


@pytest.mark.parametrize("edit, code", [
    (lambda doc: doc.update(grid=5), 2),
    (lambda doc: doc["flux"]["params"].update(amplitude=20.0), 4),
], ids=["config_error", "solver_failure"])
def test_every_refusal_into_a_run_directory_leaves_only_its_verdict_file(tmp_path, edit, code):
    out = tmp_path / "out"
    assert run_into(out, "evolve", GAUSSIAN) == 0
    assert run_into(out, "evolve", gaussian_copy(tmp_path, "bad.json", edit)) == code
    assert files_under(out) == ["verdicts.json"]
    assert read_verdicts(out)["exit_code"] == code


def test_an_unreadable_config_still_clears_the_given_directory(tmp_path):
    out = tmp_path / "out"
    assert run_into(out, "evolve", GAUSSIAN) == 0
    assert run_into(out, "evolve", tmp_path / "missing.json") == 2
    assert files_under(out) == ["verdicts.json"]


@pytest.mark.parametrize("command, left", [
    ("verify", ["verdicts.json"]),
    ("stationary", ["family.json", "family.npy", "verdicts.json"]),
])
def test_a_command_into_a_run_directory_leaves_only_its_own_files(tmp_path, command, left):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_into(out, "evolve", config) == 0
    assert run_into(out, command, config) == 0
    assert files_under(out) == left
    assert sorted(p.name for p in out.iterdir()) == left, "an emptied snapshots folder stays"


@pytest.mark.parametrize("command", ["stationary", "evolve", "verify", "dispersion", "lap"])
def test_files_outside_the_table_survive_every_command(tmp_path, command):
    # dispersion refuses this config (no fit window): a refusal keeps them too
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_into(out, "evolve", config) == 0
    kept = {"notes.txt": b"notes", "snapshots/keep.txt": b"keep"}
    for name, data in kept.items():
        (out / name).write_bytes(data)
    run_into(out, command, config)
    assert {name: (out / name).read_bytes() for name in kept} == kept


def test_an_output_directory_of_dot_clears_only_the_table_names(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_into(out, "evolve", config) == 0
    (out / "notes.txt").write_text("notes")
    monkeypatch.chdir(out)
    assert run_into(".", "stationary", config) == 0
    assert files_under(out) == ["family.json", "family.npy", "notes.txt", "verdicts.json"]


def test_a_rerun_into_a_used_directory_writes_what_a_fresh_one_holds(tmp_path):
    out = tmp_path / "out"
    assert run_into(out, "evolve", GAUSSIAN) == 0
    fresh = contents(out)
    assert run_into(out, "evolve", write_config(tmp_path)) == 0
    assert set(files_under(out)) - set(fresh), "the other run leaves names of its own"
    assert run_into(out, "evolve", GAUSSIAN) == 0
    assert contents(out) == fresh


def _overcommits_always():
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "1"
    except OSError:
        return False


@pytest.mark.skipif(_overcommits_always(),
                    reason="with overcommit mode 1 the kernel may grant the allocation")
def test_running_out_of_memory_exits_2_with_the_allocation_message(tmp_path, capsys):
    # 10**13 snapshot times ask for 72.8 TiB, which numpy refuses before
    # allocating any of it
    huge = gaussian_copy(tmp_path, "huge.json",
                         lambda doc: doc["run"]["snapshot_schedule"].update(count=10**13))
    out = tmp_path / "out"
    assert run_into(out, "evolve", huge) == 2
    payload = read_verdicts(out)
    assert payload["exit_code"] == 2 and "Unable to allocate" in payload["error"]
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")
