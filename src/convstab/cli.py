"""Command-line front end: stationary | evolve | verify | dispersion | lap.

Every subcommand reads one scenario JSON (--config), writes its artifacts
under --out (default: the config's output directory), prints one PASS/FAIL
line per enabled check, writes a machine-readable verdicts.json, and exits
with the code below.  ``stationary`` and ``verify`` judge their own verdicts;
the config's checks and fit window, which they skip, are named in one
``note:`` line on stderr and in the verdict file's notes.

    0  every enabled check passed
    1  at least one check failed
    2  configuration or validation error
    3  edge-buffer abort (perturbation mass reached a pinned boundary)
    4  solver failure (Newton stall, CFL violation, family range)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .entropy import FamilyRangeError, dispersion_fit
from .evolution import CFLError
from .scenarios import (
    ConfigError,
    EdgeBufferError,
    RunResult,
    ScenarioConfig,
    prepare_run,
    run_scenario,
    semigroup_trials,
)
from .stationary import (
    DP_MEAN_TOLERANCE,
    MEAN_TOLERANCE,
    NEWTON_TOLERANCE,
    StationarySolveError,
    build_family,
    cell_residual,
    residual_floor,
    save_family,
)

__all__ = ["RunArtifact", "main"]

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_EDGE_BUFFER = 3
EXIT_SOLVER = 4


@dataclass
class RunArtifact:
    command: str
    config: dict
    verdicts: Dict[str, dict]
    exit_code: int
    family_file: Optional[str] = None
    diagnostics_csv: Optional[str] = None
    snapshots_dir: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "verdicts": self.verdicts,
            "exit_code": self.exit_code,
            "family_file": self.family_file,
            "diagnostics_csv": self.diagnostics_csv,
            "snapshots_dir": self.snapshots_dir,
            "notes": self.notes,
        }


def _write_verdicts(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "verdicts.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _verdict(passed: bool, **measured) -> dict:
    out = {"passed": bool(passed)}
    out.update(measured)
    return out


def evaluate_checks(result: RunResult, checks) -> Dict[str, dict]:
    """Turn a finished run's diagnostics series into per-check verdicts."""
    series = result.series
    setup = result.setup
    config = setup.config
    verdicts: Dict[str, dict] = {}

    l1 = series.column("l1_dist")
    times = series.column("t")

    for name in checks:
        if name == "mass_conservation":
            offsets = np.abs(series.column("mass_offset"))
            if config.boundary_mode == "periodic":
                drift = float((offsets / np.maximum(1.0, times)).max())
                verdicts[name] = _verdict(drift <= 1e-10, max_drift_per_time=drift)
            else:
                budget = 1e-8 * float(l1[0])
                leak = float(offsets.max())
                verdicts[name] = _verdict(leak <= budget, max_leakage=leak, budget=budget)
        elif name == "l1_dist_nonincreasing":
            rise = float(np.diff(l1).max()) if l1.size > 1 else 0.0
            verdicts[name] = _verdict(rise <= 1e-10, max_rise=rise)
        elif name == "l1_decay":
            target = 0.1 * float(l1[0])
            verdicts[name] = _verdict(
                float(l1[-1]) <= target, final=float(l1[-1]), target=target
            )
        elif name == "linf_V_decay":
            col = series.column("linf_V")
            target = 0.1 * float(col[0])
            verdicts[name] = _verdict(
                float(col[-1]) <= target, final=float(col[-1]), target=target
            )
        elif name == "lap_non_increase":
            laps = series.column("lap_number")
            rise = float(np.diff(laps).max()) if laps.size > 1 else 0.0
            verdicts[name] = _verdict(rise <= 0, laps=[int(v) for v in laps])
        elif name == "l1_bound":
            laps = series.column("lap_number")
            bounds = 2.0 * (laps + 1.0) * series.column("linf_V")
            margin = float((l1 - bounds).max())
            verdicts[name] = _verdict(margin <= 1e-9, worst_margin=margin)
        elif name == "weighted_energy_nonincreasing":
            col = series.column("weighted_energy")
            rise = float(np.diff(col).max()) if col.size > 1 else 0.0
            verdicts[name] = _verdict(rise <= 1e-9, max_rise=rise)
        elif name == "total_eta_nonincreasing":
            col = series.column("total_eta")
            rise = float(np.diff(col).max()) if col.size > 1 else 0.0
            verdicts[name] = _verdict(rise <= 1e-10, max_rise=rise)
        elif name == "pi_l1_bound":
            budget = float(l1[0]) / setup.family.alpha
            worst = float(series.column("l1_pi").max())
            verdicts[name] = _verdict(worst <= budget + 1e-12, worst=worst, budget=budget)
        elif name == "eta_nonnegative":
            # enforced cellwise when each entropy field is evaluated; reaching
            # this point means no snapshot violated it
            verdicts[name] = _verdict(True, enforced="cellwise at evaluation")
        elif name == "dispersion_exponent":
            fit = dispersion_fit(series, config.fit_window)
            if fit.converged:
                verdicts[name] = _verdict(True, converged=True,
                                          note="distances hit zero inside the window")
            else:
                verdicts[name] = _verdict(
                    fit.exponent <= -0.20,
                    exponent=fit.exponent,
                    constant=fit.constant,
                    r_squared=fit.r_squared,
                )
        elif name == "nash_bounded":
            ratios = series.column("nash_ratio")
            finite = ratios[np.isfinite(ratios)]
            worst = float(finite.max()) if finite.size else float("nan")
            verdicts[name] = _verdict(finite.size == 0 or worst <= 10.0, worst=worst)
        else:
            raise ConfigError(f"unknown check {name!r}")
    return verdicts


def _ordered_checks(config_checks, required) -> List[str]:
    out = list(config_checks)
    for name in required:
        if name not in out:
            out.append(name)
    return out


def _ignored(config: ScenarioConfig, command: str) -> List[str]:
    """A note naming the config's checks and fit window, which ``command``
    does not evaluate, printed to stderr; empty when the config sets neither."""
    parts = []
    if config.checks:
        parts.append(f"checks {', '.join(config.checks)}")
    if config.fit_window is not None:
        parts.append(f"fit window [{config.fit_window[0]}, {config.fit_window[1]}]")
    if not parts:
        return []
    note = f"{command} ignores the config's {' and its '.join(parts)}"
    print(f"note: {note}", file=sys.stderr)
    return [note]


def cmd_stationary(config: ScenarioConfig, out_dir: Path) -> RunArtifact:
    """Build the family, write it, and report residual/monotonicity verdicts.

    Only the flux, the cell grid and the family window of the config are
    read; its perturbation, run and checks are not.
    """
    notes = _ignored(config, "stationary")
    flux, grid = config.flux, config.line_grid.cell
    family = build_family(flux, config.p_min, config.p_max, config.m_intervals, grid)
    tol = NEWTON_TOLERANCE

    residual = max(float(np.abs(cell_residual(flux, row, grid)).max())
                   for row in family.profiles)
    # stored profiles cannot certify residuals below the double-precision
    # floor eps * sup|w| / h^2; allow it on top of the solver tolerance
    floor = residual_floor(family.profiles, grid)
    mean_gap = float(np.abs(family.profiles.mean(axis=1) - family.p_grid).max())
    dp_mean_gap = float(np.abs(family.dp_profiles.mean(axis=1) - 1.0).max())
    monotone = bool(np.all(np.diff(family.profiles, axis=0) > 0))

    verdicts = {
        "residuals": _verdict(
            residual <= tol + floor,
            max_residual=residual,
            tolerance=tol,
            storage_floor=floor,
        ),
        "means": _verdict(mean_gap <= MEAN_TOLERANCE, max_gap=mean_gap),
        "monotone": _verdict(monotone),
        "dp_means": _verdict(dp_mean_gap <= DP_MEAN_TOLERANCE, max_gap=dp_mean_gap),
        "alpha_positive": _verdict(family.alpha > 0, alpha=family.alpha,
                                   min_dp=float(family.dp_profiles.min())),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    family_path = out_dir / "family.json"
    save_family(family, family_path)
    exit_code = EXIT_PASS if all(v["passed"] for v in verdicts.values()) else EXIT_CHECK_FAILED
    return RunArtifact(
        command="stationary",
        config=config.to_dict(),
        verdicts=verdicts,
        exit_code=exit_code,
        family_file=str(family_path),
        notes=notes,
    )


def _require_fit_window(config: ScenarioConfig) -> None:
    """The dispersion fit needs a window with at least 8 snapshots in it."""
    if config.fit_window is None:
        raise ConfigError("the dispersion_exponent check needs a fit window "
                          "(the dispersion command infers one from a log snapshot schedule)")
    (lo, hi), times = config.fit_window, config.schedule_times
    in_window = int(np.sum((times >= lo - 1e-12) & (times <= hi + 1e-12)))
    if in_window < 8:
        raise ConfigError(f"dispersion fit window {config.fit_window} holds only "
                          f"{in_window} snapshots; at least 8 are required")


def _run_and_judge(config: ScenarioConfig, out_dir: Path, command: str,
                   required_checks) -> RunArtifact:
    checks = _ordered_checks(config.checks, required_checks)
    if "dispersion_exponent" in checks:
        # refused before the run, not after it has written its artifacts
        _require_fit_window(config)
    setup = prepare_run(config)
    result = run_scenario(setup, out_dir)
    verdicts = evaluate_checks(result, checks)
    exit_code = EXIT_PASS if all(v["passed"] for v in verdicts.values()) else EXIT_CHECK_FAILED
    return RunArtifact(
        command=command,
        config=config.to_dict(),
        verdicts=verdicts,
        exit_code=exit_code,
        family_file=result.family_path,
        diagnostics_csv=result.diagnostics_path,
        snapshots_dir=result.snapshots_dir,
    )


def cmd_evolve(config: ScenarioConfig, out_dir: Path) -> RunArtifact:
    return _run_and_judge(
        config, out_dir, "evolve", ("mass_conservation", "l1_dist_nonincreasing")
    )


def cmd_dispersion(config: ScenarioConfig, out_dir: Path) -> RunArtifact:
    return _run_and_judge(config, out_dir, "dispersion", ("dispersion_exponent",))


def cmd_lap(config: ScenarioConfig, out_dir: Path) -> RunArtifact:
    if config.initial.shape == "gaussian_bump":
        raise ConfigError(
            "lap tracking needs a zero-mean perturbation; "
            "gaussian_bump carries mass"
        )
    return _run_and_judge(
        config, out_dir, "lap",
        ("lap_non_increase", "l1_bound", "linf_V_decay", "l1_decay"),
    )


def cmd_verify(config: ScenarioConfig, out_dir: Path, trials: int, seed: int) -> RunArtifact:
    if config.boundary_mode != "periodic":
        raise ConfigError(
            "verify runs its trials on periodic domains only; "
            f"boundary_mode {config.boundary_mode!r} is not supported"
        )
    notes = _ignored(config, "verify")
    records = semigroup_trials(config.flux, config.line_grid, config.t_end, trials, seed,
                               policy=config.policy)

    failing = [
        r for r in records
        if not (r["comparison_ok"] and r["contraction_ok"] and r["conservation_ok"])
    ]
    verdicts = {
        "comparison": _verdict(
            all(r["comparison_ok"] for r in records),
            worst=max(r["comparison_excess"] for r in records),
        ),
        "contraction": _verdict(
            all(r["contraction_ok"] for r in records),
            worst=max(r["contraction_excess"] for r in records),
        ),
        "conservation": _verdict(
            all(r["conservation_ok"] for r in records),
            worst=max(r["conservation_drift"] for r in records),
        ),
        "pass_rate": _verdict(
            not failing,
            trials=trials,
            pairs=len(records),
            failing=[{"trial": r["trial"], "kind": r["kind"], "seed": r["seed"]}
                     for r in failing],
        ),
    }
    exit_code = EXIT_PASS if not failing else EXIT_CHECK_FAILED
    return RunArtifact(
        command="verify",
        config=config.to_dict(),
        verdicts=verdicts,
        exit_code=exit_code,
        notes=[f"{trials} trials, ordered + unordered pairs, seed {seed}"] + notes,
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convstab",
        description="Stationary profiles, perturbed evolution runs, and the "
                    "property checks around them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("stationary", "build and validate a stationary family"),
        ("evolve", "run a perturbed scenario and record diagnostics"),
        ("verify", "comparison/contraction/conservation trials on random pairs"),
        ("dispersion", "run a scenario and fit the L2 decay exponent"),
        ("lap", "run a scenario tracking lap numbers and L1 bounds"),
    ):
        cmd = sub.add_parser(name, help=descr)
        cmd.add_argument("--config", required=True, help="scenario JSON path")
        cmd.add_argument("--out", default=None, help="output directory (default: config's)")
        cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if name == "verify":
            cmd.add_argument("--trials", type=int, default=20, help="number of trials")
    return parser


def _with_overrides(raw, command: str, seed: Optional[int]):
    """The document with ``--seed`` and the fit window ``dispersion`` infers
    from a log snapshot schedule written in, so the config is built once and
    its echo records both."""
    try:
        if seed is not None:
            raw["initial"]["seed"] = seed
        schedule = raw["run"]["snapshot_schedule"]
        if command == "dispersion" and raw.get("fit") is None and schedule["kind"] == "log":
            raw["fit"] = {"t_lo": schedule.get("t_lo"),
                          "t_hi": schedule.get("t_hi") or raw["run"]["t_end"]}
    except (AttributeError, KeyError, TypeError):
        pass  # a malformed section is left for ScenarioConfig.from_dict to name
    return raw


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir: Optional[Path] = Path(args.out) if args.out is not None else None
    try:
        config = ScenarioConfig.from_json(
            args.config, lambda raw: _with_overrides(raw, args.command, args.seed))
        if out_dir is None:
            out_dir = Path(config.output)

        if args.command == "stationary":
            artifact = cmd_stationary(config, out_dir)
        elif args.command == "evolve":
            artifact = cmd_evolve(config, out_dir)
        elif args.command == "dispersion":
            artifact = cmd_dispersion(config, out_dir)
        elif args.command == "lap":
            artifact = cmd_lap(config, out_dir)
        else:
            if args.trials < 1:
                raise ConfigError(f"trials must be >= 1, got {args.trials}")
            seed = 0 if args.seed is None else args.seed
            artifact = cmd_verify(config, out_dir, args.trials, seed)
    except EdgeBufferError as exc:
        return _fail(out_dir, args.command, EXIT_EDGE_BUFFER, str(exc))
    except (StationarySolveError, CFLError, FamilyRangeError) as exc:
        return _fail(out_dir, args.command, EXIT_SOLVER, str(exc))
    except (ConfigError, ValueError, OSError) as exc:
        return _fail(out_dir, args.command, EXIT_CONFIG, str(exc))

    _write_verdicts(out_dir, artifact.to_dict())
    for name, verdict in artifact.verdicts.items():
        status = "PASS" if verdict["passed"] else "FAIL"
        detail = {k: v for k, v in verdict.items() if k != "passed"}
        print(f"[{status}] {name} {json.dumps(detail, sort_keys=True, default=str)}")
    return artifact.exit_code


def _fail(out_dir: Optional[Path], command: str, code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    if out_dir is not None:
        try:
            _write_verdicts(out_dir, {"command": command, "error": message,
                                      "exit_code": code, "verdicts": {}})
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
