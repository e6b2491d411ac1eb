"""Command-line front end: stationary | evolve | verify | dispersion | lap.

Every subcommand reads one scenario JSON (--config), writes its artifacts
under --out (default: the config's output directory), prints one PASS/FAIL
line per verdict, writes a machine-readable verdict file, and exits with
the code below.  Once the output directory is known, and before the command
runs, every file of ``scenarios.OUTPUT_FILES`` there is deleted, so a
directory holds only the files of the last command run into it.  ``evolve``,
``dispersion`` and ``lap`` judge the config's checks with the command's
``REQUIRED_CHECKS`` appended.  These, ``--seed`` and the fit window
``dispersion`` infers are written into the document after it is read and
filled in, and before the config validates it, so the verdict file's config
echo lists them.  ``stationary`` reports ``family_verdicts``, and ``verify``
the verdicts of ``semigroup_trials``; the config's checks and fit window,
which they skip, are named in one ``note:`` line on stderr and in the
verdict file's notes.  A finished command's exit code follows from its
verdicts alone (``RunArtifact``).

    0  every verdict passed
    1  at least one verdict failed
    2  configuration or validation error, or out of memory
    3  edge-buffer abort (perturbation mass reached a pinned boundary)
    4  solver failure (Newton stall, failed family verdict, CFL bound, step budget, family range)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .entropy import FamilyRangeError
from .evolution import CFLError
from .scenarios import (
    ConfigError,
    EdgeBufferError,
    OUTPUT_FILES,
    ScenarioConfig,
    clear_outputs,
    evaluate_checks,
    prepare_run,
    run_scenario,
    semigroup_trials,
    write_outputs,
)
from .stationary import StationarySolveError, build_family, family_verdicts

__all__ = ["RunArtifact", "main"]

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_EDGE_BUFFER = 3
EXIT_SOLVER = 4

# the checks a run command judges on top of the config's own, appended in
# this order to the document's list before the config is built
REQUIRED_CHECKS = {
    "evolve": ("mass_conservation", "l1_dist_nonincreasing"),
    "dispersion": ("dispersion_exponent",),
    "lap": ("lap_non_increase", "l1_bound", "linf_V_decay", "l1_decay"),
}


@dataclass
class RunArtifact:
    """A finished command's verdicts and artifact paths, as its verdict file
    holds them.  ``exit_code`` is not an argument: it is EXIT_PASS when every
    verdict passed and EXIT_CHECK_FAILED otherwise."""

    command: str
    config: dict
    verdicts: Dict[str, dict]
    exit_code: int = field(init=False)
    family_file: Optional[str] = None
    diagnostics_csv: Optional[str] = None
    snapshots_dir: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def __post_init__(self):
        passed = all(v["passed"] for v in self.verdicts.values())
        self.exit_code = EXIT_PASS if passed else EXIT_CHECK_FAILED

    def to_dict(self) -> dict:
        return asdict(self)


def _write_verdicts(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / OUTPUT_FILES["verdicts"], "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    """Build the family, write it (``write_outputs``), and report its
    ``family_verdicts``, which it passes: ``build_family`` refuses a family
    that fails one (exit 4, no family file).  Only the flux, the cell grid
    and the family window of the config are read; its perturbation, run and
    checks are not.
    """
    notes = _ignored(config, "stationary")
    family = build_family(config.flux, config.p_min, config.p_max, config.m_intervals,
                          config.line_grid.cell)
    return RunArtifact(command="stationary", config=config.to_dict(),
                       verdicts=family_verdicts(family), notes=notes,
                       **write_outputs(out_dir, family))


def cmd_run(config: ScenarioConfig, out_dir: Path, command: str) -> RunArtifact:
    """Run the scenario, judge the config's checks and write its artifacts."""
    result = run_scenario(prepare_run(config))
    verdicts = evaluate_checks(result)
    return RunArtifact(command=command, config=config.to_dict(), verdicts=verdicts,
                       **write_outputs(out_dir, result.setup.family_raw, result))


def cmd_verify(config: ScenarioConfig, trials: int, seed: int) -> RunArtifact:
    """Run the semigroup trials on the config's flux, grid and policy, up to
    its t_end; a run ``semigroup_trials`` refuses prints no note."""
    verdicts = semigroup_trials(config.flux, config.line_grid, config.t_end, trials, seed,
                                policy=config.policy)
    notes = [f"{trials} trials, ordered + unordered pairs, seed {seed}"]
    return RunArtifact(command="verify", config=config.to_dict(), verdicts=verdicts,
                       notes=notes + _ignored(config, "verify"))


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


def _with_overrides(doc: dict, command: str, seed: Optional[int]) -> None:
    """Write ``--seed``, the command's required checks and the fit window
    ``dispersion`` infers from a log snapshot schedule into the filled
    document, so the config is built and validated once and its echo records
    all three."""
    schedule = doc["run"]["snapshot_schedule"]
    if seed is not None:
        doc["initial"]["seed"] = seed
    doc["checks"] += [c for c in REQUIRED_CHECKS.get(command, ()) if c not in doc["checks"]]
    if (command == "dispersion" and doc["fit"] is None and schedule["kind"] == "log"
            and schedule["t_lo"] is not None):
        doc["fit"] = {"t_lo": schedule["t_lo"], "t_hi": schedule["t_hi"] or doc["run"]["t_end"]}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir: Optional[Path] = None
    try:
        if args.out is not None:
            out_dir = Path(args.out)
            clear_outputs(out_dir)
        config = ScenarioConfig.from_json(
            args.config, lambda doc: _with_overrides(doc, args.command, args.seed))
        if out_dir is None:
            out_dir = Path(config.output)
            clear_outputs(out_dir)

        if args.command == "stationary":
            artifact = cmd_stationary(config, out_dir)
        elif args.command == "verify":
            seed = 0 if args.seed is None else args.seed
            artifact = cmd_verify(config, args.trials, seed)
        else:
            artifact = cmd_run(config, out_dir, args.command)
    except EdgeBufferError as exc:
        return _fail(out_dir, args.command, EXIT_EDGE_BUFFER, str(exc))
    except (StationarySolveError, CFLError, FamilyRangeError) as exc:
        return _fail(out_dir, args.command, EXIT_SOLVER, str(exc))
    except (ConfigError, ValueError, OSError) as exc:
        return _fail(out_dir, args.command, EXIT_CONFIG, str(exc))
    except MemoryError as exc:
        return _fail(out_dir, args.command, EXIT_CONFIG, f"out of memory: {exc}")

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
