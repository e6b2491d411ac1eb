"""convstab benchmark: end-to-end runs of the command line, one process each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see bench/README.md for why each was chosen):

    canonical_t5       the packaged canonical_dipole.json cut at t = 5
    pinned_snapshots   a generated pinned-boundary bump run, 30 snapshots
    verify_trials      ``verify`` on verify_forced_burgers.json, 30 trials;
                       not in BENCHMARK.json, for runs by hand

The driver is a closed loop with one client: it starts one child process
(bench/child.py) per run and waits for it before starting the next.  With
``--trace 0`` it repeats full runs while the next one would still end within
``--seconds`` (at least one run), then adds set-up-only runs until it holds
SETUP_SAMPLES set-up times, and reports medians.  With ``--trace 1`` it
makes one traced and one untraced full run and reports the per-layer metrics
of the traced one, with the tracing overhead as the difference of their wall
times.

Every run is checked: a nonzero exit, a failed verdict, a missed headline
gate or an artifact digest that differs from the other runs of the same
program, workload and seed makes the run fail.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the full
record, with the environment, goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = Path(".bench_out")
CONFIG_DIR = Path("src") / "convstab" / "configs"

SETUP_SAMPLES = 5
# no child is started that would end later than this after the driver began,
# judged by the longest run of its kind so far
TIME_BUDGET_S = 165.0

CANONICAL_ALPHA = (0.9220826347872779, 1e-9)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# checks whose targets need the canonical horizon t = 100
HORIZON_CHECKS = ("l1_decay", "linf_V_decay", "dispersion_exponent")

# the checks a gaussian_bump run accepts, less dispersion_exponent, which
# needs a fit window that a t = 1 run cannot fill
BUMP_CHECKS = [
    "mass_conservation",
    "l1_dist_nonincreasing",
    "total_eta_nonincreasing",
    "pi_l1_bound",
    "eta_nonnegative",
    "nash_bounded",
]


def _load_packaged(name: str) -> dict:
    with open(CONFIG_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def _cut_canonical(config: dict, n_periods: int, t_end: float) -> None:
    """The canonical run stopped at t_end with the checks that hold at any
    horizon.  Three log-spaced snapshots over [t_end / 10, t_end] keep the
    observers near their share of the full run (26 snapshots, 7241 steps)."""
    config["grid"]["n_periods"] = n_periods
    config["run"]["t_end"] = t_end
    config["run"]["snapshot_schedule"] = {"kind": "log", "count": 3,
                                          "t_lo": t_end / 10, "t_hi": t_end}
    del config["fit"]
    config["checks"] = [c for c in config["checks"] if c not in HORIZON_CHECKS]


def make_workload(name: str, seed: int, smoke: bool):
    """Config document, CLI arguments (without --config/--out) and sizes.

    ``smoke`` shrinks every workload for the benchmark's own tests; its
    figures are not comparable with full-size runs.
    """
    if name == "canonical_t5":
        config = _load_packaged("canonical_dipole.json")
        if smoke:
            _cut_canonical(config, 16, 4.0)
        else:
            _cut_canonical(config, 64, 5.0)
        args = ["evolve"]
        sizes = {"snapshots": config["run"]["snapshot_schedule"]["count"] + 1}
    elif name == "verify_trials":
        config = _load_packaged("verify_forced_burgers.json")
        trials = 3 if smoke else 30
        args = ["verify", "--trials", str(trials), "--seed", str(seed)]
        sizes = {"trials": trials}
    elif name == "pinned_snapshots":
        center = random.Random(seed).uniform(-1.5, 1.5)
        config = {
            "flux": {"label": "forced_burgers", "params": {"amplitude": 0.5, "period": 1.0}},
            "grid": {"n_cells_per_period": 32 if smoke else 384, "n_periods": 24,
                     "boundary_mode": "pinned_to_wp"},
            "family": {"p_min": -2.0, "p_max": 2.0, "M": 16 if smoke else 64},
            "initial": {"shape": "gaussian_bump", "amplitude": 0.3, "width": 0.5,
                        "center": center},
            "run": {"t_end": 0.25,
                    "snapshot_schedule": {"kind": "linear", "count": 10 if smoke else 30},
                    "cfl_fraction": 0.9, "dt_max": 0.1, "p": 0.0},
            "checks": BUMP_CHECKS,
            "output": "out/pinned_snapshots",
        }
        args = ["evolve"]
        sizes = {"snapshots": config["run"]["snapshot_schedule"]["count"],
                 "bump_center": center}
    else:
        raise ValueError(f"unknown workload {name!r}")
    sizes["cells"] = config["grid"]["n_cells_per_period"] * config["grid"]["n_periods"]
    boundary = "semigroup_trials" if args[0] == "verify" else "prepare_run"
    return config, args, boundary, sizes


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over diagnostics.csv and every snapshot, or over the verdicts
    when the command writes no series (verify)."""
    digest = hashlib.sha256()
    files = [out_dir / "diagnostics.csv"] + sorted((out_dir / "snapshots").glob("*.csv"))
    files = [f for f in files if f.is_file()]
    if files:
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    else:
        with open(out_dir / "verdicts.json", encoding="utf-8") as fh:
            verdicts = json.load(fh)["verdicts"]
        digest.update(json.dumps(verdicts, sort_keys=True).encode())
    return digest.hexdigest()


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_child(work: Path, tag: str, argv, boundary: str, mode: str, trace: bool) -> dict:
    """Run one child process to completion and collect what it measured."""
    out_dir = work / tag
    job = {"argv": argv + ["--out", str(out_dir)], "boundary": boundary, "mode": mode,
           "trace": trace, "result": str(work / f"{tag}.result.json"),
           "spans": str(work / f"{tag}.spans.json.gz")}
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ)
    # one BLAS thread: a run then occupies one core, and the dense family
    # solves do not spin a second thread that competes with the driver
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    started = time.perf_counter()
    with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"tag": tag, "mode": mode, "trace": trace,
              "elapsed_s": time.perf_counter() - started,
              "child_status": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    result_path = Path(job["result"])
    if proc.returncode == 0 and result_path.is_file():
        record.update(json.loads(result_path.read_text(encoding="utf-8")))
    if mode == "full" and (out_dir / "verdicts.json").is_file():
        with open(out_dir / "verdicts.json", encoding="utf-8") as fh:
            verdicts = json.load(fh).get("verdicts", {})
        record["verdicts"] = {k: bool(v.get("passed")) for k, v in verdicts.items()}
        if (out_dir / "family.json").is_file():
            with open(out_dir / "family.json", encoding="utf-8") as fh:
                record["alpha"] = json.load(fh)["alpha"]
        record["digest"] = artifact_digest(out_dir)
        record["artifact_bytes"] = _tree_bytes(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def run_failures(workload: str, run: dict) -> list:
    """Reasons one run fails its gates (empty when it passes)."""
    if run.get("child_status") != 0 or "setup_s" not in run:
        return [f"child exited {run.get('child_status')} without a result"]
    reasons = []
    if run.get("exit_code") != 0:
        reasons.append(f"convstab exited {run.get('exit_code')}")
    if run["mode"] != "full":
        return reasons
    verdicts = run.get("verdicts")
    if not verdicts:
        reasons.append("no verdicts written")
    else:
        reasons += [f"verdict {name} failed" for name, ok in verdicts.items() if not ok]
    if workload == "canonical_t5":
        # the cut run builds the canonical family (M = 32, 128 cells)
        alpha, rel = CANONICAL_ALPHA
        if run.get("alpha") is None or abs(run["alpha"] - alpha) > rel * abs(alpha):
            reasons.append(f"family alpha {run.get('alpha')} not within {rel} of {alpha}")
    return reasons


def program_key(workload: str, seed: int, smoke: bool, argv: list, config_text: str,
                first_run: dict) -> str:
    """The digest store's key: the workload and seed, and a fingerprint of
    what decides the artifact bytes (package sources, config, arguments and
    library versions), so a change to the program starts a new set."""
    fingerprint = hashlib.sha256()
    package = CONFIG_DIR.parent
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            fingerprint.update(path.relative_to(package).as_posix().encode() + b"\0")
            fingerprint.update(path.read_bytes())
    versions = [first_run.get(name) for name in ("python", "numpy", "scipy")]
    fingerprint.update(json.dumps([argv, config_text, versions]).encode())
    size = "smoke" if smoke else "full"
    return f"{workload}:{seed}:{size}:{fingerprint.hexdigest()[:16]}"


def digest_failures(runs: list, known: str | None) -> list:
    """Indices of full runs whose digest differs from the set's first digest."""
    bad = []
    reference = known
    for idx, run in enumerate(runs):
        digest = run.get("digest")
        if digest is None:
            continue
        if reference is None:
            reference = digest
        elif digest != reference:
            bad.append(idx)
    return bad


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(full: list, setup_runs: list) -> dict:
    """Each end-to-end metric as a median over the runs that passed."""
    samples = {
        "wall_s": [r["setup_s"] + r["solve_s"] for r in full],
        "setup_s": [r["setup_s"] for r in setup_runs],
        "solve_s": [r["solve_s"] for r in full],
        "cell_steps_per_s": [r["cell_steps"] / r["solve_s"] for r in full],
        "peak_rss_mb": [r["peak_rss_mb"] for r in full],
    }
    return {name: summarize(vals) for name, vals in samples.items() if vals}


def _git_commit() -> str | None:
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(first_run: dict) -> dict:
    cpu_model, caches = platform.processor() or None, {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "python": first_run.get("python"), "numpy": first_run.get("numpy"),
        "scipy": first_run.get("scipy"), "blas_threads": first_run.get("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "git_commit": _git_commit(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["canonical_t5", "verify_trials", "pinned_snapshots"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="shortened workloads for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (CONFIG_DIR.parent / "cli.py").is_file():
        print(f"error: no convstab sources under {CONFIG_DIR.parent}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    began = time.perf_counter()
    started_ns = time.time_ns()
    config, cli_args, boundary, sizes = make_workload(args.workload, args.seed, args.smoke)
    work = OUT_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_text = json.dumps(config, indent=1)
    config_path.write_text(config_text, encoding="utf-8")
    argv_cli = [cli_args[0], "--config", str(config_path)] + cli_args[1:]

    def fits(longest):
        return time.perf_counter() - began + longest < TIME_BUDGET_S

    full, setup_only = [], []
    if args.trace:
        full.append(run_child(work, "traced", argv_cli, boundary, "full", True))
        if fits(full[0]["elapsed_s"]):
            full.append(run_child(work, "untraced", argv_cli, boundary, "full", False))
    else:
        while True:
            full.append(run_child(work, f"run{len(full)}", argv_cli, boundary, "full", False))
            # start no run that would end after --seconds
            longest = max(r["elapsed_s"] for r in full)
            if time.perf_counter() - began + longest > args.seconds or not fits(longest):
                break
        while len(full) + len(setup_only) < SETUP_SAMPLES:
            longest = max((r["elapsed_s"] for r in setup_only), default=0.0)
            if setup_only and not fits(longest):
                break
            setup_only.append(run_child(work, f"setup{len(setup_only)}", argv_cli,
                                        boundary, "setup", False))

    # artifact digests must agree across the runs of one program, workload
    # and seed, including earlier invocations in this checkout
    digests_path = OUT_ROOT / "digests.json"
    known = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    key = program_key(args.workload, args.seed, args.smoke, argv_cli, config_text, full[0])
    runs = full + setup_only
    for r in runs:
        r["failures"] = run_failures(args.workload, r)
    for idx in digest_failures(full, known.get(key)):
        full[idx]["failures"].append("artifact digest differs within the set")
    first_digest = next((r["digest"] for r in full if "digest" in r), None)
    if key not in known and first_digest is not None:
        known[key] = first_digest
        digests_path.write_text(json.dumps(known, indent=1, sort_keys=True))

    attempted = len(runs)
    failed = sum(1 for r in runs if r["failures"])
    passed_full = [r for r in full if not r["failures"]]
    setup_runs = [r for r in runs if not r["failures"]]
    correct = failed == 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "started_ns": started_ns,
              "smoke": args.smoke, "seconds": args.seconds, "sizes": sizes,
              "environment": environment(full[0]), "attempted": attempted,
              "failed": failed, "fail_share": failed / attempted, "runs": runs}
    summary = {}
    if args.trace:
        traced = next((r for r in passed_full if r["trace"]), None)
        untraced = next((r for r in passed_full if not r["trace"]), None)
        if traced is not None:
            summary = dict(traced["layers"])
            summary["evolution.cell_steps"] = traced["cell_steps"]
            summary["scenarios.artifact_bytes"] = traced.get("artifact_bytes", 0)
            wall = traced["setup_s"] + traced["solve_s"]
            summary["trace.wall_s"] = wall
            summary["fail_share"] = record["fail_share"]
            if untraced is not None:
                summary["trace.overhead_s"] = wall - untraced["setup_s"] - untraced["solve_s"]
            record["shares"] = layer_shares(summary, traced)
        else:
            correct = False
        units = LAYER_UNITS
        values = summary
        if set(values) != set(LAYER_UNITS):
            correct = False
    else:
        summary = end_to_end(passed_full, setup_runs)
        if set(summary) != set(END_TO_END):
            correct = False
        units = END_TO_END
        values = {name: s["median"] for name, s in summary.items()}
    record["metrics"] = summary
    record["correct"] = correct

    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                             f"{started_ns}.json")
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} sizes "
          + json.dumps(sizes, sort_keys=True))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for r in runs:
        if r["failures"]:
            print(f"FAILED {r['tag']}: " + "; ".join(r["failures"]))
    print(f"fail_share {_fmt(record['fail_share'])} share ({failed} of {attempted} runs)")
    for name, unit in units.items():
        if name not in values:
            continue
        line = f"{name} {_fmt(values[name])} {unit}"
        if not args.trace:
            s = summary[name]
            line += f" (median of {s['n']}; q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])})"
        print(line)
    for name, share in record.get("shares", {}).items():
        print(f"share {name} {_fmt(share)}")
    print(f"record {record_path}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


LAYER_UNITS = {
    "fluxes.calls": "count",
    "fluxes.busy_s": "s",
    "fluxes.self_s": "s",
    "evolution.steps": "count",
    "evolution.cell_steps": "count",
    "evolution.step_s": "s",
    "evolution.step_self_s": "s",
    "evolution.step_us_p50": "us",
    "evolution.step_us_p99": "us",
    "evolution.cfl_calls": "count",
    "evolution.cfl_s": "s",
    "evolution.cfl_self_s": "s",
    "stationary.busy_s": "s",
    "stationary.build_family_s": "s",
    "stationary.solves": "count",
    "stationary.dp_solves": "count",
    "stationary.solve_ms_p50": "ms",
    "stationary.theta_s": "s",
    "stationary.normalize_s": "s",
    "entropy.eta_calls": "count",
    "entropy.eta_s": "s",
    "entropy.eta_self_s": "s",
    "entropy.invert_s": "s",
    "entropy.interpolant_build_s": "s",
    "diagnostics.lap_s": "s",
    "diagnostics.energy_s": "s",
    "diagnostics.series_csv_s": "s",
    "grids.norm_primitive_s": "s",
    "scenarios.prepare_self_s": "s",
    "scenarios.observe_s": "s",
    "scenarios.snapshots": "count",
    "scenarios.artifact_write_s": "s",
    "scenarios.artifact_bytes": "bytes",
    "cli.checks_s": "s",
    "cli.import_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "fail_share": "share",
}


def layer_shares(layers: dict, traced: dict) -> dict:
    """The shares that show each workload loads the layer it was chosen for."""
    solve, setup = traced["solve_s"], traced["setup_s"]
    return {
        "stepping_of_solve": (layers["evolution.step_s"] + layers["evolution.cfl_s"]) / solve,
        "step_of_solve": layers["evolution.step_s"] / solve,
        "entropy_and_artifacts_of_solve": (layers["entropy.eta_s"]
                                           + layers["entropy.interpolant_build_s"]
                                           + layers["scenarios.artifact_write_s"]) / solve,
        "stationary_of_setup": layers["stationary.busy_s"] / setup,
    }


if __name__ == "__main__":
    sys.exit(main())
