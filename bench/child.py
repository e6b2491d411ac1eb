"""One benchmark run of the convstab command line in a fresh process.

    python3 bench/child.py JOB.json

JOB is written by ``bench/run.py`` and holds

    argv      the ``convstab`` arguments (subcommand, --config, --out, ...)
    boundary  the function whose return (``prepare_run``) or entry
              (``semigroup_trials``) ends set-up, as ``cli`` calls it
    mode      "full" runs the command to the end; "setup" stops at the boundary
    trace     record spans around the public functions of every module
    result    path of the JSON result this process writes
    spans     path of the gzipped span dump (traced runs only)

Set-up runs from the start of ``cli.main`` (argument parsing and config load)
to the boundary; solve runs from the boundary to the return of ``cli.main``,
so it covers the run, the checks and every artifact.  Interpreter start and
imports are outside both and reported as ``import_s``.

Spans are recorded from outside the package: each function is replaced, in
the namespace of the module that calls it, by a wrapper that records (name,
start, end, parent).  ``scenarios`` imports ``step`` by name, so
``semigroup_trials`` reaches ``scenarios.step`` while ``evolve`` reaches
``evolution.step``; both are wrapped.  Spans stay in memory until the run
ends.  Untraced runs wrap only the step functions, with a counter and no
clock, for the cell-step count.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import statistics
import sys
from time import perf_counter

FLUX_METHODS = ("eval", "d_u", "d_uu", "d_x")


class SetupDone(Exception):
    """Raised at the set-up boundary of a set-up-only run."""


class Tracer:
    """Spans in parallel lists; ``parents`` holds the enclosing span's index."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]

    def wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def self_times(self):
        """Per span: duration minus the durations of its direct children.

        The program is single-threaded, so direct children never overlap and
        their summed durations are the part of the parent they cover.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[idx]
        return durations, [d - c for d, c in zip(durations, covered)]

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        rows = [[index[n], s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": table, "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)


def _instrument_flux(tracer, flux, prefix):
    """Copy of a FluxModel whose evaluation callables record spans."""
    wrapped = {m: tracer.wrap(f"{prefix}.{m}", getattr(flux, m)) for m in FLUX_METHODS}
    return dataclasses.replace(flux, **wrapped)


def _patch(owner, attr, wrapper):
    setattr(owner, attr, wrapper(getattr(owner, attr)))


def install_tracing(tracer, mods) -> None:
    cli, scenarios, evolution, stationary, entropy, diagnostics = mods
    span = tracer.wrap

    def spanned(name):
        return lambda fn: span(name, fn)

    def with_running_flux(name, position):
        # the flux handed to the time stepper is the one every step evaluates
        def wrapper(fn):
            traced = span(name, fn)

            def call(*args, **kwargs):
                args = list(args)
                args[position] = _instrument_flux(tracer, args[position], "fluxes")
                return traced(*args, **kwargs)

            return call
        return wrapper

    def normalize(fn):
        # the raw flux inside the normalized one: its spans are children, so
        # the normalized flux's self time is the spline shift alone
        traced = span("stationary.normalize_about_wp", fn)
        return lambda flux, background: traced(
            _instrument_flux(tracer, flux, "fluxes.base"), background)

    def observer(fn):
        traced = span("scenarios.make_observer", fn)
        return lambda setup: span("scenarios.observe", traced(setup))

    _patch(cli, "prepare_run", spanned("scenarios.prepare_run"))
    _patch(cli, "run_scenario", spanned("scenarios.run_scenario"))
    _patch(cli, "evaluate_checks", spanned("cli.evaluate_checks"))
    _patch(cli, "semigroup_trials", with_running_flux("scenarios.semigroup_trials", 0))
    _patch(scenarios, "evolve", with_running_flux("evolution.evolve", 1))
    _patch(scenarios, "normalize_about_wp", normalize)
    _patch(scenarios, "make_observer", observer)
    for owner, attr, name in (
        (scenarios, "build_family", "stationary.build_family"),
        (scenarios, "solve_stationary", "stationary.solve_stationary"),
        (scenarios, "solve_theta", "stationary.solve_theta"),
        (scenarios, "step", "evolution.step"),
        (scenarios, "cfl_timestep", "evolution.cfl_timestep"),
        (scenarios, "eta_field", "entropy.eta_field"),
        (scenarios, "lap_number", "diagnostics.lap_number"),
        (scenarios, "sign_changes", "diagnostics.sign_changes"),
        (scenarios, "weighted_energy", "diagnostics.weighted_energy"),
        (scenarios, "norm", "grids.norm"),
        (scenarios, "primitive", "grids.primitive"),
        (stationary, "solve_stationary", "stationary.solve_stationary"),
        (stationary, "solve_dp_w", "stationary.solve_dp_w"),
        (evolution, "step", "evolution.step"),
        (evolution, "cfl_timestep", "evolution.cfl_timestep"),
        (entropy.FamilyInterpolant, "__post_init__", "entropy.FamilyInterpolant.build"),
        (entropy.FamilyInterpolant, "invert", "entropy.FamilyInterpolant.invert"),
        (diagnostics.DiagnosticsSeries, "to_csv", "diagnostics.DiagnosticsSeries.to_csv"),
    ):
        _patch(owner, attr, spanned(name))


def install_step_counter(counts, mods) -> None:
    _, scenarios, evolution, _, _, _ = mods

    def counting(fn):
        def call(state, *args, **kwargs):
            counts["steps"] += 1
            counts["cell_steps"] += state.grid.n_total
            return fn(state, *args, **kwargs)
        return call

    _patch(scenarios, "step", counting)
    _patch(evolution, "step", counting)


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer) -> dict:
    """Per-layer counts, busy and self times from the recorded spans."""
    durations, selfs = tracer.self_times()
    count, total, own, samples = {}, {}, {}, {}
    for name, d, s in zip(tracer.names, durations, selfs):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        own[name] = own.get(name, 0.0) + s
        if name in ("evolution.step", "stationary.solve_stationary"):
            samples.setdefault(name, []).append(d)

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def outermost(prefix):
        # time inside a layer, counting nested calls within the layer once
        return sum(d for name, d, p in zip(tracer.names, durations, tracer.parents)
                   if name.startswith(prefix)
                   and not (p >= 0 and tracer.names[p].startswith(prefix)))

    running = [f"fluxes.{m}" for m in FLUX_METHODS]
    steps = samples.get("evolution.step", [])
    solves = samples.get("stationary.solve_stationary", [])
    return {
        "fluxes.calls": sum(count.get(n, 0) for n in running),
        "fluxes.busy_s": tot(*running),
        "fluxes.self_s": sum(own.get(n, 0.0) for n in running),
        "evolution.steps": count.get("evolution.step", 0),
        "evolution.step_s": tot("evolution.step"),
        "evolution.step_self_s": own.get("evolution.step", 0.0),
        "evolution.step_us_p50": 1e6 * _quantile(steps, 50),
        "evolution.step_us_p99": 1e6 * _quantile(steps, 99),
        "evolution.cfl_calls": count.get("evolution.cfl_timestep", 0),
        "evolution.cfl_s": tot("evolution.cfl_timestep"),
        "evolution.cfl_self_s": own.get("evolution.cfl_timestep", 0.0),
        "stationary.build_family_s": tot("stationary.build_family"),
        "stationary.solves": count.get("stationary.solve_stationary", 0),
        "stationary.dp_solves": count.get("stationary.solve_dp_w", 0),
        "stationary.solve_ms_p50": 1e3 * _quantile(solves, 50),
        "stationary.theta_s": tot("stationary.solve_theta"),
        "stationary.normalize_s": tot("stationary.normalize_about_wp"),
        "stationary.busy_s": outermost("stationary."),
        "entropy.eta_calls": count.get("entropy.eta_field", 0),
        "entropy.eta_s": tot("entropy.eta_field"),
        "entropy.eta_self_s": own.get("entropy.eta_field", 0.0),
        "entropy.invert_s": tot("entropy.FamilyInterpolant.invert"),
        "entropy.interpolant_build_s": tot("entropy.FamilyInterpolant.build"),
        "diagnostics.lap_s": tot("diagnostics.lap_number", "diagnostics.sign_changes"),
        "diagnostics.energy_s": tot("diagnostics.weighted_energy"),
        "diagnostics.series_csv_s": tot("diagnostics.DiagnosticsSeries.to_csv"),
        "grids.norm_primitive_s": tot("grids.norm", "grids.primitive"),
        "scenarios.prepare_self_s": own.get("scenarios.prepare_run", 0.0),
        "scenarios.observe_s": tot("scenarios.observe"),
        "scenarios.snapshots": count.get("scenarios.observe", 0),
        "scenarios.artifact_write_s": _artifact_write_s(tracer, durations),
        "cli.checks_s": tot("cli.evaluate_checks"),
        "trace.spans": len(durations),
    }


def _artifact_write_s(tracer, durations) -> float:
    """Self time of run_scenario after evolve returned (artifact writing)."""
    names, parents = tracer.names, tracer.parents
    total = 0.0
    for idx, name in enumerate(names):
        if name != "scenarios.run_scenario":
            continue
        children = [k for k, p in enumerate(parents) if p == idx]
        evolve_end = max((tracer.ends[k] for k in children
                          if names[k] == "evolution.evolve"), default=tracer.starts[idx])
        later = sum(durations[k] for k in children if tracer.starts[k] >= evolve_end)
        total += tracer.ends[idx] - evolve_end - later
    return total


def _blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None when not found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(job_path) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    t_import = perf_counter()
    import convstab.cli as cli
    from convstab import diagnostics, entropy, evolution, scenarios, stationary
    import_s = perf_counter() - t_import

    import numpy
    import scipy

    mods = (cli, scenarios, evolution, stationary, entropy, diagnostics)
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        install_tracing(tracer, mods)
    counts = {"steps": 0, "cell_steps": 0}
    install_step_counter(counts, mods)

    marks = {}
    boundary = job["boundary"]
    inner = getattr(cli, boundary)

    def at_boundary(*args, **kwargs):
        if boundary == "semigroup_trials":
            marks["setup_end"] = perf_counter()
            if job["mode"] == "setup":
                raise SetupDone
            return inner(*args, **kwargs)
        out = inner(*args, **kwargs)
        marks["setup_end"] = perf_counter()
        if job["mode"] == "setup":
            raise SetupDone
        return out

    setattr(cli, boundary, at_boundary)

    result = {"import_s": import_s, "python": sys.version.split()[0],
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "blas_threads": _blas_threads()}
    start = perf_counter()
    try:
        code = cli.main(job["argv"])
    except SetupDone:
        code = 0
    end = perf_counter()
    sys.stdout.flush()

    result["exit_code"] = code
    if "setup_end" in marks:
        result["setup_s"] = marks["setup_end"] - start
        if job["mode"] == "full":
            result["solve_s"] = end - marks["setup_end"]
    result.update(counts)
    if tracer is not None:
        layers = layer_metrics(tracer)
        layers["cli.import_s"] = import_s
        result["layers"] = layers
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
