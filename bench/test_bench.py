"""The benchmark's own tests, at shortened (--smoke) sizes.

    python3 -m pytest bench

They run bench/run.py from a scratch directory whose ``src`` links to the
repository's sources, so no output lands in the repository.
"""

import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# verify_trials stays in run.py for runs by hand, outside BENCHMARK.json
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["verify_trials"]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(ROOT / "src")
    return root


def bench(checkout, workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=checkout, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced(checkout):
    return {w: bench(checkout, w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(checkout, workload):
    code, lines, result = bench(checkout, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and f" {unit} " in line for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.startswith("fail_share 0 share") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_is_printed_with_its_unit(traced, workload):
    code, lines, result = traced[workload]
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert f"{name} " in "\n".join(lines)
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines)


def test_layer_units_match_the_spec():
    assert run.LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_never_exceed_parent_spans(checkout, traced, workload):
    dump = checkout / ".bench_out" / workload / "traced.spans.json.gz"
    with gzip.open(dump, "rt") as fh:
        spans = json.load(fh)["spans"]
    assert spans
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end
            covered[parent] += end - start
    for (_, start, end, _), inner in zip(spans, covered):
        assert inner <= (end - start) * (1 + 1e-9) + 1e-9


def test_tracer_self_time_excludes_children():
    tracer = child.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    durations, selfs = tracer.self_times()
    assert tracer.names == ["outer", "inner", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0, 0]
    assert 0.0 <= selfs[0] <= durations[0]
    assert selfs[0] == pytest.approx(durations[0] - sum(durations[1:]))


def _passing_run(**extra):
    run_record = {"tag": "run0", "mode": "full", "child_status": 0, "exit_code": 0,
                  "setup_s": 0.1, "solve_s": 1.0, "verdicts": {"mass_conservation": True},
                  "alpha": 0.9220826347872779, "digest": "a"}
    run_record.update(extra)
    return run_record


def test_a_failed_verdict_fails_the_run():
    assert run.run_failures("pinned_snapshots", _passing_run()) == []
    failed = _passing_run(verdicts={"mass_conservation": True, "pi_l1_bound": False})
    assert run.run_failures("pinned_snapshots", failed) == ["verdict pi_l1_bound failed"]
    assert run.run_failures("pinned_snapshots", _passing_run(exit_code=1))
    assert run.run_failures("pinned_snapshots", _passing_run(child_status=1))


def test_family_alpha_gate_on_the_canonical_run():
    assert run.run_failures("canonical_t5", _passing_run()) == []
    assert run.run_failures("canonical_t5", _passing_run(alpha=0.92208264))
    assert run.run_failures("canonical_t5", _passing_run(alpha=None))


def test_a_corrupted_artifact_changes_the_digest(tmp_path):
    (tmp_path / "snapshots").mkdir()
    (tmp_path / "diagnostics.csv").write_text("t\n0.0\n")
    snap = tmp_path / "snapshots" / "snapshot_t0.0.csv"
    snap.write_text("x,u,background\n0.5,0.25,0.0\n")
    clean = run.artifact_digest(tmp_path)
    snap.write_text("x,u,background\n0.5,0.26,0.0\n")
    assert run.artifact_digest(tmp_path) != clean
    runs = [_passing_run(digest="a"), _passing_run(digest="b"), _passing_run(digest="a")]
    assert run.digest_failures(runs, None) == [1]
    assert run.digest_failures(runs, "b") == [0, 2]


def _stored_key(store, prefix):
    keys = [k for k in json.loads(store.read_text()) if k.startswith(prefix)]
    assert len(keys) == 1
    return keys[0]


def test_a_differing_digest_raises_fail_share(checkout):
    store = checkout / ".bench_out" / "digests.json"
    code, _, result = bench(checkout, "verify_trials", 0, seed=7)
    assert code == 0 and result["failed"] == 0
    key = _stored_key(store, "verify_trials:7:smoke:")
    known = json.loads(store.read_text())
    known[key] = "0" * 64
    store.write_text(json.dumps(known))
    code, lines, result = bench(checkout, "verify_trials", 0, seed=7)
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 1
    assert any("artifact digest differs" in line for line in lines)
    assert any(line.startswith(f"fail_share {1 / result['attempted']:.6g} share")
               for line in lines)


def test_a_digest_stored_for_other_code_does_not_fail_the_run(checkout):
    store = checkout / ".bench_out" / "digests.json"
    code, _, result = bench(checkout, "verify_trials", 0, seed=8)
    assert code == 0 and result["failed"] == 0
    key = _stored_key(store, "verify_trials:8:smoke:")
    known = json.loads(store.read_text())
    # the same workload and seed, as a program with other sources recorded it
    other = key[:key.rindex(":") + 1] + "0" * 16
    known[other] = known.pop(key)[::-1]
    store.write_text(json.dumps(known))
    code, lines, result = bench(checkout, "verify_trials", 0, seed=8)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert _stored_key(store, "verify_trials:8:smoke:" + key.rsplit(":", 1)[1]) == key


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.1}
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, **lower)[0] == "improved"
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), **lower)[0] == "worse"
    same = list(reversed(parent))
    assert compare.verdict(parent, same, list(zip(parent, same)), **lower)[0] == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, parent, list(zip(noisy, parent)), **lower)[0] == "unresolved"


def _record(workload, seed, failed, wall):
    return {"workload": workload, "seed": seed, "started_ns": seed, "trace": 0,
            "attempted": 2, "failed": failed, "metrics": {"wall_s": {"median": wall}}}


def test_compare_never_calls_a_change_with_more_failures_improved():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    parent = [_record("w", seed, 0, 10.0 + 0.01 * seed) for seed in range(10)]
    faster = [_record("w", seed, 0, 8.0 + 0.01 * seed) for seed in range(10)]
    failing = [_record("w", seed, int(seed == 3), 8.0 + 0.01 * seed) for seed in range(10)]
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(parent, faster, spec)}
    assert verdicts == {"fail_share": "no worse", "wall_s": "improved"}
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(parent, failing, spec)}
    assert verdicts == {"fail_share": "worse", "wall_s": "no worse"}
