"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are result records written by bench/run.py (files, or
directories such as .bench_out/results).  Only untraced full-size records
count.  Runs pair up by seed, in the order they ran, so run both sides on the
same seeds and alternate which side goes first.

For each workload and end-to-end metric in BENCHMARK.json it prints each
side's median, quartiles and sample count, the share of pairs the change
won, and a verdict:

    improved    the change wins at least 90% of the pairs and its median is
                better than the parent's by more than the parent's
                interquartile distance
    unresolved  the parent's own spread is wider than the metric's bound and
                not every change run beats every parent run
    worse       the change's median is worse by more than the bound
    no worse    otherwise

A change that fails a larger share of its runs than the parent is never
"improved": its gain is reported as "no worse" and fail_share as "worse".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if record.get("trace") == 0 and not record.get("smoke"):
            records.append(record)
    return records


def verdict(parent, change, pairs, better: str, bound: float):
    """Verdict on one metric and the share of ``pairs`` the change won."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = won / len(pairs) if pairs else 0.0
    gain = sign * (p_med - c_med)
    if pairs and win_share >= 0.9 and gain > p_q3 - p_q1:
        return "improved", win_share
    if (p_q3 - p_q1) / abs(p_med) > bound:
        all_better = all(sign * (c - p) < 0 for c in change for p in parent)
        return ("no worse" if all_better else "unresolved"), win_share
    if -gain / abs(p_med) > bound:
        return "worse", win_share
    return "no worse", win_share


def compare(parent_records, change_records, spec) -> list:
    rows = []
    workloads = sorted({r["workload"] for r in parent_records}
                       & {r["workload"] for r in change_records})
    for workload in workloads:
        sides = []
        for records in (parent_records, change_records):
            mine = [r for r in records if r["workload"] == workload]
            sides.append(sorted(mine, key=lambda r: (r["seed"], r["started_ns"])))
        parent, change = sides
        fail = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
                for side in sides]
        rows.append({"workload": workload, "metric": "fail_share",
                     "parent": fail[0], "change": fail[1],
                     "verdict": "worse" if fail[1] > fail[0] else "no worse"})
        by_seed = {}
        for r in parent:
            by_seed.setdefault(r["seed"], []).append(r)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["median"] for r in parent if name in r["metrics"]]
            c_vals = [r["metrics"][name]["median"] for r in change if name in r["metrics"]]
            if not p_vals or not c_vals:
                continue
            pairs, used = [], {}
            for r in change:
                matches = by_seed.get(r["seed"], [])
                k = used.get(r["seed"], 0)
                if k < len(matches) and name in r["metrics"]:
                    pairs.append((matches[k]["metrics"][name]["median"],
                                  r["metrics"][name]["median"]))
                    used[r["seed"]] = k + 1
            outcome, win_share = verdict(p_vals, c_vals, pairs, metric["better"],
                                         metric["bound"])
            if outcome == "improved" and fail[1] > fail[0]:
                outcome = "no worse"
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "parent": quartiles(p_vals), "parent_n": len(p_vals),
                         "change": quartiles(c_vals), "change_n": len(c_vals),
                         "pairs": len(pairs), "won": win_share, "verdict": outcome})
    return rows


def _fmt_side(q, n):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] n={n}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare(load_records(args.parent), load_records(args.change), spec)
    if not rows:
        print("no workload has untraced full-size results on both sides", file=sys.stderr)
        return 2
    for row in rows:
        if row["metric"] == "fail_share":
            print(f"{row['workload']} fail_share parent {row['parent']:.3g} "
                  f"change {row['change']:.3g}: {row['verdict']}")
            continue
        print(f"{row['workload']} {row['metric']} ({row['unit']}) "
              f"parent {_fmt_side(row['parent'], row['parent_n'])} | "
              f"change {_fmt_side(row['change'], row['change_n'])} | "
              f"won {row['won']:.0%} of {row['pairs']} pairs: {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
