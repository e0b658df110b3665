#!/usr/bin/env python3
"""Compare a parent and a change on the benchmark.

Run pairs of runs, alternating which side goes first, and judge them:

    python3 perfbench/compare.py --parent ../parent --change . \\
        --claim peak_cmds_per_s@paxos-durable-kv [--pairs 10] [--workloads a,b]

Each side is a checkout; its runs use its own perfbench/run.py and build
directory. Pair i runs both sides with the same seed. Raw results are
appended to --out (JSON lines), and `--rows FILE` judges saved results
without running anything.

The rules, with bounds and directions from BENCHMARK.json:
  * claim (metric@workload): a gain when the change wins at least nine
    tenths of all pairs (ties count for neither side) and the medians
    differ by more than the parent's own spread (distance between its
    quartiles);
  * every other (metric, workload): "ok" when the change's median is no
    worse than the parent's by more than the metric's bound;
    "regression" when it is; "unresolved" when either side's spread
    (quartile distance / median) exceeds the bound, unless every change
    run reads better than every parent run.
Runs whose generator fell behind are left out (and listed). Exit code 0
when the claim (if any) holds and nothing regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    """Whether value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def order_of(pair):
    """Which side runs first in pair `pair`: alternating."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def judge_claim(parent, change, direction):
    """The win rule on aligned per-pair values. Returns (verdict, wins, pairs)."""
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    _, p_med, _ = quartiles(parent)
    _, c_med, _ = quartiles(change)
    q1, _, q3 = quartiles(parent)
    gap_ok = better(c_med, p_med, direction) and abs(c_med - p_med) > (q3 - q1)
    ok = pairs > 0 and wins >= 0.9 * pairs and gap_ok
    return ("gain" if ok else "not met"), wins, pairs


def judge_bound(parent, change, direction, bound):
    """The no-regression rule. Returns (verdict, worse_by)."""
    _, p_med, _ = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse_by = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if direction == "higher":
        worse_by = -worse_by
    if max(spread(parent), spread(change)) > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return "better", worse_by
        return "unresolved", worse_by
    return ("regression" if worse_by > bound else "ok"), worse_by


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, [w["name"] for w in spec["workloads"]]


def series(rows, side, workload, metric):
    """Per-pair values of one side, ordered by pair; invalid runs (the
    generator fell behind) are left out."""
    got = sorted(
        (r["pair"], r["result"]["metrics"][metric]["value"])
        for r in rows
        if r["side"] == side and r["workload"] == workload
        and not r["result"].get("invalid") and metric in r["result"].get("metrics", {})
    )
    return [v for _, v in got]


def judge(rows, metrics, workloads, claim=None):
    """One line per (workload, metric); returns (lines, all_ok)."""
    lines, all_ok = [], True
    bad = [r for r in rows if not r["result"].get("correct")]
    for r in bad:
        lines.append(f"{r['workload']:<22} pair {r['pair']} {r['side']}: run not correct")
        all_ok = False
    for r in rows:
        if r["result"].get("invalid"):
            lines.append(f"{r['workload']:<22} pair {r['pair']} {r['side']}: invalid "
                         "(generator fell behind), left out")
    for w in workloads:
        for name, m in metrics.items():
            p, c = series(rows, "parent", w, name), series(rows, "change", w, name)
            if not p or not c:
                continue
            direction = m["better"]
            if claim == (name, w):
                verdict, wins, pairs = judge_claim(p, c, direction)
                detail = f"wins {wins}/{pairs}"
                all_ok &= verdict == "gain"
            else:
                verdict, worse_by = judge_bound(p, c, direction, m["bound"])
                detail = f"worse by {worse_by:+.3f} (bound {m['bound']})"
                all_ok &= verdict != "regression"
            lines.append(
                f"{w:<22} {name:<24} parent {quartiles(p)[1]:.4g} (spread {spread(p):.3f}) "
                f"change {quartiles(c)[1]:.4g} (spread {spread(c):.3f}) {detail}: {verdict}"
            )
    return lines, all_ok


def run_one(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`: its result line as a dict, with
    `invalid` set when the row says the generator fell behind."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["row"]["info"]
        result["invalid"] = info.get("generator_fell_behind", {}).get("value", 0) > 0
    except (IndexError, KeyError, ValueError):
        result = {"correct": False, "metrics": {}}
    if p.returncode != 0:
        result["correct"] = False
        sys.stderr.write(p.stderr[-2000:])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--rows", help="judge saved results instead of running")
    ap.add_argument("--claim", help="METRIC@WORKLOAD the change claims to improve")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out", default="compare_rows.jsonl")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()

    metrics, workloads = load_spec(args.spec)
    if args.workloads:
        workloads = args.workloads.split(",")
    claim = None
    if args.claim:
        name, _, w = args.claim.partition("@")
        if name not in metrics or w not in workloads:
            ap.error(f"unknown claim {args.claim}")
        claim = (name, w)

    if args.rows:
        with open(args.rows) as f:
            rows = [json.loads(line) for line in f if line.strip()]
    else:
        if not (args.parent and args.change):
            ap.error("--parent and --change (or --rows) are required")
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
        sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
        rows = []
        with open(args.out, "a") as out:
            for pair in range(args.pairs):
                for w in workloads:
                    for side in order_of(pair):
                        seed = args.seed_base + pair
                        row = {"side": side, "pair": pair, "workload": w, "seed": seed,
                               "result": run_one(sides[side], w, seed, seconds)}
                        rows.append(row)
                        out.write(json.dumps(row) + "\n")
                        out.flush()

    lines, ok = judge(rows, metrics, workloads, claim)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
