"""Compare two checkouts, or measure one checkout's run-to-run spread.

    python3 perfbench/compare.py pairs --parent DIR --change DIR \
        [--workloads W ...] [--out FILE]

Runs this file's run.py (so both sides use identical benchmark code) against
each checkout's ./src for BENCHMARK.json's run_seconds, in ten pairs that
alternate which side goes first. Every run uses --seed 0 (input seeds 0, 1,
... across its iterations), so every run of either side does the same work and
the quartiles measure run-to-run noise, not work that differs between seeds. For
each workload and end-to-end metric it prints both sides' median and
quartiles, the pairs the change won, and a verdict (printed-only metrics are
held to a bound of 0.25):

- ``win``: the change won at least 9/10 pairs, and its median beats the
  parent's by more than the parent's interquartile range;
- ``unresolved``: either side's spread (IQR / median) exceeds the metric's
  bound, unless every change run beats every parent run;
- ``regression``: the change's median is worse than the parent's by more than
  the bound;
- ``within bound`` otherwise.

It then makes one traced run per side (two traced iterations each), flags an
exact counter that differs between the iterations of one side, and marks one
that differs between the sides (expected when a change removes work).

    python3 perfbench/compare.py spread [--root DIR] [--workloads W ...]
        [--out FILE] [--against FILE]

Runs each workload ten times with seeds 0..9, as the acceptance check of
BENCHMARK.json does, and prints each end-to-end metric's median, quartiles and
spread (IQR / median) against its bound. A registered metric whose spread
exceeds its bound fails the check; printed-only metrics are shown against
0.25 and do not decide. With ``--against`` (the ``--out`` of an earlier spread
run) it also checks that no median got worse than the earlier one by more
than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from iteration import WORKLOADS  # noqa: E402
from run import PRINTED_ONLY, load_benchmark  # noqa: E402
from tracing import EXACT_COUNTERS  # noqa: E402

WIN_SHARE = 0.9
PAIRS = 10
PAIR_SEED = 0  # --seed of every pair and traced run
SPREAD_SEEDS = range(10)
# Bound applied to the end-to-end metrics that BENCHMARK.json does not register.
PRINTED_ONLY_BOUND = 0.25


def end_to_end_metrics(bench: dict) -> list[dict]:
    """Registered end-to-end metrics, then the printed-only ones (failed ops
    get their own row)."""
    printed = [{"name": name, "unit": unit, "better": better, "bound": PRINTED_ONLY_BOUND,
                "printed_only": True} for name, (unit, better) in PRINTED_ONLY.items()
               if name != "ops_failed_share"]
    return bench["end_to_end"] + printed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def _worse_by(change: float, parent: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (negative: better)."""
    if parent == 0:
        return 0.0
    gap = (change - parent) / abs(parent)
    return gap if better == "lower" else -gap


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Section 6.5 / 8 rules of the choosing-metrics guide for one metric."""
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    row = {"parent_median": pm, "change_median": cm, "wins": wins, "pairs": len(parent)}
    every = all(_better(c, p, better) for c in change for p in parent)
    if (wins >= WIN_SHARE * len(parent) and _better(cm, pm, better) and abs(cm - pm) > p3 - p1):
        row["verdict"] = "win"
    elif max(spread(parent), spread(change)) > bound and not every:
        row["verdict"] = "unresolved"
    elif _worse_by(cm, pm, better) > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "within bound"
    return row


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = root / ".perfbench_work" / "compare" / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} failed:\n{proc.stderr}")
    record = json.loads(out.read_text())
    out.unlink()
    return record


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def cmd_pairs(args, bench) -> dict:
    parent, change = args.parent.resolve(), args.change.resolve()
    seconds = bench["run_seconds"]
    rows, raw = [], {}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = (("parent", parent), ("change", change))
            for side, root in (order if i % 2 == 0 else order[::-1]):
                record = run_once(root, workload, PAIR_SEED, seconds, 0)
                runs[side].append(record)
                print(f"# pair {i} {side} {workload}: {record['failed']} failed ops", flush=True)
        raw[workload] = runs
        for metric in end_to_end_metrics(bench):
            name = metric["name"]
            if name not in runs["parent"][0]["end_to_end"]:
                continue
            pv = [r["end_to_end"][name] for r in runs["parent"]]
            cv = [r["end_to_end"][name] for r in runs["change"]]
            row = verdict(pv, cv, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       parent=_fmt(pv), change=_fmt(cv))
            rows.append(row)
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        rows.append({"workload": workload, "metric": "failed_ops", "unit": "count",
                     "parent": str(failed["parent"]), "change": str(failed["change"]),
                     "wins": "", "pairs": PAIRS,
                     "verdict": "ok" if failed["change"] <= failed["parent"] else "more failures"})
    print(f"{'workload':<24}{'metric':<22}{'parent med [q1, q3]':<30}"
          f"{'change med [q1, q3]':<30}{'wins':>8}  verdict")
    for r in rows:
        print(f"{r['workload']:<24}{r['metric']:<22}{r['parent']:<30}{r['change']:<30}"
              f"{str(r['wins']) + '/' + str(r['pairs']):>8}  {r['verdict']}")
    counters = {}
    for workload in args.workloads:
        for side, root in (("parent", parent), ("change", change)):
            record = run_once(root, workload, PAIR_SEED, seconds, 1)
            counters[f"{workload}/{side}"] = record["counters"]
        for name in EXACT_COUNTERS:
            p, c = counters[f"{workload}/parent"][name], counters[f"{workload}/change"][name]
            flags = [f"FLAG: differs between {side}'s traced iterations"
                     for side, vals in (("parent", p), ("change", c)) if len(set(vals)) > 1]
            if p[0] != c[0]:
                flags.append("changed by the change")
            print(f"# counter {workload} {name}: parent {p} change {c}  {'; '.join(flags)}")
    return {"rows": rows, "counters": counters,
            "raw": {w: {s: [r["end_to_end"] for r in rs] for s, rs in v.items()}
                    for w, v in raw.items()}}


def cmd_spread(args, bench) -> dict:
    root = args.root.resolve()
    earlier = json.loads(args.against.read_text())["values"] if args.against else {}
    values, ok = {}, True
    for workload in args.workloads:
        records = []
        for seed in SPREAD_SEEDS:
            record = run_once(root, workload, seed, bench["run_seconds"], 0)
            records.append(record)
            print(f"# {workload} seed {seed}: failed {record['failed']}, "
                  f"wall_s {record['end_to_end']['wall_s']:.3f}", flush=True)
        metrics = [m for m in end_to_end_metrics(bench) if m["name"] in records[0]["end_to_end"]]
        values[workload] = {m["name"]: [r["end_to_end"][m["name"]] for r in records]
                            for m in metrics}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            s = spread(vals)
            status = "ok" if s < bound / 3 else ("over 1/3 bound" if s <= bound else "OVER BOUND")
            if metric.get("printed_only"):
                status = "printed only: " + status
            line = f"{workload:<24}{name:<22}{_fmt(vals):<32}spread {s:.4f}  bound {bound}  {status}"
            if workload in earlier:
                drift = _worse_by(quartiles(vals)[1], quartiles(earlier[workload][name])[1],
                                  metric["better"])
                line += f"  vs earlier {drift:+.4f}" + ("  WORSE THAN BOUND" if drift > bound else "")
                ok &= drift <= bound or metric.get("printed_only", False)
            ok &= s <= bound or metric.get("printed_only", False)
            print(line)
        failed = sum(r["failed"] for r in records)
        print(f"{workload:<24}{'failed_ops':<22}{failed}")
        ok &= failed == 0
    print("spread check:", "pass" if ok else "FAIL")
    return {"values": values, "pass": ok}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    common.add_argument("--out", type=Path)
    p = sub.add_parser("pairs", parents=[common])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p = sub.add_parser("spread", parents=[common])
    p.add_argument("--root", type=Path, default=Path.cwd())
    p.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    result = cmd_pairs(args, bench) if args.mode == "pairs" else cmd_spread(args, bench)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0 if result.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
