"""Record the gate's references and the seed-0 baseline.

    python3 perfbench/record.py reference [--workloads W ...]
        One iteration per (workload, input seed 0..9); stores split hashes
        and cell results in perfbench/reference.json. Re-record only when a
        change is meant to alter plans, and say so in that change.

    python3 perfbench/record.py baseline
        Runs every workload at seed 0 for BENCHMARK.json's run_seconds,
        untraced and traced, and writes perfbench/BENCH_1.json with the
        machine metadata.

Run from the root of a checkout, like run.py.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import run  # noqa: E402
from iteration import WORKLOADS  # noqa: E402


def record_reference(workloads: list[str]) -> None:
    checkout = run.Checkout(Path.cwd())
    reference = gate.load_reference()
    for workload in workloads:
        for seed in range(gate.REFERENCE_SEEDS):
            try:
                result = checkout.spawn(workload, seed, f"record{seed}")
            finally:
                checkout.cleanup()
            if result["errors"]:
                raise SystemExit(f"{workload} seed {seed}: {result['errors'][0]}")
            reference.setdefault(workload, {})[str(seed)] = gate.reference_entry(result)
            gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            totals = run.iteration_metrics(result)
            print(f"{workload} seed {seed}: success {totals['success_total']}, "
                  f"cost-effective {totals['cost_effective_total']}", flush=True)


def record_baseline() -> None:
    seconds = run.load_benchmark()["run_seconds"]
    baseline = {"seed": 0, "workloads": {}}
    for workload in WORKLOADS:
        untraced = run.run(workload, 0, seconds, False, Path.cwd())
        traced = run.run(workload, 0, seconds, True, Path.cwd())
        baseline["meta"] = {k: v for k, v in untraced["meta"].items()
                            if k not in ("workload", "trace", "iterations", "setup_samples",
                                         "traced_iterations", "input_seeds")}
        baseline["workloads"][workload] = {
            "correct": untraced["failed"] == 0 and traced["failed"] == 0,
            "iterations": untraced["iterations"],
            "input_seeds": untraced["meta"]["input_seeds"],
            "setup_samples": untraced["meta"]["setup_samples"],
            "end_to_end": untraced["end_to_end"],
            "traced_iterations": traced["meta"]["traced_iterations"],
            "per_layer": traced["layers"],
        }
    (BENCH_DIR / "BENCH_1.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    p = sub.add_parser("reference")
    p.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    sub.add_parser("baseline")
    args = parser.parse_args(argv)
    if args.what == "reference":
        record_reference(args.workloads)
    else:
        record_baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
