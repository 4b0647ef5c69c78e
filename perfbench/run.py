"""saycanpay benchmark: run one workload, gate its outputs, print its metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload blocks-pipeline --seed 0 --seconds 30 --trace 0

Workloads (see iteration.py): blocks-pipeline, hanoi-gridworld-jobs2,
blocks-oracle-eval. Each iteration runs in a fresh interpreter. This is a
closed loop with one client: stages run back to back, and the only concurrency
is the ``jobs 2`` process pool of hanoi-gridworld-jobs2.

--trace 0: a few set-up probes, then whole iterations while they fit in
    --seconds (always at least one). Iteration i uses input seed
    (--seed + i) mod 10, so a run's median spans several inputs and a run's
    figure depends less on one seed's share of heavy episodes. Prints every
    end-to-end metric as the median over iterations (set-up: over probes and
    iterations).
--trace 1: a traced, an untraced and a traced iteration, all at input seed
    --seed mod 10. Prints every per-layer metric as the median of the two
    traced iterations, the tracing overhead (traced minus untraced wall_s)
    and whether the exact counters repeated between the two
    (``trace.counters_repeat``; a FLAG line names any that differ). The spans
    go to .perfbench_work/traces/.

Every iteration passes through the correctness gate (gate.py). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a table for people and one
``meta`` line with the machine and run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
from iteration import WORKLOADS  # noqa: E402
from tracing import EXACT_COUNTERS, median, percentile  # noqa: E402

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170
# End-to-end metrics printed and compared (compare.py) but not registered in
# BENCHMARK.json, as {name: (unit, better)}. train_s does not exist on
# blocks-oracle-eval, and ops_failed_share (the result line's failed /
# attempted) is 0 on a correct run. The success counts differ from seed to
# seed and the gate pins them to the reference. The stage and per-episode
# times are parts of wall_s; on blocks-pipeline they come from one iteration
# per run, and over ten runs at seeds 0..9 (spread_1.txt, spread_2.txt) their
# spread (IQR / median) reached 0.15-0.22 there, against 0.09-0.11 for
# wall_s, on a 2-vCPU Xeon VM.
PRINTED_ONLY = {
    "gen_s": ("s", "lower"), "train_s": ("s", "lower"), "eval_s": ("s", "lower"),
    "eval_episodes_per_s": ("1/s", "higher"), "episode_p50_s": ("s", "lower"),
    "episode_p95_s": ("s", "lower"), "success_total": ("count", "higher"),
    "cost_effective_total": ("count", "higher"), "ops_failed_share": ("share", "lower"),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to the program failing)."""


def load_benchmark() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Checkout:
    """The tree under test: ./src holds the package, .perfbench_work the scratch."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.src = self.root / "src"
        if not (self.src / "saycanpay" / "__init__.py").is_file():
            raise HarnessError(f"no saycanpay package under {self.src}")
        self.work = self.root / ".perfbench_work"
        self.run_dir = self.work / f"run-{os.getpid()}"

    def spawn(self, workload: str, seed: int, tag: str, trace=False, setup_only=False,
              size="protocol") -> dict:
        """Run iteration.py in a fresh interpreter and return its result."""
        workdir = self.run_dir / f"{workload}-{tag}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(self.src), TMPDIR=str(workdir))
        cmd = [sys.executable, str(BENCH_DIR / "iteration.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir), "--size", size]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise HarnessError(f"{workload} iteration exceeded {CHILD_TIMEOUT_S} s")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind, if any
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-5:]
            raise HarnessError(f"iteration exited {proc.returncode}: " + " | ".join(tail))
        result = json.loads((workdir / "result.json").read_text())
        result["input_seed"] = seed
        if not Path(result["saycanpay_file"]).resolve().is_relative_to(self.src):
            raise HarnessError(f"imported {result['saycanpay_file']}, not the checkout's")
        if trace:
            traces = self.work / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copy(workdir / "spans.jsonl", traces / f"{workload}-seed{seed}-{tag}.jsonl")
        shutil.rmtree(workdir, ignore_errors=True)
        return result

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def iteration_metrics(it: dict) -> dict:
    """End-to-end metrics of one iteration (set-up excluded)."""
    stage = lambda name: sum(s["s"] for s in it["stages"] if s["stage"] == name)  # noqa: E731
    eval_s = stage("eval")
    episodes = sorted(it["episode_wall_s"])
    return {
        "wall_s": it["wall_s"],
        "gen_s": stage("gen"),
        "train_s": stage("train"),
        "eval_s": eval_s,
        "eval_episodes_per_s": len(episodes) / eval_s if eval_s else 0.0,
        "episode_p50_s": percentile(episodes, 50),
        "episode_p95_s": percentile(episodes, 95),
        "peak_rss_mb": it["peak_rss_mb"],
        "success_total": sum(c["success"] or 0 for c in it["cells"]),
        "cost_effective_total": sum(c["cost_effective"] or 0 for c in it["cells"]),
    }


def measure(checkout: Checkout, workload: str, seed: int, seconds: float) -> tuple[list, list]:
    start = time.monotonic()
    setups = [checkout.spawn(workload, seed, f"probe{i}", setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES)]
    iterations, durations = [], []
    while True:
        began = time.monotonic()
        n = len(iterations)
        iterations.append(checkout.spawn(workload, gate.input_seed(seed, n), f"it{n}"))
        durations.append(time.monotonic() - began)
        if time.monotonic() + median(durations) > start + seconds:
            break
    setups += [it["setup_s"] for it in iterations]
    return iterations, setups


def summarize(workload, iterations, setups, references, traced=()) -> dict:
    """Gate every iteration against the reference of its input seed (keys of
    ``references``: the seed as a string) and fold the iterations into one
    record."""
    attempted = failed = 0
    problems = []
    for it in iterations + list(traced):
        n_failed, why = gate.check(it, references.get(str(it["input_seed"])))
        attempted += it["planned_ops"]
        failed += n_failed
        problems += why
    per_iter = [iteration_metrics(it) for it in iterations]
    e2e = {name: median([m[name] for m in per_iter]) for name in per_iter[0]}
    e2e["setup_s"] = median(setups)
    e2e["ops_failed_share"] = failed / attempted
    if not WORKLOADS[workload].train:
        del e2e["train_s"]
    record = {"attempted": attempted, "failed": failed, "problems": problems,
              "end_to_end": e2e, "iterations": len(iterations)}
    if traced:
        layers = {name: median([t["layers"][name] for t in traced]) for name in traced[0]["layers"]}
        untraced = e2e["wall_s"]
        layers["trace.wall_s"] = median([t["wall_s"] for t in traced])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / untraced
        layers["trace.spans"] = median([t["spans"] for t in traced])
        counters = {name: [t["layers"][name] for t in traced] for name in EXACT_COUNTERS}
        layers["trace.counters_repeat"] = int(all(len(set(v)) == 1 for v in counters.values()))
        record["layers"] = layers
        record["counters"] = counters
    return record


def print_report(workload, record, bench, meta) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update({name: unit for name, (unit, _) in PRINTED_ONLY.items()})
    print(f"# {workload}: {record['iterations']} iteration(s), "
          f"{record['failed']}/{record['attempted']} ops failed")
    for name, value in record["end_to_end"].items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    for name, value in record.get("layers", {}).items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    for problem in record["problems"]:
        print(f"# GATE: {problem}")
    for name, values in record.get("counters", {}).items():
        if len(set(values)) > 1:
            print(f"# FLAG: exact counter {name} differs between traced iterations: {values}")
    print(json.dumps({"meta": meta}, sort_keys=True))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    bench = load_benchmark()
    checkout = Checkout(root)
    in_seed = gate.input_seed(seed)
    references = gate.load_reference().get(workload, {})
    try:
        if trace:
            # The untraced iteration runs between the two traced ones, so a
            # machine that speeds up or slows down during the run does not
            # show as tracing overhead.
            traced = [checkout.spawn(workload, in_seed, "traced0", trace=True)]
            iterations = [checkout.spawn(workload, in_seed, "untraced")]
            traced.append(checkout.spawn(workload, in_seed, "traced1", trace=True))
            setups = [iterations[0]["setup_s"]]
        else:
            iterations, setups = measure(checkout, workload, in_seed, seconds)
            traced = ()
    finally:
        checkout.cleanup()
    record = summarize(workload, iterations, setups, references, traced)
    first = iterations[0]
    meta = {
        "workload": workload, "seed": seed,
        "input_seeds": [it["input_seed"] for it in iterations + list(traced)],
        "trace": int(trace),
        "iterations": record["iterations"], "setup_samples": len(setups),
        "traced_iterations": len(traced),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "python": first["python"],
        "numpy": first["numpy"], "platform": platform.platform(),
    }
    record["meta"] = meta
    print_report(workload, record, bench, meta)
    record["line"] = result_line(record, bench, trace)
    return record


def result_line(record: dict, bench: dict, trace: bool) -> dict:
    """The last line of output: every registered metric of the run's kind."""
    registered = bench["per_layer" if trace else "end_to_end"]
    values = record["layers"] if trace else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in registered},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
