"""One iteration of one workload, in a fresh interpreter.

`run.py` starts this file once per iteration, because a command-line user
starts every command with empty ``lru_cache``s in ``features`` and empty
vocabulary caches in ``envs``. The stages call the library's public entry
points in the order of the README's CLI:

    data.generate_dataset -> data.make_can_samples / make_pay_samples
    -> models.train -> LinearScorer.save / ModelStore.load
    -> evaluate.run_matrix -> evaluate.write_report

Usage: python3 perfbench/iteration.py --workload NAME --seed N --workdir DIR
           --spawned-at T [--trace] [--setup-only] [--size protocol|tiny]

It writes DIR/result.json. ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this interpreter; set-up time runs
from there to the first timed call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Input sizes. "protocol" is the PAPER/ROADMAP evaluation protocol and the
# only size whose numbers are reported; "tiny" exists for the self-tests.
SIZES = {
    "protocol": {"train": 400, "test": 100},
    "tiny": {"train": 8, "test": 5},
}
M, K = 6, 3
# The protocol draws every dataset from seed 0 and varies the training seed
# (and with it the eval cells' seed), as the test fixtures do. So the workload
# seed is the training/eval seed; the generated splits are the same for every
# seed, and a run's amount of BFS work does not depend on it.
DATA_SEED = 0
ALL_STRATEGIES = ("greedy-action", "beam-action")
ALL_SCORES = ("say", "saycan", "saycanpay")
TRAINED = {"say": "trained", "can": "trained", "pay": "trained"}


@dataclass(frozen=True)
class Workload:
    envs: tuple[str, ...]
    train: bool
    jobs: int
    backends: dict
    scores: tuple[str, ...]
    strategies: tuple[str, ...] = ALL_STRATEGIES

    def splits(self) -> tuple[str, ...]:
        return ("train", "test") if self.train else ("test",)

    def planned_ops(self) -> int:
        """Stages plus eval cells one iteration attempts."""
        stages = 3 if self.train else 2
        cells = len(self.strategies) * len(self.scores)
        return len(self.envs) * (stages + cells)


WORKLOADS = {
    # Every layer carries load: BFS dominates gen, featurization dominates
    # say-training and beam eval.
    "blocks-pipeline": Workload(
        envs=("blocks",), train=True, jobs=1, backends=TRAINED, scores=ALL_SCORES
    ),
    # BFS is trivial here; training and the per-cell process-pool fan-out
    # dominate.
    "hanoi-gridworld-jobs2": Workload(
        envs=("hanoi", "gridworld"), train=True, jobs=2, backends=TRAINED,
        scores=ALL_SCORES,
    ),
    # The oracle as a read path (a BFS from every successor at every step);
    # never touches features or models. Greedy only, so that an iteration
    # takes about 11 s and a run's median is over two or three of them: with
    # beam-action as well an iteration takes about 21 s, a run holds one, and
    # ten runs spread past the 0.25 bound on wall_s. Beam decoding is
    # measured on blocks-pipeline.
    "blocks-oracle-eval": Workload(
        envs=("blocks",), train=False, jobs=1,
        backends={"say": "perfect-say", "can": "oracle", "pay": "oracle"},
        scores=("saycanpay",), strategies=("greedy-action",),
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Max resident set of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _train_env(env_id, seed, data_dir, model_dir):
    from saycanpay import data, envs, models
    from saycanpay.oracle import DELTA

    env = envs.get_env(env_id)
    trajectories = data.read_trajectories(env, data.split_path(data_dir, env_id, "train"))
    config = models.TrainConfig(seed=seed)
    for kind in ("can", "pay", "say"):
        if kind == "can":
            dataset = data.make_can_samples(trajectories, seed=seed)
        elif kind == "pay":
            dataset = data.make_pay_samples(trajectories, delta=DELTA, seed=seed)
        else:
            dataset = trajectories
        model = models.train(kind, dataset, config, env_id, env=env)
        scorer = model.scorer if kind == "say" else model
        scorer.save(model_dir / f"{env_id}_{kind}_seed{seed}.json")


def _eval_env(wl: Workload, env_id, seed, data_dir, model_dir, report_dir, jobs):
    from saycanpay import evaluate

    report = evaluate.run_matrix(
        data_dir=data_dir,
        model_dir=model_dir if wl.train else None,
        envs=[env_id],
        strategies=list(wl.strategies),
        scores=list(wl.scores),
        backends=dict(wl.backends),
        seeds=[seed],
        splits=["test"],
        jobs=jobs,
        m=M,
        k=K,
    )
    evaluate.write_report(report, report_dir / f"{env_id}_eval.json")
    return report


def run_iteration(workload: str, seed: int, workdir: Path, size: str, tracer) -> dict:
    """Run every stage back to back; return timings, gate inputs and errors."""
    from saycanpay import data

    wl = WORKLOADS[workload]
    counts = {split: SIZES[size][split] for split in wl.splits()}
    data_dir, model_dir, report_dir = workdir / "data", workdir / "models", workdir / "reports"
    stages, cells, splits, errors = [], [], {}, []
    first = time.monotonic()
    for env_id in wl.envs:
        plan = [("gen", lambda: data.generate_dataset(env_id, counts, DATA_SEED, data_dir))]
        if wl.train:
            plan.append(("train", lambda: _train_env(env_id, seed, data_dir, model_dir)))
        plan.append(
            ("eval", lambda: _eval_env(wl, env_id, seed, data_dir, model_dir, report_dir, wl.jobs))
        )
        for stage, call in plan:
            before = tracer.cache_snapshot()
            try:
                with tracer.span(f"stage.{stage}") as span:
                    out = call()
            except Exception:  # noqa: BLE001 - a failed stage is counted, not fatal
                errors.append(f"{env_id} {stage}: {traceback.format_exc()}")
                break
            tracer.cache_add(stage, before, tracer.cache_snapshot())
            stages.append({"env": env_id, "stage": stage, "s": span.duration})
            if stage == "eval":
                cells.extend(
                    {key: cell.get(key) for key in
                     ("env", "strategy", "score", "success", "cost_effective",
                      "relative_length_mean")}
                    for cell in out["cells"]
                )
    wall = time.monotonic() - first
    for env_id in wl.envs:
        for split in wl.splits():
            path = data.split_path(data_dir, env_id, split)
            if path.exists():
                splits[path.name] = sha256(path)
    return {
        "first_call": first,
        "wall_s": wall,
        "stages": stages,
        "cells": cells,
        "splits": splits,
        "episode_wall_s": [w for c in tracer.cells for w in c["episode_wall_s"]],
        "errors": errors,
        "planned_ops": wl.planned_ops(),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=sorted(SIZES), default="protocol")
    args = parser.parse_args(argv)

    import numpy

    import saycanpay  # imports are part of set-up

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    workdir = args.workdir.resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(full=args.trace, worker_dir=workdir)
    tracer.install()
    result = {
        "saycanpay_file": saycanpay.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if args.setup_only:
        result["setup_s"] = time.monotonic() - args.spawned_at
    else:
        result.update(run_iteration(args.workload, args.seed, workdir, args.size, tracer))
        result["setup_s"] = result.pop("first_call") - args.spawned_at
        if args.trace:
            result["layers"] = tracer.layer_metrics()
            spans = workdir / "spans.jsonl"
            tracer.write_spans(spans)
            result["spans"] = len(tracer.spans)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
