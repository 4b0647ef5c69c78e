"""Plan execution, the paper-style metrics, the evaluation grid, and ablations."""

from __future__ import annotations

import concurrent.futures
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .backends import BackendChoice, episode_backends
from .core import ContractError, InfeasibleActionError, ModelFileError
from .data import read_trajectories, split_path
from .decoding import DecodingConfig, PlanResult, run_strategy
from .envs import get_env
from .models import LinearScorer, SayPolicy
from .oracle import DELTA, Trajectory


@dataclass(frozen=True)
class EpisodeResult:
    episode_id: str
    config_fingerprint: str
    plan: PlanResult
    executed_ok: bool
    reached_goal: bool
    plan_length: int
    optimal_length: int
    wall_time: float


def execute_plan(
    env, spec, plan: PlanResult, optimal_length: int,
    fingerprint: str = "", wall_time: float = 0.0,
) -> EpisodeResult:
    """Replay a plan through `env.step`; the first infeasible action halts
    execution.

    A plan reaches the goal only when it runs to completion and ends with the
    done action (whose precondition is the goal test).
    """
    state = spec.init_state
    executed_ok = True
    for action in plan.plan:
        try:
            state = env.step(state, spec.goal, action)
        except InfeasibleActionError:
            executed_ok = False
            break
    reached = executed_ok and len(plan.plan) > 0 and plan.plan[-1].is_done
    return EpisodeResult(
        episode_id=spec.episode_id,
        config_fingerprint=fingerprint,
        plan=plan,
        executed_ok=executed_ok,
        reached_goal=reached,
        plan_length=max(len(plan.plan), 1),
        optimal_length=optimal_length,
        wall_time=wall_time,
    )


def cost_effectiveness(results: list[EpisodeResult]) -> int:
    """# successes whose plan length equals the expert plan length."""
    return sum(
        r.reached_goal and r.plan_length == r.optimal_length for r in results
    )


def relative_length(result: EpisodeResult) -> float:
    """oracle length / generated length for successes, 0 for failures."""
    if not result.reached_goal:
        return 0.0
    return result.optimal_length / result.plan_length


def plan_episode(
    env_id: str, traj: Trajectory, backends: BackendChoice, config: DecodingConfig
) -> EpisodeResult:
    """Plan one episode with fresh per-episode backends, then execute."""
    env = get_env(env_id)
    spec = traj.episode
    started = time.perf_counter()
    say, can, pay = episode_backends(backends, env, spec)
    vocab = env.admissible_actions(spec)
    config = replace(config, max_steps=spec.max_steps)
    plan = run_strategy(spec, config, say, can, pay, vocab=vocab)
    fingerprint = (
        f"{env_id}|{config.strategy}|{config.score_mode}"
        f"|m={config.m},k={config.k}|{backends.fingerprint()}"
    )
    return execute_plan(
        env, spec, plan, optimal_length=len(traj.actions),
        fingerprint=fingerprint, wall_time=time.perf_counter() - started,
    )


_WORKER_STATE: dict = {}


def _init_worker(env_id, trajectories, backends, config):
    _WORKER_STATE.update(
        env_id=env_id, trajectories=trajectories, backends=backends, config=config
    )


def _run_indexed(index: int) -> EpisodeResult:
    s = _WORKER_STATE
    return plan_episode(s["env_id"], s["trajectories"][index], s["backends"], s["config"])


def evaluate_episodes(
    env_id: str,
    trajectories: list[Trajectory],
    backends: BackendChoice,
    config: DecodingConfig,
    jobs: int = 1,
) -> list[EpisodeResult]:
    """Evaluate every episode; results are ordered by input position regardless of jobs."""
    if jobs <= 1:
        return [plan_episode(env_id, t, backends, config) for t in trajectories]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_worker,
        initargs=(env_id, trajectories, backends, config),
    ) as pool:
        return list(pool.map(_run_indexed, range(len(trajectories))))


def summarize(results: list[EpisodeResult]) -> dict:
    rels = [relative_length(r) for r in results]
    n = len(rels)
    mean = sum(rels) / n if n else 0.0
    var = sum((x - mean) ** 2 for x in rels) / n if n else 0.0
    return {
        "n": n,
        "success": sum(r.reached_goal for r in results),
        "cost_effective": cost_effectiveness(results),
        "relative_length_mean": round(mean, 6),
        "relative_length_std": round(math.sqrt(var), 6),
    }


# ---------------------------------------------------------------------------
# evaluation grid


class ModelStore:
    """Loads trained scorers from {env}_{kind}_seed{seed}.json files."""

    def __init__(self, model_dir: Path):
        self.model_dir = Path(model_dir)
        self._cache: dict = {}

    def path(self, env_id: str, kind: str, seed: int) -> Path:
        return self.model_dir / f"{env_id}_{kind}_seed{seed}.json"

    def load(self, env_id: str, kind: str, seed: int) -> LinearScorer | None:
        """The stored scorer, or None when its file does not exist."""
        key = (env_id, kind, seed)
        if key not in self._cache:
            path = self.path(env_id, kind, seed)
            scorer = LinearScorer.load(path) if path.exists() else None
            if scorer is not None and (scorer.kind, scorer.env) != (kind, env_id):
                raise ModelFileError(
                    f"model file {path} holds a {scorer.kind} model for "
                    f"{scorer.env!r}, not {kind} for {env_id!r}"
                )
            self._cache[key] = scorer
        return self._cache[key]


def build_backends(
    store: ModelStore | None, env_id: str, names: dict, seed: int,
    endpoint: str | None, delta: float,
) -> BackendChoice:
    """Load the trained scorers the chosen backends need.

    Raises FileNotFoundError naming the first missing model file ("None"
    when there is no model directory).
    """
    kwargs: dict = {}
    for role in ("say", "can", "pay"):
        if names.get(role, "trained") == "trained":
            model = store and store.load(env_id, role, seed)
            if model is None:
                raise FileNotFoundError(str(store and store.path(env_id, role, seed)))
            if role == "say":
                kwargs["say_policy"] = SayPolicy(model)
            else:
                kwargs[f"{role}_model"] = model
    return BackendChoice(
        say=names.get("say", "trained"),
        can=names.get("can", "trained"),
        pay=names.get("pay", "trained"),
        endpoint=endpoint,
        seed=seed,
        delta=delta,
        **kwargs,
    )


def run_cells(
    cells: list[dict],
    data_dir: Path,
    model_dir: Path | None,
    jobs: int = 1,
    endpoint: str | None = None,
    delta: float = DELTA,
) -> dict:
    """Evaluate a list of cell descriptors and assemble the report."""
    store = ModelStore(model_dir) if model_dir else None
    traj_cache: dict = {}
    out_cells = []
    max_steps = None
    for cell in cells:
        env_id, split = cell["env"], cell["split"]
        key = (env_id, split)
        if key not in traj_cache:
            traj_cache[key] = read_trajectories(
                get_env(env_id), split_path(Path(data_dir), env_id, split)
            )
        trajectories = traj_cache[key]
        max_steps = trajectories[0].episode.max_steps
        row = {
            "env": env_id,
            "split": split,
            "strategy": cell["strategy"],
            "score": cell["score"],
            "seed": cell["seed"],
            "k": cell.get("k", 3),
        }
        try:
            backends = build_backends(
                store, env_id, cell["backends"], cell["seed"], endpoint, delta
            )
        except FileNotFoundError as exc:
            row["skipped"] = f"missing model file {exc}"
            out_cells.append(row)
            continue
        config = DecodingConfig(
            strategy=cell["strategy"],
            score_mode=cell["score"],
            m=cell.get("m", 6),
            k=cell.get("k", 3),
        )
        results = evaluate_episodes(env_id, trajectories, backends, config, jobs)
        row.update(summarize(results))
        row["backends"] = backends.fingerprint()
        out_cells.append(row)
    report = {"max_steps": max_steps, "cells": out_cells}
    report["table"] = render_table(out_cells)
    return report


def run_matrix(
    data_dir: Path,
    model_dir: Path | None,
    envs: list[str],
    strategies: list[str],
    scores: list[str],
    backends: dict,
    seeds: list[int],
    splits: list[str] = ("test",),
    jobs: int = 1,
    m: int = 6,
    k: int = 3,
    endpoint: str | None = None,
    delta: float = DELTA,
) -> dict:
    """Full strategy x score grid over the requested envs, splits, and seeds."""
    cells = [
        {
            "env": env_id,
            "split": split,
            "strategy": strategy,
            "score": score,
            "seed": seed,
            "backends": dict(backends),
            "m": m,
            "k": k,
        }
        for env_id in envs
        for split in splits
        for strategy in strategies
        for score in scores
        for seed in seeds
    ]
    return run_cells(cells, data_dir, model_dir, jobs=jobs, endpoint=endpoint,
                     delta=delta)


def ablate(
    kind: str,
    data_dir: Path,
    model_dir: Path | None,
    envs: list[str],
    seeds: list[int],
    split: str = "test",
    jobs: int = 1,
    m: int = 6,
    endpoint: str | None = None,
    delta: float = DELTA,
) -> dict:
    """Beam-size sweep or trained-vs-perfect proposer comparison."""
    if kind == "beam-size":
        cells = [
            {
                "env": env_id,
                "split": split,
                "strategy": "beam-action",
                "score": "saycanpay",
                "seed": seed,
                "backends": {"say": "trained", "can": "trained", "pay": "trained"},
                "m": m,
                "k": k,
            }
            for env_id in envs
            for k in (1, 2, 3)
            for seed in seeds
        ]
        return run_cells(cells, data_dir, model_dir, jobs=jobs, endpoint=endpoint,
                         delta=delta)
    if kind == "perfect-say":
        cells = [
            {
                "env": env_id,
                "split": split,
                "strategy": "greedy-action",
                "score": score,
                "seed": seed,
                "backends": {"say": say, "can": "trained", "pay": "trained"},
                "m": m,
                "k": 1,
            }
            for env_id in envs
            for score in ("saycan", "saycanpay")
            for say in ("trained", "perfect-say")
            for seed in seeds
        ]
        report = run_cells(cells, data_dir, model_dir, jobs=jobs, endpoint=endpoint,
                           delta=delta)
        report["perfect_below_trained"] = _perfect_regressions(report["cells"])
        return report
    raise ContractError(f"unknown ablation {kind!r}")


def _perfect_regressions(cells: list[dict]) -> list[dict]:
    """Soft check: cells where the perfect proposer scored below the trained one."""
    by_key: dict = {}
    for cell in cells:
        if "success" not in cell:
            continue
        say = cell["backends"].split(",")[0].split("=")[1]
        by_key.setdefault((cell["env"], cell["score"], cell["seed"]), {})[say] = cell
    flagged = []
    for pair in by_key.values():
        if "trained" in pair and "perfect-say" in pair:
            if pair["perfect-say"]["success"] < pair["trained"]["success"]:
                flagged.append(
                    {
                        "env": pair["trained"]["env"],
                        "score": pair["trained"]["score"],
                        "seed": pair["trained"]["seed"],
                        "trained": pair["trained"]["success"],
                        "perfect": pair["perfect-say"]["success"],
                    }
                )
    return flagged


def render_table(cells: list[dict]) -> str:
    headers = ["env", "split", "strategy", "score", "seed", "k",
               "success", "cost_eff", "rel_len"]
    lines = ["  ".join(f"{h:>12}" for h in headers)]
    for cell in cells:
        if "skipped" in cell:
            values = [cell["env"], cell["split"], cell["strategy"], cell["score"],
                      str(cell["seed"]), str(cell["k"]), "skipped", "-", "-"]
        else:
            values = [
                cell["env"], cell["split"], cell["strategy"], cell["score"],
                str(cell["seed"]), str(cell["k"]), str(cell["success"]),
                str(cell["cost_effective"]),
                f"{cell['relative_length_mean']:.3f}±{cell['relative_length_std']:.3f}",
            ]
        lines.append("  ".join(f"{v:>12}" for v in values))
    return "\n".join(lines)


def write_report(report: dict, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
