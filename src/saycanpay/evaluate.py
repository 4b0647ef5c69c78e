"""Plan execution, the paper-style metrics, the evaluation grid, and ablations."""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

from .backends import BackendChoice, episode_backends
from .core import ContractError, InfeasibleActionError, ModelFileError
from .data import read_trajectories, split_path
from .decoding import ROLES, DecodingConfig, PlanResult, run_strategy
from .envs import get_env
from .models import LinearScorer, SayPolicy
from .oracle import DELTA, ReplayCache, Trajectory


@dataclass(frozen=True)
class EpisodeResult:
    episode_id: str
    plan: PlanResult
    executed_ok: bool
    reached_goal: bool
    plan_length: int
    optimal_length: int
    wall_time: float


def execute_plan(
    spec, plan: PlanResult, optimal_length: int, wall_time: float = 0.0
) -> EpisodeResult:
    """Replay a plan through the `step` of `spec`'s env; the first infeasible
    action halts execution.

    A plan reaches the goal only when it runs to completion and ends with the
    done action (whose precondition is the goal test).
    """
    env, state = get_env(spec.env_id), spec.init_state
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
    traj: Trajectory, backends: BackendChoice, config: DecodingConfig,
    episode: ReplayCache | None = None,
) -> EpisodeResult:
    """Plan one episode in its env with the backends of the roles `config`
    calls, then execute; `episode` is the episode's cache, shared by the
    cells that plan it (a new one when None)."""
    spec = traj.episode
    started = time.perf_counter()
    if episode is None:
        episode = ReplayCache(spec)
    say, can, pay = episode_backends(backends, episode, config.roles)
    plan = run_strategy(spec, config, say, can, pay)
    return execute_plan(
        spec, plan, optimal_length=len(traj.actions),
        wall_time=time.perf_counter() - started,
    )


Cell = tuple[BackendChoice, DecodingConfig]
_CHUNKS_PER_WORKER = 4  # several chunks each, so uneven episodes still balance
_WORKER_STATE: dict = {}


def _plan_under_cells(traj: Trajectory, cells: list[Cell]) -> list[EpisodeResult]:
    """One episode planned under every cell in order, with one cache that is
    dropped after the last cell."""
    episode = ReplayCache(traj.episode)
    return [plan_episode(traj, b, c, episode) for b, c in cells]


def _init_worker(trajectories, cells):
    """Pool initializer: the episodes and cells every chunk of a worker reads."""
    _WORKER_STATE.update(trajectories=trajectories, cells=cells)


def _plan_chunk(start: int, stop: int) -> list[list[EpisodeResult]]:
    s = _WORKER_STATE
    return [_plan_under_cells(t, s["cells"]) for t in s["trajectories"][start:stop]]


def evaluate_episodes(
    trajectories: list[Trajectory], cells: list[Cell], jobs: int = 1
) -> list[EpisodeResult]:
    """Plan each episode, in the env its spec names, under every (backends,
    config) cell in turn, so the cells share its cache; the trajectories may
    come from several envs. At jobs > 1 one pool serves all cells; each
    worker gets the inputs once, then plans contiguous chunks of episodes.
    Results are ordered cell by cell, then by input position."""
    if jobs < 1:
        raise ContractError(f"jobs must be >= 1, not {jobs}")
    n = len(trajectories)
    if jobs == 1 or n == 0:
        rows = [_plan_under_cells(t, cells) for t in trajectories]
    else:
        size = -(-n // (jobs * _CHUNKS_PER_WORKER))
        starts = range(0, n, size)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(starts)),
            initializer=_init_worker,
            initargs=(trajectories, cells),
        ) as pool:
            chunks = pool.map(_plan_chunk, starts, [s + size for s in starts])
            rows = [row for chunk in chunks for row in chunk]
    return [row[i] for i in range(len(cells)) for row in rows]


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
    endpoint: str | None, delta: float, roles: tuple[str, ...] = ROLES,
) -> BackendChoice:
    """Load the trained scorers the chosen backends of `roles` need.

    Raises FileNotFoundError naming the first missing model file ("None"
    when there is no model directory).
    """
    kwargs: dict = {}
    for role in roles:
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
    groups: dict = {}  # (env, split) -> (trajectories, [(row, backends, config)])
    out_cells = []
    max_steps = None
    for cell in cells:
        env_id, split = cell["env"], cell["split"]
        key = (env_id, split)
        if key not in groups:
            groups[key] = (read_trajectories(
                get_env(env_id), split_path(Path(data_dir), env_id, split)
            ), [])
        trajectories, runnable = groups[key]
        max_steps = trajectories[0].episode.max_steps
        row = {
            "env": env_id,
            "split": split,
            "strategy": cell["strategy"],
            "score": cell["score"],
            "seed": cell["seed"],
            "k": cell["k"],
        }
        out_cells.append(row)
        config = DecodingConfig(strategy=cell["strategy"], score_mode=cell["score"],
                                m=cell["m"], k=cell["k"])
        try:
            backends = build_backends(
                store, env_id, cell["backends"], cell["seed"], endpoint, delta,
                config.roles,
            )
        except FileNotFoundError as exc:
            row["skipped"] = f"missing model file {exc}"
            continue
        runnable.append((row, backends, config))
    for trajectories, runnable in groups.values():
        if not runnable:
            continue
        results = evaluate_episodes(
            trajectories, [(b, c) for _, b, c in runnable], jobs=jobs
        )
        n = len(trajectories)
        for i, (row, backends, _) in enumerate(runnable):
            row.update(summarize(results[i * n:(i + 1) * n]))
            row["backends"] = backends.fingerprint()
    report = {"max_steps": max_steps, "cells": out_cells}
    report["table"] = render_table(out_cells)
    return report


_TRAINED = {"say": "trained", "can": "trained", "pay": "trained"}


def _grid(envs, splits, strategies, scores, says, ks, seeds, m, backends) -> list[dict]:
    """One cell per env x split x strategy x score x say x k x seed, in that
    order; `says` fills the Say role of `backends`."""
    return [
        {
            "env": env_id,
            "split": split,
            "strategy": strategy,
            "score": score,
            "seed": seed,
            "backends": {**backends, "say": say},
            "m": m,
            "k": k,
        }
        for env_id, split, strategy, score, say, k, seed in itertools.product(
            envs, splits, strategies, scores, says, ks, seeds
        )
    ]


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
    m: int = DecodingConfig.m,
    k: int = DecodingConfig.k,
    endpoint: str | None = None,
    delta: float = DELTA,
) -> dict:
    """Full strategy x score grid over the requested envs, splits, and seeds."""
    says = [backends.get("say", "trained")]
    cells = _grid(envs, splits, strategies, scores, says, [k], seeds, m, backends)
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
    m: int = DecodingConfig.m,
) -> dict:
    """Beam-size sweep or trained-vs-perfect proposer comparison; no cell has
    an external Say or an oracle Pay, so no endpoint or delta enters it."""
    if kind == "beam-size":
        cells = _grid(envs, [split], ["beam-action"], ["saycanpay"], ["trained"],
                      [1, 2, 3], seeds, m, _TRAINED)
    elif kind == "perfect-say":
        cells = _grid(envs, [split], ["greedy-action"], ["saycan", "saycanpay"],
                      ["trained", "perfect-say"], [1], seeds, m, _TRAINED)
    else:
        raise ContractError(f"unknown ablation {kind!r}")
    report = run_cells(cells, data_dir, model_dir, jobs=jobs)
    if kind == "perfect-say":
        report["perfect_below_trained"] = _perfect_regressions(cells, report["cells"])
    return report


def _perfect_regressions(cells: list[dict], rows: list[dict]) -> list[dict]:
    """Soft check: report rows where the perfect proposer scored below the
    trained one; each row's Say backend is read from its input cell."""
    by_key: dict = {}
    for cell, row in zip(cells, rows, strict=True):
        if "success" in row:
            key = (row["env"], row["score"], row["seed"])
            by_key.setdefault(key, {})[cell["backends"]["say"]] = row
    flagged = []
    for (env_id, score, seed), pair in by_key.items():
        trained, perfect = pair.get("trained"), pair.get("perfect-say")
        if trained and perfect and perfect["success"] < trained["success"]:
            flagged.append({"env": env_id, "score": score, "seed": seed,
                            "trained": trained["success"], "perfect": perfect["success"]})
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
