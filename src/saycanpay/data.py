"""Expert datasets: generation, split bookkeeping, training samples, persistence."""

from __future__ import annotations

import hashlib
import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path

from .core import ActionInstance, ContractError, DataFileError, GoalSpec, History
from .envs import Environment, EpisodeSpec, get_env
from .oracle import DELTA, Trajectory, bfs_plan

log = logging.getLogger(__name__)

# Fraction of the shared (init_state, goal) pair space assigned to train; the
# rest belongs to test. Small environments (hanoi-3 has at most 162 distinct
# pairs) repeat pairs within a split, but never across splits.
TRAIN_PAIR_SHARE = 0.7


@dataclass(frozen=True)
class CanSample:
    """Positive expert action plus one in-trajectory and one cross-trajectory negative."""

    history: History
    goal: GoalSpec
    positive: ActionInstance
    neg_same: ActionInstance
    neg_cross: ActionInstance


@dataclass(frozen=True)
class PaySample:
    """One action with its discounted payoff target."""

    history: History
    goal: GoalSpec
    action: ActionInstance
    target: float


def pair_key(spec: EpisodeSpec) -> str:
    """`spec`'s env, initial state (in its env's JSON form) and goal text."""
    state = get_env(spec.env_id).state_to_json(spec.init_state)
    state_json = json.dumps(state, sort_keys=True)
    return f"{spec.env_id}|{state_json}|{spec.goal.text}"


def pair_split(spec: EpisodeSpec) -> str:
    """Deterministic train/test partition of the shared episode space."""
    digest = hashlib.sha256(pair_key(spec).encode()).digest()
    bucket = int.from_bytes(digest[:4], "big") / 2**32
    return "train" if bucket < TRAIN_PAIR_SHARE else "test"


def generate_split(
    env: Environment, split: str, count: int, seed: int
) -> list[Trajectory]:
    """Deterministically draw `count` solvable episodes for one split.

    Candidate seeds advance sequentially from seed * 10**6; draws whose
    (init_state, goal) pair is partitioned to the other split are skipped.
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    trajectories = []
    candidate = seed * 1_000_000
    while len(trajectories) < count:
        spec = env.sample_episode(candidate, split)
        candidate += 1
        if split in ("train", "test") and pair_split(spec) != split:
            log.debug("skipping %s: pair assigned to other split", spec.episode_id)
            continue
        trajectories.append(bfs_plan(spec))
    return trajectories


def trajectory_to_row(traj: Trajectory) -> dict:
    """The JSON row of `traj`, its initial state in its env's JSON form."""
    spec = traj.episode
    return {
        "episode_id": spec.episode_id,
        "env": spec.env_id,
        "split": spec.split,
        "seed": spec.seed,
        "goal": spec.goal.text,
        "goal_predicate": "/".join(spec.goal.predicate),
        "init_obs": spec.init_obs,
        "init_state": get_env(spec.env_id).state_to_json(spec.init_state),
        "actions": [a.text for a in traj.actions],
        "reward": traj.reward,
        "optimal_length": len(traj.actions),
    }


def row_to_trajectory(env: Environment, row: dict) -> Trajectory:
    """A `trajectory_to_row` row read back; ValueError unless it is `env`'s."""
    if row["env"] != env.env_id:
        raise ValueError(f"env {row['env']!r} is not {env.env_id!r}")
    state = env.state_from_json(row["init_state"])
    predicate = tuple(row["goal_predicate"].split("/"))
    spec = EpisodeSpec(
        env_id=row["env"],
        goal=GoalSpec(text=row["goal"], predicate=predicate),
        init_obs=row["init_obs"],
        init_state=state,
        split=row["split"],
        seed=row["seed"],
    )
    actions = tuple(env.action_from_text(spec, text) for text in row["actions"])
    return Trajectory(episode=spec, actions=actions, reward=row["reward"])


def write_trajectories(trajectories: list[Trajectory], path: Path):
    """One JSON row per trajectory, sorted by episode id."""
    rows = sorted(map(trajectory_to_row, trajectories), key=lambda r: r["episode_id"])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_trajectories(env: Environment, path: Path) -> list[Trajectory]:
    """The trajectories of a split file; DataFileError names the file (and the
    line) when it holds none or a line is not a trajectory of `env`."""
    trajectories = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                trajectories.append(row_to_trajectory(env, json.loads(line)))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise DataFileError(
                    f"malformed trajectory file {path} line {number}: {exc!r}"
                ) from exc
    if not trajectories:
        raise DataFileError(f"trajectory file {path} holds no trajectories")
    return trajectories


def split_path(data_dir: Path, env_id: str, split: str) -> Path:
    return Path(data_dir) / f"{env_id}_{split}.jsonl"


def generate_dataset(
    env_id: str, counts: dict[str, int], seed: int, out_dir: Path
) -> dict[str, dict]:
    """Generate and persist expert trajectories for each requested split."""
    env = get_env(env_id)
    summary = {}
    for split, count in counts.items():
        trajectories = generate_split(env, split, count, seed)
        path = split_path(Path(out_dir), env_id, split)
        write_trajectories(trajectories, path)
        lengths = [len(t.actions) for t in trajectories]
        summary[split] = {
            "count": len(trajectories),
            "mean_optimal_length": sum(lengths) / len(lengths),
            "path": str(path),
        }
    return summary


def make_can_samples(trajectories: list[Trajectory], seed: int) -> list[CanSample]:
    """One contrastive sample per (trajectory, step)."""
    if len(trajectories) < 2:
        raise ContractError("need >= 2 trajectories for cross-trajectory negatives")
    rng = random.Random(seed)
    samples = []
    for i, traj in enumerate(trajectories):
        history = History(traj.episode.init_obs)
        for t, positive in enumerate(traj.actions):
            others = [
                a for s, a in enumerate(traj.actions)
                if s != t and a.text != positive.text
            ]
            if others:
                samples.append(
                    CanSample(
                        history=history,
                        goal=traj.episode.goal,
                        positive=positive,
                        neg_same=rng.choice(others),
                        neg_cross=_cross_negative(rng, trajectories, i, positive),
                    )
                )
            history = history.extended(positive)
    return samples


def _cross_negative(rng, trajectories, own_index, positive) -> ActionInstance:
    for _ in range(50):
        j = rng.randrange(len(trajectories))
        if j == own_index:
            continue
        candidate = rng.choice(trajectories[j].actions)
        if candidate.text != positive.text:
            return candidate
    # fall back to a linear scan when sampling keeps colliding
    for j, other in enumerate(trajectories):
        if j == own_index:
            continue
        for candidate in other.actions:
            if candidate.text != positive.text:
                return candidate
    raise ContractError("no usable cross-trajectory negative exists")


def make_pay_samples(
    trajectories: list[Trajectory], delta: float = DELTA, seed: int = 0
) -> list[PaySample]:
    """Discounted targets delta**(T-t) per expert step, plus one zero-target negative."""
    if len(trajectories) < 2:
        raise ContractError("need >= 2 trajectories for negatives")
    rng = random.Random(seed)
    samples = []
    for i, traj in enumerate(trajectories):
        horizon = len(traj.actions)
        history = History(traj.episode.init_obs)
        for t, action in enumerate(traj.actions, start=1):
            samples.append(
                PaySample(
                    history=history,
                    goal=traj.episode.goal,
                    action=action,
                    target=delta ** (horizon - t),
                )
            )
            negative = _cross_negative(rng, trajectories, i, action)
            samples.append(
                PaySample(
                    history=history,
                    goal=traj.episode.goal,
                    action=negative,
                    target=0.0,
                )
            )
            history = history.extended(action)
    return samples
