"""Shared fixtures: generated datasets and trained scorers.

The "full" fixtures match the evaluation protocol (400 train / 100 test
episodes per environment, three training seeds) and are built once per
session; the "tiny" fixtures exist for fast mechanical tests.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from saycanpay.core import History, ScoredCandidate, accumulate, length_normalize

from saycanpay.data import (
    generate_dataset,
    make_can_samples,
    make_pay_samples,
    read_trajectories,
    split_path,
)
from saycanpay.decoding import PlanResult, expand_candidates
from saycanpay.envs import ENV_IDS, get_env
from saycanpay.models import TrainConfig, train
from saycanpay.oracle import DELTA

TRAIN_SEEDS = (0, 1, 2)


def reference_greedy_action(say, can, pay, episode, config) -> PlanResult:
    """Independent greedy loop: take the argmax-scored candidate at every step.

    The library's greedy-action is beam-action with k=1; this loop is the
    reference that equivalence is checked against.
    """
    history = History(episode.init_obs)
    per_step: list[ScoredCandidate] = []
    f_acc = 0.0
    terminated_by = "step-limit"
    for _ in range(config.max_steps):
        candidates = expand_candidates(say, can, pay, history, config)
        if not candidates:
            break
        best = min(candidates, key=lambda c: (-c.step_log_score, c.action.text))
        per_step.append(best)
        f_acc = accumulate(f_acc, best.step_log_score)
        history = history.extended(best.action)
        if best.action.is_done:
            terminated_by = "done"
            break
    plan = tuple(c.action for c in per_step)
    final = length_normalize(f_acc, len(plan)) if plan else -math.inf
    return PlanResult(
        plan=plan,
        per_step=tuple(per_step),
        final_score=final,
        terminated_by=terminated_by,
    )


def train_models(data_dir, model_dir, env_ids=ENV_IDS, seeds=TRAIN_SEEDS):
    """Train and persist can/pay/say scorers for every (env, seed)."""
    model_dir.mkdir(parents=True, exist_ok=True)
    for env_id in env_ids:
        env = get_env(env_id)
        trajectories = read_trajectories(env, split_path(data_dir, env_id, "train"))
        for seed in seeds:
            config = TrainConfig(seed=seed)
            for kind in ("can", "pay", "say"):
                if kind == "can":
                    dataset = make_can_samples(trajectories, seed)
                elif kind == "pay":
                    dataset = make_pay_samples(trajectories, DELTA, seed)
                else:
                    dataset = trajectories
                model = train(kind, dataset, config, env_id, env=env)
                scorer = model.scorer if kind == "say" else model
                scorer.save(model_dir / f"{env_id}_{kind}_seed{seed}.json")
    return model_dir


@pytest.fixture(scope="session")
def full_data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    for env_id in ENV_IDS:
        generate_dataset(env_id, {"train": 400, "test": 100}, 0, out)
    return out


@pytest.fixture(scope="session")
def full_model_dir(tmp_path_factory, full_data_dir):
    out = tmp_path_factory.mktemp("models")
    started = time.monotonic()
    train_models(full_data_dir, out)
    # consumed by the training-budget acceptance check
    (out / "train_time.json").write_text(
        json.dumps({"seconds": time.monotonic() - started})
    )
    return out


@pytest.fixture(scope="session")
def tiny_data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny-data")
    for env_id in ENV_IDS:
        generate_dataset(
            env_id, {"train": 25, "test": 10, "test-generalize": 5}, 0, out
        )
    return out


@pytest.fixture(scope="session")
def tiny_model_dir(tmp_path_factory, tiny_data_dir):
    return train_models(
        tiny_data_dir, tmp_path_factory.mktemp("tiny-models"), seeds=(0,)
    )
