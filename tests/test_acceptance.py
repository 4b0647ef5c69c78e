"""End-to-end acceptance checks over the full training and evaluation protocol.

Each numbered criterion prints one PASS/FAIL line.  The trained-scorer
criteria share one evaluation grid: every cell is a 100-episode test split
evaluated under three training seeds, and comparisons are made on the
3-seed means (the protocol used for every mean-based criterion here).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import reference_greedy_action
from saycanpay.backends import TrainedCan, TrainedPay, TrainedSay
from saycanpay.data import make_pay_samples, read_trajectories, split_path
from saycanpay.decoding import DecodingConfig, PlanResult
from saycanpay.envs import ENV_IDS, get_env
from saycanpay.evaluate import (
    BackendChoice,
    EpisodeResult,
    ModelStore,
    evaluate_episodes,
    plan_episode,
    relative_length,
    run_cells,
    summarize,
)
from saycanpay.features import DIM
from saycanpay.models import LinearScorer, SayPolicy, infonce_loss, mse_loss, sigmoid
from saycanpay.oracle import DELTA

SEEDS = (0, 1, 2)


def record(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared evaluation grid for criteria 3-6


@pytest.fixture(scope="session")
def grid(full_data_dir, full_model_dir):
    trained = {"say": "trained", "can": "trained", "pay": "trained"}
    beam_cells = [
        {
            "env": env_id, "split": "test", "strategy": "beam-action",
            "score": score, "seed": seed, "backends": dict(trained),
            "m": 6, "k": 3,
        }
        for env_id in ENV_IDS
        for score in ("say", "saycan", "saycanpay")
        for seed in SEEDS
    ]
    started = time.monotonic()
    beam_report = run_cells(beam_cells, full_data_dir, full_model_dir)
    beam_elapsed = time.monotonic() - started

    extra_cells = [
        {
            "env": env_id, "split": "test", "strategy": "beam-action",
            "score": "saycanpay", "seed": seed, "backends": dict(trained),
            "m": 6, "k": k,
        }
        for env_id in ENV_IDS
        for k in (1, 2)
        for seed in SEEDS
    ] + [
        {
            "env": env_id, "split": "test", "strategy": "greedy-action",
            "score": score, "seed": seed,
            "backends": {"say": say, "can": "trained", "pay": "trained"},
            "m": 6, "k": 1,
        }
        for env_id in ENV_IDS
        for say in ("trained", "perfect-say")
        for score in ("saycan", "saycanpay")
        for seed in SEEDS
    ]
    extra_report = run_cells(extra_cells, full_data_dir, full_model_dir)
    train_seconds = json.loads(
        (full_model_dir / "train_time.json").read_text()
    )["seconds"]
    return {
        "cells": beam_report["cells"] + extra_report["cells"],
        "beam_elapsed": beam_elapsed,
        "train_seconds": train_seconds,
    }


def mean_over_seeds(cells, metric="success", say=None, **match):
    values = []
    for cell in cells:
        if say is not None and not cell.get("backends", "").startswith(f"say={say},"):
            continue
        if all(cell[key] == value for key, value in match.items()):
            values.append(cell[metric])
    assert len(values) == len(SEEDS), (match, say, values)
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_oracle_stack_solves_hanoi_optimally(full_data_dir):
    env = get_env("hanoi")
    trajectories = read_trajectories(env, split_path(full_data_dir, "hanoi", "test"))
    assert len(trajectories) == 100
    vocab_size = len(env.admissible_actions(trajectories[0].episode))
    backends = BackendChoice(say="uniform", can="oracle", pay="oracle")
    config = DecodingConfig(
        strategy="beam-action", score_mode="saycanpay", m=vocab_size, k=3
    )
    started = time.monotonic()
    results = evaluate_episodes("hanoi", trajectories, backends, config)
    elapsed = time.monotonic() - started
    solved = summarize(results)["success"]
    optimal = sum(
        r.reached_goal and r.plan_length == r.optimal_length for r in results
    )
    ok = solved == 100 and optimal == 100 and elapsed < 60
    record(
        1, ok,
        f"uniform+oracle beam k=3 solved {solved}/100 hanoi test episodes, "
        f"{optimal}/100 at optimal length, in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_02_beam_one_equals_greedy(full_data_dir, full_model_dir):
    store = ModelStore(full_model_dir)
    mismatches = 0
    compared = 0
    for env_id in ENV_IDS:
        env = get_env(env_id)
        trajectories = read_trajectories(
            env, split_path(full_data_dir, env_id, "test")
        )[:50]
        backends = BackendChoice(
            say_policy=SayPolicy(store.load(env_id, "say", 0)),
            can_model=store.load(env_id, "can", 0),
            pay_model=store.load(env_id, "pay", 0),
        )
        for score in ("say", "saycan", "saycanpay"):
            for traj in trajectories:
                spec = traj.episode
                config = DecodingConfig(
                    strategy="beam-action", score_mode=score, k=1,
                    max_steps=spec.max_steps,
                )
                greedy = reference_greedy_action(
                    TrainedSay(env, spec, backends.say_policy),
                    TrainedCan(spec, backends.can_model),
                    TrainedPay(spec, backends.pay_model),
                    spec, config,
                )
                beam = plan_episode(env_id, traj, backends, config)
                compared += 1
                same = (
                    [a.text for a in greedy.plan]
                    == [a.text for a in beam.plan.plan]
                    and greedy.per_step == beam.plan.per_step
                    and greedy.final_score == beam.plan.final_score
                )
                mismatches += not same
    ok = mismatches == 0
    record(
        2, ok,
        f"beam(k=1) bit-identical to greedy on {compared} plans "
        f"(50 episodes x 3 envs x 3 score modes), {mismatches} mismatches",
    )


def test_criterion_03_score_mode_ordering(grid):
    slack = 2
    lines = []
    ok = True
    for env_id in ENV_IDS:
        say, saycan, saycanpay = (
            mean_over_seeds(grid["cells"], strategy="beam-action", score=s,
                            env=env_id, k=3)
            for s in ("say", "saycan", "saycanpay")
        )
        env_ok = say <= saycan + slack and saycan <= saycanpay + slack
        ok &= env_ok
        lines.append(f"{env_id} {say:.1f}/{saycan:.1f}/{saycanpay:.1f}")
    runtime = grid["train_seconds"] + grid["beam_elapsed"]
    ok &= runtime < 900
    record(
        3, ok,
        "3-seed mean success say/saycan/saycanpay per env: "
        + ", ".join(lines)
        + f"; train+eval runtime {runtime:.0f}s (limit 900s)",
    )


def test_criterion_04_cost_effectiveness_ordering(grid):
    lines = []
    ok = True
    for env_id in ENV_IDS:
        saycan = mean_over_seeds(
            grid["cells"], metric="cost_effective", strategy="beam-action",
            score="saycan", env=env_id, k=3,
        )
        saycanpay = mean_over_seeds(
            grid["cells"], metric="cost_effective", strategy="beam-action",
            score="saycanpay", env=env_id, k=3,
        )
        ok &= saycanpay >= saycan - 2
        lines.append(f"{env_id} {saycan:.1f}->{saycanpay:.1f}")
    record(
        4, ok,
        "3-seed mean cost-effective plans, saycan -> saycanpay: "
        + ", ".join(lines),
    )


def test_criterion_05_beam_size_ablation(grid):
    lines = []
    ok = True
    for env_id in ENV_IDS:
        means = [
            mean_over_seeds(
                grid["cells"], strategy="beam-action", score="saycanpay",
                env=env_id, k=k,
            )
            for k in (1, 2, 3)
        ]
        ok &= means[1] >= means[0] - 2 and means[2] >= means[1] - 2
        lines.append(f"{env_id} " + "/".join(f"{m:.1f}" for m in means))
    record(
        5, ok,
        "3-seed mean success over beam sizes k=1/2/3: " + ", ".join(lines),
    )


def test_criterion_06_perfect_proposer_dominates(grid):
    lines = []
    ok = True
    for env_id in ENV_IDS:
        for score in ("saycan", "saycanpay"):
            trained = mean_over_seeds(
                grid["cells"], strategy="greedy-action", score=score,
                env=env_id, say="trained",
            )
            perfect = mean_over_seeds(
                grid["cells"], strategy="greedy-action", score=score,
                env=env_id, say="perfect-say",
            )
            ok &= perfect >= trained
            lines.append(f"{env_id}/{score} {trained:.1f}<={perfect:.1f}")
    record(
        6, ok,
        "3-seed mean success, trained <= perfect proposer (greedy-action): "
        + ", ".join(lines),
    )


def test_criterion_07_can_validation_f1(full_model_dir):
    thresholds = {"hanoi": 0.95, "gridworld": 0.95, "blocks": 0.90}
    lines = []
    ok = True
    for env_id in ENV_IDS:
        for seed in SEEDS:
            scorer = LinearScorer.load(
                full_model_dir / f"{env_id}_can_seed{seed}.json"
            )
            ok &= scorer.val_metric >= thresholds[env_id]
            lines.append(f"{env_id}/s{seed} {scorer.val_metric:.3f}")
    record(
        7, ok,
        "can validation F1 (thresholds hanoi/gridworld 0.95, blocks 0.90): "
        + ", ".join(lines),
    )


def test_criterion_08_pay_targets_follow_discount_law(full_data_dir):
    checked = 0
    exact = True
    for env_id in ENV_IDS:
        env = get_env(env_id)
        trajectories = read_trajectories(
            env, split_path(full_data_dir, env_id, "train")
        )
        samples = make_pay_samples(trajectories, DELTA, seed=0)
        cursor = 0
        for traj in trajectories:
            horizon = len(traj.actions)
            chunk = samples[cursor : cursor + 2 * horizon]
            cursor += 2 * horizon
            for t, (pos, neg) in enumerate(zip(chunk[0::2], chunk[1::2]), start=1):
                exact &= pos.target == DELTA ** (horizon - t)
                exact &= neg.target == 0.0
                checked += 1
    record(
        8, exact,
        f"{checked} pay samples match target = {DELTA}**(T-t) exactly, "
        "negatives exactly 0",
    )


def _raw(params, feat):
    idx, vals = feat
    return float(params[idx] @ vals) + params[-1]


def _max_grad_error(params, feats, value, analytic, touched):
    h = 1e-6
    worst = 0.0
    for j in touched:
        params[j] += h
        up = value()
        params[j] -= 2 * h
        down = value()
        params[j] += h
        numeric = (up - down) / (2 * h)
        scale = max(1.0, abs(numeric), abs(analytic[j]))
        worst = max(worst, abs(analytic[j] - numeric) / scale)
    return worst


def test_criterion_09_gradient_checks():
    rng = np.random.default_rng(0)
    params = rng.normal(scale=0.01, size=DIM + 1)

    def sparse():
        n = int(rng.integers(5, 30))
        idx = np.sort(rng.choice(DIM, size=n, replace=False)).astype(np.intp)
        return idx, rng.integers(1, 4, size=n).astype(float)

    worst = 0.0
    for _ in range(50):  # InfoNCE points
        feats = [sparse() for _ in range(3)]

        def value():
            scores = [sigmoid(_raw(params, f)) for f in feats]
            return infonce_loss(scores[0], scores[1:])[0]

        scores = [sigmoid(_raw(params, f)) for f in feats]
        _, (d_pos, d_negs) = infonce_loss(scores[0], scores[1:])
        grad = np.zeros(DIM + 1)
        for f, s, ds in zip(feats, scores, [d_pos] + d_negs):
            np.add.at(grad, f[0], ds * s * (1.0 - s) * f[1])
            grad[-1] += ds * s * (1.0 - s)
        touched = sorted({int(i) for f in feats for i in f[0]})[:4] + [DIM]
        worst = max(worst, _max_grad_error(params, feats, value, grad, touched))

    for _ in range(50):  # MSE points
        feat = sparse()
        target = float(rng.uniform(0, 1))

        def value():
            return mse_loss(sigmoid(_raw(params, feat)), target)[0]

        s = sigmoid(_raw(params, feat))
        _, d_pred = mse_loss(s, target)
        grad = np.zeros(DIM + 1)
        np.add.at(grad, feat[0], d_pred * s * (1.0 - s) * feat[1])
        grad[-1] += d_pred * s * (1.0 - s)
        touched = sorted(int(i) for i in feat[0])[:4] + [DIM]
        worst = max(worst, _max_grad_error(params, [feat], value, grad, touched))

    ok = worst < 1e-4
    record(
        9, ok,
        f"analytic vs central-difference gradients on 100 random points, "
        f"max relative error {worst:.2e} (limit 1e-4)",
    )


def test_criterion_10_relative_length_rule():
    def result(reached, plan_length, optimal_length):
        return EpisodeResult(
            episode_id="x", config_fingerprint="f",
            plan=PlanResult(plan=(), per_step=(), final_score=0.0,
                            terminated_by="done"),
            executed_ok=reached, reached_goal=reached,
            plan_length=plan_length, optimal_length=optimal_length, wall_time=0.0,
        )

    cases = [
        (result(False, 3, 3), 0.0),
        (result(True, 3, 3), 1.0),
        (result(True, 5, 3), 0.6),
        (result(True, 10, 4), 0.4),
    ]
    ok = all(
        relative_length(r) == pytest.approx(expected) for r, expected in cases
    ) and all(relative_length(r) <= 1.0 for r, _ in cases)
    record(
        10, ok,
        "relative length is 0 for failures and optimal/generated (<= 1) "
        "for successes on constructed cases",
    )


def test_criterion_11_reports_identical_across_jobs(
    full_data_dir, full_model_dir, tmp_path
):
    outputs = []
    for jobs in (1, 3):
        out = tmp_path / f"jobs{jobs}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "saycanpay.cli", "eval",
                "--env", "hanoi", "--data", str(full_data_dir),
                "--models", str(full_model_dir), "--jobs", str(jobs),
                "--out", str(out),
            ],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    record(
        11, ok,
        "full eval grid reports for --jobs 1 and --jobs 3 are byte-identical "
        f"({len(outputs[0])} bytes)",
    )
