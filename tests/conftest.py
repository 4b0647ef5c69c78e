"""Shared fixtures: generated datasets and trained scorers.

The "full" fixtures match the evaluation protocol (400 train / 100 test
episodes per environment, three training seeds) and are built once per
session; the "tiny" fixtures exist for fast mechanical tests.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, deque

import numpy as np
import pytest

from saycanpay import models
from saycanpay.core import History, ScoredCandidate, accumulate, clamp, length_normalize

from saycanpay.data import (
    generate_dataset,
    make_can_samples,
    make_pay_samples,
    read_trajectories,
    split_path,
)
from saycanpay.decoding import PlanResult, expand_candidates
from saycanpay.envs import ENV_IDS, get_env, reset
from saycanpay.features import DIM, FEATURE_SCALE, PLAIN_SCALE, bucket, feature_grams
from saycanpay.models import (
    CAN_CALIBRATION_RAW,
    AdamW,
    TrainConfig,
    infonce_loss,
    mse_loss,
    sigmoid,
    softmax,
    train,
)
from saycanpay.oracle import DELTA
from saycanpay.trie import TokenTrie

TRAIN_SEEDS = (0, 1, 2)


def random_reachable_history(env_id, seed, split, walk):
    """An episode and a history reached by feasible moves chosen from `walk`."""
    env = get_env(env_id)
    spec = reset(env_id, seed, split)
    vocab = env.admissible_actions(spec)
    state, history = spec.init_state, History(spec.init_obs)
    for choice in walk:
        feasible = [
            a for a in vocab
            if not a.is_done and env.precondition_holds(state, spec.goal, a)
        ]
        if not feasible:
            break
        action = feasible[choice % len(feasible)]
        state = env.step(state, spec.goal, action)
        history = history.extended(action)
    return spec.goal, history, vocab


def reference_greedy_action(say, can, pay, episode, config) -> PlanResult:
    """Independent greedy loop: take the argmax-scored candidate at every step.

    The library's greedy-action is beam-action with k=1; this loop is the
    reference that equivalence is checked against.
    """
    history = History(episode.init_obs)
    per_step: list[ScoredCandidate] = []
    f_acc = 0.0
    terminated_by = "step-limit"
    for _ in range(episode.max_steps):
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


def reference_greedy_token(say, episode, config) -> PlanResult:
    """Independent greedy-token loop: token-level argmax decoding over the
    trie of the Say backend's vocabulary, scored by Say alone.

    The library runs greedy-token as beam-action with k=1 over this one
    proposal; this loop is the reference that equivalence is checked against.
    """
    vocab = say.vocab
    trie = TokenTrie(vocab)
    history = History(episode.init_obs)
    per_step: list[ScoredCandidate] = []
    f_acc = 0.0
    terminated_by = "step-limit"
    for _ in range(episode.max_steps):
        probs = say.action_probs(history)
        action = trie.greedy_action(probs)
        p_say = float(probs[vocab.index(action)])
        step = math.log(clamp(p_say))
        per_step.append(
            ScoredCandidate(
                action=action, p_say=p_say, p_can=1.0, f_pay=1.0, step_log_score=step
            )
        )
        f_acc = accumulate(f_acc, step)
        history = history.extended(action)
        if action.is_done:
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


def reference_breadth_first_plan(env, spec, start_state=None):
    """Independent BFS that asks `precondition_holds` once per (state, move).

    The library's breadth_first_plan tries only the env's relevant moves;
    this loop tries every move and is the reference that plan identity is
    checked against.
    """
    vocab = env.admissible_actions(spec)
    done = next(a for a in vocab if a.is_done)
    moves = [a for a in vocab if not a.is_done]
    goal = spec.goal
    state = spec.init_state if start_state is None else start_state
    if env.is_goal(state, goal):
        return [done]
    frontier = deque([state])
    parents: dict = {state: None}
    depth = {state: 0}
    max_moves = spec.max_steps - 1
    while frontier:
        current = frontier.popleft()
        if depth[current] >= max_moves:
            continue
        for action in moves:
            if not env.precondition_holds(current, goal, action):
                continue
            nxt = env.step(current, goal, action)
            if nxt in parents:
                continue
            parents[nxt] = (current, action)
            depth[nxt] = depth[current] + 1
            if env.is_goal(nxt, goal):
                path = [done]
                node = nxt
                while parents[node] is not None:
                    prev, act = parents[node]
                    path.append(act)
                    node = prev
                path.reverse()
                return path
            frontier.append(nxt)
    return None


def _reference_row(goal, history, action, profile="full"):
    """One candidate's features: a Counter over its hashed grams, scaled."""
    counts = Counter(bucket(g) for g in feature_grams(goal, history, action, profile))
    indices = sorted(counts)
    scale = FEATURE_SCALE if profile == "full" else PLAIN_SCALE
    return (
        np.asarray(indices, dtype=np.intp),
        np.asarray([scale * counts[i] for i in indices]),
    )


def reference_featurize(goal, history, actions, profile="full"):
    """`featurize`'s CSR rows `(indptr, indices, values)` rebuilt one
    candidate at a time by `_reference_row`."""
    rows = [_reference_row(goal, history, a, profile) for a in actions]
    indptr = np.cumsum([0] + [len(indices) for indices, _ in rows], dtype=np.intp)
    indices = np.concatenate([np.zeros(0, dtype=np.intp)] + [i for i, _ in rows])
    values = np.concatenate([np.zeros(0)] + [v for _, v in rows])
    return indptr, indices, values


def _reference_raw(params, feat):
    idx, vals = feat
    return float(params[idx] @ vals) + params[-1]


def _reference_scatter(grad, feat, dz):
    idx, vals = feat
    np.add.at(grad, idx, dz * vals)
    grad[-1] += dz


def reference_infonce_logits(z, _target):
    """One Can sample's InfoNCE loss and raw-score gradient, its positive
    candidate first: the per-sample form the batched head must reproduce."""
    scores = [sigmoid(v) for v in z]
    loss, (d_pos, d_negs) = infonce_loss(scores[0], scores[1:])
    return loss, [ds * s * (1.0 - s) for s, ds in zip(scores, [d_pos] + d_negs)]


def reference_mse_logits(z, target):
    """One Pay sample's squared error and raw-score gradient."""
    s = sigmoid(z[0])
    loss, d_pred = mse_loss(s, target)
    return loss, [d_pred * s * (1.0 - s)]


def reference_softmax_xent_logits(z, target):
    """One Say sample's softmax cross-entropy and raw-score gradient."""
    p = softmax(np.array(z))
    dz = p.copy()
    dz[target] -= 1.0
    return -math.log(max(p[target], 1e-300)), dz


def reference_train(kind, dataset, config, env=None):
    """Independent per-row training loop: one feature row, one dot and one
    `np.add.at` per candidate, and one per-sample loss call.  The library
    featurizes each candidate list at once, scores a whole minibatch per loss
    call and takes one `bincount` per minibatch; this loop is the reference
    that bit-identity is checked against.  Returns (weights, bias,
    epoch_losses, val_metric)."""
    if kind == "can":
        data = [
            ([_reference_row(s.goal, s.history, a)
              for a in (s.positive, s.neg_same, s.neg_cross)], None)
            for s in dataset
        ]
        loss_fn = reference_infonce_logits
    elif kind == "pay":
        data = [([_reference_row(s.goal, s.history, s.action)], s.target)
                for s in dataset]
        loss_fn = reference_mse_logits
    else:
        data = []
        for traj in dataset:
            vocab = env.admissible_actions(traj.episode)
            target = {a.text: i for i, a in enumerate(vocab)}
            history = History(traj.episode.init_obs)
            for action in traj.actions:
                feats = [_reference_row(traj.episode.goal, history, a, "plain")
                         for a in vocab]
                data.append((feats, target[action.text]))
                history = history.extended(action)
        loss_fn = reference_softmax_xent_logits
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = models._split_train_val(len(data), config.val_fraction, rng)
    params = np.zeros(DIM + 1)
    mask = np.ones(DIM + 1)
    mask[-1] = 0.0
    opt = AdamW(DIM + 1, config.lr, config.weight_decay, decay_mask=mask)
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(train_idx)
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad = np.zeros(DIM + 1)
            for i in batch:
                feats, target = data[i]
                loss, dz = loss_fn([_reference_raw(params, f) for f in feats], target)
                losses.append(loss)
                for f, d in zip(feats, dz):
                    _reference_scatter(grad, f, d)
            grad /= len(batch)
            opt.step(params, grad)
        epoch_losses.append(float(np.mean(losses)))

    def logits(i):
        return [_reference_raw(params, f) for f in data[i][0]]

    if kind != "can":
        losses = [loss_fn(logits(i), data[i][1])[0] for i in val_idx]
        val_metric = float(np.mean(losses)) if len(val_idx) else 0.0
        return params[:-1].copy(), float(params[-1]), epoch_losses, val_metric
    tp = fp = fn = 0
    for i in val_idx:
        scores = [sigmoid(z) for z in logits(i)]
        best = max(range(len(scores)), key=lambda j: scores[j])
        if scores[best] / sum(scores) < 0.5:
            fn += 1
        elif best == 0:
            tp += 1
        else:
            fp += 1
            fn += 1
    precision, recall = (tp / (tp + fp), tp / (tp + fn)) if tp else (0.0, 0.0)
    val_metric = 2 * precision * recall / (precision + recall) if tp else 0.0
    positives = sorted(logits(i)[0] for i in train_idx)
    if positives:
        params[-1] += CAN_CALIBRATION_RAW - positives[len(positives) // 5]
    return params[:-1].copy(), float(params[-1]), epoch_losses, val_metric


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
