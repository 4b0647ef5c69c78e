"""Trainable scorers over hashed features: losses, AdamW, persistence, adapters."""

from __future__ import annotations

import json
import math
import socket
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    ActionInstance,
    AdapterError,
    ContractError,
    GoalSpec,
    History,
    ModelFileError,
    TrainingDivergedError,
)
from .features import DIM, HASH_SEED, PROFILES, featurize
from .oracle import Trajectory

MODEL_KINDS = ("can", "pay", "say")
# Each kind's head, for training and for every loaded model file: Can and Pay
# give each candidate its own sigmoid score, Say a softmax over the vocabulary.
HEADS = {"can": "sigmoid", "pay": "sigmoid", "say": "softmax"}
CAN_CALIBRATION_RAW = 2.197  # sigmoid(2.197) ~= 0.9
MAX_REPLY_BYTES = 1 << 20  # an adapter reply line longer than this is refused


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    batch_size: int = 50
    epochs: int = 20
    val_fraction: float = 0.2
    seed: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def infonce_loss(
    pos_score: float, neg_scores: list[float]
) -> tuple[float, tuple[float, list[float]]]:
    """Contrastive loss -ln(pos / (pos + sum(negs))) and its score gradients."""
    if pos_score <= 0 or any(s <= 0 for s in neg_scores):
        raise ContractError("infonce_loss requires strictly positive scores")
    total = pos_score + sum(neg_scores)
    loss = math.log(total) - math.log(pos_score)
    d_pos = 1.0 / total - 1.0 / pos_score
    d_negs = [1.0 / total for _ in neg_scores]
    return loss, (d_pos, d_negs)


def mse_loss(pred: float, target: float) -> tuple[float, float]:
    """Squared error and its gradient with respect to the prediction."""
    diff = pred - target
    return diff * diff, 2.0 * diff


class AdamW:
    """Decoupled weight decay Adam over a flat parameter vector."""

    def __init__(self, n_params: int, lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 decay_mask: np.ndarray | None = None):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0
        self.decay_mask = (
            np.ones(n_params) if decay_mask is None else decay_mask.astype(float)
        )

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        params -= self.lr * (
            m_hat / (np.sqrt(v_hat) + self.eps)
            + self.weight_decay * self.decay_mask * params
        )


class LinearScorer:
    """Linear model over hashed features with a sigmoid or softmax head."""

    def __init__(self, kind: str, env: str, head: str,
                 config: dict | None = None, profile: str | None = None):
        if kind not in MODEL_KINDS:
            raise ContractError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.env = env
        self.head = head
        # The policy keeps the lighter feature profile so its softmax stays
        # soft enough to surface several plausible candidates; the feasibility
        # and payoff scorers use the full crosses.
        self.profile = profile or ("plain" if kind == "say" else "full")
        self.config = config or {}
        self.weights = np.zeros(DIM)
        self.bias = 0.0
        self.val_metric: float | None = None
        self.epoch_losses: list[float] = []

    def logits(self, rows) -> list[float]:
        """Raw score of each CSR row `(indptr, indices, values)` of `featurize`."""
        return _row_logits(self.weights, self.bias, rows)

    def score(
        self, goal: GoalSpec, history: History, actions: list[ActionInstance]
    ) -> list[float]:
        """Sigmoid score of each candidate; each row keeps its own dot, so a
        list scores bit-identically to its candidates one at a time."""
        rows = featurize(goal, history, actions, self.profile)
        return [sigmoid(z) for z in self.logits(rows)]

    def check_env(self, env_id: str) -> None:
        if env_id != self.env:
            raise ContractError(
                f"model trained for {self.env!r} applied to {env_id!r}"
            )

    def save(self, path: Path) -> None:
        payload = {
            "kind": self.kind,
            "env": self.env,
            "dim": DIM,
            "hash_seed": HASH_SEED,
            "profile": self.profile,
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "config": dict(self.config, head=self.head),
            "val_metric": self.val_metric,
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: Path) -> "LinearScorer":
        """Read a saved scorer; ModelFileError names the file if it is unusable."""
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            config = dict(payload["config"])
            head = config.pop("head")
            scorer = cls(
                kind=payload["kind"],
                env=payload["env"],
                head=head,
                config=config,
                profile=payload.get("profile"),
            )
            dim, hash_seed = payload["dim"], payload["hash_seed"]
            scorer.weights = np.array(payload["weights"], dtype=float)
            scorer.bias = float(payload["bias"])
            scorer.val_metric = payload["val_metric"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFileError(f"malformed model file {path}: {exc}") from exc
        if dim != DIM or scorer.weights.shape != (DIM,):
            problem = f"dim {dim} with {scorer.weights.size} weights, need {DIM}"
        elif hash_seed != HASH_SEED:
            problem = f"hash seed {hash_seed}, need {HASH_SEED}"
        elif not (np.isfinite(scorer.weights).all() and math.isfinite(scorer.bias)):
            problem = "non-finite weights or bias"
        elif scorer.profile not in PROFILES:
            problem = f"unknown feature profile {scorer.profile!r}"
        elif scorer.head != HEADS[scorer.kind]:
            problem = f"{scorer.kind} head {scorer.head!r}, need {HEADS[scorer.kind]!r}"
        else:
            return scorer
        raise ModelFileError(f"bad model file {path}: {problem}")


class SayPolicy:
    """Softmax policy over an episode's action vocabulary."""

    def __init__(self, scorer: LinearScorer):
        if scorer.head != HEADS["say"]:
            raise ContractError("SayPolicy needs a softmax-head scorer")
        self.scorer = scorer

    def action_probs(
        self, history: History, goal: GoalSpec, vocab: list[ActionInstance]
    ) -> np.ndarray:
        scorer = self.scorer
        z = np.array(scorer.logits(featurize(goal, history, vocab, scorer.profile)))
        return softmax(z)


def say_top_m(
    probs: np.ndarray, vocab: list[ActionInstance], m: int
) -> list[tuple[ActionInstance, float]]:
    """The m most probable vocabulary actions under a policy's distribution
    `probs` over `vocab`, with exact softmax masses; an m above the
    vocabulary size is clamped to it, as every proposer does."""
    if m < 1:
        raise ContractError("m must be >= 1")
    if not vocab:
        raise ContractError("vocab must be non-empty")
    m = min(m, len(vocab))
    order = sorted(range(len(vocab)), key=lambda i: (-probs[i], vocab[i].text))
    return [(vocab[i], float(probs[i])) for i in order[:m]]


def perfect_say(
    expert_action: ActionInstance,
    vocab: list[ActionInstance],
    m: int,
    seed: int,
) -> list[tuple[ActionInstance, float]]:
    """The expert action plus m-1 uniformly chosen distinct distractors."""
    import random

    if m < 1:
        raise ContractError("m must be >= 1")
    m = min(m, len(vocab))
    rng = random.Random(seed)
    pool = sorted((a for a in vocab if a.text != expert_action.text),
                  key=lambda a: a.text)
    distractors = rng.sample(pool, m - 1) if m > 1 else []
    candidates = sorted([expert_action] + distractors, key=lambda a: a.text)
    p = 1.0 / m
    return [(a, p) for a in candidates]


# ---------------------------------------------------------------------------
# training


def _row_logits(weights: np.ndarray, bias: float, rows) -> list[float]:
    """Raw score of each CSR row: one gather, then one dot per row.

    A 1-D float64 dot is BLAS ddot, and trained models depend on its
    rounding, so the rows are not summed by one vectorized call.
    """
    indptr, indices, values = rows
    gathered = weights[indices]
    bounds = indptr.tolist()
    return [
        float(gathered[s:e].dot(values[s:e])) + bias
        for s, e in zip(bounds, bounds[1:])
    ]


def _split_train_val(n: int, val_fraction: float, rng: np.random.Generator):
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction))) if n > 1 else 0
    return order[n_val:], order[:n_val]


def _fit(kind: str, env_id: str, samples, config: TrainConfig, loss_fn):
    """Minibatch AdamW over (candidate rows, target) samples.

    Each sample's rows are one `featurize` result.  `loss_fn(logits, target)
    -> (loss, dlogits)` gets one raw score per row.  A minibatch gradient is
    one `bincount` over the batch's (sample, row)-ordered buckets, with the
    bias as bucket DIM.  Returns the scorer (epoch losses filled in), the
    trained parameters (weights, then the bias), and the train/validation
    indices.
    """
    if not samples:
        raise ContractError("empty dataset")
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = _split_train_val(len(samples), config.val_fraction, rng)
    params = np.zeros(DIM + 1)
    no_decay_on_bias = np.ones(DIM + 1)
    no_decay_on_bias[-1] = 0.0
    opt = AdamW(DIM + 1, config.lr, config.weight_decay, decay_mask=no_decay_on_bias)
    scorer = LinearScorer(kind, env_id, head=HEADS[kind], config=config.to_json())
    row_lengths = [np.diff(rows[0]) for rows, _ in samples]
    for _ in range(config.epochs):
        order = rng.permutation(train_idx)
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            buckets, values, lengths, dz_rows = [], [], [], []
            for i in batch:
                rows, target = samples[i]
                loss, dz = loss_fn(_row_logits(params, params[-1], rows), target)
                losses.append(loss)
                dz_rows.append(dz)
                buckets.append(rows[1])
                values.append(rows[2])
                lengths.append(row_lengths[i])
            dz_rows = np.concatenate(dz_rows)
            buckets.append(np.full(len(dz_rows), DIM))
            weights = np.concatenate(values) * np.repeat(dz_rows, np.concatenate(lengths))
            grad = np.bincount(
                np.concatenate(buckets), np.concatenate([weights, dz_rows]),
                minlength=DIM + 1,
            )
            grad /= len(batch)
            opt.step(params, grad)
        avg = float(np.mean(losses))
        if not math.isfinite(avg):
            raise TrainingDivergedError(f"epoch loss {avg}")
        scorer.epoch_losses.append(avg)
    return scorer, params, train_idx, val_idx


def _finish(scorer: LinearScorer, params: np.ndarray, val_metric: float):
    scorer.weights = params[:-1].copy()
    scorer.bias = float(params[-1])
    scorer.val_metric = val_metric
    return scorer


def _mean_loss(params, samples, indices, loss_fn) -> float:
    losses = [
        loss_fn(_row_logits(params, params[-1], samples[i][0]), samples[i][1])[0]
        for i in indices
    ]
    return float(np.mean(losses)) if len(indices) else 0.0


def _infonce_logits(z, _target):
    """InfoNCE over sigmoid scores; the positive candidate comes first."""
    scores = [sigmoid(v) for v in z]
    loss, (d_pos, d_negs) = infonce_loss(scores[0], scores[1:])
    return loss, [ds * s * (1.0 - s) for s, ds in zip(scores, [d_pos] + d_negs)]


def _mse_logits(z, target):
    s = sigmoid(z[0])
    loss, d_pred = mse_loss(s, target)
    return loss, [d_pred * s * (1.0 - s)]


def _softmax_xent_logits(z, target):
    p = softmax(np.array(z))
    dz = p.copy()
    dz[target] -= 1.0
    return -math.log(max(p[target], 1e-300)), dz


def train_can(samples, config: TrainConfig, env_id: str) -> LinearScorer:
    """InfoNCE training of the feasibility scorer on (pos, neg, neg) triples."""
    data = [
        (featurize(s.goal, s.history, [s.positive, s.neg_same, s.neg_cross]), None)
        for s in samples
    ]
    scorer, params, train_idx, val_idx = _fit(
        "can", env_id, data, config, _infonce_logits
    )
    val_metric = _can_f1(params, data, val_idx)
    # InfoNCE only constrains the ranking, so the sigmoid outputs drift toward
    # zero for every candidate.  Shift the bias (ranking-preserving, hence
    # after the validation metric) so the 20th-percentile training positive
    # lands at ~0.9; nearly all feasible actions then contribute ln p_can near
    # zero while vetoed actions stay strongly negative.
    pos_raws = sorted(_row_logits(params, params[-1], data[i][0])[0] for i in train_idx)
    if pos_raws:
        anchor = pos_raws[len(pos_raws) // 5]
        params[-1] += CAN_CALIBRATION_RAW - anchor
    return _finish(scorer, params, val_metric)


def _can_f1(params, data, val_idx) -> float:
    """F1 where a candidate is predicted positive when it holds at least half
    of its triple's score mass (only the max-scoring candidate can)."""
    tp = fp = fn = 0
    for i in val_idx:
        scores = [sigmoid(z) for z in _row_logits(params, params[-1], data[i][0])]
        total = sum(scores)
        best = max(range(len(scores)), key=lambda j: scores[j])
        if scores[best] / total < 0.5:
            fn += 1
        elif best == 0:
            tp += 1
        else:
            fp += 1
            fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def train_pay(samples, config: TrainConfig, env_id: str) -> LinearScorer:
    """MSE training of the sigmoid-bounded payoff regressor."""
    data = [
        (featurize(s.goal, s.history, [s.action]), s.target)
        for s in samples
    ]
    scorer, params, _, val_idx = _fit("pay", env_id, data, config, _mse_logits)
    return _finish(scorer, params, _mean_loss(params, data, val_idx, _mse_logits))


def train_say(
    trajectories: list[Trajectory], config: TrainConfig, env_id: str, env
) -> SayPolicy:
    """Full-softmax cross-entropy over each episode's vocabulary."""
    data = []  # (vocabulary rows, target index)
    for traj in trajectories:
        vocab = env.admissible_actions(traj.episode)
        text_to_idx = {a.text: i for i, a in enumerate(vocab)}
        history = History(traj.episode.init_obs)
        for action in traj.actions:
            rows = featurize(traj.episode.goal, history, vocab, profile="plain")
            data.append((rows, text_to_idx[action.text]))
            history = history.extended(action)
    scorer, params, _, val_idx = _fit(
        "say", env_id, data, config, _softmax_xent_logits
    )
    return SayPolicy(
        _finish(scorer, params, _mean_loss(params, data, val_idx, _softmax_xent_logits))
    )


def train(model_kind: str, dataset, config: TrainConfig, env_id: str, env=None):
    """Train one scorer; dataset type depends on the kind (samples or trajectories)."""
    if model_kind == "can":
        return train_can(dataset, config, env_id)
    if model_kind == "pay":
        return train_pay(dataset, config, env_id)
    if model_kind == "say":
        return train_say(dataset, config, env_id, env)
    raise ContractError(f"unknown model kind {model_kind!r}")


# ---------------------------------------------------------------------------
# external proposer adapter


def external_say(
    endpoint: str, history: History, goal: GoalSpec, m: int, timeout: float = 10.0
) -> list[tuple[str, float]]:
    """Query a proposer over newline-delimited JSON; returns (text, prob) pairs."""
    host, _, port = endpoint.rpartition(":")
    request = {
        "goal": goal.text,
        "init_obs": history.init_obs,
        "history": [a.text for a in history.actions],
        "m": m,
    }
    try:
        with socket.create_connection((host, int(port)), timeout=timeout) as conn:
            conn.sendall((json.dumps(request) + "\n").encode("utf-8"))
            reply = b""
            while b"\n" not in reply and len(reply) <= MAX_REPLY_BYTES:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                reply += chunk
        line = reply.split(b"\n", 1)[0]
        if len(line) > MAX_REPLY_BYTES:
            raise ValueError(f"reply longer than {MAX_REPLY_BYTES} bytes")
        candidates = json.loads(line)["candidates"]
        if len(candidates) > m:
            raise ValueError(f"{len(candidates)} candidates, at most m={m} allowed")
        out = []
        for cand in candidates:
            if not isinstance(cand["text"], str):
                raise ValueError(f"candidate text is not a string in {cand!r}")
            logprobs = [cand["logprob"], *cand["token_logprobs"]]
            if not all(math.isfinite(lp) and lp <= 0 for lp in logprobs):
                raise ValueError(f"log-probability not finite and <= 0 in {cand!r}")
            out.append((cand["text"], math.exp(cand["logprob"])))
        return out
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise AdapterError(f"adapter at {endpoint!r} failed: {exc}") from exc
