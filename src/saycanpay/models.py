"""Trainable scorers over hashed features: losses, AdamW, persistence, adapters."""

from __future__ import annotations

import json
import math
import socket
from dataclasses import asdict, dataclass
from itertools import accumulate, groupby
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
from .features import DIM, HASH_SEED, PROFILES, SCALES, featurize
from .oracle import Trajectory

MODEL_KINDS = ("can", "pay", "say")
# Each kind's head, for training and for every loaded model file: Can and Pay
# give each candidate its own sigmoid score, Say a softmax over the vocabulary.
HEADS = {"can": "sigmoid", "pay": "sigmoid", "say": "softmax"}
# Each kind's feature profile: the policy keeps the lighter one so its softmax
# stays soft enough to surface several plausible candidates; the feasibility
# and payoff scorers use the full crosses.
FEATURE_PROFILES = {"can": "full", "pay": "full", "say": "plain"}
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
    """Squared error and its gradient with respect to the prediction(s)."""
    diff = pred - target
    return diff * diff, 2.0 * diff


class AdamW:
    """Decoupled weight decay Adam over a flat parameter vector, updated in
    place through two scratch arrays in the textbook order of operations."""

    def __init__(self, n_params: int, lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 decay_mask: np.ndarray | None = None):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = np.zeros(n_params), np.zeros(n_params), 0
        mask = np.ones(n_params) if decay_mask is None else decay_mask.astype(float)
        self.decay = weight_decay * mask
        self._a, self._b = np.empty(n_params), np.empty(n_params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        a, b = self._a, self._b
        self.m *= self.beta1  # m = beta1 * m + (1 - beta1) * grad
        self.m += np.multiply(1 - self.beta1, grad, out=a)
        self.v *= self.beta2  # v = beta2 * v + (1 - beta2) * grad * grad
        self.v += np.multiply(np.multiply(1 - self.beta2, grad, out=a), grad, out=a)
        np.divide(self.m, 1 - self.beta1**self.t, out=a)  # m_hat
        np.divide(self.v, 1 - self.beta2**self.t, out=b)  # v_hat
        a /= np.add(np.sqrt(b, out=b), self.eps, out=b)
        a += np.multiply(self.decay, params, out=b)
        params -= np.multiply(self.lr, a, out=a)


class LinearScorer:
    """Linear model over hashed features with a sigmoid or softmax head."""

    def __init__(self, kind: str, env: str, head: str,
                 config: dict | None = None, profile: str | None = None):
        if kind not in MODEL_KINDS:
            raise ContractError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.env = env
        self.head = head
        self.profile = profile or FEATURE_PROFILES[kind]
        self.config = config or {}
        self.weights = np.zeros(DIM)
        self.bias = 0.0
        self.val_metric: float | None = None
        self.epoch_losses: list[float] = []
        self.n_samples = 0  # training samples (train and validation) seen by `train`

    def logits(self, rows) -> list[float]:
        """Raw score of each CSR row `(indptr, indices, values)` of `featurize`."""
        indptr, indices, values = rows
        return _row_dots(self.weights[indices], values, indptr.tolist(), self.bias)

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
            fh.write(json.dumps(payload))  # one C-encoder pass; json.dump's is Python

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
            scorer.val_metric = metric = payload["val_metric"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFileError(f"malformed model file {path}: {exc}") from exc
        if dim != DIM or scorer.weights.shape != (DIM,):
            problem = f"dim {dim} with {scorer.weights.size} weights, need {DIM}"
        elif hash_seed != HASH_SEED:
            problem = f"hash seed {hash_seed}, need {HASH_SEED}"
        elif not (np.isfinite(scorer.weights).all() and math.isfinite(scorer.bias)):
            problem = "non-finite weights or bias"
        elif type(payload["bias"]) not in (int, float):  # float() takes bools and strings
            problem = f"bias {payload['bias']!r}, need a number"
        elif metric is not None and not (type(metric) in (int, float) and math.isfinite(metric)):
            problem = f"val_metric {metric!r}, need a finite number or null"
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


def _row_dots(gathered: np.ndarray, values: np.ndarray, bounds: list[int], bias):
    """Raw score of each row [s, e) of `bounds`: one BLAS ddot per row, whose
    rounding trained models depend on, so no vectorized call sums the rows."""
    return [
        float(gathered[s:e].dot(values[s:e])) + bias
        for s, e in zip(bounds, bounds[1:])
    ]


def _compact(rows, scale: float):
    """`featurize` rows as training stores them: (row lengths, int16 buckets,
    uint8 counts), 3 bytes per nonzero.  Each value is its count times the
    profile's power-of-two `scale`, so `count * scale` gives it back exactly;
    a bucket beyond int16 or a value that is not such a count is refused
    before either cast."""
    indptr, indices, values = rows
    counts = values / scale
    if not ((indices >= 0) & (indices < 2**15) & (counts >= 0) & (counts <= 255)
            & (counts == np.floor(counts))).all():
        raise ContractError("training rows need int16 buckets and counts of at most 255")
    return np.diff(indptr), indices.astype(np.int16), counts.astype(np.uint8)


def _split_train_val(n: int, val_fraction: float, rng: np.random.Generator):
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction))) if n > 1 else 0
    return order[n_val:], order[:n_val]


def _fit(kind: str, env_id: str, samples, config: TrainConfig, loss_fn):
    """Minibatch AdamW over (compact candidate rows, target) samples.

    `loss_fn(z, cuts, targets) -> (losses, dz)` takes a minibatch's flat raw
    scores, each sample's cuts into them and the targets.  The gradient is one
    `bincount` over the batch's (sample, row)-ordered buckets; the bias's is
    `np.cumsum(dz)[-1]`, sequential like bincount (builtin `sum` is compensated
    from CPython 3.12 on, `np.sum` pairwise).  It trains over the `active`
    buckets some sample holds, renumbered in place: any other weight gets no
    gradient and stays +0.0 under AdamW.  Returns the trained scorer (epoch
    losses filled in), `minibatches` and the train/validation indices.
    """
    if not samples:
        raise ContractError("empty dataset")
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = _split_train_val(len(samples), config.val_fraction, rng)
    held = np.zeros(DIM, bool)
    for rows, _ in samples:
        held[rows[1]] = True
    active = np.flatnonzero(held)
    renumber = np.zeros(DIM, np.int16)  # len(active) <= DIM = 2**14 fits int16
    renumber[active] = np.arange(len(active))
    for rows, _ in samples:
        rows[1][:] = renumber[rows[1]]
    n_params = len(active) + 1  # the bias last
    params = np.zeros(n_params)
    opt = AdamW(n_params, config.lr, config.weight_decay,
                decay_mask=np.arange(n_params) < len(active))  # no decay on the bias
    scorer = LinearScorer(kind, env_id, head=HEADS[kind], config=config.to_json())
    scorer.n_samples = len(samples)
    scale = SCALES[scorer.profile]
    # One reused buffer per nonzero field: fresh ones would fault in new pages
    cap = sum(sorted(len(rows[1]) for rows, _ in samples)[-config.batch_size :])
    scratch = np.empty(cap, np.intp), np.empty(cap), np.empty(cap)

    def minibatches(indices):
        """Each minibatch's raw scores (flat, in (sample, row) order), sample
        cuts and targets, and its rows' lengths, buckets and values, assembled
        once: buckets widened to intp once for the gather and the bincount,
        counts to float64 and times the scale (exact) for the dots."""
        for s in range(0, len(indices), config.batch_size):
            batch = [samples[i] for i in indices[s : s + config.batch_size].tolist()]
            lengths = np.concatenate([rows[0] for rows, _ in batch])
            bounds = [0, *accumulate(lengths.tolist())]
            buckets, values, gathered = (a[: bounds[-1]] for a in scratch)
            np.concatenate([rows[1] for rows, _ in batch], out=buckets)
            np.concatenate([rows[2] for rows, _ in batch], out=values)
            values *= scale
            params.take(buckets, out=gathered, mode="clip")  # in range; "raise" copies
            z = _row_dots(gathered, values, bounds, float(params[-1]))
            cuts = [0, *accumulate(len(rows[0]) for rows, _ in batch)]
            yield z, cuts, [target for _, target in batch], lengths, buckets, values

    for _ in range(config.epochs):
        losses = []
        batches = minibatches(rng.permutation(train_idx))
        for z, cuts, targets, lengths, buckets, values in batches:
            batch_losses, dz = loss_fn(z, cuts, targets)
            losses += batch_losses
            weights = np.repeat(dz, lengths)
            grad = np.bincount(buckets, np.multiply(weights, values, out=weights),
                               minlength=n_params)
            grad[-1] = np.cumsum(dz)[-1]
            grad /= len(targets)
            opt.step(params, grad)
        avg = float(np.mean(losses))
        if not math.isfinite(avg):
            raise TrainingDivergedError(f"epoch loss {avg}")
        scorer.epoch_losses.append(avg)
    scorer.weights[active], scorer.bias = params[:-1], float(params[-1])
    return scorer, minibatches, train_idx, val_idx


def _infonce_logits(z, cuts, _targets):
    """InfoNCE over each sample's sigmoid scores, its positive candidate first."""
    scores = [sigmoid(v) for v in z]
    out = [infonce_loss(scores[a], scores[a + 1 : b]) for a, b in zip(cuts, cuts[1:])]
    d_scores = [d for _, (d_pos, d_negs) in out for d in (d_pos, *d_negs)]
    s = np.array(scores)
    return [loss for loss, _ in out], np.array(d_scores) * s * (1.0 - s)


def _mse_logits(z, _cuts, targets):
    """`mse_loss` of each sample's one sigmoid score, over the batch's arrays."""
    s = np.array([sigmoid(v) for v in z])
    losses, d_pred = mse_loss(s, np.array(targets, dtype=float))
    return losses.tolist(), d_pred * s * (1.0 - s)


def _softmax_xent_logits(z, cuts, targets):
    """Each sample's softmax cross-entropy: one max, exp and division for the
    batch, but a pairwise `e.sum()` per sample, as `np.add.reduceat` is not."""
    z, lengths, starts = np.array(z), np.diff(cuts), np.array(cuts[:-1])
    e = np.exp(z - np.repeat(np.maximum.reduceat(z, starts), lengths))
    p = e / np.repeat([e[a:b].sum() for a, b in zip(cuts, cuts[1:])], lengths)
    hits = starts + targets
    losses = [-math.log(max(q, 1e-300)) for q in p[hits].tolist()]
    p[hits] -= 1.0
    return losses, p


def _can_f1(logits) -> float:
    """F1 over the validation triples' raw scores, where a candidate is
    predicted positive when it holds at least half of its triple's score mass
    (only the max-scoring candidate can)."""
    tp = fp = fn = 0
    for z in logits:
        scores = [sigmoid(v) for v in z]
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


def _say_samples(trajectories: list[Trajectory], env, profile: str):
    """(compact vocabulary rows, target index) of each expert step."""
    for traj in trajectories:
        vocab = env.admissible_actions(traj.episode)
        text_to_idx = {a.text: i for i, a in enumerate(vocab)}
        history = History(traj.episode.init_obs)
        for action in traj.actions:
            rows = featurize(traj.episode.goal, history, vocab, profile)
            yield _compact(rows, SCALES[profile]), text_to_idx[action.text]
            history = history.extended(action)


def train(model_kind: str, dataset, config: TrainConfig, env_id: str, env=None):
    """Train one scorer: Can by InfoNCE over (pos, neg, neg) triples of Can
    samples, Pay by the MSE of its sigmoid-bounded payoff over Pay samples,
    and Say (a SayPolicy) by full-softmax cross-entropy over each episode's
    vocabulary along the `dataset` trajectories.  Each sample's `featurize`
    rows are narrowed by `_compact` as soon as they are built."""
    if model_kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind {model_kind!r}")
    profile = FEATURE_PROFILES[model_kind]
    scale = SCALES[profile]
    if model_kind == "can":
        data = [
            (_compact(featurize(s.goal, s.history, [s.positive, s.neg_same, s.neg_cross],
                                profile), scale), None)
            for s in dataset
        ]
        loss_fn = _infonce_logits
    elif model_kind == "pay":
        # An expert step's samples (its action and a zero-target negative)
        # share a goal and a history: one `featurize` call, split by row
        data = []
        for (goal, history), run in groupby(dataset, key=lambda s: (s.goal, s.history)):
            run = list(run)
            rows = featurize(goal, history, [s.action for s in run], profile)
            lengths, buckets, counts = _compact(rows, scale)
            bounds = [0, *accumulate(lengths.tolist())]
            data += [((lengths[r : r + 1], buckets[a:b], counts[a:b]), s.target)
                     for r, (s, a, b) in enumerate(zip(run, bounds, bounds[1:]))]
        loss_fn = _mse_logits
    else:
        data = list(_say_samples(dataset, env, profile))
        loss_fn = _softmax_xent_logits
    scorer, batches, train_idx, val_idx = _fit(model_kind, env_id, data, config, loss_fn)
    if model_kind == "can":
        scorer.val_metric = _can_f1([z[a:b] for z, cuts, *_ in batches(val_idx)
                                     for a, b in zip(cuts, cuts[1:])])
        # InfoNCE only constrains the ranking, so the sigmoid outputs drift
        # toward zero for every candidate.  Shift the bias (ranking-preserving,
        # hence after the validation metric) so the 20th-percentile training
        # positive lands at ~0.9; nearly all feasible actions then contribute
        # ln p_can near zero while vetoed actions stay strongly negative.
        pos_raws = sorted(z[a] for z, cuts, *_ in batches(train_idx) for a in cuts[:-1])
        if pos_raws:
            scorer.bias += CAN_CALIBRATION_RAW - pos_raws[len(pos_raws) // 5]
    else:
        losses = [loss for z, cuts, targets, *_ in batches(val_idx)
                  for loss in loss_fn(z, cuts, targets)[0]]
        scorer.val_metric = float(np.mean(losses)) if len(val_idx) else 0.0
    return SayPolicy(scorer) if model_kind == "say" else scorer


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
