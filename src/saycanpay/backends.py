"""Scorer backends the decoders draw Say proposals and Can/Pay values from."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import ActionInstance, ContractError, History
from .decoding import ROLES, map_to_admissible
from .features import featurize
from .models import LinearScorer, SayPolicy, external_say, perfect_say, say_top_m, sigmoid
from .oracle import DELTA, OracleCan, OraclePay, ReplayCache

SAY_BACKENDS = ("trained", "uniform", "perfect-say", "external")
CAN_BACKENDS = ("trained", "oracle")
PAY_BACKENDS = ("trained", "oracle")


@dataclass(frozen=True)
class BackendChoice:
    """Which scorer implementation fills each of the say/can/pay roles,
    checked once when built; a trained Can or Pay's model is checked by
    `episode_backends`, only for the roles a cell calls."""

    say: str = "trained"
    can: str = "trained"
    pay: str = "trained"
    say_policy: SayPolicy | None = None
    can_model: LinearScorer | None = None
    pay_model: LinearScorer | None = None
    endpoint: str | None = None
    seed: int = 0
    delta: float = DELTA

    def __post_init__(self):
        for role, names in zip(ROLES, (SAY_BACKENDS, CAN_BACKENDS, PAY_BACKENDS)):
            if getattr(self, role) not in names:
                raise ContractError(f"unknown {role} backend {getattr(self, role)!r}")
        if self.say == "trained" and self.say_policy is None:
            raise ContractError("trained say backend needs a policy")
        if self.say == "external" and self.endpoint is None:
            raise ContractError("external say backend needs an endpoint")

    def fingerprint(self) -> str:
        return f"say={self.say},can={self.can},pay={self.pay},seed={self.seed}"


class UniformSay:
    """Uniform proposer over the episode vocabulary."""

    def __init__(self, episode: ReplayCache):
        self.vocab = episode.vocab

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        return say_top_m(self.action_probs(history), self.vocab, m)

    def action_probs(self, history: History) -> np.ndarray:
        return np.full(len(self.vocab), 1.0 / len(self.vocab))


class TrainedSay:
    """Top-m proposals from a trained softmax policy; each distribution is
    kept, read-only, in the episode's `memo` under (scorer, history)."""

    def __init__(self, episode: ReplayCache, policy: SayPolicy):
        policy.scorer.check_env(episode.spec.env_id)
        self.episode = episode
        self.vocab = episode.vocab
        self.policy = policy

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        return say_top_m(self.action_probs(history), self.vocab, m)

    def action_probs(self, history: History) -> np.ndarray:
        memo, key = self.episode.memo, (self.policy.scorer, history)
        if key not in memo:
            probs = self.policy.action_probs(history, self.episode.spec.goal, self.vocab)
            probs.flags.writeable = False
            memo[key] = probs
        return memo[key]


class PerfectSay:
    """Always proposes the oracle-optimal next action among random distractors."""

    def __init__(self, episode: ReplayCache, seed: int = 0):
        self.episode = episode
        self.seed = seed

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        state = self.episode.state_for(history)
        plan = None if state is None else self.episode.plan_from(state)
        if plan is None:
            return []
        episode_id = self.episode.spec.episode_id
        step_seed = _stable_seed(episode_id, self.seed, len(history.actions))
        return perfect_say(plan[0], self.episode.vocab, m, step_seed)


class ExternalSay:
    """Free-form proposals from a remote adapter, mapped to the vocabulary."""

    def __init__(self, episode: ReplayCache, endpoint: str):
        self.episode = episode
        self.endpoint = endpoint

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        vocab = self.episode.vocab
        responses = external_say(self.endpoint, history, self.episode.spec.goal, m)
        return [(map_to_admissible(text, vocab), prob) for text, prob in responses]


class TrainedCan:
    """Trained Can (or Pay): the scores of one candidate list are kept in the
    episode's `memo` under (model, history, candidates), and the `featurize`
    rows they come from under (profile, history, candidates), so the trained
    Can and Pay of one expansion share their rows."""

    def __init__(self, episode: ReplayCache, model: LinearScorer):
        model.check_env(episode.spec.env_id)
        self.episode = episode
        self.model = model

    def __call__(self, history: History, actions: list[ActionInstance]) -> tuple[float, ...]:
        memo, candidates = self.episode.memo, tuple(actions)
        key = (self.model, history, candidates)
        if key not in memo:
            profile = self.model.profile
            rows = memo.get((profile, history, candidates))
            if rows is None:
                rows = featurize(self.episode.spec.goal, history, actions, profile)
                memo[profile, history, candidates] = rows
            memo[key] = tuple(map(sigmoid, self.model.logits(rows)))
        return memo[key]


class TrainedPay(TrainedCan):
    # perfbench's tracer wraps `cls.__dict__["__call__"]` per role, so the Pay
    # role keeps a `__call__` of its own.
    __call__ = TrainedCan.__call__


def _stable_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def episode_backends(
    choice: BackendChoice, episode: ReplayCache, roles: tuple[str, ...] = ROLES
):
    """The (say, can, pay) scorers of `roles` for one episode, None for a
    role outside them; every scorer reads the episode's one cache. A
    trained Can or Pay in `roles` without its model is a ContractError."""
    if choice.say == "uniform":
        say = UniformSay(episode)
    elif choice.say == "perfect-say":
        say = PerfectSay(episode, choice.seed)
    elif choice.say == "trained":
        say = TrainedSay(episode, choice.say_policy)
    else:
        say = ExternalSay(episode, choice.endpoint)
    can = pay = None
    if "can" in roles:
        if choice.can == "oracle":
            can = OracleCan(episode)
        elif choice.can_model is None:
            raise ContractError("trained can backend needs a model")
        else:
            can = TrainedCan(episode, choice.can_model)
    if "pay" in roles:
        if choice.pay == "oracle":
            pay = OraclePay(episode, choice.delta)
        elif choice.pay_model is None:
            raise ContractError("trained pay backend needs a model")
        else:
            pay = TrainedPay(episode, choice.pay_model)
    return say, can, pay
