"""Scorer backends the decoders draw Say proposals and Can/Pay values from."""

from __future__ import annotations

import hashlib

import numpy as np

from .core import ActionInstance, ContractError, History
from .envs import Environment, EpisodeSpec, breadth_first_plan
from .models import SayPolicy, external_say, perfect_say, say_top_m
from .oracle import DELTA, OracleCan, OraclePay, ReplayCache

SAY_BACKENDS = ("trained", "uniform", "perfect-say", "external")
CAN_BACKENDS = ("trained", "oracle")
PAY_BACKENDS = ("trained", "oracle")


class UniformSay:
    """Uniform proposer over the episode vocabulary."""

    def __init__(self, env: Environment, spec: EpisodeSpec):
        self.vocab = env.admissible_actions(spec)

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        m = min(m, len(self.vocab))
        p = 1.0 / len(self.vocab)
        return [(a, p) for a in self.vocab[:m]]

    def action_probs(self, history: History) -> np.ndarray:
        return np.full(len(self.vocab), 1.0 / len(self.vocab))


class TrainedSay:
    """Top-m proposals from a trained softmax policy."""

    def __init__(self, env: Environment, spec: EpisodeSpec, policy: SayPolicy):
        policy.scorer.check_env(spec.env_id)
        self.vocab = env.admissible_actions(spec)
        self.goal = spec.goal
        self.policy = policy

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        return say_top_m(self.policy, history, self.goal, self.vocab, m)

    def action_probs(self, history: History) -> np.ndarray:
        return self.policy.action_probs(history, self.goal, self.vocab)


class PerfectSay:
    """Always proposes the oracle-optimal next action among random distractors."""

    def __init__(self, env: Environment, spec: EpisodeSpec, seed: int = 0):
        self.env = env
        self.spec = spec
        self.vocab = env.admissible_actions(spec)
        self.seed = seed
        self.replay = ReplayCache(env, spec)

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        state = self.replay.state_for(history)
        if state is None:
            return []
        plan = breadth_first_plan(self.env, self.spec, start_state=state)
        if plan is None:
            return []
        step_seed = _stable_seed(self.spec.episode_id, self.seed, len(history.actions))
        return perfect_say(plan[0], self.vocab, m, step_seed)


class ExternalSay:
    """Free-form proposals from a remote adapter, mapped to the vocabulary."""

    def __init__(self, env: Environment, spec: EpisodeSpec, endpoint: str):
        from .decoding import map_to_admissible

        self.vocab = env.admissible_actions(spec)
        self.goal = spec.goal
        self.endpoint = endpoint
        self._map = map_to_admissible

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        responses = external_say(self.endpoint, history, self.goal, m)
        return [(self._map(text, self.vocab), prob) for text, prob, _ in responses]


class TrainedCan:
    def __init__(self, spec: EpisodeSpec, model):
        model.check_env(spec.env_id)
        self.goal = spec.goal
        self.model = model

    def __call__(self, history: History, action: ActionInstance) -> float:
        return self.model.score(self.goal, history, action)


class TrainedPay:
    def __init__(self, spec: EpisodeSpec, model):
        model.check_env(spec.env_id)
        self.goal = spec.goal
        self.model = model

    def __call__(self, history: History, action: ActionInstance) -> float:
        return self.model.score(self.goal, history, action)


def _stable_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_say_backend(
    name: str,
    env: Environment,
    spec: EpisodeSpec,
    policy: SayPolicy | None = None,
    endpoint: str | None = None,
    seed: int = 0,
):
    if name == "uniform":
        return UniformSay(env, spec)
    if name == "trained":
        if policy is None:
            raise ContractError("trained say backend needs a policy")
        return TrainedSay(env, spec, policy)
    if name == "perfect-say":
        return PerfectSay(env, spec, seed)
    if name == "external":
        if endpoint is None:
            raise ContractError("external say backend needs an endpoint")
        return ExternalSay(env, spec, endpoint)
    raise ContractError(f"unknown say backend {name!r}")


def make_can_backend(name: str, env: Environment, spec: EpisodeSpec, model=None):
    if name == "oracle":
        return OracleCan(env, spec)
    if name == "trained":
        if model is None:
            raise ContractError("trained can backend needs a model")
        return TrainedCan(spec, model)
    raise ContractError(f"unknown can backend {name!r}")


def make_pay_backend(
    name: str, env: Environment, spec: EpisodeSpec, model=None, delta: float = DELTA
):
    if name == "oracle":
        return OraclePay(env, spec, delta)
    if name == "trained":
        if model is None:
            raise ContractError("trained pay backend needs a model")
        return TrainedPay(spec, model)
    raise ContractError(f"unknown pay backend {name!r}")
