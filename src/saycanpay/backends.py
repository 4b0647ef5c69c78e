"""Scorer backends the decoders draw Say proposals and Can/Pay values from."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import ActionInstance, ContractError, History
from .decoding import map_to_admissible
from .envs import Environment, EpisodeSpec
from .features import featurize
from .models import LinearScorer, SayPolicy, external_say, perfect_say, say_top_m, sigmoid
from .oracle import DELTA, OracleCan, OraclePay, ReplayCache

SAY_BACKENDS = ("trained", "uniform", "perfect-say", "external")
CAN_BACKENDS = ("trained", "oracle")
PAY_BACKENDS = ("trained", "oracle")


@dataclass(frozen=True)
class BackendChoice:
    """Which scorer implementation fills each of the say/can/pay roles."""

    say: str = "trained"
    can: str = "trained"
    pay: str = "trained"
    say_policy: SayPolicy | None = None
    can_model: LinearScorer | None = None
    pay_model: LinearScorer | None = None
    endpoint: str | None = None
    seed: int = 0
    delta: float = DELTA

    def fingerprint(self) -> str:
        return f"say={self.say},can={self.can},pay={self.pay},seed={self.seed}"


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
    """Top-m proposals from a trained softmax policy; each distribution is
    kept, read-only, in the episode's score `table` under (scorer, history)."""

    def __init__(self, env: Environment, spec: EpisodeSpec, policy: SayPolicy,
                 table: dict | None = None):
        policy.scorer.check_env(spec.env_id)
        self.vocab = env.admissible_actions(spec)
        self.goal = spec.goal
        self.policy = policy
        self.table = {} if table is None else table

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        return say_top_m(self.action_probs(history), self.vocab, m)

    def action_probs(self, history: History) -> np.ndarray:
        key = (self.policy.scorer, history)
        if key not in self.table:
            probs = self.policy.action_probs(history, self.goal, self.vocab)
            probs.flags.writeable = False
            self.table[key] = probs
        return self.table[key]


class PerfectSay:
    """Always proposes the oracle-optimal next action among random distractors."""

    def __init__(self, oracle: ReplayCache, seed: int = 0):
        self.oracle = oracle
        self.vocab = oracle.env.admissible_actions(oracle.spec)
        self.seed = seed

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        state = self.oracle.state_for(history)
        plan = None if state is None else self.oracle.plan_from(state)
        if plan is None:
            return []
        episode_id = self.oracle.spec.episode_id
        step_seed = _stable_seed(episode_id, self.seed, len(history.actions))
        return perfect_say(plan[0], self.vocab, m, step_seed)


class ExternalSay:
    """Free-form proposals from a remote adapter, mapped to the vocabulary."""

    def __init__(self, env: Environment, spec: EpisodeSpec, endpoint: str):
        self.vocab = env.admissible_actions(spec)
        self.goal = spec.goal
        self.endpoint = endpoint

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        responses = external_say(self.endpoint, history, self.goal, m)
        return [(map_to_admissible(text, self.vocab), prob) for text, prob in responses]


class TrainedCan:
    """Trained Can (or Pay): the scores of one candidate list are kept in the
    episode's score `table` under (model, history, candidates), and the
    `featurize` rows they come from under (profile, history, candidates), so
    the trained Can and Pay of one expansion share their rows."""

    def __init__(self, spec: EpisodeSpec, model: LinearScorer, table: dict | None = None):
        model.check_env(spec.env_id)
        self.goal = spec.goal
        self.model = model
        self.table = {} if table is None else table

    def __call__(self, history: History, actions: list[ActionInstance]) -> tuple[float, ...]:
        candidates = tuple(actions)
        key = (self.model, history, candidates)
        if key not in self.table:
            profile = self.model.profile
            rows = self.table.get((profile, history, candidates))
            if rows is None:
                rows = featurize(self.goal, history, actions, profile)
                self.table[profile, history, candidates] = rows
            self.table[key] = tuple(map(sigmoid, self.model.logits(rows)))
        return self.table[key]


class TrainedPay(TrainedCan):
    # perfbench's tracer wraps `cls.__dict__["__call__"]` per role, so the Pay
    # role keeps a `__call__` of its own.
    __call__ = TrainedCan.__call__


def _stable_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def episode_backends(
    choice: BackendChoice, env: Environment, spec: EpisodeSpec, table: dict | None = None
):
    """The (say, can, pay) scorers for one episode; the oracle roles share
    one ReplayCache, and the trained roles the episode's score `table` (a
    new one when None)."""
    for role, names in (
        ("say", SAY_BACKENDS), ("can", CAN_BACKENDS), ("pay", PAY_BACKENDS)
    ):
        if getattr(choice, role) not in names:
            raise ContractError(f"unknown {role} backend {getattr(choice, role)!r}")
    oracle = ReplayCache(env, spec)
    table = {} if table is None else table
    if choice.say == "uniform":
        say = UniformSay(env, spec)
    elif choice.say == "perfect-say":
        say = PerfectSay(oracle, choice.seed)
    elif choice.say == "trained":
        if choice.say_policy is None:
            raise ContractError("trained say backend needs a policy")
        say = TrainedSay(env, spec, choice.say_policy, table)
    else:
        if choice.endpoint is None:
            raise ContractError("external say backend needs an endpoint")
        say = ExternalSay(env, spec, choice.endpoint)
    if choice.can == "oracle":
        can = OracleCan(oracle)
    elif choice.can_model is None:
        raise ContractError("trained can backend needs a model")
    else:
        can = TrainedCan(spec, choice.can_model, table)
    if choice.pay == "oracle":
        pay = OraclePay(oracle, choice.delta)
    elif choice.pay_model is None:
        raise ContractError("trained pay backend needs a model")
    else:
        pay = TrainedPay(spec, choice.pay_model, table)
    return say, can, pay
