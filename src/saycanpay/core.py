"""Shared planning types and the log-score algebra used by every decoder.

Everything here is a pure value or a pure function, so it is safe to share
across any number of worker processes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

CLAMP_EPS = 1e-9
SCORE_MODES = ("say", "saycan", "saycanpay")


class ContractError(ValueError):
    """An argument violated a documented precondition."""


class InfeasibleActionError(RuntimeError):
    """Raised when an action is applied in a state where its precondition fails."""

    def __init__(self, action_text: str, condition: str):
        super().__init__(f"action {action_text!r} infeasible: {condition}")
        self.action_text = action_text
        self.condition = condition


class UnsolvableError(RuntimeError):
    """No plan exists within the episode step budget."""


class AdapterError(RuntimeError):
    """The external action-proposal adapter failed or returned garbage."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


class ModelFileError(RuntimeError):
    """A saved model file is malformed or is not the model that was asked for."""


class DataFileError(RuntimeError):
    """A trajectory (split) file is empty or holds a malformed line."""


@dataclass(frozen=True)
class GoalSpec:
    """A goal as natural language plus an environment-interpretable predicate."""

    text: str
    predicate: tuple[str, ...]

    def __post_init__(self):
        if not self.text:
            raise ContractError("goal text must be non-empty")
        if not self.predicate:
            raise ContractError("goal predicate must be non-empty")


@dataclass(frozen=True)
class ActionInstance:
    """One action as text, token sequence, and symbolic operator."""

    text: str
    tokens: tuple[str, ...]
    op: tuple[str, ...]
    is_done: bool = False

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise ContractError("action must have at least one token")
        if " ".join(self.tokens) != self.text:
            raise ContractError(
                f"tokens {self.tokens!r} do not join to text {self.text!r}"
            )

    @classmethod
    def from_text(cls, text: str, op: tuple[str, ...], is_done: bool = False):
        return cls(text=text, tokens=tuple(text.split()), op=op, is_done=is_done)


@dataclass(frozen=True)
class History:
    """Initial observation plus the ordered actions executed so far."""

    init_obs: str
    actions: tuple[ActionInstance, ...] = ()

    def extended(self, action: ActionInstance) -> "History":
        return History(self.init_obs, self.actions + (action,))

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate action with its say/can/pay values and combined log-score."""

    action: ActionInstance
    p_say: float
    p_can: float
    f_pay: float
    step_log_score: float


def _check_prob(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ContractError(f"{name}={value!r} outside [0, 1]")


def clamp(p: float) -> float:
    """Floor a probability at CLAMP_EPS so its log stays finite."""
    return max(p, CLAMP_EPS)


def decode_score(p_say: float, p_can: float, f_pay: float, mode: str) -> float:
    """Combined log-score of a candidate under the given scoring mode.

    say:       ln(p_say)
    saycan:    ln(p_say * p_can)
    saycanpay: ln(p_say * p_can * f_pay)

    The product is clamped at CLAMP_EPS before the log.
    """
    _check_prob("p_say", p_say)
    _check_prob("p_can", p_can)
    _check_prob("f_pay", f_pay)
    if mode == "say":
        product = p_say
    elif mode == "saycan":
        product = p_say * p_can
    elif mode == "saycanpay":
        product = p_say * p_can * f_pay
    else:
        raise ContractError(f"unknown score mode {mode!r}")
    return math.log(clamp(product))


def accumulate(f_acc: float, step_log_score: float) -> float:
    """Extend an accumulated log-score by one step."""
    if not (math.isfinite(f_acc) and math.isfinite(step_log_score)):
        raise ContractError("accumulate requires finite inputs")
    return f_acc + step_log_score


def length_normalize(f_acc: float, plan_length: int) -> float:
    """Average log-score per action, used to compare beams of unequal length."""
    if plan_length < 1:
        raise ContractError("plan_length must be >= 1")
    return f_acc / plan_length


def action_log_prob(token_probs: list[float]) -> float:
    """Log-probability of an action from its per-token probabilities."""
    if not token_probs:
        raise ContractError("token_probs must be non-empty")
    total = 0.0
    for p in token_probs:
        if not (0.0 <= p <= 1.0):
            raise ContractError(f"token probability {p!r} outside [0, 1]")
        if p == 0.0:
            warnings.warn("zero token probability clamped", RuntimeWarning)
            p = CLAMP_EPS
        total += math.log(p)
    return total
