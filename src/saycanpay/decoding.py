"""Search over actions: greedy-token, greedy-action, and beam-action decoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (
    ActionInstance,
    ContractError,
    History,
    ScoredCandidate,
    accumulate,
    clamp,
    decode_score,
    length_normalize,
)
from .envs import EpisodeSpec
from .trie import TokenTrie

STRATEGIES = ("greedy-token", "greedy-action", "beam-action")


@dataclass(frozen=True)
class DecodingConfig:
    strategy: str = "beam-action"
    score_mode: str = "saycanpay"
    m: int = 6
    k: int = 3

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy {self.strategy!r}")
        if not 1 <= self.k <= self.m:
            raise ContractError("beam count k must satisfy 1 <= k <= m")


@dataclass(frozen=True)
class PlanResult:
    plan: tuple[ActionInstance, ...]
    per_step: tuple[ScoredCandidate, ...]
    final_score: float
    terminated_by: str  # "done" or "step-limit"


def word_edit_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance over word sequences."""
    prev = list(range(len(b) + 1))
    for i, wa in enumerate(a, start=1):
        cur = [i]
        for j, wb in enumerate(b, start=1):
            cost = 0 if wa == wb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def map_to_admissible(text: str, vocab: list[ActionInstance]) -> ActionInstance:
    """Closest vocabulary action by word-level edit distance; ties lexicographic."""
    if not vocab:
        raise ContractError("vocab must be non-empty")
    words = text.lower().split()
    return min(vocab, key=lambda a: (word_edit_distance(words, list(a.tokens)), a.text))


def expand_candidates(
    say, can, pay, history: History, config: DecodingConfig
) -> list[ScoredCandidate]:
    """Propose, merge duplicates (max p_say), and score the m candidates:
    Can and Pay each score the sorted list once, when the score mode uses them."""
    merged: dict[str, tuple[ActionInstance, float]] = {}
    for action, p_say in say.propose(history, config.m):
        p_say = min(max(p_say, 0.0), 1.0)
        kept = merged.get(action.text)
        if kept is None or p_say > kept[1]:
            merged[action.text] = (action, p_say)
    if not merged:
        return []
    listed = [merged[text] for text in sorted(merged)]
    actions = [action for action, _ in listed]
    ones = [1.0] * len(actions)
    p_cans = can(history, actions) if config.score_mode != "say" else ones
    f_pays = pay(history, actions) if config.score_mode == "saycanpay" else ones
    return [
        ScoredCandidate(
            action=action,
            p_say=p_say,
            p_can=p_can,
            f_pay=f_pay,
            step_log_score=decode_score(p_say, p_can, f_pay, config.score_mode),
        )
        for (action, p_say), p_can, f_pay in zip(listed, p_cans, f_pays, strict=True)
    ]


def _plan_result(
    per_step: tuple[ScoredCandidate, ...], f_acc: float, terminated_by: str
) -> PlanResult:
    """The plan of the chosen candidates, scored by its length-normalized sum."""
    plan = tuple(c.action for c in per_step)
    final = length_normalize(f_acc, len(plan)) if plan else -math.inf
    return PlanResult(
        plan=plan,
        per_step=per_step,
        final_score=final,
        terminated_by=terminated_by if plan else "step-limit",
    )


@dataclass(frozen=True)
class _BeamState:
    history: History
    f_acc: float
    per_step: tuple[ScoredCandidate, ...]
    terminated: bool
    terminated_by: str = "step-limit"

    def norm_score(self) -> float:
        n = len(self.history.actions)
        return length_normalize(self.f_acc, n) if n else 0.0

    def sort_key(self):
        # Highest length-normalized score; ties broken lexicographically.
        return (-self.norm_score(), tuple(a.text for a in self.history.actions))


def beam_action(
    say, can, pay, episode: EpisodeSpec, config: DecodingConfig
) -> PlanResult:
    """Maintain k beams ranked by length-normalized accumulated log-score,
    for at most the episode's `max_steps` steps.

    Terminated beams are not expanded but keep competing at their frozen
    normalized score.  A terminated beam that makes the top-k also enters a
    finished pool that later pruning cannot touch; the winner is the pool beam
    with the highest normalized score.

    A beam whose best-scored candidate is the done action takes it without
    branching into siblings -- exactly the choice greedy would make.  This
    makes k=1 the greedy search and stops finished plans from being diluted
    by padded copies, whose extra cheap steps would raise the mean.  Siblings
    are ranked by their normalized sums, so two step scores closer than the
    sum's rounding error tie and fall to the lexicographic order.
    """
    beams = [
        _BeamState(
            history=History(episode.init_obs), f_acc=0.0, per_step=(), terminated=False
        )
    ]
    finished: list[_BeamState] = []
    for step in range(episode.max_steps):
        if all(b.terminated for b in beams):
            break
        extensions: list[_BeamState] = []
        for beam in beams:
            if beam.terminated:
                extensions.append(beam)
                continue
            candidates = expand_candidates(say, can, pay, beam.history, config)
            if not candidates:
                extensions.append(replace(beam, terminated=True))
                continue
            best_cand = min(candidates, key=lambda c: (-c.step_log_score, c.action.text))
            if best_cand.action.is_done:
                candidates = [best_cand]
            for cand in candidates:
                done = cand.action.is_done
                at_limit = step + 1 >= episode.max_steps
                extensions.append(
                    _BeamState(
                        history=beam.history.extended(cand.action),
                        f_acc=accumulate(beam.f_acc, cand.step_log_score),
                        per_step=beam.per_step + (cand,),
                        terminated=done or at_limit,
                        terminated_by="done" if done else "step-limit",
                    )
                )
        beams = sorted(extensions, key=_BeamState.sort_key)[: config.k]
        seen = {id(b) for b in finished}
        finished.extend(b for b in beams if b.terminated and id(b) not in seen)
    best = min(finished or beams, key=_BeamState.sort_key)
    return _plan_result(best.per_step, best.f_acc, best.terminated_by)


def greedy_action(
    say, can, pay, episode: EpisodeSpec, config: DecodingConfig
) -> PlanResult:
    """Pick the argmax-scored candidate at every step: beam search with k=1."""
    return beam_action(say, can, pay, episode, replace(config, k=1))


def greedy_token(say, episode: EpisodeSpec, config: DecodingConfig) -> PlanResult:
    """Token-level argmax decoding over the trie of the Say backend's
    vocabulary, which must expose its full distribution (`action_probs`)."""
    if not hasattr(say, "action_probs"):
        raise ContractError(
            f"strategy greedy-token needs a Say backend with a full action "
            f"distribution; {type(say).__name__} has none"
        )
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
    return _plan_result(tuple(per_step), f_acc, terminated_by)


def run_strategy(
    episode: EpisodeSpec,
    config: DecodingConfig,
    say,
    can=None,
    pay=None,
) -> PlanResult:
    """Dispatch on config.strategy; `can` and `pay` may be None where the
    strategy or score mode never calls them."""
    if config.strategy == "greedy-token":
        return greedy_token(say, episode, config)
    if config.strategy == "greedy-action":
        return greedy_action(say, can, pay, episode, config)
    return beam_action(say, can, pay, episode, config)
