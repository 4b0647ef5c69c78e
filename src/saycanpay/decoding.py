"""Search over actions: greedy-token, greedy-action, and beam-action decoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (
    SCORE_MODES,
    ActionInstance,
    ContractError,
    History,
    ScoredCandidate,
    accumulate,
    decode_score,
    length_normalize,
)
from .envs import EpisodeSpec
from .trie import TokenTrie

STRATEGIES = ("greedy-token", "greedy-action", "beam-action")
ROLES = ("say", "can", "pay")


@dataclass(frozen=True)
class DecodingConfig:
    strategy: str = "beam-action"
    score_mode: str = "saycanpay"
    m: int = 6
    k: int = 3

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy {self.strategy!r}")
        if self.score_mode not in SCORE_MODES:
            raise ContractError(f"unknown score mode {self.score_mode!r}")
        if not 1 <= self.k <= self.m:
            raise ContractError("beam count k must satisfy 1 <= k <= m")

    @property
    def roles(self) -> tuple[str, ...]:
        """The scorer roles the search calls: Say, then Can and Pay as far
        as the score mode reads them; greedy-token reads Say alone."""
        mode = "say" if self.strategy == "greedy-token" else self.score_mode
        return ROLES[: SCORE_MODES.index(mode) + 1]


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
    roles = config.roles
    p_cans = can(history, actions) if "can" in roles else ones
    f_pays = pay(history, actions) if "pay" in roles else ones
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


@dataclass(frozen=True)
class _BeamState:
    history: History
    f_acc: float
    per_step: tuple[ScoredCandidate, ...]
    terminated_by: str | None = None  # None while the beam can still grow

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
    beams = [_BeamState(history=History(episode.init_obs), f_acc=0.0, per_step=())]
    finished: list[_BeamState] = []
    for step in range(episode.max_steps):
        if all(b.terminated_by for b in beams):
            break
        extensions: list[_BeamState] = []
        for beam in beams:
            if beam.terminated_by:
                extensions.append(beam)
                continue
            candidates = expand_candidates(say, can, pay, beam.history, config)
            if not candidates:
                extensions.append(replace(beam, terminated_by="step-limit"))
                continue
            best_cand = min(candidates, key=lambda c: (-c.step_log_score, c.action.text))
            if best_cand.action.is_done:
                candidates = [best_cand]
            at_limit = step + 1 >= episode.max_steps
            for cand in candidates:
                if cand.action.is_done:
                    terminated_by = "done"
                else:
                    terminated_by = "step-limit" if at_limit else None
                extensions.append(
                    _BeamState(
                        history=beam.history.extended(cand.action),
                        f_acc=accumulate(beam.f_acc, cand.step_log_score),
                        per_step=beam.per_step + (cand,),
                        terminated_by=terminated_by,
                    )
                )
        beams = sorted(extensions, key=_BeamState.sort_key)[: config.k]
        seen = {id(b) for b in finished}
        finished.extend(b for b in beams if b.terminated_by and id(b) not in seen)
    best = min(finished or beams, key=_BeamState.sort_key)
    plan = tuple(c.action for c in best.per_step)
    return PlanResult(
        plan=plan,
        per_step=best.per_step,
        final_score=length_normalize(best.f_acc, len(plan)) if plan else -math.inf,
        terminated_by=best.terminated_by or "step-limit",
    )


class _TokenGreedySay:
    """Greedy-token's proposer: the one action that token-level argmax
    decoding over the trie of the Say backend's vocabulary reaches, with its
    probability. The backend must expose its full distribution
    (`action_probs`)."""

    def __init__(self, say):
        if not hasattr(say, "action_probs"):
            raise ContractError(
                f"strategy greedy-token needs a Say backend with a full action "
                f"distribution; {type(say).__name__} has none"
            )
        self.say = say
        self.trie = TokenTrie(say.vocab)

    def propose(self, history: History, m: int) -> list[tuple[ActionInstance, float]]:
        probs = self.say.action_probs(history)
        action = self.trie.greedy_action(probs)
        return [(action, float(probs[self.trie.vocab.index(action)]))]


def run_strategy(
    episode: EpisodeSpec,
    config: DecodingConfig,
    say,
    can=None,
    pay=None,
) -> PlanResult:
    """Run config.strategy as one beam search; `can` and `pay` may be None
    where the strategy or score mode never calls them.

    Greedy-action is beam-action with k=1.  Greedy-token is beam k=1 over
    its one token-greedy proposal, scored by Say alone."""
    if config.strategy == "greedy-token":
        say = _TokenGreedySay(say)
        config = replace(config, score_mode="say", k=1)
    elif config.strategy == "greedy-action":
        config = replace(config, k=1)
    return beam_action(say, can, pay, episode, config)
