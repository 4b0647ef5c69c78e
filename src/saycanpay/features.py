"""Hashed sparse text features shared by the Say, Can, and Pay scorers.

The input is the same goal / history / candidate-action triple the scorers
condition on; grams from each segment live in their own namespace so the same
word contributes different buckets depending on where it appeared.  Beyond the
per-segment unigrams and bigrams, pairwise crosses (history x action, goal x
action, observation x action) and a whole-context signature give the linear
models the interaction terms they need.  Counts are multiplied by a fixed
scale so the few optimizer steps the training budget allows still produce
logits of useful magnitude.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import ActionInstance, GoalSpec, History

DIM = 2**14
HASH_SEED = 0x9E3779B9
HISTORY_WINDOW = 3  # most recent actions kept in the history segment
FEATURE_SCALE = 64.0
PLAIN_SCALE = 32.0
SIGNATURE_COUNT = 2  # extra weight on the whole-context signature grams

_WORD = re.compile(r"[a-z0-9]+")
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class FeatureVector:
    """Sorted bucket indices with positive values."""

    indices: tuple[int, ...]
    values: tuple[float, ...]


@lru_cache(maxsize=1_000_000)
def bucket(gram: str) -> int:
    """Stable FNV-1a string hash into [0, DIM)."""
    h = (1469598103934665603 ^ HASH_SEED) & _MASK
    for byte in gram.encode("utf-8"):
        h = ((h ^ byte) * 1099511628211) & _MASK
    return h % DIM


def tokenize(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def _grams(prefix: str, tokens: list[str]) -> list[str]:
    grams = [f"{prefix}:{w}" for w in tokens]
    grams.extend(
        f"{prefix}:{a}_{b}" for a, b in zip(tokens, tokens[1:])
    )
    return grams


PROFILES = ("full", "plain")


def feature_grams(
    goal: GoalSpec, history: History, action: ActionInstance, profile: str = "full"
) -> list[str]:
    """Raw (unhashed) grams; exposed so collision rates can be measured.

    The "full" profile adds pairwise crosses and a whole-context signature on
    top of the "plain" per-segment grams.
    """
    goal_tokens = tokenize(goal.text)
    obs_tokens = tokenize(history.init_obs)
    grams = _grams("g", goal_tokens)
    grams.extend(_grams("h:o", obs_tokens))
    recent = history.actions[-HISTORY_WINDOW:]
    for back, past in enumerate(reversed(recent), start=1):
        grams.extend(_grams(f"h:{back}", list(past.tokens)))
    grams.append(f"h:len:{len(history.actions)}")
    cand_tokens = list(action.tokens)
    grams.extend(_grams("a", cand_tokens))
    if action.is_done:
        grams.append("a:is_done")
    if recent:
        for w1 in recent[-1].tokens:
            grams.extend(f"x:{w1}|{w2}" for w2 in cand_tokens)
    if profile == "plain":
        return grams
    for back, past in enumerate(reversed(recent[:-1]), start=2):
        for w1 in past.tokens:
            grams.extend(f"x{back}:{w1}|{w2}" for w2 in cand_tokens)
    for w1 in goal_tokens:
        grams.extend(f"y:{w1}|{w2}" for w2 in cand_tokens)
    for w1 in obs_tokens:
        grams.extend(f"z:{w1}|{w2}" for w2 in cand_tokens)
    full = " / ".join(a.text for a in history.actions)
    grams.extend([f"c:{history.init_obs}|{full}|{action.text}"] * SIGNATURE_COUNT)
    grams.extend([f"d:{full}|{action.text}"] * SIGNATURE_COUNT)
    return grams


@lru_cache(maxsize=200_000)
def _featurize_cached(
    goal: GoalSpec, history: History, action: ActionInstance, profile: str
) -> FeatureVector:
    scale = FEATURE_SCALE if profile == "full" else PLAIN_SCALE
    counts = Counter(bucket(g) for g in feature_grams(goal, history, action, profile))
    indices = tuple(sorted(counts))
    return FeatureVector(
        indices=indices,
        values=tuple(scale * counts[i] for i in indices),
    )


def featurize(
    goal: GoalSpec, history: History, action: ActionInstance, profile: str = "full"
) -> FeatureVector:
    return _featurize_cached(goal, history, action, profile)
