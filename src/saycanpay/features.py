"""Hashed sparse text features shared by the Say, Can, and Pay scorers.

The input is the same goal / history / candidate-action triple the scorers
condition on; grams from each segment live in their own namespace so the same
word contributes different buckets depending on where it appeared.  Beyond the
per-segment unigrams and bigrams, pairwise crosses (history x action, goal x
action, observation x action) and a whole-context signature give the linear
models the interaction terms they need.  Counts are multiplied by a fixed
scale so the few optimizer steps the training budget allows still produce
logits of useful magnitude.

`feature_grams` + `bucket` define the features one gram at a time.
`featurize` computes the same counts for a whole candidate list at once: it
hashes each piece (a segment, an action's grams, a cross of two token lists)
once into a bounded cache, so the pieces an episode shares are not hashed
again for every (history, candidate) pair.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .core import ActionInstance, ContractError, GoalSpec, History

DIM = 2**14
HASH_SEED = 0x9E3779B9
HISTORY_WINDOW = 3  # most recent actions kept in the history segment
FEATURE_SCALE = 64.0
PLAIN_SCALE = 32.0
SIGNATURE_COUNT = 2  # extra weight on the whole-context signature grams

_WORD = re.compile(r"[a-z0-9]+")
_MASK = (1 << 64) - 1
_FNV_OFFSET = (1469598103934665603 ^ HASH_SEED) & _MASK
_FNV_PRIME = 1099511628211

# Sizes of the piece caches; each holds far more than one episode's pieces.
_TEXT_CACHE = 4096
_PIECE_CACHE = 1 << 15


def _fnv(h: int, text: str) -> int:
    """Continue the 64-bit FNV-1a state `h` over the UTF-8 bytes of `text`."""
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


@lru_cache(maxsize=1_000_000)
def bucket(gram: str) -> int:
    """Stable FNV-1a string hash into [0, DIM)."""
    return _fnv(_FNV_OFFSET, gram) % DIM


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


# ---------------------------------------------------------------------------
# cached pieces of feature_grams, hashed into buckets


@lru_cache(maxsize=_TEXT_CACHE)
def _tokens(text: str) -> tuple[str, ...]:
    return tuple(tokenize(text))


def _hashed(grams) -> np.ndarray:
    """Buckets of `grams` as a read-only array (the caches share it)."""
    buckets = np.array([bucket(g) for g in grams], dtype=np.intp)
    buckets.flags.writeable = False
    return buckets


@lru_cache(maxsize=_PIECE_CACHE)
def _context(
    goal_text: str, obs: str, recent: tuple[tuple[str, ...], ...], n_actions: int
) -> np.ndarray:
    """Buckets shared by every candidate: the goal, observation and
    history-window segments (most recent action first) and the history length."""
    grams = _grams("g", list(_tokens(goal_text)))
    grams.extend(_grams("h:o", list(_tokens(obs))))
    for back, tokens in enumerate(recent, start=1):
        grams.extend(_grams(f"h:{back}", list(tokens)))
    grams.append(f"h:len:{n_actions}")
    return _hashed(grams)


@lru_cache(maxsize=_PIECE_CACHE)
def _action_piece(
    goal_text: str, obs: str, tokens: tuple[str, ...], is_done: bool, full: bool
) -> np.ndarray:
    """Buckets of a candidate's own grams and, in the full profile, of its
    goal x action (`y:`) and observation x action (`z:`) crosses."""
    grams = _grams("a", list(tokens))
    if is_done:
        grams.append("a:is_done")
    if full:
        for tag, text in (("y", goal_text), ("z", obs)):
            grams.extend(f"{tag}:{w1}|{w2}" for w1 in _tokens(text) for w2 in tokens)
    return _hashed(grams)


@lru_cache(maxsize=_PIECE_CACHE)
def _cross(tag: str, past: tuple[str, ...], tokens: tuple[str, ...]) -> np.ndarray:
    """Buckets of the `tag:{w1}|{w2}` crosses of a past action and a candidate."""
    return _hashed(f"{tag}:{w1}|{w2}" for w1 in past for w2 in tokens)


@lru_cache(maxsize=_TEXT_CACHE)
def _prefix_state(prefix: str) -> int:
    """FNV-1a state after a signature gram's context prefix."""
    return _fnv(_FNV_OFFSET, prefix)


@lru_cache(maxsize=_PIECE_CACHE)
def _signature(state: int, text: str) -> int:
    """Bucket of a signature gram: its prefix state continued over `text`."""
    return _fnv(state, text) % DIM


def featurize(
    goal: GoalSpec,
    history: History,
    actions: list[ActionInstance],
    profile: str = "full",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR rows `(indptr, indices, values)`, one per candidate action.

    Row r holds the sorted distinct buckets of
    `feature_grams(goal, history, actions[r], profile)`, each with its count
    times the profile's scale.
    """
    if profile not in PROFILES:
        raise ContractError(f"unknown feature profile {profile!r}")
    full = profile == "full"
    goal_text, obs = goal.text, history.init_obs
    recent = history.actions[-HISTORY_WINDOW:][::-1]
    context = _context(
        goal_text, obs, tuple(a.tokens for a in recent), len(history.actions)
    )
    crossed = [("x", recent[0].tokens)] if recent else []
    if full:
        crossed.extend(
            (f"x{back}", past.tokens) for back, past in enumerate(recent[1:], start=2)
        )
        texts = " / ".join(a.text for a in history.actions)
        c_state = _prefix_state(f"c:{obs}|{texts}|")
        d_state = _prefix_state(f"d:{texts}|")
    pieces = []
    lengths = []
    for action in actions:
        tokens = action.tokens
        row = [context, _action_piece(goal_text, obs, tokens, action.is_done, full)]
        row.extend(_cross(tag, past, tokens) for tag, past in crossed)
        if full:
            c = _signature(c_state, action.text)
            d = _signature(d_state, action.text)
            row.append(np.array([c] * SIGNATURE_COUNT + [d] * SIGNATURE_COUNT,
                                dtype=np.intp))
        pieces.extend(row)
        lengths.append(sum(map(len, row)))
    n_rows = len(actions)
    if not n_rows:
        return np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    keys = np.concatenate(pieces)
    keys += np.repeat(np.arange(0, n_rows * DIM, DIM), lengths)
    keys, counts = np.unique(keys, return_counts=True)
    rows, indices = np.divmod(keys, DIM)
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    scale = FEATURE_SCALE if full else PLAIN_SCALE
    return indptr, indices, scale * counts
