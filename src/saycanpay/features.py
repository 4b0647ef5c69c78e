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
`featurize` computes the same counts for a whole candidate list at once from
pieces hashed once into bounded caches.  The pieces are keyed by word and
segment, not by episode: a segment (goal, observation, one past action, a
candidate's own grams) by its prefix and tokens, and a cross by (tag, word,
candidate tokens).  The few words of an environment are shared by all its
episodes, so a new episode or history costs a concatenation of cached arrays,
and a signature gram continues the cached FNV-1a state of its history prefix.
The rows of one call are then one sort and count of their keys.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .core import ActionInstance, ContractError, GoalSpec, History

DIM = 2**14  # a power of two: a key's bucket is its low bits
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
_PIECE = np.int16  # cached buckets are below DIM; two bytes keep the caches small


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
    return _frozen(np.array([bucket(g) for g in grams], dtype=_PIECE))


def _frozen(buckets: np.ndarray) -> np.ndarray:
    buckets.flags.writeable = False
    return buckets


@lru_cache(maxsize=_PIECE_CACHE)
def _segment(prefix: str, tokens: tuple[str, ...]) -> np.ndarray:
    """Buckets of one segment's unigrams and bigrams under `prefix`."""
    return _hashed(_grams(prefix, list(tokens)))


@lru_cache(maxsize=_PIECE_CACHE)
def _word_cross(tag: str, word: str, tokens: tuple[str, ...]) -> np.ndarray:
    """Buckets of the `tag:{word}|{w2}` crosses of one word and a candidate."""
    return _hashed(f"{tag}:{word}|{w2}" for w2 in tokens)


def _crosses(tag: str, words, tokens: tuple[str, ...]) -> list[np.ndarray]:
    return [_word_cross(tag, w, tokens) for w in words]


@lru_cache(maxsize=_PIECE_CACHE)
def _cross(tag: str, past: tuple[str, ...], tokens: tuple[str, ...]) -> np.ndarray:
    """Buckets of the `tag:{w1}|{w2}` crosses of a past action and a candidate."""
    return _frozen(np.concatenate(_crosses(tag, past, tokens)))


@lru_cache(maxsize=_PIECE_CACHE)
def _context(
    goal_text: str, obs: str, recent: tuple[tuple[str, ...], ...], n_actions: int
) -> np.ndarray:
    """Buckets shared by every candidate: the goal, observation and
    history-window segments (most recent action first) and the history length."""
    parts = [_segment("g", _tokens(goal_text)), _segment("h:o", _tokens(obs))]
    parts.extend(
        _segment(f"h:{back}", tokens) for back, tokens in enumerate(recent, start=1)
    )
    parts.append(_segment("h:len", (str(n_actions),)))  # the one gram h:len:{n}
    return _frozen(np.concatenate(parts))


@lru_cache(maxsize=_PIECE_CACHE)
def _own_piece(tokens: tuple[str, ...], is_done: bool) -> np.ndarray:
    """Buckets of a candidate's own grams."""
    parts = [_segment("a", tokens)]
    if is_done:
        parts.append(_segment("a", ("is_done",)))  # the one gram a:is_done
    return _frozen(np.concatenate(parts))


@lru_cache(maxsize=_PIECE_CACHE)
def _full_piece(
    goal_text: str, obs: str, tokens: tuple[str, ...], is_done: bool
) -> np.ndarray:
    """Buckets of a candidate's own grams and of its goal x action (`y:`) and
    observation x action (`z:`) crosses, one cached piece per (word,
    candidate)."""
    parts = [_own_piece(tokens, is_done)]
    parts.extend(_crosses("y", _tokens(goal_text), tokens))
    parts.extend(_crosses("z", _tokens(obs), tokens))
    return _frozen(np.concatenate(parts))


@lru_cache(maxsize=_PIECE_CACHE)
def _joined_state(head: str, texts: tuple[str, ...]) -> int:
    """FNV-1a state after `head` and then `texts` joined by " / ".  FNV-1a is
    sequential, so it continues the cached state of `texts[:-1]`: a longer
    history costs the bytes of its last action only."""
    if not texts:
        return _fnv(_FNV_OFFSET, head)
    separator = " / " if len(texts) > 1 else ""
    return _fnv(_joined_state(head, texts[:-1]), separator + texts[-1])


@lru_cache(maxsize=_PIECE_CACHE)
def _signature(c_state: int, d_state: int, text: str) -> np.ndarray:
    """Buckets of a candidate's `c:` and `d:` signature grams, each
    SIGNATURE_COUNT times: the context states continued over `text`."""
    c = _fnv(c_state, text) % DIM
    d = _fnv(d_state, text) % DIM
    return _frozen(np.array([c] * SIGNATURE_COUNT + [d] * SIGNATURE_COUNT, dtype=_PIECE))


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
    n_rows = len(actions)
    if not n_rows:
        return np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
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
        texts = tuple(a.text for a in history.actions)
        c_state = _fnv(_joined_state(f"c:{obs}|", texts), "|")
        d_state = _fnv(_joined_state("d:", texts), "|")
    # Each row's pieces, concatenated; the key r * DIM + bucket sorts the
    # rows apart, and equal keys are one bucket of one row.
    pieces = []
    lengths = []
    n_context = len(context)
    for action in actions:
        tokens = action.tokens
        if full:
            piece = _full_piece(goal_text, obs, tokens, action.is_done)
        else:
            piece = _own_piece(tokens, action.is_done)
        pieces += (context, piece)
        length = n_context + len(piece)
        for tag, past in crossed:
            piece = _cross(tag, past, tokens)
            pieces.append(piece)
            length += len(piece)
        if full:
            pieces.append(_signature(c_state, d_state, action.text))
            length += 2 * SIGNATURE_COUNT
        lengths.append(length)
    starts = np.arange(0, (n_rows + 1) * DIM, DIM)
    keys = np.concatenate(pieces, dtype=np.intp)
    keys += starts[:-1].repeat(lengths)
    keys.sort()
    # np.unique(keys, return_counts=True), without its wrapper's overhead
    edges = np.empty(len(keys) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    distinct = keys[bounds[:-1]]
    indptr = distinct.searchsorted(starts)
    scale = FEATURE_SCALE if full else PLAIN_SCALE
    return indptr, distinct & (DIM - 1), scale * (bounds[1:] - bounds[:-1])
