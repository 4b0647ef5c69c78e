"""Hashed feature extraction: determinism, namespacing, collisions, profiles."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_reachable_history
from saycanpay import features
from saycanpay.core import ActionInstance, ContractError, GoalSpec, History
from saycanpay.features import (
    DIM,
    HISTORY_WINDOW,
    PROFILES,
    SCALES,
    bucket,
    feature_grams,
    featurize,
    tokenize,
)
from saycanpay.envs import ENV_IDS, SPLITS, get_env, reset


def triple():
    goal = GoalSpec(text="pick up the red ball", predicate=("holding", "red", "ball"))
    history = History("room 1 has red ball, agent.")
    action = ActionInstance.from_text("pick up red ball", op=("pickup", "red", "ball"))
    return goal, history, action


def test_tokenize_lowercases_and_splits():
    assert tokenize("Pick UP red-ball 2!") == ["pick", "up", "red", "ball", "2"]


def test_bucket_is_stable_and_in_range():
    assert bucket("g:red") == bucket("g:red")
    assert 0 <= bucket("g:red") < DIM


def rows_of(csr):
    """The CSR rows of `featurize` as (indices, values) lists per row."""
    indptr, indices, values = csr
    return [
        (indices[s:e].tolist(), values[s:e].tolist())
        for s, e in zip(indptr[:-1], indptr[1:])
    ]


def reference_row(goal, history, action, profile):
    """One row the slow way: a Counter over the hashed grams, scaled."""
    counts = Counter(bucket(g) for g in feature_grams(goal, history, action, profile))
    scale = SCALES[profile]
    keys = sorted(counts)
    return keys, [scale * counts[k] for k in keys]


def test_featurize_is_deterministic():
    goal, history, action = triple()
    assert rows_of(featurize(goal, history, [action])) == rows_of(
        featurize(goal, history, [action])
    )


def test_indices_sorted_and_values_positive():
    goal, history, action = triple()
    indptr, indices, values = featurize(goal, history, [action])
    assert indptr.tolist() == [0, len(indices)]
    assert indices.tolist() == sorted(set(indices.tolist()))
    assert (values > 0).all()
    assert len(indices) == len(values)


def test_segments_are_namespaced():
    grams = feature_grams(*triple())
    # "red" appears in the goal, the observation, and the action under
    # different namespaces
    assert "g:red" in grams
    assert "h:o:red" in grams
    assert "a:red" in grams


def test_action_words_change_the_vector():
    goal, history, action = triple()
    other = ActionInstance.from_text("drop key in void", op=("drop",))
    first, second = rows_of(featurize(goal, history, [action, other]))
    assert first != second


def test_history_window_keeps_recent_actions_only():
    goal, history, action = triple()
    step = ActionInstance.from_text("toggle red door", op=("toggle", "red"))
    for _ in range(HISTORY_WINDOW + 2):
        history = history.extended(step)
    grams = feature_grams(goal, history, action)
    backs = {g.split(":")[1] for g in grams if g.startswith("h:") and g[2].isdigit()}
    assert backs == {str(i) for i in range(1, HISTORY_WINDOW + 1)}
    assert f"h:len:{HISTORY_WINDOW + 2}" in grams


def test_plain_profile_is_a_subset_of_full():
    goal, history, action = triple()
    history = history.extended(
        ActionInstance.from_text("toggle red door", op=("toggle", "red"))
    )
    plain = feature_grams(goal, history, action, profile="plain")
    full = feature_grams(goal, history, action, profile="full")
    assert set(plain) <= set(full)
    assert len(full) > len(plain)
    assert not any(g.startswith(("y:", "z:", "c:", "d:")) for g in plain)
    assert any(g.startswith("y:") for g in full)


def test_profile_scales_differ():
    goal, history, action = triple()
    full = featurize(goal, history, [action], profile="full")
    plain = featurize(goal, history, [action], profile="plain")
    assert min(full[2]) == SCALES["full"] != SCALES["plain"] == min(plain[2])


def test_empty_candidate_list_and_unknown_profile():
    goal, history, _ = triple()
    indptr, indices, values = featurize(goal, history, [])
    assert indptr.tolist() == [0] and indices.size == 0 and values.size == 0
    with pytest.raises(ContractError):
        featurize(goal, history, [], profile="fancy")


@pytest.mark.parametrize("profile", PROFILES)
def test_mutating_returned_rows_leaves_the_next_call_unchanged(profile):
    """`featurize` returns fresh arrays: writing into them (as training does
    when it renumbers buckets in place) touches no cached piece."""
    env = get_env("blocks")
    spec = reset("blocks", 0, "train")
    vocab = env.admissible_actions(spec)
    history = History(spec.init_obs).extended(vocab[0])
    before = [a.copy() for a in featurize(spec.goal, history, vocab, profile)]
    for array in featurize(spec.goal, history, vocab, profile):
        array[:] = 0
    after = featurize(spec.goal, history, vocab, profile)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


@settings(max_examples=80, deadline=None)
@given(
    env_id=st.sampled_from(ENV_IDS),
    seed=st.integers(0, 300),
    split=st.sampled_from(SPLITS),
    walk=st.lists(st.integers(0, 50), max_size=HISTORY_WINDOW + 3),
    picks=st.lists(st.integers(0, 50), min_size=1, max_size=8),
    profile=st.sampled_from(PROFILES),
)
@example(env_id=None, seed=0, split="train", walk=[], picks=[0, 0, 1], profile="full")
@example(env_id=None, seed=0, split="train", walk=[0], picks=[0, 1], profile="plain")
def test_featurize_matches_the_hashed_gram_counts(env_id, seed, split, walk, picks, profile):
    """Each CSR row equals the scaled Counter of its hashed feature_grams; the
    candidate list may repeat an action.  `env_id=None` is the hand-made triple
    of the tests above (sorted positive values, action words matter)."""
    if env_id is None:
        goal, history, action = triple()
        step = ActionInstance.from_text("toggle red door", op=("toggle", "red"))
        history = History(history.init_obs, (step,) * len(walk))
        vocab = [action, ActionInstance.from_text("drop key in void", op=("drop",))]
    else:
        goal, history, vocab = random_reachable_history(env_id, seed, split, walk)
    actions = [vocab[p % len(vocab)] for p in picks]
    rows = rows_of(featurize(goal, history, actions, profile))
    assert rows == [reference_row(goal, history, a, profile) for a in actions]
    for indices, values in rows:
        assert indices == sorted(set(indices)) and min(values) > 0
    for a, b, row_a, row_b in zip(actions, actions[1:], rows, rows[1:]):
        assert (row_a == row_b) == (a == b)
    assert all(0 <= i < DIM for indices, _ in rows for i in indices)


@settings(max_examples=80, deadline=None)
@given(
    env_id=st.sampled_from(ENV_IDS),
    seed=st.integers(0, 300),
    walk=st.lists(st.integers(0, 50), max_size=HISTORY_WINDOW + 3),
    picks=st.lists(st.integers(0, 50), min_size=1, max_size=8),
    profile=st.sampled_from(PROFILES),
)
def test_each_row_of_a_list_is_its_candidate_featurized_alone(env_id, seed, walk, picks, profile):
    """Row r of a candidate list's `featurize`, drawn in any order and with
    repeats, is array for array the one row of `actions[r]` featurized alone.
    Pay training featurizes an expert step's two samples in one call and
    splits the rows, and trained Can and Pay share an expansion's rows."""
    goal, history, vocab = random_reachable_history(env_id, seed, "train", walk)
    actions = [vocab[p % len(vocab)] for p in picks]
    indptr, indices, values = featurize(goal, history, actions, profile)
    for r, action in enumerate(actions):
        one_indptr, one_indices, one_values = featurize(goal, history, [action], profile)
        s, e = indptr[r], indptr[r + 1]
        assert one_indptr.tolist() == [0, e - s]
        assert indices.dtype == one_indices.dtype and values.dtype == one_values.dtype
        assert indices[s:e].tobytes() == one_indices.tobytes()
        assert values[s:e].tobytes() == one_values.tobytes()


_EPISODE = st.tuples(st.sampled_from(ENV_IDS), st.integers(0, 300), st.sampled_from(SPLITS))
_REQUEST = st.tuples(
    st.integers(0, 2),  # the episode whose goal the request takes
    st.integers(0, 2),  # the episode whose observation and moves it takes
    st.lists(st.integers(0, 50), max_size=HISTORY_WINDOW + 2),
    st.lists(st.integers(0, 200), min_size=1, max_size=6),
    st.sampled_from(PROFILES),
)


@settings(max_examples=60, deadline=None)
@given(
    episodes=st.lists(_EPISODE, min_size=1, max_size=3),
    requests=st.lists(_REQUEST, min_size=2, max_size=8),
)
def test_rows_from_cold_caches_in_any_order_match_the_gram_counts(episodes, requests):
    """From empty caches, requests in a drawn order, each pairing one drawn
    episode's goal with another's observation and moves, in either profile,
    with candidates from all their vocabularies, get the rows of their own
    grams: a piece cache whose key drops the tag, the goal, the observation,
    the profile or a word's position would hand one request another's piece.
    Each request also scores the previous request's picks, so a candidate
    meets several goals, observations, histories and profiles."""
    for cached in vars(features).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    pool = [a for e in episodes for a in random_reachable_history(*e, [])[2]]
    previous = []
    for goal_from, moves_from, walk, picks, profile in requests:
        goal = random_reachable_history(*episodes[goal_from % len(episodes)], [])[0]
        _, history, _ = random_reachable_history(*episodes[moves_from % len(episodes)], walk)
        picked = [pool[p % len(pool)] for p in picks]
        actions = previous + picked
        rows = rows_of(featurize(goal, history, actions, profile))
        assert rows == [reference_row(goal, history, a, profile) for a in actions]
        previous = picked


def test_collision_rate_on_real_vocabulary_grams():
    env = get_env("gridworld")
    grams = set()
    for seed in range(20):
        spec = reset("gridworld", seed, "train")
        history = History(spec.init_obs)
        for action in env.admissible_actions(spec):
            grams.update(feature_grams(spec.goal, history, action))
    buckets = {g: bucket(g) for g in grams}
    collisions = sum(
        1
        for _, group in itertools.groupby(
            sorted(buckets, key=buckets.get), key=buckets.get
        )
        if len(list(group)) > 1
    )
    assert len(grams) > 500
    assert collisions / len(grams) < 0.05
