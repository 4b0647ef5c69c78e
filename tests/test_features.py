"""Hashed feature extraction: determinism, namespacing, collisions, profiles."""

import itertools

from saycanpay.core import ActionInstance, GoalSpec, History
from saycanpay.features import (
    DIM,
    FEATURE_SCALE,
    HISTORY_WINDOW,
    PLAIN_SCALE,
    bucket,
    feature_grams,
    featurize,
    tokenize,
)
from saycanpay.envs import get_env, reset


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


def test_featurize_is_deterministic():
    goal, history, action = triple()
    assert featurize(goal, history, action) == featurize(goal, history, action)


def test_indices_sorted_and_values_positive():
    goal, history, action = triple()
    fv = featurize(goal, history, action)
    assert list(fv.indices) == sorted(fv.indices)
    assert all(v > 0 for v in fv.values)
    assert len(fv.indices) == len(fv.values)


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
    assert featurize(goal, history, action) != featurize(goal, history, other)


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
    full = featurize(goal, history, action, profile="full")
    plain = featurize(goal, history, action, profile="plain")
    assert min(full.values) == FEATURE_SCALE
    assert min(plain.values) == PLAIN_SCALE


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
