"""BFS planner optimality and the oracle feasibility/payoff scorers."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_breadth_first_plan
from saycanpay import oracle as oracle_module
from saycanpay.core import History, UnsolvableError
from saycanpay.envs import ENV_IDS, SPLITS, breadth_first_plan, get_env, reset
from saycanpay.envs.hanoi import HanoiState
from saycanpay.oracle import (
    DELTA,
    OracleCan,
    OraclePay,
    ReplayCache,
    bfs_plan,
)


def exhaustive_shortest(env, spec, limit=8, start=None):
    """Reference breadth-first enumeration of all action sequences."""
    start = spec.init_state if start is None else start
    frontier = [(start, 0)]
    seen = {start}
    moves = [a for a in env.admissible_actions(spec) if not a.is_done]
    for depth in range(limit + 1):
        nxt = []
        for state, d in frontier:
            if env.is_goal(state, spec.goal):
                return d + 1  # plus the final done action
            for action in moves:
                if env.precondition_holds(state, spec.goal, action):
                    child = env.step(state, spec.goal, action)
                    if child not in seen:
                        seen.add(child)
                        nxt.append((child, d + 1))
        frontier = nxt
    return None


@pytest.mark.parametrize("env_id", ["hanoi", "gridworld"])
def test_bfs_plan_length_matches_exhaustive_search(env_id):
    env = get_env(env_id)
    for seed in range(50):
        spec = reset(env_id, seed, "train")
        traj = bfs_plan(env, spec)
        assert len(traj.actions) == exhaustive_shortest(env, spec)


@pytest.mark.parametrize("env_id", ["hanoi", "blocks", "gridworld"])
def test_bfs_plan_executes_and_ends_in_done(env_id):
    env = get_env(env_id)
    for seed in range(20):
        spec = reset(env_id, seed, "train")
        traj = bfs_plan(env, spec)
        state = spec.init_state
        for action in traj.actions:
            assert env.precondition_holds(state, spec.goal, action)
            state = env.step(state, spec.goal, action)
        assert traj.actions[-1].is_done
        assert env.is_goal(state, spec.goal)
        assert traj.reward == 1


def test_bfs_plan_is_deterministic():
    env = get_env("blocks")
    spec = reset("blocks", 5, "train")
    assert bfs_plan(env, spec).actions == bfs_plan(env, spec).actions


def test_unsolvable_episode_raises():
    env = get_env("hanoi")
    spec = reset("hanoi", 0, "train")
    # shrink the budget below any possible plan length
    broken = type(spec)(
        env_id=spec.env_id, goal=spec.goal, init_obs=spec.init_obs,
        init_state=spec.init_state, split=spec.split, seed=spec.seed, max_steps=1,
    )
    if env.is_goal(spec.init_state, spec.goal):
        pytest.skip("goal already satisfied at the start")
    with pytest.raises(UnsolvableError):
        bfs_plan(env, broken)


def test_plan_from_the_goal_is_the_done_action():
    env = get_env("hanoi")
    spec = reset("hanoi", 0, "train")
    traj = bfs_plan(env, spec)
    state = spec.init_state
    for action in traj.actions[:-1]:
        state = env.step(state, spec.goal, action)
    assert ReplayCache(env, spec).plan_from(state) == traj.actions[-1:]


def test_plan_from_an_unsolvable_state_is_none():
    env = get_env("hanoi")
    spec = reset("hanoi", 0, "train")
    broken = type(spec)(
        env_id=spec.env_id, goal=spec.goal, init_obs=spec.init_obs,
        init_state=spec.init_state, split=spec.split, seed=spec.seed, max_steps=1,
    )
    if env.is_goal(spec.init_state, spec.goal):
        pytest.skip("goal already satisfied at the start")
    assert ReplayCache(env, broken).plan_from(spec.init_state) is None


def _random_walk(env, spec, choices):
    """The state reached by taking, at each step, the feasible move that
    `choices` indexes (modulo the number of feasible moves)."""
    state = spec.init_state
    moves = [a for a in env.admissible_actions(spec) if not a.is_done]
    for choice in choices:
        feasible = [a for a in moves if env.precondition_holds(state, spec.goal, a)]
        if not feasible:
            break
        state = env.step(state, spec.goal, feasible[choice % len(feasible)])
    return state


_WALK = st.lists(st.integers(0, 1000), max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    env_id=st.sampled_from(ENV_IDS),
    seed=st.integers(0, 10_000),
    max_steps=st.one_of(st.none(), st.integers(1, 5)),
)
def test_plan_from_matches_a_fresh_search(data, env_id, seed, max_steps):
    """Memoized plans, including the suffixes stored for states never
    searched from and the None stored for the states of a dead region, equal
    a fresh search from the same state."""
    env = get_env(env_id)
    spec = reset(env_id, seed, "train")
    if max_steps is not None:
        spec = replace(spec, max_steps=max_steps)
    oracle = ReplayCache(env, spec)
    walks = data.draw(st.lists(_WALK, min_size=1, max_size=4))
    pending = [_random_walk(env, spec, walk) for walk in walks]
    for _ in range(12):
        if not pending:
            break
        state = pending.pop(data.draw(st.integers(0, len(pending) - 1)))
        plan = oracle.plan_from(state)
        fresh = reference_breadth_first_plan(env, spec, start_state=state)
        assert plan == (None if fresh is None else tuple(fresh))
        if plan is None:  # a successor is memoized as dead after an exhaustive search
            choice = data.draw(st.integers(0, 1000))
            pending.append(_random_walk(env, replace(spec, init_state=state), [choice]))
        for action in (plan or ())[:-1]:
            state = env.step(state, spec.goal, action)
            pending.append(state)


@settings(max_examples=60, deadline=None)
@given(
    env_id=st.sampled_from(ENV_IDS),
    seed=st.integers(0, 10_000),
    split=st.sampled_from(SPLITS),
    walk=_WALK,
)
def test_bfs_plan_length_matches_exhaustive_search_from_reachable_states(
    env_id, seed, split, walk
):
    env = get_env(env_id)
    spec = reset(env_id, seed, split)
    state = _random_walk(env, spec, walk)
    plan = breadth_first_plan(env, spec, start_state=state)
    expected = exhaustive_shortest(env, spec, limit=spec.max_steps - 1, start=state)
    assert (None if plan is None else len(plan)) == expected


@settings(max_examples=80, deadline=None)
@given(
    env_id=st.sampled_from(ENV_IDS),
    seed=st.integers(0, 10_000),
    split=st.sampled_from(SPLITS),
    walk=_WALK,
    max_steps=st.one_of(st.none(), st.integers(1, 5)),
)
def test_bfs_matches_the_per_action_reference(env_id, seed, split, walk, max_steps):
    """The batched-`applicable` BFS finds the same plan (or None) as the
    loop that asks `precondition_holds` once per move."""
    env = get_env(env_id)
    spec = reset(env_id, seed, split)
    if max_steps is not None:
        spec = replace(spec, max_steps=max_steps)
    state = _random_walk(env, spec, walk)
    assert breadth_first_plan(env, spec, start_state=state) == (
        reference_breadth_first_plan(env, spec, start_state=state)
    )


def _dead_blocks_state():
    """A blocks episode, and the state after putting a goal block in a bowl
    of another colour: no plan exists from it (blocks never move again)."""
    env = get_env("blocks")
    for seed in range(100):
        spec = reset("blocks", seed, "train")
        _, block_color, bowl_color = spec.goal.predicate
        wrong = next(
            (a for a in env.admissible_actions(spec)
             if not a.is_done and a.op[1].startswith(f"{block_color} block")
             and not a.op[2].startswith(f"{bowl_color} bowl")),
            None,
        )
        if wrong is not None and len(spec.init_state.blocks) > 1:
            return env, spec, env.step(spec.init_state, spec.goal, wrong)
    pytest.fail("no episode with a bowl outside the goal colour found")


def _count_searches(monkeypatch):
    calls = []

    def counting(env, spec, start_state=None):
        calls.append(start_state)
        return breadth_first_plan(env, spec, start_state)

    monkeypatch.setattr(oracle_module, "breadth_first_plan", counting)
    return calls


def _successors(env, spec, state):
    moves = [a for a in env.admissible_actions(spec) if not a.is_done]
    return [env.step(state, spec.goal, a) for a in env.applicable(state, spec.goal, moves)]


def test_an_exhaustive_failed_search_memoizes_its_dead_region(monkeypatch):
    env, spec, dead = _dead_blocks_state()
    oracle = ReplayCache(env, spec)
    calls = _count_searches(monkeypatch)
    assert oracle.plan_from(dead) is None
    assert len(calls) == 1
    successors = _successors(env, spec, dead)
    assert successors
    for state in successors + _successors(env, spec, successors[0]):
        assert oracle.plan_from(state) is None
    assert len(calls) == 1


def test_a_capped_failed_search_memoizes_its_start_only(monkeypatch):
    env, spec, dead = _dead_blocks_state()
    capped = replace(spec, max_steps=2)  # one move: the successors are not expanded
    oracle = ReplayCache(env, capped)
    calls = _count_searches(monkeypatch)
    assert oracle.plan_from(dead) is None
    assert oracle.plan_from(dead) is None
    assert len(calls) == 1
    successor = _successors(env, capped, dead)[0]
    assert oracle.plan_from(successor) is None
    assert calls == [dead, successor]


class TestReplayCache:
    def test_replays_expert_prefixes(self):
        env = get_env("gridworld")
        spec = reset("gridworld", 3, "train")
        traj = bfs_plan(env, spec)
        cache = ReplayCache(env, spec)
        history = History(spec.init_obs)
        state = spec.init_state
        assert cache.state_for(history) == state
        for action in traj.actions[:-1]:
            state = env.step(state, spec.goal, action)
            history = history.extended(action)
            assert cache.state_for(history) == state

    def test_broken_history_maps_to_none(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "train")
        cache = ReplayCache(env, spec)
        infeasible = next(
            a
            for a in env.admissible_actions(spec)
            if not a.is_done
            and not env.precondition_holds(spec.init_state, spec.goal, a)
        )
        history = History(spec.init_obs).extended(infeasible)
        assert cache.state_for(history) is None
        feasible = next(
            a
            for a in env.admissible_actions(spec)
            if not a.is_done and env.precondition_holds(spec.init_state, spec.goal, a)
        )
        assert cache.state_for(history.extended(feasible)) is None


class TestOracleCan:
    def test_matches_preconditions(self):
        env = get_env("blocks")
        spec = reset("blocks", 2, "train")
        can = OracleCan(ReplayCache(env, spec))
        vocab = env.admissible_actions(spec)
        expected = [
            1.0 if env.precondition_holds(spec.init_state, spec.goal, a) else 0.0
            for a in vocab
        ]
        assert can(History(spec.init_obs), vocab) == expected

    def test_broken_history_scores_zero(self):
        env = get_env("blocks")
        spec = reset("blocks", 2, "train")
        can = OracleCan(ReplayCache(env, spec))
        put = next(a for a in env.admissible_actions(spec) if not a.is_done)
        history = History(spec.init_obs).extended(put).extended(put)
        assert can(history, [put, put]) == [0.0, 0.0]


class TestOraclePay:
    def test_discounted_chain_along_expert_plan(self):
        env = get_env("gridworld")
        spec = reset("gridworld", 1, "train")
        traj = bfs_plan(env, spec)
        pay = OraclePay(ReplayCache(env, spec))
        history = History(spec.init_obs)
        horizon = len(traj.actions)
        for t, action in enumerate(traj.actions, start=1):
            assert pay(history, [action]) == pytest.approx([DELTA ** (horizon - t)])
            history = history.extended(action)

    def test_done_at_goal_pays_one(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 4, "train")
        traj = bfs_plan(env, spec)
        history = History(spec.init_obs)
        for action in traj.actions[:-1]:
            history = history.extended(action)
        assert OraclePay(ReplayCache(env, spec))(history, [traj.actions[-1]]) == [1.0]

    def test_one_step_from_goal_pays_delta(self):
        env = get_env("hanoi")
        for seed in range(30):
            spec = reset("hanoi", seed, "train")
            traj = bfs_plan(env, spec)
            if len(traj.actions) < 2:
                continue
            history = History(spec.init_obs)
            for action in traj.actions[:-2]:
                history = history.extended(action)
            pay = OraclePay(ReplayCache(env, spec))
            assert pay(history, [traj.actions[-2]]) == pytest.approx([DELTA])
            return
        pytest.fail("no multi-step episode found")

    def test_infeasible_action_pays_zero(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "train")
        pay = OraclePay(ReplayCache(env, spec))
        history = History(spec.init_obs)
        infeasible = next(
            a
            for a in env.admissible_actions(spec)
            if not env.precondition_holds(spec.init_state, spec.goal, a)
        )
        assert pay(history, [infeasible]) == [0.0]

    def test_dead_end_pays_zero(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "train")
        capped = type(spec)(
            env_id=spec.env_id, goal=spec.goal, init_obs=spec.init_obs,
            init_state=spec.init_state, split=spec.split, seed=spec.seed, max_steps=1,
        )
        if env.is_goal(spec.init_state, spec.goal):
            pytest.skip("goal already satisfied at the start")
        pay = OraclePay(ReplayCache(env, capped))
        history = History(spec.init_obs)
        feasible_moves = [
            a
            for a in env.admissible_actions(spec)
            if not a.is_done and env.precondition_holds(spec.init_state, spec.goal, a)
        ]
        # budget of one step: only a move landing directly on the goal has value
        expected = [
            DELTA if env.is_goal(env.step(spec.init_state, spec.goal, a), spec.goal)
            else 0.0
            for a in feasible_moves
        ]
        assert pay(history, feasible_moves) == pytest.approx(expected)
