"""Environment determinism, vocabularies, transitions, and text rendering."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from saycanpay.core import ActionInstance, ContractError, InfeasibleActionError
from saycanpay.envs import ENV_IDS, SPLITS, breadth_first_plan, get_env, reset
from saycanpay.envs.gridworld import CARRIED, VOID
from saycanpay.envs.hanoi import DISK_COLORS, HanoiState


@pytest.mark.parametrize("env_id", ENV_IDS)
class TestCommonContract:
    def test_sampling_is_deterministic(self, env_id):
        a = reset(env_id, 7, "train")
        b = reset(env_id, 7, "train")
        assert a == b
        assert a.episode_id == f"{env_id}-train-00000007"

    def test_split_changes_the_draw_stream(self, env_id):
        assert reset(env_id, 7, "train").init_obs != reset(env_id, 7, "test").init_obs \
            or reset(env_id, 7, "train").goal != reset(env_id, 7, "test").goal

    def test_vocabulary_sorted_with_single_done(self, env_id):
        spec = reset(env_id, 3, "train")
        vocab = get_env(env_id).admissible_actions(spec)
        assert [a.text for a in vocab] == sorted(a.text for a in vocab)
        assert sum(a.is_done for a in vocab) == 1

    def test_observation_roundtrip(self, env_id):
        """A dataset row stores the state as JSON; the state reloaded from that
        text renders the episode's observation again."""
        env = get_env(env_id)
        for seed in range(10):
            spec = reset(env_id, seed, "train")
            stored = json.dumps(env.state_to_json(spec.init_state))
            reloaded = env.state_from_json(json.loads(stored))
            assert reloaded == spec.init_state
            assert env.render_observation(reloaded) == spec.init_obs

    def test_state_json_roundtrip(self, env_id):
        env = get_env(env_id)
        spec = reset(env_id, 11, "test")
        payload = env.state_to_json(spec.init_state)
        assert env.state_from_json(payload) == spec.init_state

    def test_every_sampled_episode_is_solvable(self, env_id):
        env = get_env(env_id)
        for seed in range(20):
            spec = reset(env_id, seed, "train")
            assert breadth_first_plan(env, spec) is not None

    def test_done_precondition_matches_goal_test(self, env_id):
        env = get_env(env_id)
        spec = reset(env_id, 0, "train")
        done = next(a for a in env.admissible_actions(spec) if a.is_done)
        state = spec.init_state
        assert env.precondition_holds(state, spec.goal, done) == env.is_goal(
            state, spec.goal
        )

    def test_invalid_seed_or_split_rejected(self, env_id):
        env = get_env(env_id)
        with pytest.raises(ContractError):
            env.sample_episode(-1, "train")
        with pytest.raises(ContractError):
            env.sample_episode(0, "validation")

    def test_action_from_text_rejects_foreign_text(self, env_id):
        env = get_env(env_id)
        spec = reset(env_id, 0, "train")
        with pytest.raises(ContractError):
            env.action_from_text(spec, "levitate")


class TestHanoi:
    def test_vocabulary_size_three_disks(self):
        spec = reset("hanoi", 0, "train")
        vocab = get_env("hanoi").admissible_actions(spec)
        assert len(vocab) == 3 * 3 + 1  # every (disk, rod) move plus done

    def test_goal_and_action_phrasing(self):
        spec = reset("hanoi", 0, "train")
        assert spec.goal.text.startswith("move the ")
        assert " disk in rod " in spec.goal.text
        vocab = get_env("hanoi").admissible_actions(spec)
        assert "done moving disks" in [a.text for a in vocab]

    def test_generalize_split_uses_four_disks(self):
        spec = reset("hanoi", 0, "test-generalize")
        assert spec.init_state.n_disks == 4
        vocab = get_env("hanoi").admissible_actions(spec)
        assert len(vocab) == 4 * 3 + 1

    def test_step_matches_precondition_exhaustively(self):
        env = get_env("hanoi")
        for seed in range(10):
            spec = reset("hanoi", seed, "train")
            for action in env.admissible_actions(spec):
                state = spec.init_state
                if env.precondition_holds(state, spec.goal, action):
                    env.step(state, spec.goal, action)  # must not raise
                else:
                    with pytest.raises(InfeasibleActionError):
                        env.step(state, spec.goal, action)

    def test_larger_disk_cannot_sit_on_smaller(self):
        env = get_env("hanoi")
        # smallest disk alone on rod 1, larger two stacked on rod 2
        state = HanoiState(n_disks=3, rods=((0,), (2, 1), ()))
        spec = reset("hanoi", 0, "train")
        move = next(
            a
            for a in env.admissible_actions(spec)
            if a.op == ("move", DISK_COLORS[1], "1")
        )
        assert not env.precondition_holds(state, spec.goal, move)

    def test_buried_disk_cannot_move(self):
        env = get_env("hanoi")
        state = HanoiState(n_disks=3, rods=((2, 1, 0), (), ()))
        spec = reset("hanoi", 0, "train")
        move_bottom = next(
            a
            for a in env.admissible_actions(spec)
            if a.op == ("move", DISK_COLORS[2], "2")
        )
        assert not env.precondition_holds(state, spec.goal, move_bottom)

    def test_goal_only_needs_membership(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "train")
        goal_rod = int(spec.goal.predicate[2]) - 1
        goal_disk = DISK_COLORS.index(spec.goal.predicate[1])
        rods = [(), (), ()]
        rods[goal_rod] = (goal_disk,)
        assert env.is_goal(HanoiState(n_disks=3, rods=tuple(rods)), spec.goal)


class TestBlocks:
    def test_vocabulary_size(self):
        spec = reset("blocks", 0, "train")
        state = spec.init_state
        vocab = get_env("blocks").admissible_actions(spec)
        assert len(vocab) == len(state.blocks) * len(state.bowls) + 1

    def test_goal_phrasing(self):
        spec = reset("blocks", 0, "train")
        assert spec.goal.text.startswith("put the ")
        assert " blocks in " in spec.goal.text and spec.goal.text.endswith(" bowls")

    def test_generalize_split_uses_held_out_colors(self):
        spec = reset("blocks", 0, "test-generalize")
        assert any(c in spec.goal.text for c in ("purple", "brown"))

    def test_block_can_be_placed_once(self):
        env = get_env("blocks")
        spec = reset("blocks", 0, "train")
        put = next(a for a in env.admissible_actions(spec) if not a.is_done)
        state = env.step(spec.init_state, spec.goal, put)
        assert not env.precondition_holds(state, spec.goal, put)

    def test_goal_requires_every_goal_block_in_a_goal_bowl(self):
        env = get_env("blocks")
        spec = reset("blocks", 0, "train")
        _, block_color, bowl_color = spec.goal.predicate
        state = spec.init_state
        goal_blocks = [b for b in state.blocks if b.startswith(f"{block_color} block")]
        goal_bowl = next(
            b for b in state.bowls if b.startswith(f"{bowl_color} bowl")
        )
        assert not env.is_goal(state, spec.goal)
        for block in goal_blocks:
            action = env.action_from_text(spec, f"put {block} in {goal_bowl}")
            state = env.step(state, spec.goal, action)
        assert env.is_goal(state, spec.goal)

    def test_wrong_bowl_does_not_satisfy_goal(self):
        env = get_env("blocks")
        for seed in range(30):
            spec = reset("blocks", seed, "train")
            _, block_color, bowl_color = spec.goal.predicate
            state = spec.init_state
            other_bowls = [
                b for b in state.bowls if not b.startswith(f"{bowl_color} bowl")
            ]
            if not other_bowls:
                continue
            for block in state.blocks:
                if block.startswith(f"{block_color} block"):
                    action = env.action_from_text(
                        spec, f"put {block} in {other_bowls[0]}"
                    )
                    state = env.step(state, spec.goal, action)
            assert not env.is_goal(state, spec.goal)
            return
        pytest.fail("no episode with a non-goal bowl found")


class TestGridworld:
    def test_vocabulary_contains_expected_phrases(self):
        spec = reset("gridworld", 0, "train")
        texts = [a.text for a in get_env("gridworld").admissible_actions(spec)]
        assert "drop key in void" in texts
        assert "done picking up" in texts
        assert any(t.startswith("pick up ") for t in texts)

    def test_goal_phrasing(self):
        spec = reset("gridworld", 0, "train")
        assert spec.goal.text.startswith("pick up the ")

    def test_generalize_split_uses_four_rooms(self):
        spec = reset("gridworld", 0, "test-generalize")
        assert spec.init_state.n_rooms == 4

    def test_single_hand_blocks_second_pickup(self):
        env = get_env("gridworld")
        for seed in range(60):
            spec = reset("gridworld", seed, "train")
            state = spec.init_state
            reachable = state.reachable_rooms()
            pickups = [
                a
                for a in env.admissible_actions(spec)
                if a.op[0] == "pickup"
                and any(
                    (c, k) == (a.op[1], a.op[2]) and loc in reachable
                    for c, k, loc in state.objects
                )
            ]
            if len(pickups) < 2:
                continue
            held = env.step(state, spec.goal, pickups[0])
            assert not env.precondition_holds(held, spec.goal, pickups[1])
            return
        pytest.fail("no episode with two reachable objects found")

    def test_locked_door_gates_reachability_and_toggle_opens_it(self):
        env = get_env("gridworld")
        for seed in range(200):
            spec = reset("gridworld", seed, "train")
            state = spec.init_state
            locked = [i for i, (_, lk) in enumerate(state.doors) if lk]
            if not locked:
                continue
            i = locked[0]
            reachable = state.reachable_rooms()
            if not ({i, i + 1} & reachable) or {i, i + 1} <= reachable:
                continue
            color = state.doors[i][0]
            key_pos = next(
                (loc for c, k, loc in state.objects if (c, k) == (color, "key")),
                None,
            )
            if key_pos not in reachable:
                continue
            pick_key = env.action_from_text(spec, f"pick up {color} key")
            toggle = env.action_from_text(spec, f"toggle {color} door")
            assert not env.precondition_holds(state, spec.goal, toggle)
            state = env.step(state, spec.goal, pick_key)
            state = env.step(state, spec.goal, toggle)
            assert {i, i + 1} <= state.reachable_rooms()
            return
        pytest.fail("no episode with a blocking locked door found")

    def test_dropped_key_is_destroyed(self):
        env = get_env("gridworld")
        for seed in range(200):
            spec = reset("gridworld", seed, "train")
            state = spec.init_state
            reachable = state.reachable_rooms()
            key = next(
                (
                    (c, k)
                    for c, k, loc in state.objects
                    if k == "key" and loc in reachable
                ),
                None,
            )
            if key is None:
                continue
            pick = env.action_from_text(spec, f"pick up {key[0]} key")
            drop = env.action_from_text(spec, "drop key in void")
            state = env.step(state, spec.goal, pick)
            state = env.step(state, spec.goal, drop)
            assert (*key, VOID) in state.objects
            assert f"{key[0]} key" not in env.render_observation(state)
            # picking the destroyed object up again is infeasible, not foreign
            assert env.violation(state, spec.goal, pick) == (
                f"there is no {key[0]} key left"
            )
            return
        pytest.fail("no episode with a reachable key found")


# ---------------------------------------------------------------------------
# properties on random reachable states


def _check_invariants(env_id, init, state):
    """What every state reachable from `init` keeps."""
    if env_id == "hanoi":
        assert state.n_disks == init.n_disks and len(state.rods) == len(init.rods)
        assert sorted(d for rod in state.rods for d in rod) == list(range(state.n_disks))
        for rod in state.rods:  # larger disks below smaller ones
            assert list(rod) == sorted(rod, reverse=True)
    elif env_id == "blocks":
        assert state.listing == init.listing
        assert state.placements == tuple(sorted(state.placements))
        placed = [block for block, _ in state.placements]
        assert len(placed) == len(set(placed))
        assert all(b in state.blocks and w in state.bowls for b, w in state.placements)
    else:
        assert state.n_rooms == init.n_rooms
        assert [c for c, _ in state.doors] == [c for c, _ in init.doors]
        assert 0 <= state.agent_room < state.n_rooms
        assert sum(loc == CARRIED for *_, loc in state.objects) <= 1
        assert [o[:2] for o in state.objects] == [o[:2] for o in init.objects]
        assert all(loc in (CARRIED, VOID) or 0 <= loc < state.n_rooms
                   for *_, loc in state.objects)


def _check_transition(env_id, before, action, after):
    """What one feasible step changes, and nothing more."""
    if action.is_done:
        assert after == before
    elif env_id == "hanoi":
        disk, target = DISK_COLORS.index(action.op[1]), int(action.op[2]) - 1
        assert after.rods[target] == before.rods[target] + (disk,)
        moved = [r for r in range(len(before.rods)) if after.rods[r] != before.rods[r]]
        assert len(moved) == 2
    elif env_id == "blocks":
        added = set(after.placements) - set(before.placements)
        assert added == {(action.op[1], action.op[2])}
        assert set(before.placements) <= set(after.placements)
    else:
        # doors only ever unlock, and objects only ever go to the void
        assert all(not locked or was for (_, locked), (_, was)
                   in zip(after.doors, before.doors))
        assert all(was != VOID or loc == VOID for (*_, loc), (*_, was)
                   in zip(after.objects, before.objects))


def _random_walk(env_id, seed, split, choices):
    """Yield (spec, state, action, next state or None) along a walk that picks any
    vocabulary action, feasible or not; infeasible ones are not applied.

    On the way it checks the one feasibility rule: `violation` is None iff
    `precondition_holds` iff `step` does not raise, a raised step carries the
    violation, and done is feasible exactly at goal states."""
    env = get_env(env_id)
    spec = reset(env_id, seed, split)
    vocab = env.admissible_actions(spec)
    done = next(a for a in vocab if a.is_done)
    state = spec.init_state
    for choice in choices:
        assert env.violation(state, spec.goal, done) == (
            None if env.is_goal(state, spec.goal) else "goal not reached"
        )
        action = vocab[choice % len(vocab)]
        violated = env.violation(state, spec.goal, action)
        assert env.precondition_holds(state, spec.goal, action) == (violated is None)
        if violated is None:
            nxt = env.step(state, spec.goal, action)
            yield spec, state, action, nxt
            state = nxt
        else:
            with pytest.raises(InfeasibleActionError) as raised:
                env.step(state, spec.goal, action)
            assert raised.value.condition == violated
            assert raised.value.action_text == action.text
            yield spec, state, action, None


_walks = dict(
    env_id=st.sampled_from(ENV_IDS),
    seed=st.integers(0, 300),
    split=st.sampled_from(SPLITS),
    choices=st.lists(st.integers(0, 100), max_size=15),
)


@settings(max_examples=60, deadline=None)
@given(**_walks)
def test_render_parse_render_roundtrip_on_reachable_states(env_id, seed, split, choices):
    """Every reachable state survives the trip through its stored JSON text
    and renders the same observation after it."""
    env = get_env(env_id)
    for _, state, _, nxt in _random_walk(env_id, seed, split, choices):
        for s in (state, nxt) if nxt is not None else (state,):
            text = env.render_observation(s)
            parsed = env.state_from_json(json.loads(json.dumps(env.state_to_json(s))))
            assert parsed == s
            assert env.render_observation(parsed) == text


@settings(max_examples=60, deadline=None)
@given(**_walks)
def test_render_observation_is_injective_on_reachable_states(
    env_id, seed, split, choices
):
    """Distinct reachable states render distinct text, so the observation the
    scorers condition on identifies the state. Compared: the walk's states
    and every one-step successor of each."""
    env = get_env(env_id)
    spec = reset(env_id, seed, split)
    walked = [spec.init_state] + [
        nxt for *_, nxt in _random_walk(env_id, seed, split, choices) if nxt is not None
    ]
    states = set()
    for state in walked:
        states.add(state)
        for action in env.admissible_actions(spec):
            if env.precondition_holds(state, spec.goal, action):
                states.add(env.step(state, spec.goal, action))
    assert len({env.render_observation(s) for s in states}) == len(states)


@settings(max_examples=60, deadline=None)
@given(**_walks)
def test_step_keeps_state_invariants(env_id, seed, split, choices):
    for spec, state, action, nxt in _random_walk(env_id, seed, split, choices):
        _check_invariants(env_id, spec.init_state, state)
        if nxt is not None:
            _check_invariants(env_id, spec.init_state, nxt)
            _check_transition(env_id, state, action, nxt)


def _fixpoint_reachable_rooms(state):
    """Reference: grow the agent's room set through open doors until it stops."""
    rooms = {state.agent_room}
    changed = True
    while changed:
        changed = False
        for i, (_, locked) in enumerate(state.doors):
            if locked:
                continue
            if i in rooms and i + 1 not in rooms:
                rooms.add(i + 1)
                changed = True
            if i + 1 in rooms and i not in rooms:
                rooms.add(i)
                changed = True
    return rooms


def _reference_toggle(state, color):
    """Reference door rule: the doors after toggling with the `color` key (the
    first locked `color` door next to a reachable room opens), or None when
    no such door exists."""
    reachable = _fixpoint_reachable_rooms(state)
    doors = list(state.doors)
    for i, (c, locked) in enumerate(state.doors):
        if c == color and locked and (i in reachable or i + 1 in reachable):
            doors[i] = (c, False)
            return tuple(doors)
    return None


@settings(max_examples=60, deadline=None)
@given(**{name: value for name, value in _walks.items() if name != "env_id"})
def test_gridworld_door_rule_matches_the_fixpoint_reference(seed, split, choices):
    """On reachable gridworld states, the reachable rooms, each door colour's
    toggle target and every toggle's feasibility and successor equal those
    of the fixpoint loop and door rule kept here as the reference."""
    env = get_env("gridworld")
    for spec, state, _, nxt in _random_walk("gridworld", seed, split, choices):
        for s in (state, nxt) if nxt is not None else (state,):
            assert s.reachable_rooms() == _fixpoint_reachable_rooms(s)
            for action in env.admissible_actions(spec):
                if action.op[0] != "toggle":
                    continue
                color = action.op[1]
                expected = _reference_toggle(s, color)
                opened = s.door_to_open(color)
                assert (opened is None) == (expected is None)
                holding = s.carried == (color, "key")
                assert env.precondition_holds(s, spec.goal, action) == (
                    holding and expected is not None
                )
                if holding and expected is not None:
                    assert env.step(s, spec.goal, action).doors == expected


@settings(max_examples=60, deadline=None)
@given(
    env_id=st.sampled_from(ENV_IDS),
    seed=st.integers(0, 300),
    split=st.sampled_from(SPLITS),
    other=st.tuples(st.sampled_from(ENV_IDS), st.integers(0, 300), st.sampled_from(SPLITS)),
    pick=st.integers(0, 1000),
)
def test_foreign_actions_raise_from_precondition_holds_and_step(
    env_id, seed, split, other, pick
):
    """An action from another episode's vocabulary (of any env) raises
    ContractError from `precondition_holds` and from `step` exactly when its
    text is outside this episode's vocabulary (another env's done action
    included); otherwise `step` raises InfeasibleActionError exactly when the
    precondition fails."""
    env = get_env(env_id)
    spec = reset(env_id, seed, split)
    foreign_vocab = get_env(other[0]).admissible_actions(reset(*other))
    action = foreign_vocab[pick % len(foreign_vocab)]
    own = {a.text for a in env.admissible_actions(spec)}
    state = spec.init_state
    if action.text not in own:
        with pytest.raises(ContractError):
            env.precondition_holds(state, spec.goal, action)
        with pytest.raises(ContractError):
            env.step(state, spec.goal, action)
    elif env.precondition_holds(state, spec.goal, action):
        env.step(state, spec.goal, action)
    else:
        with pytest.raises(InfeasibleActionError):
            env.step(state, spec.goal, action)


@pytest.mark.parametrize(
    "env_id,seed,split,other",
    [
        ("blocks", 0, "train", ("blocks", 0, "test-generalize")),
        ("hanoi", 0, "train", ("hanoi", 0, "test-generalize")),
        ("gridworld", 0, "train", ("blocks", 0, "train")),
        ("hanoi", 0, "train", ActionInstance.from_text(
            "move the blue disk in rod 4", op=("move", "blue", "4"))),
        ("gridworld", 0, "train", ("gridworld", 5, "train")),
    ],
)
def test_a_foreign_action_raises_contract_error(env_id, seed, split, other):
    """Foreign actions (another episode's moves, or a rod the env lacks) raise
    ContractError from every entry point: precondition_holds and step. In
    gridworld they include a pickup of an object the episode lacks."""
    env = get_env(env_id)
    spec = reset(env_id, seed, split)
    if isinstance(other, ActionInstance):
        foreign = [other]
    else:
        own = {a.text for a in env.admissible_actions(spec)}
        foreign = [
            a for a in get_env(other[0]).admissible_actions(reset(*other))
            if not a.is_done and a.text not in own
        ]
    assert foreign
    for action in foreign:
        with pytest.raises(ContractError):
            env.precondition_holds(spec.init_state, spec.goal, action)
        with pytest.raises(ContractError):
            env.step(spec.init_state, spec.goal, action)
