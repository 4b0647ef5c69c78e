"""Dataset generation, split hygiene, training samples, and persistence."""

import hashlib
import json
import re

import pytest

from saycanpay.core import ContractError, DataFileError, History
from saycanpay.data import (
    generate_dataset,
    generate_split,
    make_can_samples,
    make_pay_samples,
    pair_split,
    read_trajectories,
    split_path,
    write_trajectories,
)
from saycanpay.envs import ENV_IDS, get_env
from saycanpay.oracle import DELTA, bfs_plan

from conftest import FIELD_PROBE_IDS, FIELD_PROBES


@pytest.fixture(scope="module")
def small_sets():
    out = {}
    for env_id in ENV_IDS:
        env = get_env(env_id)
        out[env_id] = {
            "train": generate_split(env, "train", 20, 0),
            "test": generate_split(env, "test", 10, 0),
        }
    return out


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_generation_is_deterministic(env_id):
    env = get_env(env_id)
    a = generate_split(env, "train", 5, 3)
    b = generate_split(env, "train", 5, 3)
    assert [t.episode.episode_id for t in a] == [t.episode.episode_id for t in b]
    assert [[x.text for x in t.actions] for t in a] == [
        [x.text for x in t.actions] for t in b
    ]


# sha256 of write_trajectories(generate_split(env, split, 30, 0)): a change to
# BFS expansion order, to sampling or to the row format changes these bytes.
# test-generalize draws what the other splits never do: 4 disks, held-out
# colours and 4 rooms.
GOLDEN_SPLIT_SHA256 = {
    ("hanoi", "train"): "629d305196c33e794152af95dc8f8ab466f4a6144dab68b7daa7fe248871c735",
    ("hanoi", "test"): "a451947a118bc8eeb40c69fa187977d3e4b6b984227139a167c9175a8b8b5782",
    ("hanoi", "test-generalize"):
        "4c17c956a6b39695a7cd70483233a1a440a976410334218e79284a13e777c609",
    ("blocks", "train"): "534756173e2aa5c7585dcb1ba969e9c3713bf551bf4d166998ed64d09a1a6328",
    ("blocks", "test"): "8a99f2ac515bc1c122b005272f3606ad9608be4072bf66c34163b76b55bf41e0",
    ("blocks", "test-generalize"):
        "573af3c5ce6d972a2b806706e3bc36110657fdcd49d492396fb5347964dc6333",
    ("gridworld", "train"): "7bea659242bc1f1637d07347cc012e5b7bb34725b8092583680ab79136599e3b",
    ("gridworld", "test"): "2fcf86635df72ce689844e48d0f5890ea37e4f3fdab8125675557783c4bc291f",
    ("gridworld", "test-generalize"):
        "f1bc044f50f44cb6cc45d05bb2431acde2d8db2299dbe9639fccdbf5b8d6f954",
}


@pytest.mark.parametrize("env_id,split", sorted(GOLDEN_SPLIT_SHA256))
def test_generated_split_bytes_are_pinned(env_id, split, tmp_path):
    env = get_env(env_id)
    path = tmp_path / "split.jsonl"
    write_trajectories(generate_split(env, split, 30, 0), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SPLIT_SHA256[env_id, split]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_train_and_test_pair_spaces_are_disjoint(env_id, small_sets):
    for split, trajectories in small_sets[env_id].items():
        for traj in trajectories:
            assert pair_split(traj.episode) == split


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_rows_roundtrip_and_replay(env_id, small_sets, tmp_path):
    env = get_env(env_id)
    trajectories = small_sets[env_id]["train"]
    path = tmp_path / f"{env_id}.jsonl"
    write_trajectories(trajectories, path)
    restored = read_trajectories(env, path)
    assert len(restored) == len(trajectories)
    by_id = {t.episode.episode_id: t for t in trajectories}
    for traj in restored:
        original = by_id[traj.episode.episode_id]
        assert [a.text for a in traj.actions] == [a.text for a in original.actions]
        # actions replay cleanly from the stored initial state
        state = traj.episode.init_state
        for action in traj.actions:
            assert env.precondition_holds(state, traj.episode.goal, action)
            state = env.step(state, traj.episode.goal, action)
        assert env.is_goal(state, traj.episode.goal)


def test_unsorted_gridworld_objects_are_a_malformed_line(small_sets, tmp_path):
    """A stored state is read as it is: a gridworld row whose objects are out
    of order fails GridState's check, and the error names the line."""
    env = get_env("gridworld")
    path = tmp_path / "gridworld.jsonl"
    write_trajectories(small_sets["gridworld"]["train"], path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    number = next(
        n for n, row in enumerate(rows, start=1) if len(row["init_state"]["objects"]) > 1
    )
    rows[number - 1]["init_state"]["objects"].reverse()
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(DataFileError, match=f"line {number}:.*sorted order"):
        read_trajectories(env, path)


def _pop_a_disk(row):
    rod = next(r for r in row["init_state"]["rods"] if r)
    rod.pop()


def _flip_a_rod(row):
    rod = next(r for r in row["init_state"]["rods"] if len(r) > 1)
    rod.reverse()


def _name_another_env(row):
    row["env"] = "blocks"


def _blocks_and_bowls(state):
    listing = state["listing"]
    blocks = sorted(e for e in listing if " block " in f" {e} ")
    return blocks, sorted(e for e in listing if " bowl " in f" {e} ")


def _move_the_agent_outside(row):
    row["init_state"]["agent_room"] = row["init_state"]["n_rooms"]


def _put_an_object_outside(row):
    row["init_state"]["objects"][0][2] = row["init_state"]["n_rooms"]


def _place_twice(row):
    blocks, bowls = _blocks_and_bowls(row["init_state"])
    row["init_state"]["placements"] = [[blocks[0], bowls[0]], [blocks[0], bowls[1]]]


def _place_unsorted(row):
    blocks, bowls = _blocks_and_bowls(row["init_state"])
    row["init_state"]["placements"] = [[blocks[1], bowls[0]], [blocks[0], bowls[0]]]


def _place_an_unlisted_block(row):
    _, bowls = _blocks_and_bowls(row["init_state"])
    row["init_state"]["placements"] = [["pink block 9", bowls[0]]]


@pytest.mark.parametrize(
    "env_id, corrupt, named",
    [
        ("hanoi", _pop_a_disk, "each disk"),
        ("hanoi", _flip_a_rod, "not descending"),
        ("hanoi", _name_another_env, "env 'blocks' is not 'hanoi'"),
        ("blocks", _place_twice, "placed twice"),
        ("blocks", _place_unsorted, "not sorted"),
        ("blocks", _place_an_unlisted_block, "not a listed block"),
        ("gridworld", _move_the_agent_outside, "agent in room"),
        ("gridworld", _put_an_object_outside, "not in a room"),
    ],
)
def test_an_impossible_stored_state_is_a_malformed_line(
    env_id, corrupt, named, small_sets, tmp_path
):
    """A row whose state breaks the env's state rule, or that names another
    env, is refused where the split is read, and the error names its line."""
    env = get_env(env_id)
    path = tmp_path / f"{env_id}.jsonl"
    write_trajectories(small_sets[env_id]["train"], path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    number = next(
        n for n, row in enumerate(rows, start=1)
        if env_id != "hanoi" or any(len(rod) > 1 for rod in row["init_state"]["rods"])
    )
    corrupt(rows[number - 1])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(DataFileError, match=f"line {number}:.*{named}"):
        read_trajectories(env, path)


@pytest.mark.parametrize("field, value, named", FIELD_PROBES, ids=FIELD_PROBE_IDS)
def test_a_field_of_the_wrong_type_is_a_malformed_line(
    field, value, named, small_sets, tmp_path
):
    """A row whose seed, split, observation, goal or reward has the wrong
    type, or that names another split than the file's first row, is refused
    where the split is read, and the error names the file and the line."""
    env = get_env("hanoi")
    path = tmp_path / "hanoi_test.jsonl"
    write_trajectories(small_sets["hanoi"]["test"], path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[1][field] = value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    where = f"{re.escape(str(path))} line 2:.*{re.escape(named)}"
    with pytest.raises(DataFileError, match=where):
        read_trajectories(env, path)


def test_jsonl_schema_and_sorted_order(small_sets, tmp_path):
    path = tmp_path / "rows.jsonl"
    write_trajectories(small_sets["blocks"]["train"], path)
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    ids = [r["episode_id"] for r in rows]
    assert ids == sorted(ids)
    for row in rows:
        assert set(row) == {
            "episode_id", "env", "split", "seed", "goal", "goal_predicate",
            "init_obs", "init_state", "actions", "reward", "optimal_length",
        }
        assert row["reward"] == 1
        assert row["optimal_length"] == len(row["actions"])
        assert row["actions"][-1].startswith("done")


def test_rewrites_are_byte_identical(small_sets, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trajectories(small_sets["hanoi"]["train"], a)
    write_trajectories(small_sets["hanoi"]["train"], b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_dataset_summary(tmp_path):
    summary = generate_dataset("hanoi", {"train": 5, "test": 3}, 0, tmp_path)
    assert summary["train"]["count"] == 5
    assert summary["test"]["count"] == 3
    assert split_path(tmp_path, "hanoi", "train").exists()
    assert summary["train"]["mean_optimal_length"] >= 1.0


def test_generate_split_rejects_bad_count():
    with pytest.raises(ContractError):
        generate_split(get_env("hanoi"), "train", 0, 0)


class TestCanSamples:
    def test_structure_and_determinism(self, small_sets):
        trajectories = small_sets["gridworld"]["train"]
        samples = make_can_samples(trajectories, seed=0)
        again = make_can_samples(trajectories, seed=0)
        assert len(samples) == len(again) > 0
        for s, t in zip(samples, again):
            assert (s.positive.text, s.neg_same.text, s.neg_cross.text) == (
                t.positive.text, t.neg_same.text, t.neg_cross.text
            )
        for s in samples:
            assert s.neg_same.text != s.positive.text
            assert s.neg_cross.text != s.positive.text

    def test_positive_is_the_expert_action(self, small_sets):
        trajectories = small_sets["blocks"]["train"]
        samples = make_can_samples(trajectories, seed=0)
        expert_steps = {
            (t.episode.goal.text, len(h), a.text)
            for t in trajectories
            for h, a in _steps(t)
        }
        for s in samples:
            key = (s.goal.text, len(s.history.actions), s.positive.text)
            assert key in expert_steps

    def test_needs_two_trajectories(self, small_sets):
        with pytest.raises(ContractError):
            make_can_samples(small_sets["hanoi"]["train"][:1], seed=0)


def _steps(traj):
    history = History(traj.episode.init_obs)
    for action in traj.actions:
        yield history, action
        history = history.extended(action)


class TestPaySamples:
    def test_targets_follow_discount_law(self, small_sets):
        trajectories = small_sets["hanoi"]["train"]
        samples = make_pay_samples(trajectories, DELTA, seed=0)
        assert len(samples) == 2 * sum(len(t.actions) for t in trajectories)
        # samples alternate positive / zero-target negative in trajectory order
        cursor = 0
        for traj in trajectories:
            horizon = len(traj.actions)
            chunk = samples[cursor : cursor + 2 * horizon]
            cursor += 2 * horizon
            for t, (pos, neg) in enumerate(
                zip(chunk[0::2], chunk[1::2]), start=1
            ):
                assert pos.action.text == traj.actions[t - 1].text
                assert pos.target == pytest.approx(DELTA ** (horizon - t))
                assert neg.target == 0.0

    def test_three_step_episode_targets(self, small_sets):
        for env_id in ENV_IDS:
            for traj in small_sets[env_id]["train"]:
                if len(traj.actions) != 3:
                    continue
                samples = make_pay_samples([traj, small_sets[env_id]["train"][0]],
                                           DELTA, seed=0)
                mine = [
                    s.target
                    for s in samples
                    if s.target > 0 and s.goal.text == traj.episode.goal.text
                    and s.history.init_obs == traj.episode.init_obs
                ][:3]
                assert mine == pytest.approx([0.36, 0.6, 1.0])
                return
        pytest.fail("no three-step expert episode found")

    def test_final_done_target_is_one_and_targets_increase(self, small_sets):
        trajectories = small_sets["blocks"]["train"]
        traj = trajectories[0]
        samples = make_pay_samples(trajectories, DELTA, seed=0)
        mine = [
            s
            for s in samples
            if s.target > 0 and s.goal.text == traj.episode.goal.text
            and s.history.init_obs == traj.episode.init_obs
        ][: len(traj.actions)]
        targets = [s.target for s in mine]
        assert targets[-1] == 1.0
        assert all(a < b for a, b in zip(targets, targets[1:]))

    def test_needs_two_trajectories(self, small_sets):
        with pytest.raises(ContractError):
            make_pay_samples(small_sets["hanoi"]["train"][:1], DELTA, seed=0)


def test_expert_trajectories_are_minimal(small_sets):
    for traj in small_sets["hanoi"]["train"][:10]:
        assert len(traj.actions) == len(bfs_plan(traj.episode).actions)
