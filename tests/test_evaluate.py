"""Plan execution, metrics, the evaluation grid, and report determinism."""

import json

import pytest

from saycanpay.backends import episode_backends
from saycanpay.core import ContractError, ModelFileError
from saycanpay.decoding import DecodingConfig, PlanResult
from saycanpay.envs import get_env, reset
from saycanpay.evaluate import (
    BackendChoice,
    EpisodeResult,
    ModelStore,
    cost_effectiveness,
    evaluate_episodes,
    execute_plan,
    plan_episode,
    relative_length,
    render_table,
    run_cells,
    summarize,
    write_report,
)
from saycanpay.models import LinearScorer
from saycanpay.oracle import bfs_plan


def plan_of(actions):
    return PlanResult(
        plan=tuple(actions), per_step=(), final_score=0.0, terminated_by="done"
    )


def fake_result(reached, plan_length, optimal_length):
    return EpisodeResult(
        episode_id="x",
        config_fingerprint="f",
        plan=plan_of([]),
        executed_ok=reached,
        reached_goal=reached,
        plan_length=plan_length,
        optimal_length=optimal_length,
        wall_time=0.0,
    )


class TestExecutePlan:
    def test_expert_plan_reaches_goal(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "test")
        traj = bfs_plan(env, spec)
        result = execute_plan(env, spec, plan_of(traj.actions), len(traj.actions))
        assert result.executed_ok and result.reached_goal
        assert result.plan_length == result.optimal_length == len(traj.actions)

    def test_violation_halts_execution(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "test")
        infeasible = next(
            a
            for a in env.admissible_actions(spec)
            if not env.precondition_holds(spec.init_state, spec.goal, a)
        )
        result = execute_plan(env, spec, plan_of([infeasible]), 3)
        assert not result.executed_ok
        assert not result.reached_goal

    def test_missing_done_means_no_success(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "test")
        traj = bfs_plan(env, spec)
        truncated = plan_of(traj.actions[:-1])  # feasible but no trailing done
        result = execute_plan(env, spec, truncated, len(traj.actions))
        if truncated.plan:
            assert result.executed_ok
        assert not result.reached_goal

    def test_empty_plan_counts_length_one(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "test")
        result = execute_plan(env, spec, plan_of([]), 3)
        assert result.plan_length == 1
        assert not result.reached_goal


class TestMetrics:
    def test_cost_effectiveness_counts_optimal_successes(self):
        results = [
            fake_result(True, 2, 2),   # optimal success
            fake_result(True, 4, 2),   # longer success
            fake_result(False, 2, 2),  # failure
        ]
        assert cost_effectiveness(results) == 1

    def test_relative_length_cases(self):
        assert relative_length(fake_result(True, 3, 3)) == 1.0
        assert relative_length(fake_result(False, 3, 3)) == 0.0
        assert relative_length(fake_result(True, 5, 3)) == pytest.approx(0.6)

    def test_summarize_keys_and_values(self):
        results = [fake_result(True, 2, 2), fake_result(False, 4, 2)]
        summary = summarize(results)
        assert summary == {
            "n": 2,
            "success": 1,
            "cost_effective": 1,
            "relative_length_mean": 0.5,
            "relative_length_std": 0.5,
        }


ORACLE_BACKENDS = BackendChoice(say="uniform", can="oracle", pay="oracle")


class TestEpisodeBackends:
    def test_oracle_roles_share_one_oracle(self):
        spec = reset("hanoi", 0, "test")
        choice = BackendChoice(say="perfect-say", can="oracle", pay="oracle")
        say, can, pay = episode_backends(choice, get_env("hanoi"), spec)
        assert say.oracle is can.oracle is pay.oracle

    @pytest.mark.parametrize(
        "choice",
        [
            BackendChoice(say="psychic"),
            BackendChoice(say="uniform", can="psychic"),
            BackendChoice(say="uniform", can="oracle", pay="psychic"),
            BackendChoice(say="trained", can="oracle", pay="oracle"),
            BackendChoice(say="uniform", can="trained", pay="oracle"),
            BackendChoice(say="uniform", can="oracle", pay="trained"),
            BackendChoice(say="external", can="oracle", pay="oracle"),
        ],
    )
    def test_bad_choice_is_a_contract_error(self, choice):
        spec = reset("hanoi", 0, "test")
        with pytest.raises(ContractError):
            episode_backends(choice, get_env("hanoi"), spec)


class TestEvaluateEpisodes:
    def test_parallel_matches_serial(self):
        env = get_env("hanoi")
        trajectories = [bfs_plan(env, reset("hanoi", s, "test")) for s in range(4)]
        config = DecodingConfig(strategy="greedy-action", score_mode="saycanpay")
        serial = evaluate_episodes("hanoi", trajectories, ORACLE_BACKENDS, config, 1)
        parallel = evaluate_episodes("hanoi", trajectories, ORACLE_BACKENDS, config, 2)
        assert [r.episode_id for r in serial] == [r.episode_id for r in parallel]
        for a, b in zip(serial, parallel):
            assert [x.text for x in a.plan.plan] == [x.text for x in b.plan.plan]
            assert a.reached_goal == b.reached_goal

    def test_fingerprint_captures_the_configuration(self):
        env = get_env("hanoi")
        traj = bfs_plan(env, reset("hanoi", 0, "test"))
        config = DecodingConfig(strategy="beam-action", score_mode="saycan", m=6, k=2)
        result = plan_episode("hanoi", traj, ORACLE_BACKENDS, config)
        assert result.config_fingerprint == (
            "hanoi|beam-action|saycan|m=6,k=2|say=uniform,can=oracle,pay=oracle,seed=0"
        )


class TestModelStore:
    def test_load_returns_none_for_missing_file(self, tmp_path):
        store = ModelStore(tmp_path)
        assert store.load("hanoi", "can", 0) is None
        assert store.path("hanoi", "can", 0).name == "hanoi_can_seed0.json"

    def test_load_caches_models(self, tiny_model_dir):
        store = ModelStore(tiny_model_dir)
        a = store.load("hanoi", "can", 0)
        b = store.load("hanoi", "can", 0)
        assert a is b and a is not None

    def test_load_rejects_a_file_holding_another_model(self, tmp_path):
        store = ModelStore(tmp_path)
        LinearScorer("pay", "hanoi", head="sigmoid").save(store.path("hanoi", "can", 0))
        with pytest.raises(ModelFileError, match="hanoi_can_seed0.json"):
            store.load("hanoi", "can", 0)


class TestRunCells:
    def _cells(self, backends):
        return [
            {
                "env": "hanoi",
                "split": "test",
                "strategy": "greedy-action",
                "score": "saycanpay",
                "seed": 0,
                "backends": backends,
                "m": 6,
                "k": 1,
            }
        ]

    def test_missing_models_mark_the_cell_skipped(self, tiny_data_dir, tmp_path):
        report = run_cells(
            self._cells({"say": "trained", "can": "trained", "pay": "trained"}),
            tiny_data_dir,
            tmp_path,
        )
        cell = report["cells"][0]
        assert "missing model file" in cell["skipped"]
        assert "skipped" in report["table"]

    def test_oracle_cells_produce_metrics(self, tiny_data_dir):
        report = run_cells(
            self._cells({"say": "uniform", "can": "oracle", "pay": "oracle"}),
            tiny_data_dir,
            None,
        )
        cell = report["cells"][0]
        assert cell["n"] == 10
        assert 0 <= cell["success"] <= 10
        assert report["max_steps"] == 20
        assert "hanoi" in report["table"]

    def test_reports_are_deterministic(self, tiny_data_dir, tmp_path):
        cells = self._cells({"say": "uniform", "can": "oracle", "pay": "oracle"})
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_report(run_cells(cells, tiny_data_dir, None, jobs=1), a_path)
        write_report(run_cells(cells, tiny_data_dir, None, jobs=2), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()
        payload = json.loads(a_path.read_text())
        assert set(payload) == {"max_steps", "cells", "table"}

    def test_trained_cells_run_on_tiny_models(self, tiny_data_dir, tiny_model_dir):
        report = run_cells(
            self._cells({"say": "trained", "can": "trained", "pay": "trained"}),
            tiny_data_dir,
            tiny_model_dir,
        )
        cell = report["cells"][0]
        assert "skipped" not in cell
        assert cell["backends"].startswith("say=trained")


def test_render_table_alignment():
    cells = [
        {
            "env": "hanoi", "split": "test", "strategy": "greedy-action",
            "score": "say", "seed": 0, "k": 1, "n": 10, "success": 5,
            "cost_effective": 4, "relative_length_mean": 0.5,
            "relative_length_std": 0.1,
        }
    ]
    table = render_table(cells)
    lines = table.splitlines()
    assert len(lines) == 2
    assert "success" in lines[0]
    assert "0.500±0.100" in lines[1]
