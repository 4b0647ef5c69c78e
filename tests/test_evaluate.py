"""Plan execution, metrics, the evaluation grid, and report determinism."""

import concurrent.futures
import json
from collections import Counter
from dataclasses import replace

import pytest

from saycanpay import backends, decoding, evaluate
from saycanpay import oracle as oracle_module
from saycanpay.backends import TrainedSay, episode_backends
from saycanpay.core import ContractError, ModelFileError
from saycanpay.decoding import DecodingConfig, PlanResult
from saycanpay.envs import ENV_IDS, get_env, reset
from saycanpay.data import read_trajectories, split_path
from saycanpay.evaluate import (
    BackendChoice,
    EpisodeResult,
    ModelStore,
    _perfect_regressions,
    ablate,
    build_backends,
    cost_effectiveness,
    evaluate_episodes,
    execute_plan,
    relative_length,
    render_table,
    run_cells,
    run_matrix,
    summarize,
    write_report,
)
from saycanpay.models import LinearScorer, SayPolicy
from saycanpay.oracle import DELTA, ReplayCache, bfs_plan


def plan_of(actions):
    return PlanResult(
        plan=tuple(actions), per_step=(), final_score=0.0, terminated_by="done"
    )


def fake_result(reached, plan_length, optimal_length):
    return EpisodeResult(
        episode_id="x",
        plan=plan_of([]),
        executed_ok=reached,
        reached_goal=reached,
        plan_length=plan_length,
        optimal_length=optimal_length,
        wall_time=0.0,
    )


class TestExecutePlan:
    def test_expert_plan_reaches_goal(self):
        spec = reset("hanoi", 0, "test")
        traj = bfs_plan(spec)
        result = execute_plan(spec, plan_of(traj.actions), len(traj.actions))
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
        result = execute_plan(spec, plan_of([infeasible]), 3)
        assert not result.executed_ok
        assert not result.reached_goal

    def test_missing_done_means_no_success(self):
        spec = reset("hanoi", 0, "test")
        traj = bfs_plan(spec)
        truncated = plan_of(traj.actions[:-1])  # feasible but no trailing done
        result = execute_plan(spec, truncated, len(traj.actions))
        if truncated.plan:
            assert result.executed_ok
        assert not result.reached_goal

    def test_empty_plan_counts_length_one(self):
        spec = reset("hanoi", 0, "test")
        result = execute_plan(spec, plan_of([]), 3)
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
        say, can, pay = episode_backends(choice, ReplayCache(spec))
        assert say.episode is can.episode is pay.episode

    @pytest.mark.parametrize(
        "choice",
        [
            dict(say="psychic"),
            dict(say="uniform", can="psychic"),
            dict(say="uniform", can="oracle", pay="psychic"),
            dict(say="trained", can="oracle", pay="oracle"),
            dict(say="uniform", can="trained", pay="oracle"),
            dict(say="uniform", can="oracle", pay="trained"),
            dict(say="external", can="oracle", pay="oracle"),
        ],
    )
    def test_bad_choice_is_a_contract_error(self, choice):
        """An unknown name, or a trained or external Say without its policy or
        endpoint, fails when the choice is built; a trained Can or Pay without
        its model fails when an episode's backends are."""
        spec = reset("hanoi", 0, "test")
        with pytest.raises(ContractError):
            episode_backends(BackendChoice(**choice), ReplayCache(spec))


class TestEvaluateEpisodes:
    def test_parallel_matches_serial(self):
        trajectories = [bfs_plan(reset("hanoi", s, "test")) for s in range(4)]
        config = DecodingConfig(strategy="greedy-action", score_mode="saycanpay")
        cells = [(ORACLE_BACKENDS, config)]
        serial = evaluate_episodes(trajectories, cells, jobs=1)
        parallel = evaluate_episodes(trajectories, cells, jobs=2)
        assert [r.episode_id for r in serial] == [r.episode_id for r in parallel]
        for a, b in zip(serial, parallel):
            assert [x.text for x in a.plan.plan] == [x.text for x in b.plan.plan]
            assert a.reached_goal == b.reached_goal

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_cells_in_one_call_match_one_call_per_cell(
        self, jobs, tiny_data_dir, tiny_model_dir
    ):
        trajectories = read_trajectories(
            get_env("hanoi"), split_path(tiny_data_dir, "hanoi", "test")
        )
        pairs = [(t.episode.goal, t.episode.init_obs) for t in trajectories]
        assert len(set(pairs)) < len(pairs)  # some episodes repeat another's

        store = ModelStore(tiny_model_dir)

        def backends(say, can="trained", pay="trained"):
            names = {"say": say, "can": can, "pay": pay}
            return build_backends(store, "hanoi", names, 0, None, DELTA)

        trained = backends("trained")
        cells = [
            (backends("uniform", "oracle", "oracle"),
             DecodingConfig(strategy="greedy-action", score_mode="saycanpay")),
            (backends("perfect-say", "oracle", "oracle"),
             DecodingConfig(strategy="beam-action", score_mode="saycanpay", k=2)),
            (backends("perfect-say", "oracle", "oracle"),
             DecodingConfig(strategy="greedy-action", score_mode="saycan")),
            *[(trained, DecodingConfig(strategy="greedy-action", score_mode=score))
              for score in ("say", "saycan", "saycanpay")],
            (trained, DecodingConfig(strategy="beam-action", score_mode="saycanpay")),
            (trained, DecodingConfig(strategy="greedy-token", score_mode="say")),
        ]

        def outcome(results):
            return [(r.episode_id, r.plan, r.executed_ok, r.reached_goal) for r in results]

        per_cell = [r for cell in cells
                    for r in evaluate_episodes(trajectories, [cell], jobs=1)]
        together = evaluate_episodes(trajectories, cells, jobs=jobs)
        assert outcome(together) == outcome(per_cell)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_episodes_of_two_envs_in_one_call_match_one_call_per_env(
        self, jobs, tiny_data_dir
    ):
        """Each episode is planned in the env its spec names, so one call may
        mix envs."""
        per_env = [
            read_trajectories(get_env(env_id), split_path(tiny_data_dir, env_id, "test"))
            for env_id in ("hanoi", "gridworld")
        ]
        cells = [(ORACLE_BACKENDS,
                  DecodingConfig(strategy="greedy-action", score_mode="saycanpay"))]
        separate = [r for ts in per_env for r in evaluate_episodes(ts, cells, jobs=1)]
        mixed = evaluate_episodes([t for ts in per_env for t in ts], cells, jobs=jobs)
        assert {r.episode_id.split("-")[0] for r in mixed} == {"hanoi", "gridworld"}
        assert [replace(r, wall_time=0.0) for r in mixed] == [
            replace(r, wall_time=0.0) for r in separate
        ]


class TestOneCachePerEpisode:
    @pytest.mark.parametrize("env_id", ENV_IDS)
    def test_no_start_state_is_searched_twice_in_an_episode(
        self, env_id, tiny_data_dir, monkeypatch
    ):
        """Every cell of an episode reads the episode's one oracle memo, so
        across a perfect-say + oracle grid each (episode, start state) is
        searched at most once."""
        searches = []
        search = oracle_module.breadth_first_plan

        def counting_search(env, spec, start_state=None):
            searches.append((spec.episode_id, start_state))
            return search(env, spec, start_state)

        monkeypatch.setattr(oracle_module, "breadth_first_plan", counting_search)
        report = run_matrix(
            tiny_data_dir, None, [env_id], ["greedy-action", "beam-action"],
            ["say", "saycan", "saycanpay"],
            {"say": "perfect-say", "can": "oracle", "pay": "oracle"}, [0], jobs=1,
        )
        assert len(report["cells"]) == 6 and all("n" in c for c in report["cells"])
        assert searches and len(searches) == len(set(searches))


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

    def test_a_grid_at_jobs_2_starts_one_pool(self, tiny_data_dir, monkeypatch):
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        oracle = {"say": "uniform", "can": "oracle", "pay": "oracle"}
        cells = self._cells(oracle) + [
            dict(cell, strategy="beam-action", k=2) for cell in self._cells(oracle)
        ]
        report = run_cells(cells, tiny_data_dir, None, jobs=2)
        assert [c["n"] for c in report["cells"]] == [10, 10]
        assert started == [2]

    def test_say_runs_once_per_episode_and_history(
        self, tiny_data_dir, tiny_model_dir, monkeypatch
    ):
        """All six trained cells of an episode share one Say distribution per
        history; an episode that repeats another's goal and observation
        computes its own."""
        episode, queried, computed = [None], [], []
        plan_episode = evaluate.plan_episode
        action_probs = SayPolicy.action_probs
        trained_probs = TrainedSay.action_probs

        def tracking_plan(traj, *args, **kwargs):
            episode[0] = traj.episode.episode_id
            return plan_episode(traj, *args, **kwargs)

        def counting_probs(self, history, goal, vocab):
            computed.append((episode[0], history))
            return action_probs(self, history, goal, vocab)

        def querying_probs(self, history):
            queried.append((episode[0], history))
            return trained_probs(self, history)

        monkeypatch.setattr(evaluate, "plan_episode", tracking_plan)
        monkeypatch.setattr(SayPolicy, "action_probs", counting_probs)
        monkeypatch.setattr(TrainedSay, "action_probs", querying_probs)
        report = run_matrix(
            tiny_data_dir, tiny_model_dir, ["hanoi"], ["greedy-action", "beam-action"],
            ["say", "saycan", "saycanpay"], {}, [0], jobs=1,
        )
        assert len(report["cells"]) == 6 and all("n" in c for c in report["cells"])
        assert len(computed) == len(set(computed))
        assert set(computed) == set(queried) and len(queried) > len(computed)

    def test_trained_cells_run_on_tiny_models(self, tiny_data_dir, tiny_model_dir):
        report = run_cells(
            self._cells({"say": "trained", "can": "trained", "pay": "trained"}),
            tiny_data_dir,
            tiny_model_dir,
        )
        cell = report["cells"][0]
        assert "skipped" not in cell
        assert cell["backends"].startswith("say=trained")


class TestSharedRows:
    @pytest.mark.parametrize("env_id", ["blocks", "gridworld"])
    def test_can_and_pay_featurize_each_candidate_list_once(
        self, env_id, tiny_data_dir, tiny_model_dir, monkeypatch
    ):
        """In a saycanpay beam episode with trained Can and Pay, each
        (history, candidate list) is featurized once for both roles, and each
        p_can / f_pay is that model's `score` of the same list."""
        store = ModelStore(tiny_model_dir)
        choice = build_backends(store, env_id, {}, 0, None, DELTA)
        traj = max(
            read_trajectories(get_env(env_id), split_path(tiny_data_dir, env_id, "test")),
            key=lambda t: len(t.actions),
        )
        featurized, expansions = [], []
        featurize, expand = backends.featurize, decoding.expand_candidates

        def counting_featurize(goal, history, actions, profile="full"):
            featurized.append((profile, history, tuple(actions)))
            return featurize(goal, history, actions, profile)

        def recording_expand(say, can, pay, history, config):
            scored = expand(say, can, pay, history, config)
            expansions.append((history, scored))
            return scored

        monkeypatch.setattr(backends, "featurize", counting_featurize)
        monkeypatch.setattr(decoding, "expand_candidates", recording_expand)
        config = DecodingConfig(strategy="beam-action", score_mode="saycanpay")
        evaluate.plan_episode(traj, choice, config)

        lists = {(history, tuple(c.action for c in scored))
                 for history, scored in expansions if scored}
        assert len(lists) > 1
        assert Counter(featurized) == Counter(("full", h, a) for h, a in lists)
        goal = traj.episode.goal
        for history, scored in expansions:
            actions = [c.action for c in scored]
            if actions:
                assert [c.p_can for c in scored] == choice.can_model.score(goal, history, actions)
                assert [c.f_pay for c in scored] == choice.pay_model.score(goal, history, actions)


class TestAblate:
    ENVS, SEEDS = ["hanoi", "blocks"], [0, 1]

    def test_beam_size_cells_run_env_k_seed(self, tiny_data_dir, tmp_path):
        report = ablate("beam-size", tiny_data_dir, tmp_path, self.ENVS, self.SEEDS)
        assert all("skipped" in c for c in report["cells"])
        assert [(c["env"], c["k"], c["seed"]) for c in report["cells"]] == [
            (env, k, seed) for env in self.ENVS for k in (1, 2, 3) for seed in self.SEEDS
        ]

    def test_perfect_say_cells_run_env_score_say_seed(self, tiny_data_dir, tmp_path):
        report = ablate("perfect-say", tiny_data_dir, tmp_path, self.ENVS, self.SEEDS)
        # a trained Say misses its own model first, a perfect one the Can model
        missing = {"trained": "say", "perfect-say": "can"}
        got = [
            (c["env"], c["score"], c["skipped"].rsplit("/", 1)[-1], c["seed"])
            for c in report["cells"]
        ]
        assert got == [
            (env, score, f"{env}_{missing[say]}_seed{seed}.json", seed)
            for env in self.ENVS
            for score in ("saycan", "saycanpay")
            for say in ("trained", "perfect-say")
            for seed in self.SEEDS
        ]
        assert report["perfect_below_trained"] == []

    def test_unknown_ablation_rejected(self, tiny_data_dir, tmp_path):
        with pytest.raises(ContractError):
            ablate("dropout", tiny_data_dir, tmp_path, self.ENVS, self.SEEDS)


def test_perfect_regressions_flag_only_a_perfect_proposer_below_the_trained():
    def row(score, success):
        return {"env": "hanoi", "score": score, "seed": 0, "success": success}

    cells = [{"backends": {"say": say}} for say in ("trained", "perfect-say") * 3]
    rows = [
        row("saycan", 7), row("saycan", 5),        # flagged
        row("saycanpay", 4), row("saycanpay", 4),  # a tie is not flagged
        {"env": "hanoi", "score": "say", "seed": 0, "skipped": "missing"},
        row("say", 0),                             # no trained partner
    ]
    assert _perfect_regressions(cells, rows) == [
        {"env": "hanoi", "score": "saycan", "seed": 0, "trained": 7, "perfect": 5}
    ]


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
