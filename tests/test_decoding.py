"""Decoding strategies: mapping, greedy/beam equivalence, beam advantages."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_greedy_action
from saycanpay.backends import UniformSay
from saycanpay.core import SCORE_MODES, ActionInstance, ContractError, History
from saycanpay.decoding import (
    DecodingConfig,
    beam_action,
    expand_candidates,
    greedy_action,
    map_to_admissible,
    run_strategy,
    word_edit_distance,
)
from saycanpay.envs import get_env, reset
from saycanpay.oracle import OracleCan, OraclePay, ReplayCache


def make_vocab(*texts):
    return [
        ActionInstance.from_text(t, op=("x", t), is_done=t.startswith("done"))
        for t in texts
    ]


class TestMapToAdmissible:
    def test_exact_match_is_identity(self):
        vocab = make_vocab("pick up yellow key", "toggle yellow door")
        assert map_to_admissible("pick up yellow key", vocab).text == (
            "pick up yellow key"
        )

    def test_paraphrase_maps_to_closest(self):
        vocab = make_vocab(
            "pick up yellow key", "toggle yellow door", "drop key in void"
        )
        assert map_to_admissible("pickup the yellow key", vocab).text == (
            "pick up yellow key"
        )

    def test_case_is_ignored(self):
        vocab = make_vocab("pick up yellow key")
        assert map_to_admissible("Pick Up Yellow Key", vocab).text == (
            "pick up yellow key"
        )

    def test_ties_break_lexicographically(self):
        vocab = make_vocab("move b", "move a")
        assert map_to_admissible("move c", vocab).text == "move a"

    def test_empty_vocab_rejected(self):
        with pytest.raises(ContractError):
            map_to_admissible("anything", [])

    def test_word_edit_distance(self):
        assert word_edit_distance(["a", "b"], ["a", "b"]) == 0
        assert word_edit_distance(["a", "b"], ["a", "c"]) == 1
        assert word_edit_distance([], ["a", "b"]) == 2
        assert word_edit_distance(["x", "a", "b"], ["a", "b"]) == 1


class TestDecodingConfig:
    def test_defaults_are_valid(self):
        config = DecodingConfig()
        assert config.strategy == "beam-action"
        assert config.m == 6 and config.k == 3

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ContractError):
            DecodingConfig(strategy="dfs")

    @pytest.mark.parametrize("k,m", [(0, 6), (7, 6)])
    def test_beam_count_bounds(self, k, m):
        with pytest.raises(ContractError):
            DecodingConfig(k=k, m=m)

    def test_max_steps_bound(self):
        with pytest.raises(ContractError):
            DecodingConfig(max_steps=0)


class _ScriptedSay:
    """Proposals keyed by the history's action texts."""

    def __init__(self, table):
        self.table = table

    def propose(self, history, m):
        key = tuple(a.text for a in history.actions)
        return self.table.get(key, [])[:m]


def _noop(history, actions):
    return [1.0] * len(actions)


# Dyadic probabilities multiply exactly, so distinct step scores differ by far
# more than float rounding (see test_sub_rounding_score_gap for why that
# matters).  0 exercises the clamp; the small grid forces ties.
_PROBS = st.sampled_from((0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0))
_TABLE_ACTIONS = make_vocab("go north", "go east", "go south", "done now", "done here")


class TestGreedyBeamEquivalence:
    @pytest.mark.parametrize("score_mode", ["say", "saycan", "saycanpay"])
    def test_beam_one_is_greedy_with_oracle_scorers(self, score_mode):
        env = get_env("hanoi")
        for seed in range(10):
            spec = reset("hanoi", seed, "test")
            say = UniformSay(env, spec)
            oracle = ReplayCache(env, spec)
            can, pay = OracleCan(oracle), OraclePay(oracle)
            config = DecodingConfig(
                strategy="beam-action", score_mode=score_mode, m=6, k=1
            )
            g = reference_greedy_action(say, can, pay, spec, config)
            b = beam_action(say, can, pay, spec, config)
            assert [a.text for a in g.plan] == [a.text for a in b.plan]
            assert g.final_score == b.final_score  # bit-identical
            assert g.per_step == b.per_step

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        score_mode=st.sampled_from(SCORE_MODES),
        m=st.integers(1, 6),
        max_steps=st.integers(1, 8),
    )
    def test_beam_one_is_greedy_on_random_tables(self, data, score_mode, m, max_steps):
        proposals, p_can, f_pay = {}, {}, {}

        class TableSay:
            def propose(self, history, m):
                key = tuple(a.text for a in history.actions)
                if key not in proposals:
                    proposals[key] = data.draw(
                        st.lists(
                            st.tuples(st.sampled_from(_TABLE_ACTIONS), _PROBS),
                            max_size=m,
                        )
                    )
                return proposals[key]

        def table(values):
            def score(history, actions):
                past = tuple(a.text for a in history.actions)
                for action in actions:
                    if (past, action.text) not in values:
                        values[past, action.text] = data.draw(_PROBS)
                return [values[past, a.text] for a in actions]
            return score

        say, can, pay = TableSay(), table(p_can), table(f_pay)
        spec = reset("hanoi", 0, "train")
        config = DecodingConfig(
            strategy="beam-action", score_mode=score_mode, m=m, k=1,
            max_steps=max_steps,
        )
        assert beam_action(say, can, pay, spec, config) == reference_greedy_action(
            say, can, pay, spec, config
        )

    def test_sub_rounding_score_gap(self):
        """Beam search ranks siblings by their accumulated sum; two step scores
        closer than its rounding error tie there and fall to the lexicographic
        order, where the reference loop still takes the larger step score."""
        a, b, c = make_vocab("go a", "go b", "go c")
        say = _ScriptedSay(
            {(): [(c, 0.0)], ("go c",): [(a, 0.5), (b, 0.5 + 2**-53)]}
        )
        spec = reset("hanoi", 0, "train")
        config = DecodingConfig(score_mode="say", m=2, k=1, max_steps=2)
        beam = beam_action(say, _noop, _noop, spec, config)
        greedy = reference_greedy_action(say, _noop, _noop, spec, config)
        assert [x.text for x in beam.plan] == ["go c", "go a"]
        assert [x.text for x in greedy.plan] == ["go c", "go b"]


class TestBeamSearch:
    def test_wider_beam_recovers_a_better_plan(self):
        spec = reset("hanoi", 0, "train")
        a = ActionInstance.from_text("alpha step", op=("x",))
        b = ActionInstance.from_text("beta step", op=("x",))
        a_done = ActionInstance.from_text("done after alpha", op=("d",), is_done=True)
        b_done = ActionInstance.from_text("done after beta", op=("d",), is_done=True)
        say = _ScriptedSay(
            {
                (): [(a, 0.9), (b, 0.1)],
                ("alpha step",): [(a_done, 0.01)],
                ("beta step",): [(b_done, 0.9)],
            }
        )
        greedy = DecodingConfig(strategy="beam-action", score_mode="say", m=2, k=1)
        wide = DecodingConfig(strategy="beam-action", score_mode="say", m=2, k=2)
        narrow = beam_action(say, _noop, _noop, spec, greedy)
        best = beam_action(say, _noop, _noop, spec, wide)
        assert [x.text for x in narrow.plan] == ["alpha step", "done after alpha"]
        assert [x.text for x in best.plan] == ["beta step", "done after beta"]
        assert best.final_score > narrow.final_score
        assert best.final_score == pytest.approx(
            (math.log(0.1) + math.log(0.9)) / 2
        )

    def test_wider_beams_never_lower_the_final_score(self):
        env = get_env("gridworld")
        for seed in range(10):
            spec = reset("gridworld", seed, "test")
            say = UniformSay(env, spec)
            oracle = ReplayCache(env, spec)
            can, pay = OracleCan(oracle), OraclePay(oracle)
            scores = []
            for k in (1, 2, 3):
                config = DecodingConfig(
                    strategy="beam-action", score_mode="saycanpay", m=6, k=k
                )
                scores.append(beam_action(say, can, pay, spec, config).final_score)
            assert scores[0] <= scores[1] + 1e-12
            assert scores[1] <= scores[2] + 1e-12

    def test_feasibility_veto_steers_greedy(self):
        feasible = ActionInstance.from_text("safe step", op=("x",))
        vetoed = ActionInstance.from_text("broken step", op=("x",))
        done = ActionInstance.from_text("done now", op=("d",), is_done=True)
        say = _ScriptedSay(
            {
                (): [(vetoed, 0.8), (feasible, 0.2)],
                ("safe step",): [(done, 1.0)],
            }
        )

        def can(history, actions):
            return [0.0 if a.text == "broken step" else 1.0 for a in actions]

        spec = reset("hanoi", 0, "train")
        config = DecodingConfig(strategy="greedy-action", score_mode="saycan", m=2,
                                k=1)
        result = greedy_action(say, can, _noop, spec, config)
        assert result.plan[0].text == "safe step"
        # the vetoed candidate's score collapses to the clamp floor
        config_say = DecodingConfig(strategy="greedy-action", score_mode="say", m=2,
                                    k=1)
        unguarded = greedy_action(say, can, _noop, spec, config_say)
        assert unguarded.plan[0].text == "broken step"


class _CountingScorer:
    """A Can or Pay role that records every candidate list it scores."""

    def __init__(self, value):
        self.value = value
        self.lists = []

    def __call__(self, history, actions):
        self.lists.append([a.text for a in actions])
        return [self.value] * len(actions)


class TestExpandCandidates:
    @pytest.mark.parametrize(
        "score_mode, can_lists, pay_lists",
        [("say", 0, 0), ("saycan", 1, 0), ("saycanpay", 1, 1)],
    )
    def test_can_and_pay_score_the_merged_list_once(
        self, score_mode, can_lists, pay_lists
    ):
        b, a, done = make_vocab("go b", "go a", "done now")
        say = _ScriptedSay({(): [(b, 0.25), (a, 0.125), (b, 0.5), (done, 0.75)]})
        can, pay = _CountingScorer(0.5), _CountingScorer(0.25)
        config = DecodingConfig(score_mode=score_mode, m=4, k=1)
        candidates = expand_candidates(say, can, pay, History("obs."), config)
        merged = ["done now", "go a", "go b"]
        assert [c.action.text for c in candidates] == merged
        assert [c.p_say for c in candidates] == [0.75, 0.125, 0.5]
        assert can.lists == [merged] * can_lists
        assert pay.lists == [merged] * pay_lists
        assert all(c.p_can == (0.5 if can_lists else 1.0) for c in candidates)
        assert all(c.f_pay == (0.25 if pay_lists else 1.0) for c in candidates)

    @pytest.mark.parametrize("score_mode", SCORE_MODES)
    def test_an_empty_proposal_scores_nothing(self, score_mode):
        can, pay = _CountingScorer(0.5), _CountingScorer(0.25)
        config = DecodingConfig(score_mode=score_mode, m=4, k=1)
        history = History("obs.")
        assert expand_candidates(_ScriptedSay({}), can, pay, history, config) == []
        assert can.lists == pay.lists == []


class TestGreedyToken:
    def test_uniform_policy_repeats_the_heaviest_prefix(self):
        env = get_env("hanoi")
        spec = reset("hanoi", 0, "train")
        say = UniformSay(env, spec)
        vocab = env.admissible_actions(spec)
        config = DecodingConfig(strategy="greedy-token", max_steps=5)
        result = run_strategy(spec, config, say, vocab=vocab)
        # the nine move actions share the "move" prefix and outweigh done;
        # ties inside the prefix resolve lexicographically
        assert all(a.text == "move the blue disk in rod 1" for a in result.plan)
        assert len(result.plan) == 5
        assert result.terminated_by == "step-limit"

    def test_missing_vocab_rejected(self):
        spec = reset("hanoi", 0, "train")
        config = DecodingConfig(strategy="greedy-token")
        with pytest.raises(ContractError):
            run_strategy(spec, config, say=None, vocab=None)


class TestRunStrategy:
    def test_dispatch_matches_direct_calls(self):
        env = get_env("blocks")
        spec = reset("blocks", 1, "test")
        say = UniformSay(env, spec)
        oracle = ReplayCache(env, spec)
        can, pay = OracleCan(oracle), OraclePay(oracle)
        config = DecodingConfig(strategy="greedy-action", score_mode="saycanpay")
        via_dispatch = run_strategy(spec, config, say, can, pay)
        direct = greedy_action(say, can, pay, spec, config)
        assert via_dispatch == direct

    def test_missing_can_pay_default_to_one(self):
        env = get_env("blocks")
        spec = reset("blocks", 1, "test")
        say = UniformSay(env, spec)
        config = DecodingConfig(strategy="greedy-action", score_mode="say")
        result = run_strategy(spec, config, say)
        assert all(c.p_can == 1.0 and c.f_pay == 1.0 for c in result.per_step)
