"""Score algebra and shared value types."""

import math

import pytest

from saycanpay.core import (
    CLAMP_EPS,
    ActionInstance,
    ContractError,
    GoalSpec,
    History,
    accumulate,
    clamp,
    decode_score,
    length_normalize,
)


class TestDecodeScore:
    def test_identity_case(self):
        assert decode_score(1.0, 1.0, 1.0, "saycanpay") == 0.0

    def test_say_mode_ignores_can_and_pay(self):
        assert decode_score(0.5, 0.7, 0.2, "say") == pytest.approx(math.log(0.5))

    def test_zero_factor_clamped(self):
        assert decode_score(0.5, 0.0, 0.9, "saycanpay") == pytest.approx(
            math.log(1e-9)
        )

    def test_saycan_uses_two_factors(self):
        assert decode_score(0.5, 0.5, 0.1, "saycan") == pytest.approx(math.log(0.25))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError):
            decode_score(0.5, 0.5, 0.5, "paysaycan")

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_out_of_range_probability_rejected(self, bad):
        with pytest.raises(ContractError):
            decode_score(bad, 0.5, 0.5, "say")

    def test_monotone_in_each_factor(self):
        base = decode_score(0.4, 0.5, 0.6, "saycanpay")
        assert decode_score(0.5, 0.5, 0.6, "saycanpay") >= base
        assert decode_score(0.4, 0.6, 0.6, "saycanpay") >= base
        assert decode_score(0.4, 0.5, 0.7, "saycanpay") >= base

    def test_mode_nesting(self):
        args = (0.7, 0.6, 0.5)
        assert decode_score(*args, "saycan") <= decode_score(*args, "say")
        assert decode_score(*args, "saycanpay") <= decode_score(*args, "saycan")


class TestAccumulate:
    def test_zero_accumulator(self):
        assert accumulate(0.0, -0.69) == pytest.approx(-0.69)

    def test_addition(self):
        assert accumulate(-1.0, -0.5) == pytest.approx(-1.5)

    def test_clamp_floor_twice(self):
        floor = math.log(CLAMP_EPS)
        assert accumulate(floor, floor) == pytest.approx(2 * floor)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            accumulate(float("inf"), 0.0)
        with pytest.raises(ContractError):
            accumulate(0.0, float("nan"))


class TestLengthNormalize:
    def test_basic(self):
        assert length_normalize(-3.0, 3) == pytest.approx(-1.0)

    def test_identity(self):
        assert length_normalize(-0.69, 1) == pytest.approx(-0.69)

    def test_fraction(self):
        assert length_normalize(-4.2, 6) == pytest.approx(-0.7)

    def test_zero_length_rejected(self):
        with pytest.raises(ContractError):
            length_normalize(-1.0, 0)


class TestClamp:
    def test_floor(self):
        assert clamp(0.0) == CLAMP_EPS

    def test_passthrough(self):
        assert clamp(0.3) == 0.3


class TestValueTypes:
    def test_action_tokens_must_join_to_text(self):
        with pytest.raises(ContractError):
            ActionInstance(text="pick up", tokens=("pick", "it", "up"), op=("x",))

    def test_from_text_roundtrip(self):
        action = ActionInstance.from_text("pick up yellow key", op=("pickup",))
        assert action.tokens == ("pick", "up", "yellow", "key")
        assert not action.is_done

    def test_goal_requires_text_and_predicate(self):
        with pytest.raises(ContractError):
            GoalSpec(text="", predicate=("p",))
        with pytest.raises(ContractError):
            GoalSpec(text="goal", predicate=())

    def test_history_extension_is_persistent(self):
        a = ActionInstance.from_text("done", op=("done",), is_done=True)
        h0 = History("obs")
        h1 = h0.extended(a)
        assert len(h0) == 0
        assert len(h1) == 1
        assert h1.actions[-1] is a
