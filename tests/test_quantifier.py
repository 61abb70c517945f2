"""Unit tests for counting quantifiers (syntax, classification, evaluation)."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.patterns import CountingQuantifier
from repro.utils import QuantifierError


class TestConstruction:
    def test_existential_default(self):
        q = CountingQuantifier.existential()
        assert q.is_existential and q.is_positive
        assert not q.is_negation and not q.is_universal

    def test_universal(self):
        q = CountingQuantifier.universal()
        assert q.is_universal and q.is_ratio and q.is_positive

    def test_negation(self):
        q = CountingQuantifier.negation()
        assert q.is_negation and not q.is_positive

    def test_numeric_constructors(self):
        assert CountingQuantifier.at_least(3).describe() == ">= 3"
        assert CountingQuantifier.exactly(2).describe() == "= 2"
        assert CountingQuantifier.more_than(1).describe() == "> 1"

    def test_ratio_constructors(self):
        assert CountingQuantifier.ratio_at_least(80).describe() == ">= 80%"
        assert CountingQuantifier.ratio_exactly(100).is_universal

    @pytest.mark.parametrize(
        "op, value, is_ratio",
        [
            ("<", 1, False),          # unsupported operator
            (">=", 0, False),         # zero only with '='
            (">=", -1, False),        # negative
            (">=", 1.5, False),       # non-integer numeric
            (">=", 0, True),          # ratio must be in (0, 100]
            (">=", 120, True),        # ratio above 100
        ],
    )
    def test_invalid_quantifiers(self, op, value, is_ratio):
        with pytest.raises(QuantifierError):
            CountingQuantifier(op, value, is_ratio)

    def test_immutability(self):
        q = CountingQuantifier.at_least(2)
        with pytest.raises(Exception):
            q.value = 5  # type: ignore[misc]


class TestEvaluation:
    @pytest.mark.parametrize(
        "quantifier, count, total, expected",
        [
            (CountingQuantifier.at_least(2), 2, 10, True),
            (CountingQuantifier.at_least(2), 1, 10, False),
            (CountingQuantifier.exactly(0), 0, 10, True),
            (CountingQuantifier.exactly(0), 1, 10, False),
            (CountingQuantifier.more_than(2), 3, 10, True),
            (CountingQuantifier.more_than(2), 2, 10, False),
            (CountingQuantifier.ratio_at_least(80), 4, 5, True),
            (CountingQuantifier.ratio_at_least(80), 3, 5, False),
            (CountingQuantifier.universal(), 5, 5, True),
            (CountingQuantifier.universal(), 4, 5, False),
            (CountingQuantifier.ratio_exactly(50), 2, 4, True),
            (CountingQuantifier.ratio_exactly(50), 3, 4, False),
        ],
    )
    def test_check(self, quantifier, count, total, expected):
        assert quantifier.check(count, total) is expected

    def test_ratio_with_zero_total_is_unsatisfiable(self):
        assert not CountingQuantifier.universal().check(0, 0)
        assert not CountingQuantifier.ratio_at_least(10).check(0, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(QuantifierError):
            CountingQuantifier.at_least(1).check(-1, 3)

    def test_numeric_threshold_for_ratios_rounds_up_for_geq(self):
        q = CountingQuantifier.ratio_at_least(80)
        assert q.numeric_threshold(5) == 4
        assert q.numeric_threshold(4) == 4   # 3.2 children is not reachable -> need 4
        assert q.numeric_threshold(10) == 8

    def test_numeric_threshold_for_numeric_quantifiers(self):
        assert CountingQuantifier.at_least(3).numeric_threshold(100) == 3

    def test_threshold_consistency_with_check(self):
        """count >= numeric_threshold(total)  <=>  check(count, total) for '>=' ratios."""
        q = CountingQuantifier.ratio_at_least(37.5)
        for total in range(1, 12):
            threshold = q.numeric_threshold(total)
            for count in range(total + 1):
                assert q.check(count, total) == (count >= threshold)


class TestBoundaries:
    """Boundary values of ``check`` and its thresholds.

    DMatch's fixpoint strategy decides a focus candidate from
    ``check(|succₑ(vx) ∩ C(u')|, |succₑ(vx)|)`` alone, with no witness
    search behind it, so each boundary below is answer-critical.
    """

    def test_ratio_exactly_at_its_threshold(self):
        half = CountingQuantifier.ratio_at_least(50)
        assert half.check(1, 2) and half.check(2, 4)
        assert not half.check(1, 3)
        strict = CountingQuantifier(">", 50.0, True)
        assert not strict.check(1, 2) and not strict.check(2, 4)
        assert strict.check(3, 4)
        # 1/3 is a repeating fraction: the tolerance must still place it.
        third = CountingQuantifier.ratio_at_least(100 / 3)
        assert third.check(1, 3) and not third.check(1, 4)

    def test_numeric_threshold_strict_ratio_rounds_down(self):
        strict = CountingQuantifier(">", 50.0, True)
        assert strict.numeric_threshold(3) == 1   # 1.5 -> 1, then "> 1"
        assert strict.numeric_threshold(4) == 2   # exactly 2, then "> 2"
        assert strict.least_bound(3) == 2
        assert strict.least_bound(4) == 3
        for total in range(1, 10):
            for count in range(total + 1):
                assert strict.check(count, total) == (
                    count > strict.numeric_threshold(total)
                )

    def test_numeric_threshold_equal_ratio_rounds_to_nearest(self):
        half = CountingQuantifier.ratio_exactly(50)
        assert half.numeric_threshold(4) == 2
        assert half.numeric_threshold(3) == 2   # round(1.5), not floor
        assert CountingQuantifier.ratio_exactly(25).numeric_threshold(6) == 2

    def test_universal_with_zero_total_and_with_a_missing_child(self):
        universal = CountingQuantifier.universal()
        assert not universal.check(0, 0)
        assert not universal.check(2, 3)
        assert not universal.check(0, 3)
        assert universal.check(3, 3)
        assert universal.numeric_threshold(3) == 3

    @pytest.mark.parametrize(
        "quantifier, universal",
        [
            (CountingQuantifier.universal(), True),
            (CountingQuantifier.ratio_exactly(100), True),
            (CountingQuantifier.ratio_at_least(100), False),   # op differs
            (CountingQuantifier.exactly(100), False),          # not a ratio
            (CountingQuantifier.ratio_exactly(50), False),     # value differs
            (CountingQuantifier.at_least(100), False),
        ],
    )
    def test_is_universal_needs_every_conjunct(self, quantifier, universal):
        assert quantifier.is_universal is universal

    @pytest.mark.parametrize(
        "quantifier, existential",
        [
            (CountingQuantifier.existential(), True),
            (CountingQuantifier.at_least(2), False),           # value differs
            (CountingQuantifier.exactly(1), False),            # op differs
            (CountingQuantifier.ratio_at_least(1), False),     # a ratio
        ],
    )
    def test_is_existential_needs_every_conjunct(self, quantifier, existential):
        # The fixpoint strategy skips the count of an existential focus edge.
        assert quantifier.is_existential is existential

    def test_ratio_above_its_threshold(self):
        assert CountingQuantifier.ratio_at_least(50).check(3, 4)
        assert CountingQuantifier(">", 50.0, True).check(4, 5)


class TestPruningSupport:
    def test_may_still_hold_for_monotone_quantifiers(self):
        q = CountingQuantifier.at_least(3)
        assert q.may_still_hold(3, 10)
        assert not q.may_still_hold(2, 10)

    def test_may_still_hold_for_ratio(self):
        q = CountingQuantifier.ratio_at_least(50)
        assert q.may_still_hold(3, 6)
        assert not q.may_still_hold(2, 6)

    def test_negation_never_pruned_by_upper_bound(self):
        assert CountingQuantifier.negation().may_still_hold(0, 10)
        assert CountingQuantifier.negation().may_still_hold(5, 10)

    def test_equality_pruned_when_upper_bound_below_target(self):
        q = CountingQuantifier.exactly(4)
        assert q.may_still_hold(4, 10)
        assert not q.may_still_hold(3, 10)


class TestMisc:
    def test_positified(self):
        assert CountingQuantifier.negation().positified().is_existential
        with pytest.raises(QuantifierError):
            CountingQuantifier.at_least(2).positified()

    def test_describe_and_str(self):
        assert str(CountingQuantifier.negation()) == "= 0"
        assert str(CountingQuantifier.universal()) == "= 100%"
        assert str(CountingQuantifier.ratio_at_least(37.5)) == ">= 37.5%"

    def test_equality_and_hash(self):
        assert CountingQuantifier.at_least(2) == CountingQuantifier(">=", 2, False)
        assert hash(CountingQuantifier.at_least(2)) == hash(CountingQuantifier(">=", 2, False))
        assert CountingQuantifier.at_least(2) != CountingQuantifier.exactly(2)


class TestChecker:
    GRID = [
        CountingQuantifier.existential(),
        CountingQuantifier.universal(),
        CountingQuantifier.negation(),
        CountingQuantifier.at_least(3),
        CountingQuantifier.exactly(2),
        CountingQuantifier.more_than(1),
        CountingQuantifier.ratio_at_least(100.0 / 3.0),
        CountingQuantifier.ratio_exactly(50.0),
        CountingQuantifier(">", 50.0, True),
    ]

    def test_check_is_the_checker_plus_validation(self):
        for quantifier in self.GRID:
            checker = quantifier.checker()
            for total in range(5):
                for count in range(total + 1):
                    assert checker(count, total) == quantifier.check(count, total)
            with pytest.raises(QuantifierError):
                quantifier.check(-1, 3)

    def test_ratio_over_no_children_is_false(self):
        # No children means no ratio to take: every ratio op is unsatisfied
        # at total 0, and none of them divides by it.
        ratios = [quantifier for quantifier in self.GRID if quantifier.is_ratio]
        assert {quantifier.op for quantifier in ratios} == {">=", ">", "="}
        for quantifier in ratios:
            for count in range(3):
                assert quantifier.check(count, 0) is False, quantifier

    def test_one_checker_per_instance(self):
        quantifier = CountingQuantifier.ratio_at_least(50.0)
        assert quantifier.checker() is quantifier.checker()

    def test_pickle_and_copy_carry_the_fields_only(self):
        quantifier = CountingQuantifier.ratio_exactly(50.0)
        quantifier.checker()
        for clone in (pickle.loads(pickle.dumps(quantifier)), copy.deepcopy(quantifier)):
            assert "_checker" not in clone.__dict__
            assert clone == quantifier and hash(clone) == hash(quantifier)
            assert clone.check(1, 2) and not clone.check(1, 3)
