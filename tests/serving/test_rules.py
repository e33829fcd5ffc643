"""Tests for the business-rule engine."""

from __future__ import annotations

from repro.core.types import ScoredItem
from repro.serving.rules import (
    BusinessRules,
    exclude_adult,
    exclude_seen_in_session,
    exclude_unavailable,
)


def scored(*item_ids):
    return [ScoredItem(i, 10.0 - n) for n, i in enumerate(item_ids)]


class TestIndividualRules:
    def test_exclude_unavailable(self):
        rule = exclude_unavailable({2, 4})
        assert rule(ScoredItem(1, 1.0), []) is True
        assert rule(ScoredItem(2, 1.0), []) is False

    def test_exclude_adult(self):
        rule = exclude_adult([7])
        assert rule(ScoredItem(7, 1.0), []) is False
        assert rule(ScoredItem(8, 1.0), []) is True

    def test_exclude_seen_in_session(self):
        assert exclude_seen_in_session(ScoredItem(5, 1.0), [5, 6]) is False
        assert exclude_seen_in_session(ScoredItem(4, 1.0), [5, 6]) is True


class TestBusinessRules:
    def test_empty_ruleset_only_truncates(self):
        rules = BusinessRules()
        assert rules.apply(scored(1, 2, 3), [], how_many=2) == scored(1, 2, 3)[:2]

    def test_empty_ruleset_returns_a_new_list(self):
        """The caller's list may be a result-cache entry: never hand it on."""
        rules = BusinessRules()
        for raw in (scored(1, 2, 3), scored(1), []):
            for how_many in (0, 1, len(raw), len(raw) + 5):
                result = rules.apply(raw, [], how_many)
                assert result == raw[:how_many]
                assert result is not raw
                assert isinstance(result, list)
        as_tuple = tuple(scored(4, 5))
        assert rules.apply(as_tuple, [], 5) == list(as_tuple)
        assert isinstance(rules.apply(as_tuple, [], 5), list)

    def test_conjunction_of_rules(self):
        rules = BusinessRules(
            [exclude_unavailable({1}), exclude_adult({2}), exclude_seen_in_session]
        )
        result = rules.apply(scored(1, 2, 3, 4), [3], how_many=10)
        assert [s.item_id for s in result] == [4]

    def test_order_preserved(self):
        rules = BusinessRules([exclude_unavailable({2})])
        result = rules.apply(scored(5, 2, 1, 9), [], how_many=10)
        assert [s.item_id for s in result] == [5, 1, 9]

    def test_add_chains(self):
        rules = BusinessRules().add(exclude_unavailable({1})).add(exclude_adult({2}))
        assert len(rules) == 2

    def test_truncation_after_filtering(self):
        rules = BusinessRules([exclude_unavailable({1, 2})])
        result = rules.apply(scored(1, 2, 3, 4, 5), [], how_many=2)
        assert [s.item_id for s in result] == [3, 4]
