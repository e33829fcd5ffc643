"""Business rules applied to raw recommendations (§4.2).

"We additionally apply business rules to the recommendations to remove
unavailable products and to filter for adult products." Rules run after
VMIS-kNN scoring; because filtering can shrink the list below the 21 items
the frontend needs, callers over-fetch while there is a rule to filter by
and the rule engine truncates last.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.types import ItemId, ScoredItem

Rule = Callable[[ScoredItem, Sequence[ItemId]], bool]
"""A rule keeps an item if it returns True given (candidate, session items)."""


def exclude_unavailable(unavailable: Iterable[ItemId]) -> Rule:
    """Drop items that are out of stock or delisted."""
    blocked = frozenset(unavailable)

    def rule(candidate: ScoredItem, _session: Sequence[ItemId]) -> bool:
        return candidate.item_id not in blocked

    return rule


def exclude_adult(adult_items: Iterable[ItemId]) -> Rule:
    """Drop adult-catalog items from the default slot."""
    blocked = frozenset(adult_items)

    def rule(candidate: ScoredItem, _session: Sequence[ItemId]) -> bool:
        return candidate.item_id not in blocked

    return rule


def exclude_seen_in_session(candidate: ScoredItem, session: Sequence[ItemId]) -> bool:
    """Drop items the user already interacted with in this session."""
    return candidate.item_id not in set(session)


class BusinessRules:
    """An ordered conjunction of rules with final truncation."""

    def __init__(self, rules: Sequence[Rule] = ()) -> None:
        self._rules: list[Rule] = list(rules)

    def add(self, rule: Rule) -> "BusinessRules":
        self._rules.append(rule)
        return self

    def apply(
        self,
        recommendations: Sequence[ScoredItem],
        session_items: Sequence[ItemId],
        how_many: int,
    ) -> list[ScoredItem]:
        """Filter by every rule, preserving order, then truncate.

        Always a new list: ``recommendations`` may be a result-cache entry.
        """
        if not self._rules:
            return list(recommendations[:how_many])
        kept = [
            candidate
            for candidate in recommendations
            if all(rule(candidate, session_items) for rule in self._rules)
        ]
        return kept[:how_many]

    def __len__(self) -> int:
        return len(self._rules)
