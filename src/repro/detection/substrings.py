"""Frequent-substring mining over nameserver names (§3.2.2).

The paper built "a tool that, given a list of domain names as input,
looks for common substrings across them", applied it to the ~300K
candidates, and read the renaming idioms off the top of the output
(PLEASEDROPTHISHOST, DROPTHISHOST, the sink domains, the EMT- test
pattern, ...). This module is that tool.

The miner counts every substring within a length window across the input
names (each name contributes each distinct substring once), keeps those
above a support threshold, and suppresses non-maximal substrings: a
substring contained in a longer surviving pattern with (nearly) the same
support adds no information and is dropped.

Counting and selection are split so the incremental engine can maintain
a standing :class:`SubstringCounter` — day-over-day candidate churn
adjusts per-name counts in place instead of re-scanning the full
candidate set — while the batch miner builds the same counter in one
pass. Selection is a pure function of the counts, so both schedules
produce identical patterns for identical name multisets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

#: Default mining parameters (the values the pipeline uses).
DEFAULT_MIN_LENGTH = 5
DEFAULT_MAX_LENGTH = 24


@dataclass(frozen=True, slots=True)
class SubstringPattern:
    """One mined pattern with its support."""

    substring: str
    support: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.substring!r} x{self.support}"


def _substrings_of(name: str, min_len: int, max_len: int) -> set[str]:
    n = len(name)
    return {
        name[start:start + length]
        for length in range(min_len, min(max_len, n) + 1)
        for start in range(n - length + 1)
    }


def _select_patterns(
    counts: "Counter[str]",
    *,
    min_support: int,
    top: int,
    containment_slack: float,
) -> list[SubstringPattern]:
    """Pure pattern selection over a substring-support counter.

    Keeps substrings above ``min_support``, ordered by (support,
    length), with non-maximal substrings removed: a pattern is dropped
    when some longer surviving pattern contains it and retains at least
    ``containment_slack`` of its support.
    """
    frequent = [
        (substring, support)
        for substring, support in counts.items()
        if support >= min_support
    ]
    # Sort so longer, better-supported strings are considered first.
    frequent.sort(key=lambda item: (-item[1], -len(item[0]), item[0]))
    kept: list[tuple[str, int]] = []
    for substring, support in frequent:
        redundant = False
        for kept_sub, kept_support in kept:
            if (
                substring in kept_sub
                and len(substring) < len(kept_sub)
                and kept_support >= containment_slack * support
            ):
                redundant = True
                break
        if not redundant:
            kept.append((substring, support))
        if len(kept) >= top * 4:
            break
    kept.sort(key=lambda item: (-item[1], -len(item[0]), item[0]))
    return [SubstringPattern(s, c) for s, c in kept[:top]]


class SubstringCounter:
    """Standing substring-support counts over a mutable name multiset.

    The incremental miner's operator state: :meth:`add` and
    :meth:`discard` adjust counts by one name's substring set, so a
    day's candidate churn costs O(changed names), not O(all names).
    The counter is a pure fold — any add/discard sequence reaching the
    same multiset yields the same counts the batch scan produces.
    """

    __slots__ = ("min_length", "max_length", "counts", "names", "revision")

    def __init__(
        self,
        *,
        min_length: int = DEFAULT_MIN_LENGTH,
        max_length: int = DEFAULT_MAX_LENGTH,
    ) -> None:
        self.min_length = min_length
        self.max_length = max_length
        self.counts: Counter[str] = Counter()
        #: The name multiset folded in so far (lower-cased).
        self.names: Counter[str] = Counter()
        #: Bumped on every mutation; lets consumers memoize selections.
        self.revision = 0

    @property
    def total(self) -> int:
        """Number of names (with multiplicity) folded in."""
        return sum(self.names.values())

    def add(self, name: str) -> None:
        """Fold one name occurrence into the counts."""
        lowered = name.lower()
        self.revision += 1
        self.names[lowered] += 1
        # Counter.update over a non-mapping counts in C (_count_elements).
        self.counts.update(
            _substrings_of(lowered, self.min_length, self.max_length)
        )

    def discard(self, name: str) -> None:
        """Remove one name occurrence; unknown names raise ``KeyError``."""
        lowered = name.lower()
        if self.names[lowered] <= 0:
            raise KeyError(f"name not in counter: {name!r}")
        self.revision += 1
        self.names[lowered] -= 1
        if self.names[lowered] == 0:
            del self.names[lowered]
        for substring in _substrings_of(lowered, self.min_length, self.max_length):
            remaining = self.counts[substring] - 1
            if remaining <= 0:
                del self.counts[substring]
            else:
                self.counts[substring] = remaining

    def select(
        self,
        *,
        min_support: int = 5,
        top: int = 50,
        containment_slack: float = 0.9,
    ) -> list[SubstringPattern]:
        """The mined patterns for the current multiset."""
        return _select_patterns(
            self.counts,
            min_support=min_support,
            top=top,
            containment_slack=containment_slack,
        )

    def state_key(self) -> dict[str, Any]:
        """A digestible value view of the multiset (for memoization)."""
        return {
            "min_length": self.min_length,
            "max_length": self.max_length,
            "names": sorted(self.names.elements()),
        }


def mine_substrings(
    names: Iterable[str],
    *,
    min_length: int = DEFAULT_MIN_LENGTH,
    max_length: int = DEFAULT_MAX_LENGTH,
    min_support: int = 5,
    top: int = 50,
    containment_slack: float = 0.9,
) -> list[SubstringPattern]:
    """Mine the most common substrings across ``names``.

    Returns up to ``top`` patterns ordered by (support, length) with
    non-maximal substrings removed (see :func:`_select_patterns`).
    """
    counter = SubstringCounter(min_length=min_length, max_length=max_length)
    for raw in names:
        counter.add(raw)
    return counter.select(
        min_support=min_support, top=top, containment_slack=containment_slack
    )


def mine_substrings_cached(
    names: Iterable[str],
    *,
    cache: Any | None = None,
    min_length: int = DEFAULT_MIN_LENGTH,
    max_length: int = DEFAULT_MAX_LENGTH,
    min_support: int = 5,
    top: int = 50,
    containment_slack: float = 0.9,
) -> list[SubstringPattern]:
    """:func:`mine_substrings` memoized through the artifact cache.

    Mining is a pure function of the name multiset and the parameters,
    so results are content-addressed: repeated folds over an unchanged
    candidate set (the common case for daily incremental advances) hit
    the cache instead of re-scanning every name.
    """
    from repro.store.artifacts import ArtifactKey, content_digest, default_cache

    name_list = sorted(raw.lower() for raw in names)
    options = {
        "min_length": min_length,
        "max_length": max_length,
        "min_support": min_support,
        "top": top,
        "containment_slack": containment_slack,
    }
    key = ArtifactKey.build(
        "mined-patterns", content_digest({"names": name_list}), options
    )
    store = cache if cache is not None else default_cache()
    return store.get_or_create(
        key,
        lambda: mine_substrings(
            name_list,
            min_length=min_length,
            max_length=max_length,
            min_support=min_support,
            top=top,
            containment_slack=containment_slack,
        ),
        memory_only=True,
    )


def patterns_matching(
    patterns: Sequence[SubstringPattern], needle: str
) -> list[SubstringPattern]:
    """The mined patterns that contain ``needle`` (for inspection/tests)."""
    needle = needle.lower()
    return [p for p in patterns if needle in p.substring or p.substring in needle]
