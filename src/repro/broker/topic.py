"""Hierarchical topics and wildcard subscription matching.

Topics are ``/``-separated paths (``/xgsp/session-7/video/ssrc-1``).
Subscription patterns may use two wildcards, JMS-style:

* ``*`` matches exactly one path segment;
* ``#`` matches the remaining (zero or more) segments and must be last.

:class:`TopicTrie` stores patterns in a segment trie so matching an event
topic is O(depth), independent of subscriber count — the property the
broker's per-event routing cost model assumes.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Set, Tuple, TypeVar

T = TypeVar("T")

SINGLE = "*"
MULTI = "#"


class TopicError(ValueError):
    """Raised for malformed topics or patterns."""


def split_topic(topic: str) -> List[str]:
    if not topic.startswith("/") or topic == "/":
        raise TopicError(f"topic must start with '/': {topic!r}")
    segments = topic[1:].split("/")
    if "" in segments:
        raise TopicError(f"empty segment in topic {topic!r}")
    return segments


def validate_topic(topic: str) -> str:
    """Validate a concrete (wildcard-free) topic; returns it unchanged."""
    for segment in split_topic(topic):
        if segment in (SINGLE, MULTI):
            raise TopicError(f"wildcard {segment!r} not allowed in topic {topic!r}")
    return topic


def validate_pattern(pattern: str) -> str:
    """Validate a subscription pattern; returns it unchanged."""
    segments = split_topic(pattern)
    for i, segment in enumerate(segments):
        if segment == MULTI and i != len(segments) - 1:
            raise TopicError(f"'#' must be the last segment in {pattern!r}")
    return pattern


def compile_pattern(pattern: str) -> Tuple[str, ...]:
    """Pre-split a validated pattern for repeated fast matching."""
    return tuple(split_topic(validate_pattern(pattern)))


def match_compiled(pattern_segments: Tuple[str, ...], topic: str) -> bool:
    """Fast match of a compiled pattern against a concrete topic."""
    return match_segments(pattern_segments, topic[1:].split("/"))


def match_segments(
    pattern_segments: Tuple[str, ...], topic_segments: List[str]
) -> bool:
    """Match a compiled pattern against a pre-split topic.

    Callers dispatching one event against several patterns split the topic
    once and use this directly instead of re-splitting per pattern.
    """
    n = len(topic_segments)
    for i, pattern_segment in enumerate(pattern_segments):
        if pattern_segment == MULTI:
            return True
        if i >= n:
            return False
        if pattern_segment != SINGLE and pattern_segment != topic_segments[i]:
            return False
    return len(pattern_segments) == n


def match_topic(pattern: str, topic: str) -> bool:
    """True when ``pattern`` matches the concrete ``topic``."""
    validate_topic(topic)
    return match_compiled(compile_pattern(pattern), topic)


def _truncations(segments: List[str]) -> List[Tuple[int, str]]:
    """``(depth, "/first/depth/segments/#")`` for every depth at which a
    pattern of these segments would be truncated."""
    return [
        (depth, "/" + "/".join(segments[:depth]) + "/" + MULTI)
        for depth in range(1, len(segments))
    ]


class PatternSummary:
    """A refcounted pattern set whose prefix-collapsed summary is read,
    not recomputed.

    The cluster tier exports one aggregated interest summary per cluster
    instead of per-topic adverts.  The summary must *over*-approximate
    (a false positive costs one wasted inter-cluster forward that the
    entry gateway drops; a false negative loses events), so collapsing
    always widens: at depth ``d`` every pattern longer than ``d``
    segments is truncated to its first ``d`` and terminated with ``#``,
    and the summary is the deepest such collapse that fits the budget.
    Deterministic — same set, same summary — which the epoch-diffed
    :class:`~repro.broker.links.ClusterInterestAdvert` withdrawal logic
    relies on.

    A truncation at depth ``d`` has ``d + 1`` segments and a kept
    pattern at most ``d``, so the two never coincide and the collapsed
    size at ``d`` is ``#{patterns of <= d segments} + #{distinct depth-d
    truncations}``.  Both terms are maintained per :meth:`add` /
    :meth:`remove` in O(pattern depth); :meth:`summary` walks depths
    downward over those counts and emits at most ``budget`` strings.
    """

    __slots__ = ("_refs", "_by_length", "_truncations")

    def __init__(self) -> None:
        # pattern -> number of holders (clients / advertising brokers).
        self._refs: Dict[str, int] = {}
        # segment count -> the distinct patterns of that length.
        self._by_length: Dict[int, Set[str]] = {}
        # depth -> {"/first/d/segments/#": distinct longer patterns under it}
        self._truncations: Dict[int, Dict[str, int]] = {}

    def __len__(self) -> int:
        """Distinct patterns held."""
        return len(self._refs)

    def patterns(self) -> Set[str]:
        return set(self._refs)

    def add(self, pattern: str) -> None:
        """Count one more holder of ``pattern``."""
        refs = self._refs.get(pattern, 0)
        self._refs[pattern] = refs + 1
        if refs:
            return
        segments = split_topic(pattern)
        self._by_length.setdefault(len(segments), set()).add(pattern)
        for depth, truncation in _truncations(segments):
            counts = self._truncations.setdefault(depth, {})
            counts[truncation] = counts.get(truncation, 0) + 1

    def remove(self, pattern: str) -> None:
        """Count one holder of ``pattern`` fewer (``KeyError`` if none)."""
        refs = self._refs[pattern] - 1
        if refs:
            self._refs[pattern] = refs
            return
        del self._refs[pattern]
        segments = split_topic(pattern)
        same_length = self._by_length[len(segments)]
        same_length.remove(pattern)
        if not same_length:
            del self._by_length[len(segments)]
        for depth, truncation in _truncations(segments):
            counts = self._truncations[depth]
            if counts[truncation] == 1:
                del counts[truncation]
            else:
                counts[truncation] -= 1

    def summary(self, budget: int) -> Tuple[str, ...]:
        """The held set collapsed to at most ``budget`` patterns, sorted."""
        if len(self._refs) <= budget:
            return tuple(sorted(self._refs))
        kept = len(self._refs)
        depth = max(self._by_length)
        while depth > 1:
            kept -= len(self._by_length.get(depth, ()))
            depth -= 1
            truncated = self._truncations[depth]
            if kept + len(truncated) <= budget:
                collapsed = list(truncated)
                for length, patterns in self._by_length.items():
                    if length <= depth:
                        collapsed.extend(patterns)
                return tuple(sorted(collapsed))
        return ("/" + MULTI,)  # degenerate: everything


def summarize_patterns(patterns, budget: int = 64) -> Tuple[str, ...]:
    """Prefix-collapse a pattern set to at most ``budget`` patterns —
    the from-scratch form of :class:`PatternSummary`."""
    held = PatternSummary()
    for pattern in patterns:
        held.add(pattern)
    return held.summary(budget)


class _TrieNode(Generic[T]):
    __slots__ = ("children", "here", "multi")

    def __init__(self) -> None:
        self.children: Dict[str, _TrieNode[T]] = {}
        self.here: Set[T] = set()  # subscribers whose pattern ends here
        self.multi: Set[T] = set()  # subscribers with '#' at this point


class TopicTrie(Generic[T]):
    """Maps subscription patterns to subscriber values with fast matching.

    Besides the segment trie, the structure maintains:

    * a value→patterns reverse index, so :meth:`patterns_for` and
      :meth:`remove_value` are O(patterns of that value) rather than a
      scan of every registration (this is what makes broker-side client
      teardown cheap);
    * per-pattern refcounts (number of distinct values registered under
      each pattern), so :meth:`has_pattern` is O(1);
    * a :attr:`generation` counter bumped on every successful mutation,
      which route caches use for lazy invalidation.
    """

    def __init__(self) -> None:
        self._root: _TrieNode[T] = _TrieNode()
        # value -> {pattern: None} (a dict preserves insertion order,
        # matching the historical registration-order iteration).
        self._by_value: Dict[T, Dict[str, None]] = {}
        # pattern -> number of distinct values registered under it.
        self._pattern_refs: Dict[str, int] = {}
        self._count = 0
        #: Bumped on every successful add/remove; consumed by RouteCache.
        self.generation = 0

    def __len__(self) -> int:
        return self._count

    def add(self, pattern: str, value: T) -> bool:
        """Register ``value`` under ``pattern``; False if already present."""
        validate_pattern(pattern)
        patterns = self._by_value.setdefault(value, {})
        if pattern in patterns:
            return False
        patterns[pattern] = None
        self._pattern_refs[pattern] = self._pattern_refs.get(pattern, 0) + 1
        self._count += 1
        self.generation += 1
        node = self._root
        segments = split_topic(pattern)
        for i, segment in enumerate(segments):
            if segment == MULTI:
                node.multi.add(value)
                return True
            node = node.children.setdefault(segment, _TrieNode())
        node.here.add(value)
        return True

    def remove(self, pattern: str, value: T) -> bool:
        """Remove one registration; False if it was not present."""
        patterns = self._by_value.get(value)
        if patterns is None or pattern not in patterns:
            return False
        del patterns[pattern]
        if not patterns:
            del self._by_value[value]
        refs = self._pattern_refs[pattern] - 1
        if refs:
            self._pattern_refs[pattern] = refs
        else:
            del self._pattern_refs[pattern]
        self._count -= 1
        self.generation += 1
        segments = split_topic(pattern)
        self._remove(self._root, segments, 0, value)
        return True

    def _remove(
        self, node: _TrieNode[T], segments: List[str], i: int, value: T
    ) -> bool:
        """Recursive removal; returns True when ``node`` became empty."""
        if i == len(segments):
            node.here.discard(value)
        elif segments[i] == MULTI:
            node.multi.discard(value)
        else:
            child = node.children.get(segments[i])
            if child is not None and self._remove(child, segments, i + 1, value):
                del node.children[segments[i]]
        return not node.children and not node.here and not node.multi

    def remove_value(self, value: T) -> int:
        """Remove every pattern registered for ``value``; returns count."""
        patterns = list(self._by_value.get(value, ()))
        for pattern in patterns:
            self.remove(pattern, value)
        return len(patterns)

    def match(self, topic: str) -> Set[T]:
        """All values whose pattern matches the concrete ``topic``."""
        segments = topic[1:].split("/")
        found: Set[T] = set()
        self._match(self._root, segments, 0, found)
        return found

    def _match(
        self, node: _TrieNode[T], segments: List[str], i: int, found: Set[T]
    ) -> None:
        found |= node.multi
        if i == len(segments):
            found |= node.here
            return
        child = node.children.get(segments[i])
        if child is not None:
            self._match(child, segments, i + 1, found)
        star = node.children.get(SINGLE)
        if star is not None:
            self._match(star, segments, i + 1, found)

    def patterns_for(self, value: T) -> List[str]:
        """Patterns registered for ``value`` (registration order), O(k)."""
        return list(self._by_value.get(value, ()))

    def has_pattern(self, pattern: str) -> bool:
        """True when at least one value is registered under ``pattern``."""
        return pattern in self._pattern_refs

    def refcount(self, pattern: str) -> int:
        """Number of distinct values registered under ``pattern``."""
        return self._pattern_refs.get(pattern, 0)

    def all_patterns(self) -> Set[str]:
        return set(self._pattern_refs)

    def values(self) -> Iterator[T]:
        yield from self._by_value
