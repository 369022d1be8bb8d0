"""Tests for topic validation and wildcard matching."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.broker.topic import (
    PatternSummary,
    TopicError,
    TopicTrie,
    compile_pattern,
    match_compiled,
    match_topic,
    summarize_patterns,
    validate_pattern,
    validate_topic,
)


class TestValidation:
    def test_topic_must_start_with_slash(self):
        with pytest.raises(TopicError):
            validate_topic("no-slash")

    def test_empty_segment_rejected(self):
        with pytest.raises(TopicError):
            validate_topic("/a//b")

    def test_root_rejected(self):
        with pytest.raises(TopicError):
            validate_topic("/")

    def test_wildcards_not_allowed_in_concrete_topics(self):
        with pytest.raises(TopicError):
            validate_topic("/a/*/b")
        with pytest.raises(TopicError):
            validate_topic("/a/#")

    def test_multi_wildcard_must_be_last(self):
        with pytest.raises(TopicError):
            validate_pattern("/a/#/b")
        assert validate_pattern("/a/#") == "/a/#"

    def test_valid_patterns_accepted(self):
        for pattern in ("/a", "/a/b/c", "/a/*/c", "/#", "/a/*"):
            validate_pattern(pattern)


class TestMatching:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("/a/b", "/a/b", True),
            ("/a/b", "/a/c", False),
            ("/a/b", "/a/b/c", False),
            ("/a/*", "/a/b", True),
            ("/a/*", "/a/b/c", False),
            ("/a/*/c", "/a/x/c", True),
            ("/a/*/c", "/a/x/d", False),
            ("/#", "/anything/at/all", True),
            ("/a/#", "/a", True),  # '#' matches zero or more segments
            ("/a/#", "/a/b", True),
            ("/a/#", "/a/b/c/d", True),
            ("/*/b", "/a/b", True),
            ("/*", "/a", True),
            ("/*", "/a/b", False),
        ],
    )
    def test_match(self, pattern, topic, expected):
        assert match_topic(pattern, topic) is expected

    def test_compiled_matches_agree_with_match_topic(self):
        pattern, topic = "/session/*/video/#", "/session/9/video/ssrc/3"
        assert match_compiled(compile_pattern(pattern), topic) is True
        assert match_topic(pattern, topic) is True


class TestTrie:
    def test_exact_match(self):
        trie = TopicTrie()
        trie.add("/a/b", "s1")
        trie.add("/a/c", "s2")
        assert trie.match("/a/b") == {"s1"}
        assert trie.match("/a/c") == {"s2"}
        assert trie.match("/a/d") == set()

    def test_single_wildcard(self):
        trie = TopicTrie()
        trie.add("/a/*/c", "s1")
        assert trie.match("/a/x/c") == {"s1"}
        assert trie.match("/a/x/d") == set()
        assert trie.match("/a/x/y/c") == set()

    def test_multi_wildcard(self):
        trie = TopicTrie()
        trie.add("/a/#", "s1")
        assert trie.match("/a/b") == {"s1"}
        assert trie.match("/a/b/c/d") == {"s1"}
        assert trie.match("/b/a") == set()

    def test_overlapping_patterns_union(self):
        trie = TopicTrie()
        trie.add("/a/b", "exact")
        trie.add("/a/*", "star")
        trie.add("/#", "all")
        assert trie.match("/a/b") == {"exact", "star", "all"}
        assert trie.match("/a/z") == {"star", "all"}
        assert trie.match("/q") == {"all"}

    def test_same_value_multiple_patterns(self):
        trie = TopicTrie()
        trie.add("/a/b", "s")
        trie.add("/c/*", "s")
        assert sorted(trie.patterns_for("s")) == ["/a/b", "/c/*"]

    def test_duplicate_add_returns_false(self):
        trie = TopicTrie()
        assert trie.add("/a", "s") is True
        assert trie.add("/a", "s") is False
        assert len(trie) == 1

    def test_remove(self):
        trie = TopicTrie()
        trie.add("/a/b", "s1")
        trie.add("/a/b", "s2")
        assert trie.remove("/a/b", "s1") is True
        assert trie.match("/a/b") == {"s2"}
        assert trie.remove("/a/b", "missing") is False

    def test_remove_prunes_empty_nodes(self):
        trie = TopicTrie()
        trie.add("/a/b/c/d", "s")
        trie.remove("/a/b/c/d", "s")
        assert trie._root.children == {}

    def test_remove_value_clears_all_patterns(self):
        trie = TopicTrie()
        trie.add("/a", "s")
        trie.add("/b/#", "s")
        trie.add("/c", "other")
        assert trie.remove_value("s") == 2
        assert trie.match("/a") == set()
        assert trie.match("/c") == {"other"}

    def test_all_patterns(self):
        trie = TopicTrie()
        trie.add("/a", "x")
        trie.add("/a", "y")
        trie.add("/b/*", "x")
        assert trie.all_patterns() == {"/a", "/b/*"}

    def test_trie_agrees_with_match_topic_on_corpus(self):
        patterns = ["/a/b", "/a/*", "/a/#", "/*/b", "/#", "/a/b/c", "/x/*/z"]
        topics = ["/a/b", "/a/c", "/a/b/c", "/x/y/z", "/q", "/x/y/w"]
        trie = TopicTrie()
        for pattern in patterns:
            trie.add(pattern, pattern)
        for topic in topics:
            expected = {p for p in patterns if match_topic(p, topic)}
            assert trie.match(topic) == expected, topic

    def test_overlapping_star_and_hash_for_one_value(self):
        trie = TopicTrie()
        trie.add("/a/*", "s")
        trie.add("/a/#", "s")
        trie.add("/*/b", "s")
        assert trie.match("/a/b") == {"s"}
        assert trie.match("/a/b/c") == {"s"}  # only '#' matches, no dupes
        trie.remove("/a/#", "s")
        assert trie.match("/a/b/c") == set()
        assert trie.match("/a/b") == {"s"}  # '/a/*' and '/*/b' still live

    def test_remove_value_with_many_patterns(self):
        trie = TopicTrie()
        patterns = [f"/sessions/s{i}/video" for i in range(50)]
        patterns += [f"/sessions/s{i}/#" for i in range(50)]
        for pattern in patterns:
            trie.add(pattern, "bulk")
        trie.add("/sessions/s0/video", "other")
        assert trie.remove_value("bulk") == 100
        assert len(trie) == 1
        assert trie.match("/sessions/s0/video") == {"other"}
        assert trie.match("/sessions/s9/audio") == set()


class TestReverseIndex:
    def test_refcounts_track_distinct_values(self):
        trie = TopicTrie()
        assert trie.has_pattern("/a") is False
        trie.add("/a", "x")
        trie.add("/a", "y")
        assert trie.refcount("/a") == 2
        trie.remove("/a", "x")
        assert trie.has_pattern("/a") is True
        trie.remove("/a", "y")
        assert trie.has_pattern("/a") is False
        assert trie.refcount("/a") == 0

    def test_consistency_after_interleaved_add_remove(self):
        trie = TopicTrie()
        operations = [
            ("add", "/a/b", "v1"), ("add", "/a/*", "v1"),
            ("add", "/a/b", "v2"), ("remove", "/a/b", "v1"),
            ("add", "/c/#", "v1"), ("remove", "/a/*", "v1"),
            ("add", "/a/b", "v1"), ("remove", "/a/b", "v2"),
            ("remove", "/nope", "v1"),  # no-op
        ]
        registered = set()
        for op, pattern, value in operations:
            if op == "add":
                assert trie.add(pattern, value) is ((pattern, value) not in registered)
                registered.add((pattern, value))
            else:
                assert trie.remove(pattern, value) is ((pattern, value) in registered)
                registered.discard((pattern, value))
        assert len(trie) == len(registered)
        for value in ("v1", "v2"):
            expected = sorted(p for (p, v) in registered if v == value)
            assert sorted(trie.patterns_for(value)) == expected
        assert trie.all_patterns() == {p for (p, _v) in registered}
        for pattern in trie.all_patterns():
            assert trie.refcount(pattern) == sum(
                1 for (p, _v) in registered if p == pattern
            )
        assert set(trie.values()) == {v for (_p, v) in registered}

    def test_patterns_for_preserves_registration_order(self):
        trie = TopicTrie()
        trie.add("/z", "s")
        trie.add("/a", "s")
        trie.add("/m/#", "s")
        assert trie.patterns_for("s") == ["/z", "/a", "/m/#"]

    def test_generation_bumps_only_on_mutation(self):
        trie = TopicTrie()
        generation = trie.generation
        trie.add("/a", "s")
        assert trie.generation == generation + 1
        trie.add("/a", "s")  # duplicate: no mutation
        assert trie.generation == generation + 1
        trie.match("/a")  # reads never bump
        trie.patterns_for("s")
        assert trie.generation == generation + 1
        trie.remove("/a", "missing")  # absent: no mutation
        assert trie.generation == generation + 1
        trie.remove("/a", "s")
        assert trie.generation == generation + 2
        trie.add("/b/#", "s")
        trie.add("/c", "s")
        trie.remove_value("s")
        assert trie.generation == generation + 6


class TestSummarizePatterns:
    def test_under_budget_is_sorted_passthrough(self):
        patterns = ["/b/y", "/a/x/1", "/a/*", "/c/#"]
        assert summarize_patterns(patterns, 4) == (
            "/a/*", "/a/x/1", "/b/y", "/c/#",
        )
        assert summarize_patterns(patterns + ["/b/y"], 4) == (
            "/a/*", "/a/x/1", "/b/y", "/c/#",
        )
        assert summarize_patterns([], 4) == ()

    def test_over_budget_collapses_to_deepest_fitting_depth(self):
        patterns = [f"/s/{room}/{kind}" for room in "abc" for kind in ("au", "vi")]
        # Depth 2 already fits three: nothing is widened further.
        assert summarize_patterns(patterns, 3) == ("/s/a/#", "/s/b/#", "/s/c/#")
        assert summarize_patterns(patterns, 5) == ("/s/a/#", "/s/b/#", "/s/c/#")
        assert summarize_patterns(patterns, 2) == ("/s/#",)
        assert summarize_patterns(patterns, 6) == tuple(sorted(patterns))

    def test_shorter_patterns_survive_a_deeper_collapse(self):
        patterns = ["/x", "/s/a/1", "/s/a/2", "/s/b/1"]
        assert summarize_patterns(patterns, 3) == ("/s/a/#", "/s/b/#", "/x")
        assert summarize_patterns(patterns, 2) == ("/s/#", "/x")

    def test_star_is_an_ordinary_segment(self):
        patterns = ["/s/*/au", "/s/*/vi", "/s/a/au"]
        assert summarize_patterns(patterns, 2) == ("/s/*/#", "/s/a/#")

    def test_pattern_already_ending_in_multi(self):
        # "/s/a/#" is its own depth-2 truncation and merges with its
        # siblings' instead of counting twice.
        patterns = ["/s/a/#", "/s/a/1", "/s/a/2", "/s/b/1"]
        assert summarize_patterns(patterns, 2) == ("/s/a/#", "/s/b/#")
        # At depth 1 a two-segment "/t/#" is kept as it is.
        assert summarize_patterns(patterns + ["/t/#"], 2) == ("/s/#", "/t/#")

    def test_single_segment_patterns_cannot_collapse(self):
        assert summarize_patterns(["/a", "/b", "/c"], 3) == ("/a", "/b", "/c")
        assert summarize_patterns(["/a", "/b", "/c"], 2) == ("/#",)

    def test_degenerate_everything(self):
        patterns = [f"/{top}/x" for top in "abcde"]
        assert summarize_patterns(patterns, 4) == ("/#",)

    def test_hysteresis_budget(self):
        """The gateway halves its budget once collapsed (``16 // 2``):
        nine siblings over budget 8 stay collapsed, eight fit again."""
        patterns = [f"/edge/a/t{n}" for n in range(9)]
        assert summarize_patterns(patterns, 16) == tuple(sorted(patterns))
        assert summarize_patterns(patterns, 16 // 2) == ("/edge/a/#",)
        assert summarize_patterns(patterns[:8], 16 // 2) == tuple(patterns[:8])

    def test_remove_of_unheld_pattern_raises(self):
        held = PatternSummary()
        held.add("/a/b")
        held.remove("/a/b")
        with pytest.raises(KeyError):
            held.remove("/a/b")
        assert len(held) == 0 and held.summary(1) == ()


def brute_force_summary(patterns, budget):
    """The collapse rule, spelled out: deepest depth whose widening fits."""
    split = {pattern: pattern[1:].split("/") for pattern in patterns}
    for depth in range(max(map(len, split.values()), default=1), 0, -1):
        widened = {p if len(s) <= depth else "/" + "/".join(s[:depth] + ["#"])
                   for p, s in split.items()}
        if len(widened) <= budget:
            return tuple(sorted(widened))
    return ("/#",)


SEGMENTS = st.sampled_from(["a", "b", "c", "*"])
PATTERNS = st.builds(
    lambda body, multi: "/" + "/".join(body + ["#"] * multi),
    st.lists(SEGMENTS, min_size=1, max_size=4),
    st.booleans(),
) | st.just("/#")


class PatternSummaryMachine(RuleBasedStateMachine):
    """Random add/remove sequences: the incrementally kept summary equals
    the brute-force collapse of the surviving set, for every budget."""

    def __init__(self):
        super().__init__()
        self.summary = PatternSummary()
        self.holders = {}

    @rule(pattern=PATTERNS)
    def add(self, pattern):
        self.summary.add(pattern)
        self.holders[pattern] = self.holders.get(pattern, 0) + 1

    @precondition(lambda self: self.holders)
    @rule(data=st.data())
    def remove(self, data):
        pattern = data.draw(st.sampled_from(sorted(self.holders)))
        self.summary.remove(pattern)
        self.holders[pattern] -= 1
        if not self.holders[pattern]:
            del self.holders[pattern]

    @invariant()
    def matches_brute_force(self):
        assert self.summary.patterns() == set(self.holders)
        assert len(self.summary) == len(self.holders)
        for budget in range(1, 17):
            expected = brute_force_summary(self.holders, budget)
            assert self.summary.summary(budget) == expected
            assert summarize_patterns(self.holders, budget) == expected


PatternSummaryMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestPatternSummaryMachine = PatternSummaryMachine.TestCase
