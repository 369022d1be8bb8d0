"""Per-topic routing fast path for the broker data plane.

The paper's scaling argument (Figure 3 and the Section 3.2 capacity
claims) relies on per-event routing work staying flat as subscriber and
broker counts grow.  The broker's *slow* path recomputes the whole
fan-out on every publish: two trie matches, a sort of the local match
set, a per-event send-cost computation, and next-hop grouping.  Media
topics, however, are extremely repetitive — one topic receives thousands
of packets between subscription changes — so that work is memoizable.

:class:`RouteCache` memoizes the fully resolved fan-out per concrete
topic as a :class:`RouteEntry`:

* the local subscriber list, pre-sorted (delivery order is part of the
  broker's deterministic behaviour);
* the remote broker target set with interest in the topic;
* the next-hop groups ``(peer, frozenset(targets))`` in flood order;
* the local fan-out's plan: the datagram sends the broker's walk over
  the local subscribers queued last time, kept while the client table's
  generation holds, so a plain publish skips the walk.

Invalidation is **generation-based and lazy**: every entry records the
``(local_subs, remote_interest, routes)`` generation triple it was
computed under (the broker's one current triple, shared by every entry
resolved at that generation).  :class:`~repro.broker.topic.TopicTrie`
bumps its generation on every mutation and the broker bumps its route
generation on ``set_routes``/peer changes, so a stale entry simply fails
its generation check on the next lookup and is recomputed — no eager
flush, and no possibility of serving a stale fan-out.

The remote half of an entry is **shared**: many topics resolve to the
same remote-target set (every topic under one wildcard, or a fabric
where every broker wants everything), so the cache keeps one
:class:`Fanout` per distinct set, and every entry that resolves to it
holds the same frozen set and the same next-hop groups.  A shared object
is either interned by value (the target set, and a gateway's
intra/inter split of it) or validated against every input it was
computed from (the groups: the target set they are keyed by, and the
route generation that covers the route table and the peer order), so
sharing serves nothing stale that a per-topic copy would not.  What
belongs to one topic stays on its entry: the local targets, the local
plan and its generation.  The send cost of a payload depends on the
broker's profile and the payload size alone, so each broker keeps one
:class:`SendCosts` memo for all its topics.

None of this changes simulated time: the cache only removes *Python*
work from the reproduction itself.  The CPU costs charged through
:class:`~repro.broker.profile.BrokerProfile` are byte-for-byte the same
numbers the slow path charges, so Figure 3 calibration is untouched.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.broker.profile import BrokerProfile
    from repro.broker.topic import TopicTrie

#: Generation triple: (local-subscription gen, remote-interest gen, route gen).
Generation = Tuple[int, int, int]

#: Next-hop groups: ((peer_id, frozenset(target brokers)), ...) in send order.
NextHopGroups = Tuple[Tuple[str, FrozenSet[str]], ...]

#: Default bound on cached topics / grouped target sets / fan-outs
#: (LRU-ish: oldest insertion evicted first — media workloads reuse a
#: small working set).
DEFAULT_MAX_ENTRIES = 4096


class Fanout:
    """One distinct remote-target set and its next-hop groups, shared by
    every entry that resolves to it; ``groups`` hold at route
    generation ``generation`` (-1: not grouped yet)."""

    __slots__ = ("targets", "generation", "groups")

    def __init__(self, targets: FrozenSet[str]):
        self.targets = targets
        self.generation = -1
        self.groups: NextHopGroups = ()


class SendCosts(dict):
    """payload bytes -> ``profile.send_cost_s(payload bytes)``, memoized
    on first read: same formula, same floats.  One per broker."""

    __slots__ = ("profile",)

    def __init__(self, profile: "BrokerProfile"):
        super().__init__()
        self.profile = profile

    def __missing__(self, payload_bytes: int) -> float:
        cost = self[payload_bytes] = self.profile.send_cost_s(payload_bytes)
        return cost


class RouteEntry:
    """The resolved fan-out for one concrete topic at one generation.

    In clustered mode the remote target set is additionally partitioned
    by tier — ``intra_targets`` (brokers in this broker's own cluster)
    and ``inter_targets`` (remote-cluster gateways that advertised
    aggregated interest) — so a gateway re-exporting an event at a
    cluster boundary resolves the scoped fan-out from the same cached
    entry.  Flat mode never computes the partition (both stay ``None``),
    keeping the entry bit-identical to the pre-cluster fast path.
    """

    __slots__ = (
        "generation",
        "local_targets",
        "remote_targets",
        "next_hop_groups",
        "intra_targets",
        "inter_targets",
        "plan_generation",
        "local_plan",
    )

    def __init__(
        self,
        generation: Generation,
        local_targets: Tuple[str, ...],
        remote_targets: FrozenSet[str],
        next_hop_groups: NextHopGroups,
        intra_targets: Optional[FrozenSet[str]] = None,
        inter_targets: Optional[FrozenSet[str]] = None,
    ):
        self.generation = generation
        self.local_targets = local_targets
        self.remote_targets = remote_targets
        self.next_hop_groups = next_hop_groups
        self.intra_targets = intra_targets
        self.inter_targets = inter_targets
        #: The sends of the local fan-out when every live target took a
        #: plain datagram send (``Broker._walk_local``), valid while the
        #: broker's client table is at ``plan_generation``.
        self.local_plan: Optional[List] = None
        self.plan_generation = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RouteEntry gen={self.generation} local={len(self.local_targets)} "
            f"remote={sorted(self.remote_targets)}>"
        )


class RouteCache:
    """Topic → :class:`RouteEntry` memo with generation-checked lookups.

    Also memoizes next-hop grouping for arbitrary target sets (the
    peer-forwarding path carries explicit target sets that are not the
    topic's full remote fan-out), keyed on the frozen target set and the
    route-table generation alone.

    And holds the :class:`Fanout` table: one per distinct remote-target
    set, the interned set itself and its next-hop groups, shared by the
    entries of every topic that resolves to it.  Fan-outs are not
    counted below.

    Counters (exposed on the broker's statistics block):

    * ``hits`` — lookups served from a fresh cached entry;
    * ``misses`` — lookups for topics with no cached entry;
    * ``invalidations`` — lookups that found an entry whose generation
      was stale (the entry is dropped and recomputed).
    """

    __slots__ = ("_entries", "_groups", "_fanouts", "max_entries", "hits",
                 "misses", "invalidations", "tries")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        #: The (local, remote) tries an entry's targets were matched in,
        #: when those matches are all it depends on besides the route
        #: generation; None when every generation change invalidates.
        self.tries: Optional[Tuple["TopicTrie", "TopicTrie"]] = None
        self._entries: Dict[str, RouteEntry] = {}
        self._groups: Dict[FrozenSet[str], Tuple[int, NextHopGroups]] = {}
        self._fanouts: Dict[FrozenSet[str], Fanout] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------- topic entries

    def lookup(self, topic: str, generation: Generation):
        """Return the fresh entry for ``topic`` or None (miss/stale).  An
        entry from an older generation is still fresh when the route
        generation is the same and neither trie changed a pattern that
        matches ``topic`` since (``TopicTrie.unchanged_for``); it moves
        up to ``generation``."""
        entry = self._entries.get(topic)
        if entry is not None:
            held = entry.generation
            if held == generation:
                self.hits += 1
                return entry
            tries = self.tries
            if (
                tries is not None
                and held[2] == generation[2]
                and tries[0].unchanged_for(topic, held[0])
                and tries[1].unchanged_for(topic, held[1])
            ):
                entry.generation = generation
                self.hits += 1
                return entry
            del self._entries[topic]
            self.invalidations += 1
        self.misses += 1
        return None

    def store(self, topic: str, entry: RouteEntry) -> RouteEntry:
        self._entries[topic] = entry
        if len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        return entry

    # --------------------------------------------------- next-hop grouping

    def lookup_groups(self, targets: FrozenSet[str], route_generation: int):
        """Return cached next-hop groups for ``targets`` or None."""
        cached = self._groups.get(targets)
        if cached is not None:
            generation, groups = cached
            if generation == route_generation:
                self.hits += 1
                return groups
            del self._groups[targets]
            self.invalidations += 1
        self.misses += 1
        return None

    def store_groups(
        self,
        targets: FrozenSet[str],
        route_generation: int,
        groups: NextHopGroups,
    ) -> NextHopGroups:
        self._groups[targets] = (route_generation, groups)
        if len(self._groups) > self.max_entries:
            self._groups.pop(next(iter(self._groups)))
        return groups

    # ------------------------------------------------------------ fan-outs

    def intern(self, targets: FrozenSet[str]) -> Fanout:
        """The one :class:`Fanout` of the target set equal to ``targets``."""
        fanout = self._fanouts.get(targets)
        if fanout is None:
            fanout = self._fanouts[targets] = Fanout(targets)
            if len(self._fanouts) > self.max_entries:
                self._fanouts.pop(next(iter(self._fanouts)))
        return fanout

    def fanout(
        self,
        targets: FrozenSet[str],
        route_generation: int,
        group: Callable[[FrozenSet[str]], NextHopGroups],
    ) -> Fanout:
        """The interned fan-out of ``targets``, its groups (re)computed by
        ``group`` unless they were computed at ``route_generation``."""
        fanout = self.intern(targets)
        if fanout.generation != route_generation:
            fanout.groups = group(fanout.targets)
            fanout.generation = route_generation
        return fanout

    # -------------------------------------------------------------- admin

    def clear(self) -> None:
        self._entries.clear()
        self._groups.clear()
        self._fanouts.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
            "group_entries": len(self._groups),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RouteCache entries={len(self._entries)} hits={self.hits} "
            f"misses={self.misses} invalidations={self.invalidations}>"
        )
