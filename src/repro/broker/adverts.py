"""Subscription adverts: how a broker's interest reaches the others.

Every broker owns one :class:`Adverts`.  Each change to a broker's own
advertised interest — a pattern its local clients gained or lost, or a
gateway's proxy of foreign interest — is that origin's next *version*
and goes out as one :class:`~repro.broker.links.SubAdvert`, flooded by
coverage (:func:`~repro.broker.epoch_table.flood`, the flood every
versioned broker state uses).  Clustered, the flood stays on
intra-cluster links (the gateway overlay carries summaries instead).

Versions are held per origin under :class:`EpochTable`'s rule: a stale
version is dropped (a copy that took a second path, or an advert older
than a snapshot already installed), and a restarted origin that is
handed its past life's version jumps past it and re-originates.
A flood without duplicates has no redundancy to carry an advert past a
silently dead link, so lost adverts are repaired:

* an advert whose version skips one marks its origin *gapped* and sends
  our digest to the peer it came from; that peer answers with a
  snapshot of the origin's patterns;
* peers exchange :class:`~repro.broker.links.SubDigest`\\ s (origin →
  version) on link up, on link down, after installing a snapshot, and on
  the mesh's periodic digest tick (there, and on a mesh's link up, the
  versions ride in the link-state digest); a peer strictly behind gets a
  :class:`~repro.broker.links.SubSnapshot` that replaces what it held,
  removals included (from a link-state digest, our own newest version
  only once :meth:`EpochTable.settled` says it is not still in flight).

A gapped origin is reported in our digest at the last version we hold
exactly, and never served from, so a snapshot always comes from a broker
that applied every change up to its version.  Adverts and snapshots
reach the remote-interest trie, a gateway's tracked member interest and
geo's drain through one apply path, :meth:`Adverts._apply`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.broker.epoch_table import ECHO, NEWER, EpochTable, flood
from repro.broker.links import SubAdvert, SubDigest, SubSnapshot


class Adverts:
    """The subscription-advert protocol of one broker."""

    def __init__(self, broker):
        self.broker = broker
        #: origin → (version,): the newest version of each origin's
        #: interest applied here.  Our own is ``table.epoch``.
        self.table = EpochTable(broker.broker_id)
        #: origin → the version we hold exactly, for origins whose
        #: adverts arrived with a gap and still await a snapshot.
        self.gaps: Dict[str, int] = {}

    # ------------------------------------------------------- own interest

    def advertise(self, pattern: str, add: bool) -> None:
        """Flood a change of our own advertised interest as our next
        version."""
        broker = self.broker
        own = broker.broker_id
        flood(
            broker,
            broker._intra_sorted,
            SubAdvert(
                origin_broker=own,
                seq=self.table.bump(),
                pattern=pattern,
                add=add,
                covered=frozenset((own,)),
            ),
        )

    def own_patterns(self) -> Tuple[str, ...]:
        """Our advertised interest: local subscriptions and, on a
        gateway, the foreign interest it proxies."""
        broker = self.broker
        patterns = set(broker._local_subs.all_patterns())
        if broker.gateway is not None:
            patterns |= broker.gateway.proxied
        return tuple(sorted(patterns))

    def _reoriginate(self, skip: Optional[str]) -> None:
        """A peer holds our past life's version: take a newer one and
        tell every peer, so our current interest replaces the old."""
        self.table.bump()
        self.announce(skip)

    # ----------------------------------------------------------- adverts

    def on_advert(self, advert: SubAdvert, from_peer: Optional[str]) -> None:
        """Apply a newer version and forward it to our peers outside its
        coverage; a version that skips one leaves the origin gapped."""
        broker = self.broker
        origin, seq = advert.origin_broker, advert.seq
        held = self.table.held(origin) or 0
        verdict = self.table.offer(origin, seq)
        if verdict is ECHO:
            # Never sent to its origin: only a past life's copy (over a
            # link that came up since) can arrive here.
            self._reoriginate(skip=None)
            return
        if verdict is not NEWER:
            return  # a copy over a second path, or older than a snapshot
        broker.control_messages += 1
        flood(broker, broker._intra_sorted, advert)
        if self._apply(origin, advert.pattern, advert.add):
            self._interest_changed()
        if seq > held + 1:
            # We missed a version: what we hold for the origin is no
            # longer exact.  Ask the peer the advert came from.
            self.gaps.setdefault(origin, held)
            if from_peer is not None:
                self._send((from_peer,), self.digest())

    # ------------------------------------------------- digests, snapshots

    def versions(self) -> Dict[str, int]:
        """Origin → the newest version we hold exactly (gapped origins at
        the version before their gap), us included once we advertised."""
        versions = self.table.epochs()
        versions.update(self.gaps)
        return versions

    def digest(self) -> SubDigest:
        return SubDigest(
            origin_broker=self.broker.broker_id, versions=self.versions()
        )

    def announce(self, skip: Optional[str] = None) -> None:
        """Send our digest to every intra peer but ``skip`` — even an
        empty one: a broker that lost its only advert to a dead link
        holds no version, and its digest is what gets it repaired."""
        self._send(
            [peer for peer in self.broker._intra_sorted if peer != skip],
            self.digest(),
        )

    def on_digest(self, digest: SubDigest, from_peer: Optional[str]) -> None:
        """Reconcile with a peer's digest, and ask back (with ours) when
        we are strictly behind.  Terminates: versions only advance, and
        each reply needs one."""
        broker = self.broker
        if from_peer is None or from_peer in broker._intercluster_peers:
            return
        broker.control_messages += 1
        if self.reconcile(digest.versions, from_peer):
            self._send((from_peer,), self.digest())

    def reconcile(
        self, theirs: Dict[str, int], from_peer: str, settle: bool = False
    ) -> bool:
        """Push a snapshot of every origin a peer's versions are strictly
        behind on; returns whether we are strictly behind the peer.  (A
        link-state digest carries versions too: the mesh calls this with
        ``settle``.  A :class:`SubDigest` reports a gap, a dead link or an
        install, and is answered in full.)"""
        broker = self.broker
        own = broker.broker_id
        remote = broker._remote_interest
        table = self.table
        epoch = table.epoch
        settled = table.settled(from_peer) if settle else epoch
        entries = [
            (origin, seq, tuple(sorted(remote.patterns_for(origin))))
            for origin, seq in table.newer_than(theirs, settled)
            if origin not in self.gaps
        ]
        if theirs.get(own, 0) < settled:
            entries.append((own, epoch, self.own_patterns()))
        if entries:
            self._send(
                (from_peer,),
                SubSnapshot(origin_broker=own, entries=tuple(entries)),
            )
        # Behind on our own origin means a peer holds our past life: the
        # snapshot it answers with makes us jump (:meth:`on_snapshot`).
        mine = self.versions()
        return any(mine.get(origin, -1) < seq for origin, seq in theirs.items())

    def on_snapshot(self, snapshot: SubSnapshot, from_peer: Optional[str]) -> None:
        """Install each entry newer than what we hold (or as new, for a
        gapped origin): the origin's interest becomes exactly its
        patterns.  Then tell our other peers what we now hold."""
        broker = self.broker
        broker.control_messages += 1
        own = broker.broker_id
        installed = changed = False
        for origin, seq, patterns in snapshot.entries:
            if origin == own:
                if seq > self.table.epoch:
                    self.table.offer(own, seq)
                    self._reoriginate(skip=None)
                continue
            held = self.table.held(origin)
            if held is not None and (
                seq < held or (seq == held and origin not in self.gaps)
            ):
                continue
            self.table[origin] = (seq,)
            self.gaps.pop(origin, None)
            broker.snapshots_installed += 1
            installed = True
            current = set(broker._remote_interest.patterns_for(origin))
            wanted = set(patterns)
            for pattern in sorted(current - wanted):
                changed |= self._apply(origin, pattern, False)
            for pattern in sorted(wanted - current):
                changed |= self._apply(origin, pattern, True)
        if changed:
            self._interest_changed()
        if installed:
            self.announce(skip=from_peer)

    # ----------------------------------------------------------- links

    def link_up(self, peer_id: str) -> None:
        """A link came up on the central plane (a mesh's link-state
        digest carries our versions instead): offer our digest over it,
        unless we hold no version at all — then the peer's digest, when
        it holds any, is what repairs us."""
        if self.table or self.table.epoch:
            self._send((peer_id,), self.digest())

    def forget(self, reachable: Set[str]) -> None:
        """Drop the version and the interest of every origin outside
        ``reachable``: a dead broker can never withdraw its own adverts,
        and once it is back a digest exchange re-learns it from scratch.
        (A gateway's foreign installs lose their interest only; the
        gateway reconciles them.)"""
        broker = self.broker
        remote = broker._remote_interest
        foreign = broker.gateway.installed_foreign if broker.gateway else ()
        for origin in sorted(set(self.table).union(remote.values()) - reachable):
            if origin in foreign:
                for pattern in remote.patterns_for(origin):
                    remote.remove(pattern, origin)
                continue
            self.table.pop(origin, None)
            self.gaps.pop(origin, None)
            for pattern in remote.patterns_for(origin):
                self._apply(origin, pattern, False)

    # ------------------------------------------------------------ apply

    def _apply(self, origin: str, pattern: str, add: bool) -> bool:
        """The one place a member origin's interest changes: the remote
        trie, a gateway's tracked member interest, and geo's drain of
        parked reliable events.  False when it was already so."""
        broker = self.broker
        remote = broker._remote_interest
        changed = remote.add(pattern, origin) if add else remote.remove(
            pattern, origin
        )
        if not changed:
            return False
        gateway = broker.gateway
        if gateway is not None:
            # SubAdverts never cross a cluster boundary, so the origin is
            # one of our members — not a foreign install.
            if add:
                gateway.member_interest.add(pattern)
            else:
                gateway.member_interest.remove(pattern)
        if add and broker.geo is not None:
            broker.geo.interest_added()
        return True

    def _interest_changed(self) -> None:
        gateway = self.broker.gateway
        if gateway is not None:
            gateway.schedule_summary_refresh()

    def _send(self, peers: Iterable[str], message) -> None:
        for peer_id in peers:
            self.broker.send_control(peer_id, message)
