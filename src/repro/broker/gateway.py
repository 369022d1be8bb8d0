"""The cluster-gateway overlay: one gateway broker's second control plane.

A clustered broker listed among its cluster's gateways owns one
:class:`Gateway`; members and flat brokers have none.  Gateways run the
overlay above the member mesh: a gateway-tier
:class:`~repro.broker.mesh.LinkStateTier` over inter-cluster links and
co-gateway links, :class:`~repro.broker.links.ClusterInterestAdvert`
(prefix-collapsed interest summaries) and
:class:`~repro.broker.links.ClusterDigest` (anti-entropy for both).
Only the *active* gateway (lowest live gateway id) imports foreign
interest and exports events; standbys keep shadow state for takeover.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.broker.epoch_table import ECHO, NEWER, STALE, EpochTable
from repro.broker.event import NBEvent
from repro.broker.links import ClusterDigest, ClusterInterestAdvert, SubAdvert
from repro.broker.mesh import LinkStateTier
from repro.broker.topic import PatternSummary

#: Cap on the aggregated interest summary a cluster gateway exports.
#: Above this many distinct patterns, prefixes are collapsed (widened)
#: until the summary fits — see
#: :class:`repro.broker.topic.PatternSummary`.  Deliberately small:
#: a collapsed summary over-approximates, and a false positive only
#: costs one wasted inter-cluster forward that the entry gateway drops,
#: while a large budget delays collapse until per-cluster interest is
#: so wide that exact-list churn floods the overlay first.
INTEREST_SUMMARY_BUDGET = 16

#: Minimum spacing between two summary floods from one gateway.  Below
#: the collapse budget every subscription change alters the exact
#: summary, so a churn burst would otherwise export one overlay flood
#: per op — this coalesces the burst into at most one flood per
#: interval, trading up to that much added cross-cluster propagation
#: delay for a bounded overlay rate.
SUMMARY_REFRESH_MIN_INTERVAL_S = 0.25

#: Hysteresis on summary collapse: once a gateway has exported a
#: collapsed (widened) summary it keeps collapsing until the cluster's
#: interest shrinks below ``INTEREST_SUMMARY_BUDGET // 2``.  A cluster
#: sitting *at* the budget would otherwise flap between the exact
#: pattern list and the wildcard form on every churn transient, and
#: each flap makes every remote cluster install/withdraw the full diff
#: as per-pattern proxy floods — an advert storm out of one
#: subscription's worth of churn.
SUMMARY_COLLAPSE_RELEASE = 2


class Gateway:
    """The gateway overlay state and protocol of one gateway broker."""

    def __init__(self, broker, cluster_id: str, cluster_gateways: Tuple[str, ...]):
        self.broker = broker
        self.cluster_id = cluster_id
        self.cluster_gateways = cluster_gateways
        #: Gateway-tier link state: origin gateway → (epoch, gateway
        #: neighbors, cost classes or None, cluster_id).
        self.overlay = LinkStateTier(broker.mesh, self.overlay_peers, cluster_id)
        #: origin gateway -> (epoch, patterns, cluster_id); foreign *and*
        #: own-cluster summaries are tracked (standbys keep shadow copies
        #: for takeover), but only foreign ones are ever installed.  Our
        #: own summary is ``last_summary`` at this table's ``epoch``.
        self.interest = EpochTable(broker.broker_id)
        self.installed_foreign: Set[str] = set()
        self.proxied: Set[str] = set()
        #: Standbys too, so takeover needs no rebuild: every local
        #: subscription and every member-advertised remote interest
        #: entry, refcounted — what the cluster summary is read from.
        #: Foreign installs are other clusters' interest, never fed.
        self.member_interest = PatternSummary()
        self.last_summary: Optional[Tuple[str, ...]] = None
        self.summary_pending = False
        self._last_summary_flood_at = -SUMMARY_REFRESH_MIN_INTERVAL_S
        self.summary_collapsed = False
        self.active: Optional[str] = None

    # ------------------------------------------------------------ overlay

    def overlay_peers(self) -> List[str]:
        """Direct peers on the gateway overlay: inter-cluster links plus
        co-gateways of our own cluster we hold an intra link to."""
        return [p for p in self.broker._sorted_peers if self.on_overlay(p)]

    def on_overlay(self, peer_id: str) -> bool:
        """Whether a direct peer is an overlay peer."""
        return (
            peer_id in self.broker._intercluster_peers
            or peer_id in self.cluster_gateways
        )

    def foreign_gateways(self) -> Set[str]:
        """Gateways of other clusters, as the overlay LSDB knows them."""
        return {
            origin
            for origin, (_, _, _, cluster) in self.overlay.table.items()
            if cluster != self.cluster_id
        }

    def merge_routes(
        self, routes: Dict[str, str]
    ) -> Tuple[Dict[str, str], Dict[str, int]]:
        """Overlay the gateway-tier shortest paths onto the intra table.

        The gateway overlay's first hops are always direct peers (inter
        links or co-gateways), so the merged table stays a plain
        destination → next-peer map and the whole existing forwarding
        fast path works unchanged.  Same-cluster destinations keep their
        intra routes — the overlay only contributes *foreign* gateways.
        """
        gw_routes, gw_dist = self.overlay.shortest_paths()
        foreign = self.foreign_gateways()
        merged = dict(routes)
        for gateway, first_hop in gw_routes.items():
            if gateway in foreign:
                merged.setdefault(gateway, first_hop)
        return merged, gw_dist

    def routes_changed(self, gw_dist: Dict[str, int]) -> None:
        """After a recompute: forget unreachable overlay origins (not in
        geo mode — see :meth:`repro.broker.mesh.Mesh._recompute`),
        re-elect, and reconcile installs, proxies and our summary."""
        if not self.broker._geo:
            for origin in self.overlay.forget_unreachable(gw_dist):
                self.interest.pop(origin, None)
        self._check_active()
        # A foreign gateway may have vanished (its entries were just
        # purged) without our own active/standby role changing:
        # reconcile installs and proxies against the surviving set.
        self.reconcile_foreign_install()
        self.schedule_summary_refresh()

    def digest(self) -> ClusterDigest:
        return ClusterDigest(
            origin_gateway=self.broker.broker_id,
            lsa_epochs=self.overlay.table.epochs(),
            interest_epochs=self.interest.epochs(),
        )

    def on_interest(
        self, advert: ClusterInterestAdvert, from_peer: Optional[str]
    ) -> None:
        broker = self.broker
        if not broker._seen_adverts.add(advert.advert_id):
            broker.lsas_deduped += 1
            return
        broker.control_messages += 1
        verdict = self.interest.offer(
            advert.origin_gateway,
            advert.epoch,
            tuple(advert.patterns),
            advert.cluster_id,
        )
        if verdict is ECHO:
            # Force a resend so remote clusters converge on our live
            # summary.
            self.last_summary = None
            self.schedule_summary_refresh()
        elif verdict is STALE:
            broker.lsas_stale += 1
        elif verdict is NEWER:
            self.overlay.flood(advert, skip_peer=from_peer)
            if (
                advert.cluster_id != self.cluster_id
                and self.active == broker.broker_id
            ):
                self.reconcile_foreign_install()

    def on_digest(self, digest: ClusterDigest, from_peer: Optional[str]) -> None:
        """Gateway-tier anti-entropy: push strictly-newer entries to the
        peer, and ask back (with our digest) when strictly behind.
        Terminates for the same reason the member tier does — replies
        are only sent when strictly behind and epochs only advance."""
        if from_peer is None:
            return
        broker = self.broker
        broker.control_messages += 1
        their_lsas = digest.lsa_epochs
        their_interest = digest.interest_epochs
        adverts: List[Any] = self.overlay.newer_adverts(their_lsas)
        adverts += [
            ClusterInterestAdvert(
                origin_gateway=origin,
                cluster_id=cluster,
                epoch=epoch,
                patterns=patterns,
            )
            for origin, epoch, patterns, cluster
            in self.interest.newer_than(their_interest)
        ]
        own_epoch = self.interest.epoch
        if own_epoch and their_interest.get(broker.broker_id, -1) < own_epoch:
            # Our own summary is not in the table; it goes out last.
            adverts.append(self._summary_advert())
        broker._offer(from_peer, adverts)
        if self.overlay.table.behind(their_lsas) or self.interest.behind(
            their_interest
        ):
            broker.host.cpu.execute(
                broker.profile.control_cost_s,
                broker._send_peer, from_peer, self.digest(),
            )

    # --------------------------------------------------- active election

    def _check_active(self) -> None:
        """(Re)elect our cluster's active gateway: the lowest gateway id
        that is us or intra-reachable.  Only the active gateway imports
        foreign interest, proxies it to members, exports events, and
        publishes the cluster's summary; standbys are pure transit with
        shadow state, ready for takeover."""
        broker = self.broker
        me = broker.broker_id
        live = [
            gateway
            for gateway in self.cluster_gateways
            if gateway == me or gateway in broker._routes
        ]
        active = min(live) if live else me
        previous = self.active
        if active == previous:
            return
        self.active = active
        if active == me:
            if previous is not None:
                broker.gateway_takeovers += 1
            self.reconcile_foreign_install()
            self.last_summary = None  # force a (re)send of our summary
            self.schedule_summary_refresh()
        elif previous == me:
            # Demoted (a lower gateway healed): uninstall foreign
            # interest, withdraw proxies, and retract our summary so
            # remote clusters stop exporting toward us — otherwise both
            # gateways stay targeted and every event delivers twice.
            self.reconcile_foreign_install()
            if self.interest.epoch:
                self._originate_summary(())

    # ---------------------------------------------------- interest summary

    def schedule_summary_refresh(self) -> None:
        """Debounced recompute of our aggregated interest summary (many
        subscription changes, one summary flood), rate-limited to one
        flood per ``SUMMARY_REFRESH_MIN_INTERVAL_S`` so churn below the
        collapse budget cannot export one overlay flood per op."""
        if self.summary_pending:
            return
        self.summary_pending = True
        sim = self.broker.sim
        delay = max(
            0.0,
            self._last_summary_flood_at + SUMMARY_REFRESH_MIN_INTERVAL_S - sim.now,
        )
        sim.schedule(delay, self._run_summary_refresh)

    def _run_summary_refresh(self) -> None:
        self.summary_pending = False
        if self.broker._closed:
            return
        self.refresh_summary()

    def refresh_summary(self) -> None:
        """Recompute and (when changed) flood this cluster's aggregated
        interest summary.  Active gateway only."""
        broker = self.broker
        if self.active != broker.broker_id:
            return
        patterns = self.member_interest
        budget = INTEREST_SUMMARY_BUDGET
        if self.summary_collapsed:
            # Hysteresis: a cluster hovering at the budget must not flap
            # between the exact list and the wildcard form on every
            # churn transient — stay collapsed until interest genuinely
            # narrows.
            budget //= SUMMARY_COLLAPSE_RELEASE
        summary = patterns.summary(budget)
        if summary == self.last_summary:
            return
        self.summary_collapsed = len(summary) < len(patterns)
        self._last_summary_flood_at = broker.sim.now
        broker.adverts_aggregated += len(patterns)
        self._originate_summary(summary)

    def _originate_summary(self, summary: Tuple[str, ...]) -> None:
        """Flood ``summary`` as our cluster's interest under a new epoch."""
        self.interest.bump()
        self.last_summary = summary
        self.overlay.flood(self._summary_advert(), skip_peer=None)

    def _summary_advert(self) -> ClusterInterestAdvert:
        return ClusterInterestAdvert(
            origin_gateway=self.broker.broker_id,
            cluster_id=self.cluster_id,
            epoch=self.interest.epoch,
            patterns=self.last_summary or (),
        )

    # ------------------------------------------------- foreign interest

    def foreign_origins(self) -> Set[str]:
        """Gateways in ``interest`` belonging to other clusters."""
        return {
            origin
            for origin, (_, _, cluster) in self.interest.items()
            if cluster != self.cluster_id
        }

    def reconcile_foreign_install(self) -> None:
        """Make the broker's foreign-origin remote interest match what
        this gateway should install — every foreign summary when active,
        none when standby — then re-derive the proxied pattern set and
        flood the proxy-advert deltas into the cluster."""
        remote = self.broker._remote_interest
        active = self.active == self.broker.broker_id
        wanted_origins = self.foreign_origins() if active else set()
        for origin in sorted(self.installed_foreign - wanted_origins):
            for pattern in list(remote.patterns_for(origin)):
                remote.remove(pattern, origin)
            self.installed_foreign.discard(origin)
        for origin in sorted(wanted_origins):
            current = set(remote.patterns_for(origin))
            _, patterns, _ = self.interest[origin]
            wanted = set(patterns)
            for pattern in sorted(current - wanted):
                remote.remove(pattern, origin)
            for pattern in sorted(wanted - current):
                remote.add(pattern, origin)
            self.installed_foreign.add(origin)
        self._sync_proxies()

    def _sync_proxies(self) -> None:
        """Advertise installed foreign interest into the cluster under
        our own origin, so members route matching events toward us.

        The flood rules keep our *effective* advertised interest — local
        subscriptions ∪ proxied patterns — consistent on both edges: a
        proxy add only floods when the pattern was not already
        advertised locally, and a proxy removal only withdraws when no
        local client still holds the pattern (the subscribe/unsubscribe
        paths apply the mirror-image checks against ``proxied``).
        """
        broker = self.broker
        wanted: Set[str] = set()
        for origin in self.installed_foreign:
            wanted.update(broker._remote_interest.patterns_for(origin))
        for pattern in sorted(self.proxied - wanted):
            self.proxied.discard(pattern)
            if not broker._has_local_interest(pattern):
                broker._flood_advert(
                    SubAdvert(
                        origin_broker=broker.broker_id, pattern=pattern, add=False
                    ),
                    skip_peer=None,
                )
        for pattern in sorted(wanted - self.proxied):
            fresh = not broker._has_local_interest(pattern)
            self.proxied.add(pattern)
            if fresh:
                broker._flood_advert(
                    SubAdvert(
                        origin_broker=broker.broker_id, pattern=pattern, add=True
                    ),
                    skip_peer=None,
                )

    def reexport_targets(
        self, event: NBEvent, from_peer: Optional[str]
    ) -> FrozenSet[str]:
        """Extra targets a gateway adds when it is itself targeted.

        Inter-cluster arrival → fan out to own-cluster members with
        matching interest; intra arrival at the *active* gateway →
        export to remote gateways whose aggregated interest matches.
        Standbys receiving intra traffic add nothing, so exports are
        never duplicated.
        """
        broker = self.broker
        entry = broker.resolve_route(event.topic)
        if from_peer is not None and from_peer in broker._intercluster_peers:
            extra = entry.intra_targets
        elif self.active == broker.broker_id:
            extra = entry.inter_targets
        else:
            extra = None
        return extra if extra is not None else frozenset()
