"""The flood and the epoch rule shared by every flooded broker state.

Member and gateway link state, cluster interest summaries, sequencer
pins and subscription adverts all travel the same way: each origin
floods its value under a version only it advances, by coverage
(:func:`flood`); receivers keep the newest version per origin and
forward only what they applied; and digests (origin → version held)
repair lost floods by pushing what a peer lacks (:func:`push_newer`).
This is that flood and that rule, once;
:class:`~repro.broker.mesh.LinkStateTier`,
:class:`~repro.broker.gateway.Gateway`, :class:`~repro.broker.geo.Geo`
(pin versions are ``(epoch, broker)`` under its tie rule) and
:class:`~repro.broker.adverts.Adverts` own the wire messages, the flood
scope and what a change triggers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: :meth:`EpochTable.offer` verdicts.
NEWER = "newer"  # stored: forward it and act on the change
STALE = "stale"  # at or below the epoch already held: drop
ECHO = "echo"    # our own origin from a past life: re-originate


class EpochTable(dict):
    """``origin → (version, *fields)``.  ``own`` is the holder's origin
    id and ``epoch`` the last epoch it originated at, advanced only by
    :meth:`bump`/:meth:`originate` and an :data:`ECHO`; only
    :meth:`originate` puts the holder's own entry in the table.
    Versions are epochs; a subclass whose versions order otherwise
    overrides :meth:`outranks`."""

    __slots__ = ("own", "epoch", "heard")

    def __init__(self, own: Optional[str]):
        super().__init__()
        self.own = own
        self.epoch = 0
        #: peer → our epoch when its last digest arrived (:meth:`settled`).
        self.heard: Dict[str, int] = {}

    @staticmethod
    def outranks(version: Any, held: Any) -> bool:
        """Whether ``version`` supersedes ``held`` (``None``: none held)."""
        return held is None or version > held

    def bump(self) -> int:
        """Advance our epoch without storing an entry — for a holder that
        keeps its own value outside the table (the cluster summary, which
        must be sent *after* every table entry in a digest reply)."""
        self.epoch += 1
        return self.epoch

    def originate(self, *fields: Any) -> int:
        """Advance our epoch and store our own entry under it."""
        self[self.own] = (self.bump(), *fields)
        return self.epoch

    def offer(self, origin: str, epoch: Any, *fields: Any) -> Optional[str]:
        """Apply a received advert; returns the verdict.

        An advert naming *us* at an epoch we have not passed means we
        restarted while the mesh still holds our past life's entry: jump
        to that epoch, so the re-origination :data:`ECHO` asks for
        supersedes it everywhere.  An older own-origin advert: ``None``.
        """
        if origin == self.own:
            if epoch < self.epoch:
                return None
            self.epoch = epoch
            return ECHO
        if not self.outranks(epoch, self.held(origin)):
            return STALE
        self[origin] = (epoch, *fields)
        return NEWER

    def held(self, origin: str) -> Any:
        """The version held for ``origin`` (``None`` when unknown)."""
        if origin == self.own:
            return self.epoch
        entry = self.get(origin)
        return entry[0] if entry is not None else None

    def epochs(self) -> Dict[str, Any]:
        """Our digest: every origin held, and us once we have originated."""
        held = {origin: entry[0] for origin, entry in self.items()}
        if self.epoch:
            held[self.own] = self.epoch
        return held

    def settled(self, peer: str) -> int:
        """Our newest epoch to push in answer to ``peer``'s digest: the
        one we held at its previous digest (at this one, the first time),
        as brokers built together send digests at the same instants and
        one can cross a flood of ours still in flight to the peer.  A lost
        epoch goes out on its next digest, or on the one it asks back
        with once ours shows it behind."""
        settled = min(self.epoch, self.heard.get(peer, self.epoch))
        self.heard[peer] = self.epoch
        return settled

    def newer_than(
        self, theirs: Mapping[str, Any], settled: Optional[int] = None
    ) -> List[Tuple]:
        """``(origin, version, *fields)`` of every entry that outranks a
        peer's digest, in origin order — what to push to that peer (our
        own entry only when the peer is behind ``settled`` too)."""
        outranks, own = self.outranks, self.own
        epoch = self.epoch if settled is None else settled
        return [
            (origin, *self[origin])
            for origin in sorted(self)
            if outranks(epoch if origin == own else self[origin][0],
                        theirs.get(origin))
        ]

    def behind(self, theirs: Mapping[str, Any]) -> bool:
        """Whether a peer's digest holds anything that outranks ours.
        Replying with our own digest only then terminates the exchange:
        versions only ever advance."""
        outranks = self.outranks
        return any(
            outranks(version, self.held(origin))
            for origin, version in theirs.items()
        )


def flood(broker, scope: Sequence[str], message: Any) -> None:
    """Send ``message`` to every peer in ``scope`` outside its
    ``covered`` set, as one copy that also covers all of ``scope``.

    The one flood of every versioned state: an origin floods a message
    covering itself, a receiver forwards what it applied as newer, and
    a digest reply pushes to one peer (``scope``), which forwards it on.
    A broker hears each version about once, not once per link; every
    covered broker was sent it by someone, so only a lost copy leaves a
    broker out, and digests repair that."""
    covered = message.covered
    onward = [peer for peer in scope if peer not in covered]
    if not onward:
        return
    message = message.replace(covered=covered.union(scope))
    for peer_id in onward:
        broker.send_control(peer_id, message)


def push_newer(
    broker, peer: str, table: EpochTable, theirs: Mapping[str, Any], message
) -> int:
    """Repair a peer from its digest ``theirs``: flood it every entry of
    ``table`` that outranks it, as ``message(origin, version, *fields,
    covered=...)`` (an entry is its origin's whole value, so it is the
    snapshot).  Returns :meth:`EpochTable.settled`, for an own value kept
    outside the table."""
    settled = table.settled(peer)
    covered = frozenset((broker.broker_id,))
    for entry in table.newer_than(theirs, settled):
        flood(broker, (peer,), message(*entry, covered=covered))
    return settled
