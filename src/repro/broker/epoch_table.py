"""The epoch rule shared by every flooded, digest-repaired broker table.

Member link state, gateway link state and cluster interest summaries
all travel the same way: each origin floods its value under an epoch
only it advances, receivers keep the newest epoch per origin, and
digests (origin → epoch held) repair lost floods.  This is that rule,
once; :class:`~repro.broker.broker.Broker` owns the wire messages, the
flood scope and what a change triggers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

#: :meth:`EpochTable.offer` verdicts.
NEWER = "newer"  # stored: re-flood it and act on the change
STALE = "stale"  # at or below the epoch already held: drop
ECHO = "echo"    # our own origin from a past life: re-originate


class EpochTable(dict):
    """``origin → (epoch, *fields)``.  ``own`` is the holder's origin id
    and ``epoch`` the last epoch it originated at, advanced only by
    :meth:`bump`/:meth:`originate` and an :data:`ECHO`; only
    :meth:`originate` puts the holder's own entry in the table."""

    __slots__ = ("own", "epoch")

    def __init__(self, own: str):
        super().__init__()
        self.own = own
        self.epoch = 0

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

    def offer(self, origin: str, epoch: int, *fields: Any) -> Optional[str]:
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
        if epoch <= self.epoch_of(origin):
            return STALE
        self[origin] = (epoch, *fields)
        return NEWER

    def epoch_of(self, origin: str) -> int:
        """The epoch held for ``origin`` (-1 when unknown)."""
        if origin == self.own:
            return self.epoch
        entry = self.get(origin)
        return entry[0] if entry is not None else -1

    def epochs(self) -> Dict[str, int]:
        """Our digest: every origin held, and us once we have originated."""
        held = {origin: entry[0] for origin, entry in self.items()}
        if self.epoch:
            held[self.own] = self.epoch
        return held

    def newer_than(self, theirs: Mapping[str, int]) -> List[Tuple]:
        """``(origin, epoch, *fields)`` of every entry strictly newer than
        a peer's digest, in origin order — what to push to that peer."""
        return [
            (origin, *self[origin])
            for origin in sorted(self)
            if theirs.get(origin, -1) < self[origin][0]
        ]

    def behind(self, theirs: Mapping[str, int]) -> bool:
        """Whether a peer's digest holds anything strictly newer than we
        do.  Replying with our own digest only then terminates the
        exchange: epochs only ever advance."""
        return any(
            self.epoch_of(origin) < epoch for origin, epoch in theirs.items()
        )
