"""Shared retry backoff policy.

One implementation of capped exponential backoff with optional
seeded-rng jitter, used by the broker client's failover reconnects and
the XGSP signaling retries.  Keeping the arithmetic here means every
retry loop in the system ages identically: ``base · 2^(n−1)`` capped at
``cap``, spread by ``±jitter_frac`` when a jitter fraction is set, and
reset to the first step once the operation succeeds.

Jitter draws from a caller-supplied :class:`random.Random` so retry
timing stays deterministic for a fixed seed — the same property every
other stochastic element of the simulation has (see
:class:`repro.simnet.rng.SeededStreams`).
"""

from __future__ import annotations

import random
from typing import Optional


class ExponentialBackoff:
    """Capped exponential delays with optional seeded jitter.

    ``first_immediate`` makes the very first :meth:`next_delay` return
    0.0 — the broker client's "try the first failover candidate right
    away" behaviour — without consuming an exponent step.
    """

    __slots__ = (
        "base_s",
        "cap_s",
        "jitter_frac",
        "_rng",
        "first_immediate",
        "attempts",
        "retry_after_s",
    )

    def __init__(
        self,
        base_s: float,
        cap_s: float,
        jitter_frac: float = 0.0,
        rng: Optional[random.Random] = None,
        first_immediate: bool = False,
    ):
        if base_s <= 0:
            raise ValueError("base_s must be positive")
        if cap_s < base_s:
            raise ValueError("cap_s must be >= base_s")
        if not 0.0 <= jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")
        self.base_s = base_s
        self.cap_s = cap_s
        self.jitter_frac = jitter_frac
        self._rng = rng
        self.first_immediate = first_immediate
        self.attempts = 0
        self.retry_after_s = 0.0

    @property
    def rng(self) -> random.Random:
        """The jitter stream; the default ``Random(0)`` is built on first
        use, since most policies never jitter (one per broker client)."""
        if self._rng is None:
            self._rng = random.Random(0)
        return self._rng

    def note_retry_after(self, retry_after_s: float) -> None:
        """Record a server-supplied ``Busy(retry_after_s)`` hint.

        The hint floors the *next* delay only: an overloaded server's
        estimate of when it will have capacity overrides a still-small
        exponential step, but once that attempt is spent the normal
        schedule resumes (unless the server says busy again).
        """
        if retry_after_s < 0:
            raise ValueError("retry_after_s must be >= 0")
        self.retry_after_s = max(self.retry_after_s, retry_after_s)

    def clear_hint(self) -> None:
        """Discard a recorded retry-after hint without consuming a step.

        A hint describes one specific server's capacity estimate; when
        the next attempt targets a *different* server (cross-region
        failover rotating candidates), the hint must not floor its delay.
        """
        self.retry_after_s = 0.0

    def next_delay(self) -> float:
        """The delay before the next attempt; advances the attempt count."""
        attempt = self.attempts
        self.attempts += 1
        hint, self.retry_after_s = self.retry_after_s, 0.0
        if self.first_immediate:
            if attempt == 0:
                return hint
            attempt -= 1
        delay = min(self.base_s * (2.0 ** attempt), self.cap_s)
        if self.jitter_frac:
            delay *= 1.0 + self.jitter_frac * (2.0 * self.rng.random() - 1.0)
        return max(delay, hint)

    def peek_delay(self) -> float:
        """The un-jittered delay :meth:`next_delay` would return, without
        advancing the attempt count (used by tests and budget checks)."""
        attempt = self.attempts
        if self.first_immediate:
            if attempt == 0:
                return self.retry_after_s
            attempt -= 1
        return max(min(self.base_s * (2.0 ** attempt), self.cap_s),
                   self.retry_after_s)

    def reset(self) -> None:
        """Back to the first step (call when the operation succeeds)."""
        self.attempts = 0
        self.retry_after_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ExponentialBackoff base={self.base_s} cap={self.cap_s} "
            f"attempts={self.attempts}>"
        )
