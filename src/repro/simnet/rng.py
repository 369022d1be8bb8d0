"""Deterministic named random streams.

Each component draws from its own stream derived from a master seed and a
stable string name, so adding a new randomized component never perturbs the
draws seen by existing ones.  Stability matters: experiment results must be
bit-identical across runs and Python processes (``hash()`` is salted, so we
use SHA-256 instead).

The digest comes from CPython's builtin SHA-256 module, the way
``random`` itself takes its ``_sha512``: ``hashlib`` would map OpenSSL's
``libcrypto`` into every run (about 3.6 MB of resident memory) for a
handful of digests per run.  The bytes are the same either way, so every
draw is too.
"""

from __future__ import annotations

import random
from _random import Random as _Generator
from typing import Dict

try:  # Python 3.12+
    from _sha2 import sha256
except ImportError:
    try:  # Python 3.10 and 3.11
        from _sha256 import sha256
    except ImportError:  # an interpreter without the builtin module
        from hashlib import sha256


class SeededStreams:
    """Factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) stream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = random.Random(self._seed(name))
        self._streams[name] = stream
        return stream

    def generator(self, name: str) -> _Generator:
        """A fresh C-level generator seeded exactly as :meth:`stream`
        seeds ``name``'s, so its ``random()`` draws are the same; not
        memoized (the caller keeps it).  It has no instance dict and
        none of ``random.Random``'s Python methods, so it suits a hot
        loop that only calls ``random()``."""
        return _Generator(self._seed(name))

    def _seed(self, name: str) -> int:
        digest = sha256(
            f"{self.master_seed}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "SeededStreams":
        """Derive a child factory, useful for per-subsystem namespaces."""
        digest = sha256(
            f"{self.master_seed}:fork:{name}".encode("utf-8")
        ).digest()
        return SeededStreams(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SeededStreams seed={self.master_seed} streams={len(self._streams)}>"
