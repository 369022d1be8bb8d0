"""The layer map: which layer a source file's time and calls belong to.

Layers are named by module.  The map is keyed on the file's path under
``src/repro`` — a file table first, then a per-package default — so the
profile pass can bucket every ``cProfile`` entry by ``co_filename``.
``perf/`` itself is ``loadgen`` (generators and receiver callbacks) and
everything else (stdlib, networkx) is ``other``.

Any ``repro/broker/*`` module not in the file table defaults to
``broker.core`` so that splitting ``broker.py`` does not orphan time.
Every other package must be listed: ``perf/test_selfcheck.py`` fails on a
``src/repro`` file no rule covers.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO_DIR = os.path.join(ROOT, "src", "repro")
PERF_DIR = os.path.join(ROOT, "perf")

LAYERS = (
    "simnet.kernel",
    "simnet.cpu",
    "simnet.wire",
    "simnet.transport",
    "broker.core",
    "broker.routing",
    "broker.links",
    "broker.client",
    "broker.fabric",
    "rtp",
    "signaling",
    "obs",
    "loadgen",
    "other",
)

#: File under ``src/repro`` -> layer.  Wins over the package default.
FILES: Dict[str, str] = {
    "simnet/__init__.py": "simnet.kernel",
    "simnet/kernel.py": "simnet.kernel",
    "simnet/shard.py": "simnet.kernel",
    "simnet/cpu.py": "simnet.cpu",
    "simnet/nic.py": "simnet.wire",
    "simnet/link.py": "simnet.wire",
    "simnet/network.py": "simnet.wire",
    "simnet/node.py": "simnet.wire",
    "simnet/packet.py": "simnet.wire",
    "simnet/multicast.py": "simnet.wire",
    "simnet/firewall.py": "simnet.wire",
    "simnet/chaos.py": "simnet.wire",
    "simnet/rng.py": "simnet.wire",
    "simnet/udp.py": "simnet.transport",
    "simnet/tcp.py": "simnet.transport",
    "simnet/transport.py": "simnet.transport",
    "broker/topic.py": "broker.routing",
    "broker/route_cache.py": "broker.routing",
    "broker/links.py": "broker.links",
    "broker/reliable.py": "broker.links",
    "broker/client.py": "broker.client",
    "broker/rtp_proxy.py": "broker.client",
    "broker/p2p.py": "broker.client",
    "broker/network.py": "broker.fabric",
    "broker/monitor.py": "broker.fabric",
    "__init__.py": "other",
    "__main__.py": "other",
    "cli.py": "other",
}

#: Top-level package under ``src/repro`` -> layer of its unlisted files.
PACKAGES: Dict[str, str] = {
    "broker": "broker.core",
    "rtp": "rtp",
    "obs": "obs",
    "core": "signaling",
    "sip": "signaling",
    "h323": "signaling",
    "soap": "signaling",
    "communities": "signaling",
    "streaming": "signaling",
    "baselines": "other",
    "bench": "other",
    "util": "other",
}


def layer_of_module(relative_path: str) -> Optional[str]:
    """Layer of a file given by its path under ``src/repro`` (``/``
    separated), or None when no rule covers it."""
    layer = FILES.get(relative_path)
    if layer is not None:
        return layer
    package, separator, _rest = relative_path.partition("/")
    return PACKAGES.get(package) if separator else None


def layer_of(filename: str) -> str:
    """Layer of an absolute source path, as ``co_filename`` gives it."""
    if filename.startswith(REPRO_DIR + os.sep):
        relative = filename[len(REPRO_DIR) + 1:].replace(os.sep, "/")
        return layer_of_module(relative) or "other"
    if filename.startswith(PERF_DIR + os.sep):
        return "loadgen"
    return "other"
