"""RTSP (RFC 2326) message codec, text level.

The SIP codec's header list, rendering and start-line parse
(:class:`~repro.sip.message.TextMessage`,
:func:`~repro.sip.message.parse_text_message`) with RTSP's version
string, method check and error: requests/responses render to text and
parse back, and the rendered length is what the TCP transport charges.
The server and player implement DESCRIBE / SETUP / PLAY / PAUSE /
TEARDOWN.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sip.message import TextMessage, parse_text_message

RTSP_VERSION = "RTSP/1.0"

METHODS = ("DESCRIBE", "SETUP", "PLAY", "PAUSE", "TEARDOWN", "OPTIONS")


class RtspParseError(ValueError):
    """Malformed RTSP text."""


class RtspMessage(TextMessage):
    """RTSP's header convenience for requests and responses."""

    @property
    def cseq(self) -> int:
        return int(self.get("Cseq", "0") or 0)


class RtspRequest(RtspMessage):
    def __init__(self, method: str, url: str,
                 headers: Optional[List[Tuple[str, str]]] = None, body: str = ""):
        super().__init__(headers, body)
        self.method = method.upper()
        self.url = url

    def _start_line(self) -> str:
        return f"{self.method} {self.url} {RTSP_VERSION}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RtspRequest {self.method} {self.url}>"


class RtspResponse(RtspMessage):
    def __init__(self, status: int, reason: str,
                 headers: Optional[List[Tuple[str, str]]] = None, body: str = ""):
        super().__init__(headers, body)
        self.status = status
        self.reason = reason

    def _start_line(self) -> str:
        return f"{RTSP_VERSION} {self.status} {self.reason}"

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RtspResponse {self.status}>"


def _request(method: str, url: str, headers, body: str) -> RtspRequest:
    if method not in METHODS:
        raise RtspParseError(f"unknown method {method!r}")
    return RtspRequest(method, url, headers, body)


def parse_rtsp(text: str):
    """Parse wire text into an :class:`RtspRequest` or an
    :class:`RtspResponse`."""
    return parse_text_message(
        text, RTSP_VERSION, RtspParseError, _request, RtspResponse
    )


def parse_rtsp_url(url: str) -> Tuple[str, str]:
    """``rtsp://host:port/stream`` -> (host:port, stream)."""
    if not url.startswith("rtsp://"):
        raise RtspParseError(f"not an rtsp URL: {url!r}")
    rest = url[len("rtsp://"):]
    authority, slash, stream = rest.partition("/")
    if not slash or not stream:
        raise RtspParseError(f"URL missing stream path: {url!r}")
    return authority, stream
