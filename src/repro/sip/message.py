"""SIP messages with real text rendering and parsing.

Requests and responses render to RFC 3261 wire text (start line, headers,
blank line, body) and parse back; the rendered length is the size charged
to the simulated transport.  Header storage is a case-insensitive multimap
with canonical rendering order for determinism.

:class:`TextMessage` and :func:`parse_text_message` are the part every
text protocol of this shape shares; RTSP (:mod:`repro.streaming.rtsp`)
builds on them with its own version string, method check and error.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Tuple, Type

SIP_VERSION = "SIP/2.0"

_branch_counter = itertools.count(1)
_tag_counter = itertools.count(1)
_callid_counter = itertools.count(1)


def new_branch() -> str:
    """RFC 3261 branch ids must start with the magic cookie."""
    return f"z9hG4bK-{next(_branch_counter)}"


def new_tag() -> str:
    return f"tag-{next(_tag_counter)}"


def new_call_id(host: str) -> str:
    return f"call-{next(_callid_counter)}@{host}"


class SipParseError(ValueError):
    """Raised on malformed SIP text."""


class TextMessage:
    """Header and body handling for a text protocol's requests and
    responses; subclasses supply the start line."""

    def __init__(self, headers: Optional[List[Tuple[str, str]]] = None, body: str = ""):
        self._headers: List[Tuple[str, str]] = list(headers or [])
        self.body = body

    # ------------------------------------------------------------ headers

    @staticmethod
    def _canonical(name: str) -> str:
        return "-".join(part.capitalize() for part in name.split("-"))

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        wanted = name.lower()
        for key, value in self._headers:
            if key.lower() == wanted:
                return value
        return default

    def get_all(self, name: str) -> List[str]:
        wanted = name.lower()
        return [value for key, value in self._headers if key.lower() == wanted]

    def set(self, name: str, value: str) -> None:
        """Replace all instances of a header."""
        wanted = name.lower()
        self._headers = [
            (key, existing)
            for key, existing in self._headers
            if key.lower() != wanted
        ]
        self._headers.append((self._canonical(name), str(value)))

    def add(self, name: str, value: str) -> None:
        """Append one instance (Via stacking)."""
        self._headers.append((self._canonical(name), str(value)))

    def prepend(self, name: str, value: str) -> None:
        """Insert at the front of the header list (topmost Via)."""
        self._headers.insert(0, (self._canonical(name), str(value)))

    def remove_first(self, name: str) -> Optional[str]:
        wanted = name.lower()
        for i, (key, value) in enumerate(self._headers):
            if key.lower() == wanted:
                del self._headers[i]
                return value
        return None

    def headers(self) -> List[Tuple[str, str]]:
        return list(self._headers)

    # --------------------------------------------------------- rendering

    def _start_line(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def render(self) -> str:
        lines = [self._start_line()]
        headers = list(self._headers)
        if self.body and self.get("Content-Length") is None:
            headers.append(("Content-Length", str(len(self.body))))
        lines.extend(f"{key}: {value}" for key, value in headers)
        lines.append("")
        return "\r\n".join(lines) + "\r\n" + self.body

    @property
    def wire_size(self) -> int:
        return len(self.render())


class SipMessage(TextMessage):
    """SIP's header conveniences for requests and responses."""

    @property
    def call_id(self) -> Optional[str]:
        return self.get("Call-Id")

    @property
    def cseq(self) -> Tuple[int, str]:
        raw = self.get("Cseq", "0 UNKNOWN") or "0 UNKNOWN"
        number, _, method = raw.partition(" ")
        try:
            return int(number), method
        except ValueError:
            raise SipParseError(f"bad CSeq {raw!r}") from None

    def top_via_branch(self) -> Optional[str]:
        via = self.get("Via")
        if via is None:
            return None
        for part in via.split(";"):
            if part.strip().startswith("branch="):
                return part.strip()[len("branch="):]
        return None


class SipRequest(SipMessage):
    """A SIP request."""

    def __init__(
        self,
        method: str,
        uri: str,
        headers: Optional[List[Tuple[str, str]]] = None,
        body: str = "",
    ):
        super().__init__(headers, body)
        self.method = method.upper()
        self.uri = uri

    def _start_line(self) -> str:
        return f"{self.method} {self.uri} {SIP_VERSION}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SipRequest {self.method} {self.uri}>"


class SipResponse(SipMessage):
    """A SIP response."""

    def __init__(
        self,
        status: int,
        reason: str,
        headers: Optional[List[Tuple[str, str]]] = None,
        body: str = "",
    ):
        super().__init__(headers, body)
        self.status = status
        self.reason = reason

    def _start_line(self) -> str:
        return f"{SIP_VERSION} {self.status} {self.reason}"

    @property
    def is_final(self) -> bool:
        return self.status >= 200

    @property
    def is_success(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SipResponse {self.status} {self.reason}>"


def response_for(
    request: SipRequest, status: int, reason: str, body: str = ""
) -> SipResponse:
    """Build a response echoing the request's transaction headers."""
    response = SipResponse(status, reason, body=body)
    for name in ("Via", "From", "Call-Id"):
        for value in request.get_all(name):
            response.add(name, value)
    to_value = request.get("To")
    if to_value is not None:
        response.add("To", to_value)
    cseq = request.get("Cseq")
    if cseq is not None:
        response.add("Cseq", cseq)
    return response


def parse_text_message(
    text: str,
    version: str,
    error: Type[ValueError],
    request: Callable[[str, str, List[Tuple[str, str]], str], TextMessage],
    response: Callable[[int, str, List[Tuple[str, str]], str], TextMessage],
) -> TextMessage:
    """Parse the wire text of a ``version`` protocol: a status line builds
    ``response(status, reason, headers, body)``, a request line
    ``request(method, target, headers, body)``; malformed text raises
    ``error``."""
    head, separator, body = text.partition("\r\n\r\n")
    if not separator:
        raise error("missing header/body separator")
    lines = head.split("\r\n")
    if not lines or not lines[0]:
        raise error("empty message")
    start = lines[0]
    headers: List[Tuple[str, str]] = []
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise error(f"malformed header line {line!r}")
        headers.append((name.strip(), value.strip()))
    if start.startswith(version):
        parts = start.split(" ", 2)
        if len(parts) < 3:
            raise error(f"malformed status line {start!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise error(f"bad status code in {start!r}") from None
        return response(status, parts[2], headers, body)
    parts = start.split(" ")
    if len(parts) != 3 or parts[2] != version:
        raise error(f"malformed request line {start!r}")
    return request(parts[0], parts[1], headers, body)


def parse_message(text: str):
    """Parse wire text into a :class:`SipRequest` or :class:`SipResponse`."""
    return parse_text_message(
        text, SIP_VERSION, SipParseError, SipRequest, SipResponse
    )


def parse_name_addr(header: str) -> Tuple[str, Optional[str]]:
    """Split ``<sip:user@dom>;tag-N`` into (uri, tag-or-None)."""
    value = header.strip()
    tag: Optional[str] = None
    if ">" in value:
        addr, _, params = value.partition(">")
        uri = addr.lstrip("<")
        params = params.lstrip(";")
        if params:
            tag = params
    else:
        uri, _, params = value.partition(";")
        if params:
            tag = params
    return uri.strip(), tag


def parse_uri(uri: str) -> Tuple[str, str]:
    """Split ``sip:user@domain`` into (user, domain)."""
    if not uri.startswith("sip:"):
        raise SipParseError(f"not a sip: URI: {uri!r}")
    rest = uri[len("sip:"):]
    user, at, domain = rest.partition("@")
    if not at or not user or not domain:
        raise SipParseError(f"URI must be sip:user@domain: {uri!r}")
    return user, domain
