"""SOAP envelopes (request, response, fault) as real XML text.

Envelopes are serialized to XML strings before they cross the simulated
network and parsed on receipt, so the codec path is genuinely exercised
(and its byte length is what the transport charges for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.soap.xmlutil import (
    XmlCodecError,
    escape_attrib,
    escape_text,
    from_xml_value,
    string_to_element,
    to_xml_text,
    xml_element,
)

ENVELOPE_TAG = "Envelope"


@dataclass
class SoapFault(Exception):
    """A SOAP fault: code + human-readable reason."""

    code: str
    reason: str

    def __str__(self) -> str:
        return f"SoapFault({self.code}): {self.reason}"


@dataclass
class SoapEnvelope:
    """One SOAP message.

    ``kind`` is ``request``, ``response``, or ``fault``; ``message_id``
    correlates responses with requests.
    """

    kind: str
    service: str
    operation: str
    message_id: int
    body: Dict[str, Any] = field(default_factory=dict)
    fault: Optional[SoapFault] = None

    def to_xml(self) -> str:
        if self.fault is None:
            content = to_xml_text("Body", dict(self.body))
        else:
            content = xml_element(
                "Fault",
                ' code="' + escape_attrib(self.fault.code) + '"',
                escape_text(self.fault.reason),
            )
        attrs = "".join((
            ' kind="', escape_attrib(self.kind),
            '" service="', escape_attrib(self.service),
            '" operation="', escape_attrib(self.operation),
            '" messageId="', escape_attrib(str(self.message_id)), '"',
        ))
        return xml_element(ENVELOPE_TAG, attrs, content)

    def to_wire(self) -> Tuple[str, int]:
        """``(text, size)`` for a transport ``send``, from one rendering:
        the envelope text and its bytes plus nominal HTTP POST framing."""
        text = self.to_xml()
        return text, len(text) + 160

    @property
    def wire_size(self) -> int:
        """Envelope bytes plus nominal HTTP POST framing."""
        return self.to_wire()[1]


def parse_envelope(text: str) -> SoapEnvelope:
    root = string_to_element(text)
    if root.tag != ENVELOPE_TAG:
        raise XmlCodecError(f"not a SOAP envelope: <{root.tag}>")
    kind = root.get("kind", "")
    if kind not in ("request", "response", "fault"):
        raise XmlCodecError(f"bad envelope kind {kind!r}")
    envelope = SoapEnvelope(
        kind=kind,
        service=root.get("service", ""),
        operation=root.get("operation", ""),
        message_id=int(root.get("messageId", "0")),
    )
    fault_element = root.find("Fault")
    if fault_element is not None:
        envelope.fault = SoapFault(
            code=fault_element.get("code", "Server"),
            reason=fault_element.text or "",
        )
        return envelope
    body_element = root.find("Body")
    if body_element is None:
        raise XmlCodecError("envelope has neither Body nor Fault")
    body = from_xml_value(body_element)
    if not isinstance(body, dict):
        raise XmlCodecError("envelope Body must decode to a dict")
    envelope.body = body
    return envelope
