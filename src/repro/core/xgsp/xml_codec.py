"""XML wire form of XGSP messages.

Messages encode as ``<xgsp type="JoinSession">...</xgsp>`` with the
dataclass fields as an XML value tree (reusing the SOAP value codec).
``encode``/``decode`` are total inverses for every registered message
type; the byte length of the encoded form is what the signaling transport
charges.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple, Type

from repro.core.xgsp import messages as m
from repro.soap.xmlutil import (
    XmlCodecError,
    from_xml_value,
    string_to_element,
    to_xml_text,
)

ROOT_TAG = "xgsp"

#: Registry of every wire-visible XGSP message type.
MESSAGE_TYPES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (
        m.CreateSession,
        m.SessionCreated,
        m.TerminateSession,
        m.SessionTerminated,
        m.JoinSession,
        m.JoinAccepted,
        m.JoinRejected,
        m.SessionBusy,
        m.LeaveSession,
        m.InviteUser,
        m.FloorControl,
        m.MuteMember,
        m.SessionAnnouncement,
        m.ListSessions,
        m.SessionList,
        m.SessionOp,
        m.ReplicaHeartbeat,
        m.SnapshotRequest,
        m.SnapshotResponse,
    )
}


#: Wire fields, in wire order, of every class a message may contain:
#: what ``encode`` writes and what ``_build`` accepts back.
_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in (*MESSAGE_TYPES.values(), m.MediaDescription)
}


def encode(message: Any) -> str:
    """Serialize an XGSP message to XML text."""
    cls = type(message)
    if MESSAGE_TYPES.get(cls.__name__) is not cls:
        raise XmlCodecError(f"{cls.__name__} is not a registered XGSP message")
    return to_xml_text(ROOT_TAG, message, f' msg="{cls.__name__}"', _FIELDS)


def decode(text: str) -> Any:
    """Parse XML text back into the XGSP message dataclass."""
    element = string_to_element(text)
    if element.tag != ROOT_TAG:
        raise XmlCodecError(f"not an XGSP message: <{element.tag}>")
    name = element.get("msg", "")
    cls = MESSAGE_TYPES.get(name)
    if cls is None:
        raise XmlCodecError(f"unknown XGSP message type {name!r}")
    body = from_xml_value(element)
    if not isinstance(body, dict):
        raise XmlCodecError("XGSP body must decode to a dict")
    return _build(cls, body)


def _build(cls: Type, body: Dict[str, Any]) -> Any:
    """Rebuild a dataclass, recursing into MediaDescription lists."""
    kwargs = {name: body[name] for name in _FIELDS[cls] if name in body}
    media = kwargs.get("media")
    if isinstance(media, list):
        kwargs["media"] = [
            m.MediaDescription(**item) if isinstance(item, dict) else item
            for item in media
        ]
    return cls(**kwargs)


def wire_size(message: Any) -> int:
    """Encoded byte length (the signaling transport's charge)."""
    return len(encode(message))
