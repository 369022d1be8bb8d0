"""XML wire form of XGSP messages.

Messages encode as ``<xgsp type="JoinSession">...</xgsp>`` with the
dataclass fields as an XML value tree (reusing the SOAP value codec).
``encode``/``decode`` are total inverses for every registered message
type; the byte length of the encoded form is what the signaling transport
charges.

Every simulated endpoint lives in one process, so the text a receiver
decodes was, nearly always, encoded here moments before.  ``encode``
keeps what reading its text back gives (:func:`render_xml` computes it in
the same walk) in a small memo keyed by the text, and ``decode`` rebuilds
the message from there, with fresh lists and dicts, instead of parsing.
Text the memo no longer holds, or never did, is parsed as before.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple, Type

from repro.core.xgsp import messages as m
from repro.soap.xmlutil import (
    UNREADABLE,
    XmlCodecError,
    from_xml_value,
    render_xml,
    string_to_element,
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


#: The root attribute of each message type.
_ROOT_ATTRS: Dict[type, str] = {
    cls: f' msg="{name}"' for name, cls in MESSAGE_TYPES.items()
}

#: How many encoded texts the memo holds (oldest dropped first).  A text
#: waits there from its encoding until its last receiver decodes it,
#: which is one signaling round trip.
MEMO_ENTRIES = 128
#: Longer texts are not kept: the memo stays under MEMO_ENTRIES of these.
MEMO_MAX_CHARS = 4096

#: Encoded text -> (message class, the body a parse of it reads back).
_memo: Dict[str, Tuple[Type, Dict[str, Any]]] = {}


def encode(message: Any) -> str:
    """Serialize an XGSP message to XML text."""
    cls = type(message)
    attrs = _ROOT_ATTRS.get(cls)
    if attrs is None:
        raise XmlCodecError(f"{cls.__name__} is not a registered XGSP message")
    text, body = render_xml(ROOT_TAG, message, attrs, _FIELDS)
    if body is not UNREADABLE and len(text) <= MEMO_MAX_CHARS:
        memo = _memo
        memo[text] = (cls, body)
        if len(memo) > MEMO_ENTRIES:
            del memo[next(iter(memo))]
    return text


def decode(text: str) -> Any:
    """Parse XML text back into the XGSP message dataclass."""
    encoded = _memo.get(text)
    if encoded is not None:
        cls, body = encoded
        return _build(cls, _fresh(body))
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


def _fresh(value: Any) -> Any:
    """A copy of a read-back value with lists and dicts of its own, as a
    parse would give it: the receiver may change what it decoded."""
    kind = type(value)
    if kind is dict:
        return {key: _fresh(item) for key, item in value.items()}
    if kind is list:
        return [_fresh(item) for item in value]
    return value


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
