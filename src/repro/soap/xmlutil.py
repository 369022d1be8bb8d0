"""XML encoding of Python values.

SOAP bodies and XGSP messages carry structured values; this module maps a
JSON-like Python subset (str, int, float, bool, None, list, dict with
string keys) to XML text and back, losslessly.  The ``type`` attribute
disambiguates scalars; dict keys become child element names when they are
valid XML names, otherwise an ``entry key=...`` form is used.  Encoding
writes the text directly (:func:`to_xml_text`); decoding parses it with
ElementTree (:func:`string_to_element`, :func:`from_xml_value`).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Any, Iterable, Mapping, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")

# Characters XML 1.0 cannot represent even escaped (control chars other
# than tab/newline/carriage-return).  Strings containing them are stored
# unicode-escaped with an ``esc="1"`` marker.
_INVALID_XML_RE = re.compile(
    # \r is *valid* XML but parsers normalize it to \n, so escape it too.
    "[\x00-\x08\x0b-\x0c\x0d\x0e-\x1f\x7f-\x84\x86-\x9f﷐-﷯￾￿]"
)


def _escape(text: str) -> str:
    return text.encode("unicode_escape").decode("ascii")


def _unescape(text: str) -> str:
    return text.encode("ascii").decode("unicode_escape")


class XmlCodecError(ValueError):
    """Raised when a value cannot be encoded or an element decoded."""


def escape_text(text: str) -> str:
    """Character data as ElementTree writes it."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attrib(text: str) -> str:
    """A double-quoted attribute value as ElementTree writes it."""
    text = escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def xml_element(tag: str, attrs: str, content: str) -> str:
    """``<tag attrs>content</tag>``, or ``<tag attrs />`` when there is no
    content, as ElementTree writes it; ``attrs`` and ``content`` already
    escaped.  Joined, not formatted: a str subclass (an enum member,
    say) must contribute its characters, as it did through ElementTree."""
    if content:
        return "".join(("<", tag, attrs, ">", content, "</", tag, ">"))
    return "".join(("<", tag, attrs, " />"))


def to_xml_text(
    tag: str,
    value: Any,
    attrs: str = "",
    fields: Optional[Mapping[type, Sequence[str]]] = None,
) -> str:
    """Encode ``value`` as the text of an element named ``tag``.

    The text is byte-for-byte what ``ElementTree.tostring`` gave for the
    element tree this module used to build (its length is what the
    modeled transports charge): attributes in the order ``type``,
    ``esc``, then ``attrs``; ``<tag ... />`` for a value with no text and
    no children.  ``attrs`` is already-rendered attribute text for the
    root element, leading space included.  ``fields`` names the dataclass
    types allowed inside ``value`` and, for each, the fields to write in
    order; an instance encodes as the dict of those fields.
    """
    if not _NAME_RE.match(tag):
        raise XmlCodecError(f"invalid element name {tag!r}")
    return _render(tag, value, attrs, {} if fields is None else fields)


def _render(
    tag: str, value: Any, attrs: str, fields: Mapping[type, Sequence[str]]
) -> str:
    if isinstance(value, str):
        kind = "str"
        if _INVALID_XML_RE.search(value):
            attrs = ' esc="1"' + attrs
            value = _escape(value)
        text = escape_text(value)
    elif value is None:
        kind, text = "null", ""
    elif isinstance(value, bool):  # before int: bool is an int subclass
        kind, text = "bool", "true" if value else "false"
    elif isinstance(value, int):
        kind, text = "int", str(value)
    elif isinstance(value, float):
        kind, text = "float", repr(value)
    elif isinstance(value, (list, tuple)):
        kind = "list"
        text = "".join([_render("item", item, "", fields) for item in value])
    else:
        if isinstance(value, dict):
            items: Iterable[Tuple[Any, Any]] = value.items()
        else:
            names = fields.get(type(value))
            if names is None:
                raise XmlCodecError(f"cannot encode {type(value).__name__}")
            items = [(name, getattr(value, name)) for name in names]
        kind = "dict"
        children = []
        for key, item in items:
            if not isinstance(key, str):
                raise XmlCodecError(f"dict keys must be str, got {key!r}")
            if _NAME_RE.match(key):
                children.append(_render(key, item, "", fields))
                continue
            if _INVALID_XML_RE.search(key):
                entry = ' key-esc="1" key="' + escape_attrib(_escape(key)) + '"'
            else:
                entry = ' key="' + escape_attrib(key) + '"'
            children.append(_render("entry", item, entry, fields))
        text = "".join(children)
    return xml_element(tag, ' type="' + kind + '"' + attrs, text)


def from_xml_value(element: ET.Element) -> Any:
    """Decode a parsed element written by :func:`to_xml_text`."""
    kind = element.get("type")
    text = element.text or ""
    if kind == "null":
        return None
    if kind == "bool":
        return text == "true"
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "str":
        return _unescape(text) if element.get("esc") == "1" else text
    if kind == "list":
        return [from_xml_value(child) for child in element]
    if kind == "dict":
        result = {}
        for child in element:
            key = child.get("key", child.tag)
            if child.get("key-esc") == "1":
                key = _unescape(key)
            result[key] = from_xml_value(child)
        return result
    raise XmlCodecError(f"unknown type attribute {kind!r} on <{element.tag}>")


def string_to_element(text: str) -> ET.Element:
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlCodecError(f"malformed XML: {exc}") from exc
