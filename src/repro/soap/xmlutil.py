"""XML encoding of Python values.

SOAP bodies and XGSP messages carry structured values; this module maps a
JSON-like Python subset (str, int, float, bool, None, list, dict with
string keys) to XML text and back, losslessly.  The ``type`` attribute
disambiguates scalars; dict keys become child element names when they are
valid XML names, otherwise an ``entry key=...`` form is used.  Encoding
writes the text directly (:func:`to_xml_text`; :func:`render_xml` also
returns what reading the text back gives); decoding parses it with
ElementTree (:func:`string_to_element`, :func:`from_xml_value`).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

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


class _Unreadable(Exception):
    """A value's text does not read back as the value (raised only on a
    walk that keeps the read-back value)."""


class _TextOnly(list):
    """The output of a walk whose read-back value nobody keeps."""


#: ``render_xml``'s read-back value for text that would not read back as
#: what was rendered (an int subclass whose ``str()`` is not its digits).
UNREADABLE = object()


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
    out = _TextOnly()
    _render(out, tag, value, attrs, {} if fields is None else fields)
    return "".join(out)


def render_xml(
    tag: str,
    value: Any,
    attrs: str = "",
    fields: Optional[Mapping[type, Sequence[str]]] = None,
) -> Tuple[str, Any]:
    """:func:`to_xml_text` and, from the same walk, the value that
    :func:`from_xml_value` reads back from the text: plain ``str``,
    ``int``, ``float``, ``bool`` and ``None``, lists for lists and tuples,
    dicts for dicts and dataclasses.  :data:`UNREADABLE` instead when
    the text would not read back (parsing it fails)."""
    if not _NAME_RE.match(tag):
        raise XmlCodecError(f"invalid element name {tag!r}")
    if fields is None:
        fields = {}
    out: List[str] = []
    try:
        body = _render(out, tag, value, attrs, fields)
    except _Unreadable:
        out = _TextOnly()
        _render(out, tag, value, attrs, fields)
        body = UNREADABLE
    return "".join(out), body


def _render(
    out: List[str],
    tag: str,
    value: Any,
    attrs: str,
    fields: Mapping[type, Sequence[str]],
) -> Any:
    """Append the text of ``value`` as element ``tag`` to ``out``; return
    what :func:`from_xml_value` reads back from it.  Dispatches on the
    exact type, commonest first; a subclass of a written type goes
    through :func:`_render_subclass`."""
    kind = type(value)
    if kind is str:
        if not (value.isascii() and value.isprintable()) and _INVALID_XML_RE.search(
            value
        ):
            out += ("<", tag, ' type="str" esc="1"', attrs, ">",
                    escape_text(_escape(value)), "</", tag, ">")
        elif not value:
            out += ("<", tag, ' type="str"', attrs, " />")
        elif "&" in value or "<" in value or ">" in value:
            out += ("<", tag, ' type="str"', attrs, ">", escape_text(value),
                    "</", tag, ">")
        else:
            out += ("<", tag, ' type="str"', attrs, ">", value, "</", tag, ">")
        return value
    if kind is int:
        out += ("<", tag, ' type="int"', attrs, ">", str(value), "</", tag, ">")
        return value
    if kind is list or kind is tuple:
        return _render_list(out, tag, value, attrs, fields)
    if kind is dict:
        return _render_dict(out, tag, value.items(), attrs, fields)
    if value is None:
        out += ("<", tag, ' type="null"', attrs, " />")
        return None
    if kind is bool:
        out += ("<", tag, ' type="bool"', attrs, ">", "true" if value else "false",
                "</", tag, ">")
        return value
    if kind is float:
        out += ("<", tag, ' type="float"', attrs, ">", repr(value), "</", tag, ">")
        return value
    names = fields.get(kind)
    if names is None:
        return _render_subclass(out, tag, value, attrs, fields)
    return _render_dict(
        out, tag, [(name, getattr(value, name)) for name in names], attrs, fields
    )


def _render_list(out, tag, value, attrs, fields):
    if not value:
        out += ("<", tag, ' type="list"', attrs, " />")
        return []
    out += ("<", tag, ' type="list"', attrs, ">")
    body = [_render(out, "item", item, "", fields) for item in value]
    out += ("</", tag, ">")
    return body


def _render_dict(out, tag, items, attrs, fields):
    """A dict's ``items()``, or a dataclass's ``(field, value)`` pairs."""
    if not items:
        out += ("<", tag, ' type="dict"', attrs, " />")
        return {}
    out += ("<", tag, ' type="dict"', attrs, ">")
    body = {}
    names = _names
    for key, item in items:
        if type(key) is not str:
            if not isinstance(key, str):
                raise XmlCodecError(f"dict keys must be str, got {key!r}")
            key = str.__str__(key)  # its characters, as a plain str
        valid = names.get(key)
        if valid is None:
            valid = _NAME_RE.match(key) is not None
            if len(names) < _NAMES_KEPT:
                names[key] = valid
        if valid:
            body[key] = _render(out, key, item, "", fields)
            continue
        if _INVALID_XML_RE.search(key):
            entry = ' key-esc="1" key="' + escape_attrib(_escape(key)) + '"'
        else:
            entry = ' key="' + escape_attrib(key) + '"'
        body[key] = _render(out, "entry", item, entry, fields)
    out += ("</", tag, ">")
    return body


#: Whether a dict key is an XML name (so it is written as the tag), for
#: the first _NAMES_KEPT keys seen: field names and the like recur.
_names: Dict[str, bool] = {}
_NAMES_KEPT = 1024


def _render_subclass(out, tag, value, attrs, fields):
    """A subclass of a type the codec writes: written as its base type
    wrote it through ElementTree (a str-mixin enum member contributes its
    characters, an int-mixin one its ``str()``), read back as the base
    type's plain value."""
    if isinstance(value, str):
        plain = str.__str__(value)  # the same characters
        _render(out, tag, plain, attrs, fields)
        return plain
    if isinstance(value, (int, float)):  # bool cannot be subclassed
        kind, base = ("int", int) if isinstance(value, int) else ("float", float)
        text = str(value) if base is int else repr(value)
        out += ("<", tag, ' type="', kind, '"', attrs, ">", text, "</", tag, ">")
        try:
            return base(text)
        except ValueError:
            if type(out) is _TextOnly:
                return None
            raise _Unreadable from None
    if isinstance(value, (list, tuple)):
        return _render_list(out, tag, value, attrs, fields)
    if isinstance(value, dict):
        return _render_dict(out, tag, value.items(), attrs, fields)
    raise XmlCodecError(f"cannot encode {type(value).__name__}")


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
