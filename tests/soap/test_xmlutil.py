"""XML value codec tests (unit + property round-trip + wire equality).

The writer emits text directly; until PR 18 the same values went through
``dataclasses.asdict`` → an ``ElementTree`` tree → ``ET.tostring``.  That
encoder is kept here, verbatim, as the reference: the encoded length is
what the modeled transports charge, so the writer must reproduce it byte
for byte on every value either codec accepts.
"""

import dataclasses
import enum
import re
import xml.etree.ElementTree as ET
from typing import Any, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.xgsp import xml_codec
from repro.soap.envelope import SoapEnvelope, SoapFault, parse_envelope
from repro.soap.xmlutil import (
    XmlCodecError,
    from_xml_value,
    string_to_element,
    to_xml_text,
)
from tests.core.test_xgsp_codec import MESSAGES

# ------------------------------------------------- the reference encoder

_REF_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")
_REF_INVALID_XML_RE = re.compile(
    "[\x00-\x08\x0b-\x0c\x0d\x0e-\x1f\x7f-\x84\x86-\x9f"
    "\ufdd0-\ufdef\ufffe\uffff]"
)


def _ref_needs_escape(text):
    return _REF_INVALID_XML_RE.search(text) is not None


def _ref_escape(text):
    return text.encode("unicode_escape").decode("ascii")


def reference_element(tag, value):
    if not _REF_NAME_RE.match(tag):
        raise XmlCodecError(f"invalid element name {tag!r}")
    element = ET.Element(tag)
    if value is None:
        element.set("type", "null")
    elif isinstance(value, bool):
        element.set("type", "bool")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("type", "int")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("type", "float")
        element.text = repr(value)
    elif isinstance(value, str):
        element.set("type", "str")
        if _ref_needs_escape(value):
            element.set("esc", "1")
            element.text = _ref_escape(value)
        else:
            element.text = value
    elif isinstance(value, (list, tuple)):
        element.set("type", "list")
        for item in value:
            element.append(reference_element("item", item))
    elif isinstance(value, dict):
        element.set("type", "dict")
        for key, item in value.items():
            if not isinstance(key, str):
                raise XmlCodecError(f"dict keys must be str, got {key!r}")
            if _REF_NAME_RE.match(key):
                element.append(reference_element(key, item))
            else:
                entry = reference_element("entry", item)
                if _ref_needs_escape(key):
                    entry.set("key-esc", "1")
                    entry.set("key", _ref_escape(key))
                else:
                    entry.set("key", key)
                element.append(entry)
    else:
        raise XmlCodecError(f"cannot encode {type(value).__name__}")
    return element


def reference_text(tag, value):
    return ET.tostring(reference_element(tag, value), encoding="unicode")


def reference_xgsp(message):
    element = reference_element(xml_codec.ROOT_TAG, dataclasses.asdict(message))
    element.set("msg", type(message).__name__)
    return ET.tostring(element, encoding="unicode")


def reference_envelope(envelope):
    root = ET.Element("Envelope")
    root.set("kind", envelope.kind)
    root.set("service", envelope.service)
    root.set("operation", envelope.operation)
    root.set("messageId", str(envelope.message_id))
    if envelope.fault is not None:
        fault = ET.SubElement(root, "Fault")
        fault.set("code", envelope.fault.code)
        fault.text = envelope.fault.reason
    else:
        root.append(reference_element("Body", dict(envelope.body)))
    return ET.tostring(root, encoding="unicode")


# ------------------------------------------------------------ round trip


def roundtrip(value):
    return from_xml_value(string_to_element(to_xml_text("v", value)))


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -17,
        3.5,
        "",
        "hello world",
        "unicode: 北京 café",
        [],
        [1, 2, 3],
        {"a": 1, "b": [True, None]},
        {"nested": {"deep": {"deeper": "x"}}},
        {"weird key with spaces": 1, "valid_key": 2},
    ],
)
def test_roundtrip_examples(value):
    assert roundtrip(value) == value
    assert to_xml_text("v", value) == reference_text("v", value)


def test_bool_not_confused_with_int():
    assert roundtrip(True) is True
    assert roundtrip(1) == 1
    assert not isinstance(roundtrip(1), bool)
    assert to_xml_text("v", True) == '<v type="bool">true</v>'
    assert to_xml_text("v", 1) == '<v type="int">1</v>'


def test_invalid_tag_rejected():
    with pytest.raises(XmlCodecError):
        to_xml_text("1bad", "x")


def test_unencodable_type_rejected():
    with pytest.raises(XmlCodecError):
        to_xml_text("v", object())


def test_non_string_dict_key_rejected():
    with pytest.raises(XmlCodecError):
        to_xml_text("v", {1: "x"})


def test_malformed_xml_rejected():
    with pytest.raises(XmlCodecError):
        string_to_element("<unclosed>")


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs", "Cc"), max_codepoint=0x2FFF
        ),
        max_size=40,
    ),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=8,
        ),
        children,
        max_size=4,
    ),
    max_leaves=20,
)


@given(json_like)
def test_roundtrip_property(value):
    assert roundtrip(value) == value


# ----------------------------------------------------------- wire equality


@dataclasses.dataclass
class Leaf:
    name: str
    weight: float = 0.0


@dataclasses.dataclass
class Branch:
    label: str
    leaves: List[Leaf]
    extra: Any = None
    pair: Tuple = ()


@dataclasses.dataclass
class _Box:
    value: Any


def plain(value):
    """``value`` as ``dataclasses.asdict`` handed it to the old encoder:
    dataclass instances, at any depth, replaced by dicts of their fields."""
    return dataclasses.asdict(_Box(value))["value"]


FIELDS = {Leaf: ("name", "weight"), Branch: ("label", "leaves", "extra", "pair")}

# Unrestricted text, for values *and* dict keys: control characters take
# the esc / key-esc forms, quotes, angle brackets, tabs and newlines the
# attribute and character-data escapes, anything that is not an XML name
# the <entry key=...> form.
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "&<>\"'\t\n\r", "\x00", "\ufffe", "a b", "a\n"])
)
leaves = st.builds(Leaf, st.text(), st.floats())


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
        | st.dictionaries(
            st.sampled_from(["a", "_b.c-d", "entry", "item", "a b", "", "é",
                             "1x", 'q"<&>', "k\x01", "t\tn\n", "nl\n"]),
            children,
            max_size=4,
        )
        | leaves
        | st.builds(
            Branch,
            st.text(),
            st.lists(leaves, max_size=3),
            children,
            st.tuples(children, children) | st.just(()),
        )
    )


value_grammar = st.recursive(scalars, _containers, max_leaves=25)


@settings(max_examples=300)
@given(value_grammar)
def test_writer_matches_reference_on_the_value_grammar(value):
    assert to_xml_text("v", value, fields=FIELDS) == reference_text(
        "v", plain(value)
    )


@pytest.mark.parametrize(
    "value, text",
    [
        (None, '<v type="null" />'),
        ("", '<v type="str" />'),
        ([], '<v type="list" />'),
        ((), '<v type="list" />'),
        ({}, '<v type="dict" />'),
        (True, '<v type="bool">true</v>'),
        (1, '<v type="int">1</v>'),
        (1.0, '<v type="float">1.0</v>'),
        (float("inf"), '<v type="float">inf</v>'),
        (float("-inf"), '<v type="float">-inf</v>'),
        (float("nan"), '<v type="float">nan</v>'),
        ("a<b>&c", '<v type="str">a&lt;b&gt;&amp;c</v>'),
        ("tab\tnl\n", '<v type="str">tab\tnl\n</v>'),
        ("bell\x07é", '<v type="str" esc="1">bell\\x07\\xe9</v>'),
        ((1, [None]),
         '<v type="list"><item type="int">1</item><item type="list">'
         '<item type="null" /></item></v>'),
        ({"ok": "", "not ok": 2, 'q"\t\n<': [], "bad\x01\r": {}},
         '<v type="dict"><ok type="str" /><entry type="int" key="not ok">2'
         '</entry><entry type="list" key="q&quot;&#09;&#10;&lt;" />'
         '<entry type="dict" key-esc="1" key="bad\\x01\\r" /></v>'),
        ({"k\x01": "v\x01"},
         '<v type="dict"><entry type="str" esc="1" key-esc="1" key="k\\x01">'
         'v\\x01</entry></v>'),
        (Branch("b", [Leaf("l", 2.5)], pair=(Leaf("m"),)),
         '<v type="dict"><label type="str">b</label><leaves type="list">'
         '<item type="dict"><name type="str">l</name><weight type="float">2.5'
         '</weight></item></leaves><extra type="null" /><pair type="list">'
         '<item type="dict"><name type="str">m</name><weight type="float">0.0'
         '</weight></item></pair></v>'),
    ],
)
def test_wire_forms(value, text):
    assert to_xml_text("v", value, fields=FIELDS) == text
    assert reference_text("v", plain(value)) == text


def test_enum_members_write_what_elementtree_wrote():
    # A str-mixin member contributes its characters (formatting one gives
    # "Transport.TCP" from 3.11 on); an int-mixin member goes through str().
    class Transport(str, enum.Enum):
        TCP = "tcp"

    class Level(enum.IntEnum):
        HIGH = 3

    value = {"t": Transport.TCP, "n": Level.HIGH}
    assert to_xml_text("v", value) == reference_text("v", value)
    assert '<t type="str">tcp</t>' in to_xml_text("v", value)


def test_root_attributes_follow_type_and_esc():
    text = to_xml_text("v", "x\x00", attrs=' msg="M"')
    assert text == '<v type="str" esc="1" msg="M">x\\x00</v>'


def test_dataclass_outside_the_field_table_rejected():
    with pytest.raises(XmlCodecError):
        to_xml_text("v", [Leaf("l")])
    with pytest.raises(XmlCodecError):
        to_xml_text("v", Leaf("l"), fields={Branch: FIELDS[Branch]})


@pytest.mark.parametrize("message", MESSAGES)
def test_every_xgsp_message_matches_reference(message):
    assert xml_codec.encode(message) == reference_xgsp(message)


envelope_text = st.text() | st.sampled_from(["", "a&b", 'q"<>', "t\tn\nr\r"])


@given(
    kind=st.sampled_from(["request", "response", "fault"]),
    service=envelope_text,
    operation=envelope_text,
    message_id=st.integers(),
    body=st.dictionaries(st.text(), value_grammar, max_size=4),
    code=envelope_text,
    reason=envelope_text,
)
def test_envelope_matches_reference(
    kind, service, operation, message_id, body, code, reason
):
    envelope = SoapEnvelope(
        kind=kind,
        service=service,
        operation=operation,
        message_id=message_id,
        body={} if kind == "fault" else plain(body),
        fault=SoapFault(code, reason) if kind == "fault" else None,
    )
    assert envelope.to_xml() == reference_envelope(envelope)
    assert envelope.to_wire() == (envelope.to_xml(), envelope.wire_size)


def test_envelope_wire_forms():
    request = SoapEnvelope("request", "Dir", "lookup", 7, body={"user": "a&b"})
    assert request.to_xml() == (
        '<Envelope kind="request" service="Dir" operation="lookup" '
        'messageId="7"><Body type="dict"><user type="str">a&amp;b</user>'
        "</Body></Envelope>"
    )
    assert request.to_wire() == (request.to_xml(), len(request.to_xml()) + 160)
    empty = SoapEnvelope("response", "Dir", "lookup", 7)
    assert empty.to_xml() == (
        '<Envelope kind="response" service="Dir" operation="lookup" '
        'messageId="7"><Body type="dict" /></Envelope>'
    )
    fault = SoapEnvelope("fault", "Dir", "lookup", 7,
                         fault=SoapFault('Client."Bad"', "a < b"))
    assert fault.to_xml() == (
        '<Envelope kind="fault" service="Dir" operation="lookup" '
        'messageId="7"><Fault code="Client.&quot;Bad&quot;">a &lt; b</Fault>'
        "</Envelope>"
    )
    silent = SoapEnvelope("fault", "Dir", "lookup", 7,
                          fault=SoapFault("Server", ""))
    assert silent.to_xml() == (
        '<Envelope kind="fault" service="Dir" operation="lookup" '
        'messageId="7"><Fault code="Server" /></Envelope>'
    )
    assert parse_envelope(silent.to_xml()).fault == SoapFault("Server", "")
    for envelope in (request, empty, fault, silent):
        assert envelope.to_xml() == reference_envelope(envelope)
