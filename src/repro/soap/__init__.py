"""Minimal SOAP/WSDL web-services layer.

The paper's XGSP framework is "based on XML and Web Services technology":
the XGSP Web Server invokes community web-services through SOAP, and every
collaboration server publishes a WSDL-CI interface description.  This
package provides real XML envelopes over the simulated TCP transport, a
service container with operation dispatch, an asynchronous client with
typed faults, and WSDL documents with operation/parameter validation.
"""

from repro.soap.xmlutil import from_xml_value, to_xml_text, XmlCodecError
from repro.soap.envelope import SoapEnvelope, SoapFault, parse_envelope
from repro.soap.wsdl import Operation, WsdlDocument, WsdlError
from repro.soap.service import SoapService
from repro.soap.client import SoapClient

__all__ = [
    "from_xml_value",
    "to_xml_text",
    "XmlCodecError",
    "SoapEnvelope",
    "SoapFault",
    "parse_envelope",
    "Operation",
    "WsdlDocument",
    "WsdlError",
    "SoapService",
    "SoapClient",
]
