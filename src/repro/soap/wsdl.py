"""WSDL documents: interface descriptions with validation.

WSDL-CI (the paper's "WSDL Collaboration Interface") "gives an interface
definition of any collaboration server" so Global-MMCS can generate the
interface component that controls it.  A :class:`WsdlDocument` lists the
operations a service exposes with required/optional parameters; both the
service container and the client validate calls against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable


class WsdlError(ValueError):
    """Raised for invalid WSDL usage (unknown operation, bad params)."""


@dataclass(frozen=True)
class Operation:
    """One operation of a port type."""

    name: str
    required: frozenset = frozenset()
    optional: frozenset = frozenset()
    doc: str = ""

    @classmethod
    def make(
        cls,
        name: str,
        required: Iterable[str] = (),
        optional: Iterable[str] = (),
        doc: str = "",
    ) -> "Operation":
        return cls(
            name=name,
            required=frozenset(required),
            optional=frozenset(optional),
            doc=doc,
        )

    def validate(self, params: Dict[str, Any]) -> None:
        missing = self.required - set(params)
        if missing:
            raise WsdlError(
                f"operation {self.name!r} missing params {sorted(missing)}"
            )
        unknown = set(params) - self.required - self.optional
        if unknown:
            raise WsdlError(
                f"operation {self.name!r} got unknown params {sorted(unknown)}"
            )


@dataclass
class WsdlDocument:
    """A service's interface description."""

    service: str
    operations: Dict[str, Operation] = field(default_factory=dict)
    doc: str = ""

    def add(self, operation: Operation) -> "WsdlDocument":
        if operation.name in self.operations:
            raise WsdlError(f"duplicate operation {operation.name!r}")
        self.operations[operation.name] = operation
        return self

    def operation(self, name: str) -> Operation:
        try:
            return self.operations[name]
        except KeyError:
            raise WsdlError(
                f"service {self.service!r} has no operation {name!r}"
            ) from None

    def validate_call(self, operation: str, params: Dict[str, Any]) -> None:
        self.operation(operation).validate(params)
