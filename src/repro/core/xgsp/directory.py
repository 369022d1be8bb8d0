"""XGSP Naming & Directory Server.

Section 2.2 names two directories: (1) user accounts and media terminals
— "unique user identifications help to authenticate valid users and bind
the user to his media terminal", including media capability and the
*active* terminal; and (2) communities and collaboration servers — each
community is "an autonomous area that has its own collaboration control
servers and media servers".

The directory is a plain library object plus a SOAP face
(``XGSPDirectory``) so remote portals and communities can use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simnet.packet import Address
from repro.soap.service import SoapService
from repro.soap.wsdl import Operation, WsdlDocument


class DirectoryError(KeyError):
    """Unknown user/community/server."""


@dataclass
class Terminal:
    """One media terminal of a user."""

    terminal_id: str
    kind: str  # "h323" | "sip" | "accessgrid" | "admire" | "player" | "native"
    address: str = ""
    media_capabilities: List[str] = field(default_factory=lambda: ["audio", "video"])


@dataclass
class UserAccount:
    user_id: str
    display_name: str = ""
    community: str = "global"
    terminals: Dict[str, Terminal] = field(default_factory=dict)
    active_terminal: Optional[str] = None


@dataclass
class CollaborationServer:
    """A community's collaboration server and its WSDL-CI endpoint."""

    server_id: str
    kind: str  # "h323-mcu" | "sip-proxy" | "admire" | "accessgrid" | ...
    community: str
    soap_address: Optional[Address] = None
    service_name: str = ""


@dataclass
class Community:
    name: str
    description: str = ""
    servers: Dict[str, CollaborationServer] = field(default_factory=dict)


class XgspDirectory:
    """In-memory directory with optional SOAP exposure."""

    SERVICE = "XGSPDirectory"

    def __init__(self) -> None:
        self._users: Dict[str, UserAccount] = {}
        self._communities: Dict[str, Community] = {"global": Community("global")}

    # -------------------------------------------------------------- users

    def register_user(
        self, user_id: str, display_name: str = "", community: str = "global"
    ) -> UserAccount:
        if community not in self._communities:
            raise DirectoryError(f"unknown community {community!r}")
        account = self._users.get(user_id)
        if account is None:
            account = UserAccount(user_id, display_name or user_id, community)
            self._users[user_id] = account
        return account

    def user(self, user_id: str) -> UserAccount:
        account = self._users.get(user_id)
        if account is None:
            raise DirectoryError(f"unknown user {user_id!r}")
        return account

    def users(self) -> List[str]:
        return sorted(self._users)

    def add_terminal(self, user_id: str, terminal: Terminal, activate: bool = True) -> None:
        account = self.user(user_id)
        account.terminals[terminal.terminal_id] = terminal
        if activate or account.active_terminal is None:
            account.active_terminal = terminal.terminal_id

    def set_active_terminal(self, user_id: str, terminal_id: str) -> None:
        account = self.user(user_id)
        if terminal_id not in account.terminals:
            raise DirectoryError(
                f"user {user_id!r} has no terminal {terminal_id!r}"
            )
        account.active_terminal = terminal_id

    def active_terminal(self, user_id: str) -> Optional[Terminal]:
        account = self.user(user_id)
        if account.active_terminal is None:
            return None
        return account.terminals.get(account.active_terminal)

    # -------------------------------------------------------- communities

    def register_community(self, name: str, description: str = "") -> Community:
        community = self._communities.get(name)
        if community is None:
            community = Community(name, description)
            self._communities[name] = community
        return community

    def community(self, name: str) -> Community:
        community = self._communities.get(name)
        if community is None:
            raise DirectoryError(f"unknown community {name!r}")
        return community

    def communities(self) -> List[str]:
        return sorted(self._communities)

    def register_server(self, server: CollaborationServer) -> None:
        community = self.community(server.community)
        community.servers[server.server_id] = server

    def server(self, community: str, server_id: str) -> CollaborationServer:
        servers = self.community(community).servers
        if server_id not in servers:
            raise DirectoryError(
                f"community {community!r} has no server {server_id!r}"
            )
        return servers[server_id]

    def servers_of_kind(self, kind: str) -> List[CollaborationServer]:
        found = []
        for community in self._communities.values():
            for server in community.servers.values():
                if server.kind == kind:
                    found.append(server)
        return sorted(found, key=lambda s: s.server_id)

    # ---------------------------------------------------------- SOAP face

    @staticmethod
    def wsdl() -> WsdlDocument:
        return (
            WsdlDocument(service=XgspDirectory.SERVICE, doc="Naming & directory")
            .add(Operation.make("registerUser", required=["user_id"],
                                optional=["display_name", "community"]))
            .add(Operation.make("lookupUser", required=["user_id"]))
            .add(Operation.make("addTerminal",
                                required=["user_id", "terminal_id", "kind"],
                                optional=["address", "media"]))
            .add(Operation.make("activeTerminal", required=["user_id"]))
            .add(Operation.make("registerCommunity", required=["name"],
                                optional=["description"]))
            .add(Operation.make("listCommunities"))
            .add(Operation.make("listUsers"))
        )

    def expose(self, soap: SoapService) -> None:
        """Publish the directory as a SOAP service on a container."""
        soap.register(self.wsdl())
        soap.bind(self.SERVICE, "registerUser", self._op_register_user)
        soap.bind(self.SERVICE, "lookupUser", self._op_lookup_user)
        soap.bind(self.SERVICE, "addTerminal", self._op_add_terminal)
        soap.bind(self.SERVICE, "activeTerminal", self._op_active_terminal)
        soap.bind(self.SERVICE, "registerCommunity", self._op_register_community)
        soap.bind(self.SERVICE, "listCommunities", lambda: {
            "communities": self.communities()
        })
        soap.bind(self.SERVICE, "listUsers", lambda: {"users": self.users()})

    def _op_register_user(self, user_id, display_name="", community="global"):
        account = self.register_user(user_id, display_name, community)
        return {"user_id": account.user_id, "community": account.community}

    def _op_lookup_user(self, user_id):
        account = self.user(user_id)
        return {
            "user_id": account.user_id,
            "display_name": account.display_name,
            "community": account.community,
            "terminals": sorted(account.terminals),
            "active_terminal": account.active_terminal,
        }

    def _op_add_terminal(self, user_id, terminal_id, kind, address="", media=None):
        terminal = Terminal(
            terminal_id=terminal_id,
            kind=kind,
            address=address,
            media_capabilities=list(media) if media else ["audio", "video"],
        )
        self.add_terminal(user_id, terminal)
        return {"user_id": user_id, "terminal_id": terminal_id}

    def _op_active_terminal(self, user_id):
        terminal = self.active_terminal(user_id)
        if terminal is None:
            return {"terminal_id": None}
        return {
            "terminal_id": terminal.terminal_id,
            "kind": terminal.kind,
            "address": terminal.address,
            "media": list(terminal.media_capabilities),
        }

    def _op_register_community(self, name, description=""):
        community = self.register_community(name, description)
        return {"name": community.name}
