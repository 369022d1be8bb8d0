"""SIP user agents: the "SIP endpoints" of the paper.

Implements the UAC/UAS behaviour a Global-MMCS SIP client needs: REGISTER,
INVITE with SDP offer/answer and dialog state, ACK, BYE, and MESSAGE for
instant messaging.  Incoming calls are answered by the ``on_invite`` hook,
which receives the SDP offer and returns the SDP answer (or None to send
486 Busy Here).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from repro.simnet.node import Host
from repro.simnet.packet import Address
from repro.sip.message import (
    SipRequest,
    SipResponse,
    new_call_id,
    new_tag,
    parse_name_addr,
    parse_uri,
    response_for,
)
from repro.sip.sdp import SessionDescription, parse_sdp
from repro.sip.transaction import (
    SERVER_LINGER_S,
    SIP_PORT,
    T1_S,
    T2_S,
    ServerTransaction,
    SipEndpoint,
)

AnswerHook = Callable[[SipRequest, Optional[SessionDescription]], Optional[SessionDescription]]
DialogCallback = Callable[["Dialog"], None]
MessageCallback = Callable[[str, str], None]  # (from_uri, text)


class Dialog:
    """One established (or establishing) SIP dialog."""

    EARLY = "early"
    CONFIRMED = "confirmed"
    TERMINATED = "terminated"

    _ids = itertools.count(1)

    def __init__(
        self,
        call_id: str,
        local_uri: str,
        remote_uri: str,
        local_tag: str,
        is_caller: bool,
    ):
        self.dialog_id = next(Dialog._ids)
        self.call_id = call_id
        self.local_uri = local_uri
        self.remote_uri = remote_uri
        self.local_tag = local_tag
        self.remote_tag: Optional[str] = None
        self.is_caller = is_caller
        self.state = Dialog.EARLY
        self.local_cseq = 1
        self.remote_sdp: Optional[SessionDescription] = None
        self.local_sdp: Optional[SessionDescription] = None

    def next_cseq(self) -> int:
        self.local_cseq += 1
        return self.local_cseq

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Dialog {self.call_id} {self.state}>"


class SipUserAgent(SipEndpoint):
    """A SIP terminal (UAC + UAS) homed on a proxy."""

    def __init__(
        self,
        host: Host,
        uri: str,
        proxy: Address,
        port: int = SIP_PORT,
    ):
        super().__init__(host, port)
        parse_uri(uri)  # validate
        self.uri = uri
        self.proxy = proxy
        self.registered = False
        self.on_invite: Optional[AnswerHook] = None
        self.on_dialog_established: Optional[DialogCallback] = None
        self.on_dialog_terminated: Optional[DialogCallback] = None
        self.on_message: Optional[MessageCallback] = None
        self._dialogs: Dict[str, Dialog] = {}  # call-id -> dialog
        self.messages_sent = 0
        self.messages_received = 0

    # -------------------------------------------------------- registration

    def register(
        self,
        registrar: Optional[Address] = None,
        expires_s: float = 3600.0,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        request = SipRequest("REGISTER", self.uri)
        request.set("To", f"<{self.uri}>")
        request.set("From", f"<{self.uri}>;{new_tag()}")
        request.set("Call-Id", new_call_id(self.address.host))
        request.set("Cseq", "1 REGISTER")
        request.set("Contact", f"<{self.address.host}:{self.address.port}>")
        request.set("Expires", str(int(expires_s)))

        def handle(response: SipResponse) -> None:
            self.registered = response.is_success
            if on_result is not None:
                on_result(response.is_success)

        self.send_request(request, registrar or self.proxy, handle)

    # -------------------------------------------------------------- calls

    def invite(
        self,
        target_uri: str,
        offer: SessionDescription,
        on_answer: Optional[Callable[[Dialog, Optional[SessionDescription]], None]] = None,
        on_failure: Optional[Callable[[SipResponse], None]] = None,
    ) -> Dialog:
        """Start a call; ``on_answer`` fires when the 200 OK arrives."""
        parse_uri(target_uri)
        call_id = new_call_id(self.address.host)
        dialog = Dialog(
            call_id=call_id,
            local_uri=self.uri,
            remote_uri=target_uri,
            local_tag=new_tag(),
            is_caller=True,
        )
        dialog.local_sdp = offer
        self._dialogs[call_id] = dialog
        request = SipRequest("INVITE", target_uri, body=offer.render())
        request.set("To", f"<{target_uri}>")
        request.set("From", f"<{self.uri}>;{dialog.local_tag}")
        request.set("Call-Id", call_id)
        request.set("Cseq", "1 INVITE")
        request.set("Contact", f"<{self.address.host}:{self.address.port}>")
        request.set("Content-Type", "application/sdp")

        def handle(response: SipResponse) -> None:
            if not response.is_final:
                return
            if response.is_success:
                _uri, to_tag = parse_name_addr(response.get("To") or "")
                dialog.remote_tag = to_tag
                if response.body:
                    dialog.remote_sdp = parse_sdp(response.body)
                dialog.state = Dialog.CONFIRMED
                self._send_ack(dialog)
                if on_answer is not None:
                    on_answer(dialog, dialog.remote_sdp)
                if self.on_dialog_established is not None:
                    self.on_dialog_established(dialog)
            else:
                dialog.state = Dialog.TERMINATED
                self._dialogs.pop(call_id, None)
                if on_failure is not None:
                    on_failure(response)

        self.send_request(request, self.proxy, handle)
        return dialog

    def _send_ack(self, dialog: Dialog) -> None:
        ack = SipRequest("ACK", dialog.remote_uri)
        ack.set("To", f"<{dialog.remote_uri}>;{dialog.remote_tag or ''}")
        ack.set("From", f"<{dialog.local_uri}>;{dialog.local_tag}")
        ack.set("Call-Id", dialog.call_id)
        ack.set("Cseq", "1 ACK")
        # ACK is transaction-less: send directly through the proxy.
        self._send_text(ack.render(), self.proxy)

    def bye(
        self,
        dialog: Dialog,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        if dialog.state != Dialog.CONFIRMED:
            raise RuntimeError(f"cannot BYE a dialog in state {dialog.state}")
        request = SipRequest("BYE", dialog.remote_uri)
        request.set("To", f"<{dialog.remote_uri}>;{dialog.remote_tag or ''}")
        request.set("From", f"<{dialog.local_uri}>;{dialog.local_tag}")
        request.set("Call-Id", dialog.call_id)
        request.set("Cseq", f"{dialog.next_cseq()} BYE")

        def handle(response: SipResponse) -> None:
            dialog.state = Dialog.TERMINATED
            self._dialogs.pop(dialog.call_id, None)
            if self.on_dialog_terminated is not None:
                self.on_dialog_terminated(dialog)
            if on_result is not None:
                on_result(response.is_success)

        self.send_request(request, self.proxy, handle)

    # ----------------------------------------------------------- messages

    def send_message(
        self,
        target_uri: str,
        text: str,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Send an instant message (SIP MESSAGE, RFC 3428)."""
        request = SipRequest("MESSAGE", target_uri, body=text)
        request.set("To", f"<{target_uri}>")
        request.set("From", f"<{self.uri}>;{new_tag()}")
        request.set("Call-Id", new_call_id(self.address.host))
        request.set("Cseq", "1 MESSAGE")
        request.set("Content-Type", "text/plain")
        self.messages_sent += 1

        def handle(response: SipResponse) -> None:
            if on_result is not None:
                on_result(response.is_success)

        self.send_request(request, self.proxy, handle)

    # ---------------------------------------------------------------- UAS

    def on_request(
        self,
        request: SipRequest,
        source: Address,
        transaction: Optional[ServerTransaction],
    ) -> None:
        if request.method == "INVITE":
            self._handle_invite(request, transaction)
        elif request.method == "ACK":
            dialog = self._dialogs.get(request.call_id or "")
            if dialog is not None and dialog.state == Dialog.EARLY:
                dialog.state = Dialog.CONFIRMED
                if self.on_dialog_established is not None:
                    self.on_dialog_established(dialog)
        elif request.method == "BYE":
            self._handle_bye(request, transaction)
        elif request.method == "MESSAGE":
            self._handle_message(request, transaction)
        elif transaction is not None:
            transaction.respond(response_for(request, 405, "Method Not Allowed"))

    def _handle_invite(
        self, request: SipRequest, transaction: Optional[ServerTransaction]
    ) -> None:
        if transaction is None:
            return
        offer = parse_sdp(request.body) if request.body else None
        answer = self.on_invite(request, offer) if self.on_invite else None
        if answer is None:
            transaction.respond(response_for(request, 486, "Busy Here"))
            return
        call_id = request.call_id or ""
        remote_uri, remote_tag = parse_name_addr(request.get("From") or "")
        dialog = Dialog(
            call_id=call_id,
            local_uri=self.uri,
            remote_uri=remote_uri,
            local_tag=new_tag(),
            is_caller=False,
        )
        dialog.remote_tag = remote_tag
        dialog.remote_sdp = offer
        dialog.local_sdp = answer
        self._dialogs[call_id] = dialog
        transaction.respond(response_for(request, 180, "Ringing"))
        ok = response_for(request, 200, "OK", body=answer.render())
        ok.set("To", f"{request.get('To')};{dialog.local_tag}")
        ok.set("Contact", f"<{self.address.host}:{self.address.port}>")
        ok.set("Content-Type", "application/sdp")
        transaction.respond(ok)
        self.sim.schedule(
            T1_S, self._resend_ok, dialog, transaction, T1_S,
            self.sim.now + SERVER_LINGER_S,
        )

    def _resend_ok(
        self,
        dialog: Dialog,
        transaction: ServerTransaction,
        interval: float,
        deadline: float,
    ) -> None:
        """RFC 3261 §13.3.1.4: the UAS resends its 2xx, the interval
        doubling up to T2, until the ACK confirms the dialog, for at
        most 64*T1 (a lost 200 would otherwise leave the call ringing)."""
        if dialog.state != Dialog.EARLY or self.sim.now >= deadline:
            return
        transaction.replay()
        interval = min(interval * 2.0, T2_S)
        self.sim.schedule(
            interval, self._resend_ok, dialog, transaction, interval, deadline
        )

    def on_unmatched_response(self, response: SipResponse, source: Address) -> None:
        """A resent 2xx for a call already answered: its ACK was lost, so
        ACK again (RFC 3261 §13.2.2.4)."""
        method = (response.get("Cseq") or "").partition(" ")[2]
        if not response.is_success or method != "INVITE":
            return
        dialog = self._dialogs.get(response.call_id or "")
        if dialog is not None and dialog.is_caller and \
                dialog.state == Dialog.CONFIRMED:
            self._send_ack(dialog)

    def _handle_bye(
        self, request: SipRequest, transaction: Optional[ServerTransaction]
    ) -> None:
        dialog = self._dialogs.pop(request.call_id or "", None)
        if transaction is not None:
            transaction.respond(response_for(request, 200, "OK"))
        if dialog is not None:
            dialog.state = Dialog.TERMINATED
            if self.on_dialog_terminated is not None:
                self.on_dialog_terminated(dialog)

    def _handle_message(
        self, request: SipRequest, transaction: Optional[ServerTransaction]
    ) -> None:
        self.messages_received += 1
        if transaction is not None:
            transaction.respond(response_for(request, 200, "OK"))
        if self.on_message is not None:
            from_uri, _tag = parse_name_addr(request.get("From") or "")
            self.on_message(from_uri, request.body)

    # ------------------------------------------------------------- state

    def dialogs(self):
        return list(self._dialogs.values())
