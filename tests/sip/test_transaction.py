"""Server transactions: replay inside the linger window, then let go."""

from repro.sip import (
    SessionDescription,
    SipProxy,
    SipRegistrar,
    SipRequest,
    SipUserAgent,
)
from repro.sip.message import response_for
from repro.sip.registrar import LocationService
from repro.sip.transaction import SERVER_LINGER_S, T1_S, SipEndpoint

CALL_EVERY_S = 4.0
DOMAIN = "mmcs.org"


class CountingServer(SipEndpoint):
    """Answers every request 200 OK and records what reached it."""

    def __init__(self, host):
        super().__init__(host)
        self.seen = []

    def on_request(self, request, source, transaction):
        self.seen.append(request.call_id)
        if transaction is not None:
            transaction.respond(response_for(request, 200, "OK"))


def invite(call_id):
    return SipRequest(
        "INVITE",
        "sip:conf@mmcs.org",
        [
            ("From", "<sip:alice@mmcs.org>;tag=a"),
            ("To", "<sip:conf@mmcs.org>"),
            ("Call-Id", call_id),
            ("CSeq", "1 INVITE"),
        ],
    )


def test_server_transactions_linger_one_timer_j_then_go(net, sim):
    """Calls spread over more than two linger windows leave only the
    last window's transactions, and a retransmitted INVITE inside the
    window is answered by replay, not handed to ``on_request`` again."""
    assert SERVER_LINGER_S == 64 * T1_S
    server = CountingServer(net.create_host("server"))
    client = SipEndpoint(net.create_host("client"))
    calls = int(2 * SERVER_LINGER_S / CALL_EVERY_S) + 3
    sent, answers = {}, []
    for n in range(calls):
        def call(n=n):
            request = invite(f"call-{n}")
            client.send_request(request, server.address, answers.append)
            sent[n] = request.render()  # with the Via the client stamped
        sim.schedule(n * CALL_EVERY_S, call)
    last = (calls - 1) * CALL_EVERY_S
    # A retransmission of the last call, well inside its window and
    # half a call away from any other call's window end.
    resent_at = last + SERVER_LINGER_S / 2 + CALL_EVERY_S / 2
    sim.schedule(resent_at, lambda: client._send_text(
        sent[calls - 1], server.address
    ))
    sim.run_for(resent_at + 1.0)
    assert [a.status for a in answers] == [200] * calls
    assert server.seen == [f"call-{n}" for n in range(calls)]
    assert server.requests_received == calls + 1
    held = sorted(
        int(t.request.call_id.split("-")[1])
        for t in server._server_transactions.values()
    )
    # What answered one linger before the retransmission is gone; the
    # rest stays.
    gone_by = resent_at - SERVER_LINGER_S
    assert held == [n for n in range(calls) if n * CALL_EVERY_S > gone_by]
    assert len(held) < calls / 2


def test_a_proxy_lets_a_relayed_transaction_go(net, sim):
    """A request the proxy forwards ends, at the proxy, with the final
    response it relays back: it lingers one window, then goes."""
    location = LocationService()
    proxy_host = net.create_host("proxy-host")
    proxy = SipProxy(proxy_host, DOMAIN, location=location)
    registrar = SipRegistrar(proxy_host, port=5070, location=location)
    alice, bob = (
        SipUserAgent(net.create_host(user), f"sip:{user}@{DOMAIN}", proxy.address)
        for user in ("alice", "bob")
    )
    for ua in (alice, bob):
        ua.register(registrar.address, expires_s=3600.0)
    sim.run_for(1.0)
    bob.on_invite = lambda request, offer: SessionDescription(
        "bob", "bob"
    ).add_media("audio", 4200, [0])
    answers = []

    def call():
        offer = SessionDescription("alice", "alice").add_media("audio", 4100, [0])
        alice.invite(bob.uri, offer, on_answer=lambda d, sdp: answers.append(sdp))

    call()
    sim.run_for(1.0)
    assert len(answers) == 1
    first = set(proxy._server_transactions)
    assert first  # held for retransmissions
    sim.run_for(SERVER_LINGER_S)
    call()  # a later request is what looks
    sim.run_for(1.0)
    assert len(answers) == 2
    assert not first & set(proxy._server_transactions)
    assert proxy._server_transactions  # the new call's, still lingering
