"""Server transactions: replay inside the linger window, then let go;
a proxy retransmits what it forwards; a non-INVITE request that heard a
provisional response is still retransmitted until it times out."""

from repro.sip import (
    SessionDescription,
    SipProxy,
    SipRegistrar,
    SipRequest,
    SipUserAgent,
)
from repro.sip.message import parse_message, response_for
from repro.sip.registrar import LocationService
from repro.sip.transaction import (
    MAX_RETRANSMITS,
    SERVER_LINGER_S,
    T1_S,
    T2_S,
    SipEndpoint,
)
from repro.simnet import LinkProfile, Network, SeededStreams, Simulator

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
    # A transaction keeps its last response's wire text, which echoes
    # the request's Call-Id.
    held = sorted(
        int(parse_message(t.last_response).call_id.split("-")[1])
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


def lossy_call(seed):
    """alice -> proxy -> bob with half of everything on bob's link lost:
    what alice heard back, and bob's dialog."""
    sim = Simulator()
    net = Network(sim, SeededStreams(seed))
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
    net.host("bob").link = LinkProfile(loss_rate=0.5)
    bob.on_invite = lambda request, offer: SessionDescription(
        "bob", "bob"
    ).add_media("audio", 4200, [0])
    heard = []
    alice.invite(
        bob.uri,
        SessionDescription("alice", "alice").add_media("audio", 4100, [0]),
        on_answer=lambda dialog, sdp: heard.append(200),
        on_failure=lambda response: heard.append(response.status),
    )
    sim.run_for(SERVER_LINGER_S + 8.0)
    return heard, bob.dialogs()


def test_a_proxy_retransmits_what_it_forwards():
    """A copy the proxy forwards and the lossy link drops is sent again
    on the proxy's own Timer A, its answer reaches alice through the
    proxy's server transaction, and bob resends his 200 until the ACK
    comes: every call is answered and confirmed at both ends."""
    for seed in range(20):
        heard, dialogs = lossy_call(seed)
        assert heard == [200], seed
        assert [dialog.state for dialog in dialogs] == ["confirmed"], seed


class TryingServer(SipEndpoint):
    """Answers every request 100 Trying at once and 200 OK later, and
    every 200 it sends is lost on the way (a replay of it too)."""

    def __init__(self, host):
        super().__init__(host)
        self.arrivals = []

    def on_request(self, request, source, transaction):
        transaction.respond(response_for(request, 100, "Trying"))
        self.sim.schedule(
            0.2, transaction.respond, response_for(request, 200, "OK")
        )

    def _on_datagram(self, payload, src, datagram):
        self.arrivals.append(self.sim.now)
        super()._on_datagram(payload, src, datagram)

    def _send_text(self, text, destination):
        if not text.startswith("SIP/2.0 200"):
            super()._send_text(text, destination)


def test_a_non_invite_request_in_proceeding_is_resent_until_408(net, sim):
    """RFC 3261 §17.1.2.2: a MESSAGE answered 100 keeps Timer E (now at
    T2) and Timer F; its lost 200 leaves it retransmitting until 408."""
    server = TryingServer(net.create_host("server"))
    client = SipEndpoint(net.create_host("client"))
    answers = []
    message = SipRequest(
        "MESSAGE",
        "sip:bob@mmcs.org",
        [
            ("From", "<sip:alice@mmcs.org>;tag=a"),
            ("To", "<sip:bob@mmcs.org>"),
            ("Call-Id", "message-1"),
            ("CSeq", "1 MESSAGE"),
        ],
    )
    transaction = client.send_request(message, server.address, answers.append)
    sim.run_for(1.0)
    assert [a.status for a in answers] == [100]
    sim.run_for(T1_S + MAX_RETRANSMITS * T2_S)
    # (Past its Timer J the server takes a resend for a new request and
    # answers 100 again.)
    assert [a.status for a in answers if a.status >= 200] == [408]
    assert answers[-1].status == 408
    assert transaction.timed_out and transaction.retransmits == MAX_RETRANSMITS
    assert transaction.proceeding
    # First send, Timer E's T1 firing, then one resend every T2.
    sent = [at - server.arrivals[0] for at in server.arrivals]
    assert len(sent) == 1 + MAX_RETRANSMITS
    assert abs(sent[1] - T1_S) < 0.01
    assert all(
        abs(later - earlier - T2_S) < 0.01
        for earlier, later in zip(sent[1:], sent[2:])
    )
    assert server.requests_received == 1 + MAX_RETRANSMITS


def test_an_invite_in_proceeding_is_not_resent(net, sim):
    """§17.1.1.2: a provisional response ends an INVITE's
    retransmissions; it waits for its final response."""
    server = TryingServer(net.create_host("server"))
    client = SipEndpoint(net.create_host("client"))
    answers = []
    transaction = client.send_request(
        invite("invite-1"), server.address, answers.append
    )
    sim.run_for(T1_S + MAX_RETRANSMITS * T2_S)
    assert [a.status for a in answers] == [100]
    assert transaction.retransmits == 0 and not transaction.completed
    assert server.requests_received == 1
