"""Experiment abl-gateway-overhead: what signaling translation costs.

Section 3.2 describes the translation chains (H.225/H.245 → XGSP,
SIP → XGSP).  This scenario measures session-join latency for each
client kind: a native XGSP client (one broker round trip), a SIP endpoint
(INVITE through proxy + gateway + XGSP + SDP answer), and an H.323
endpoint (ARQ + Setup + XGSP + Connect + full H.245 negotiation).  The
joins are few, so ``quick`` runs them at full size.
"""

from repro.core.mmcs import GlobalMMCS, MMCSConfig
from repro.core.xgsp.translation import conference_alias, conference_sip_uri
from repro.sip.sdp import SessionDescription

#: Interactive setup bound every join must meet.
MAX_JOIN_MS = 1000.0


def scenario(quick):
    mmcs = GlobalMMCS(MMCSConfig(enable_streaming=False,
                                 enable_accessgrid=False))
    mmcs.start()
    session = mmcs.create_session("bench")
    sim = mmcs.sim

    # Native XGSP client.
    native = mmcs.create_native_client("native")
    mmcs.run_for(2.0)
    start = sim.now
    done = []
    native.join(session.session_id, on_result=lambda r: done.append(sim.now))
    mmcs.run_for(3.0)
    native_ms = (done[0] - start) * 1000.0

    # SIP endpoint through the gateway.
    ua = mmcs.create_sip_user("alice")
    mmcs.run_for(2.0)
    offer = SessionDescription("alice", "alice-host").add_media(
        "audio", 41000, [0]).add_media("video", 41002, [31])
    start = sim.now
    answered = []
    ua.invite(
        conference_sip_uri(session.session_id, mmcs.config.sip_domain),
        offer, on_answer=lambda d, sdp: answered.append(sim.now),
    )
    mmcs.run_for(5.0)
    sip_ms = (answered[0] - start) * 1000.0

    # H.323 terminal through gatekeeper + gateway + H.245.
    terminal = mmcs.create_h323_terminal("polycom")
    mmcs.run_for(2.0)
    start = sim.now
    connected = []
    terminal.call(conference_alias(session.session_id),
                  on_connected=lambda c: connected.append(sim.now))
    mmcs.run_for(5.0)
    h323_ms = (connected[0] - start) * 1000.0
    return {
        "params": {"max_join_ms": MAX_JOIN_MS},
        "results": {
            "native_xgsp_join_ms": native_ms,
            "sip_endpoint_join_ms": sip_ms,
            "h323_terminal_join_ms": h323_ms,
        },
        "gates": {
            "translation_costs_more_than_native": native_ms < sip_ms,
            # H.245's extra round trips (TCS, MSD, OLC per media).
            "h323_join_slowest": sip_ms < h323_ms,
            "every_join_interactive": h323_ms < MAX_JOIN_MS,
        },
    }
