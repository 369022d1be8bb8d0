"""GlobalMMCS assembly: configuration, factories, topologies."""

import pytest

from repro.core.mmcs import GlobalMMCS, MMCSConfig


def test_default_assembly_has_all_services():
    mmcs = GlobalMMCS()
    mmcs.start()
    assert mmcs.broker is not None
    assert mmcs.session_server.client.connected
    assert mmcs.web_server is not None
    assert mmcs.gatekeeper is not None and mmcs.h323_gateway is not None
    assert mmcs.sip_proxy is not None and mmcs.sip_gateway is not None
    assert mmcs.chat_rooms is not None
    assert mmcs.helix is not None
    assert mmcs.venue_server is not None
    assert mmcs.admire is None  # opt-in


def test_disabled_services_raise_clear_errors():
    mmcs = GlobalMMCS(MMCSConfig(enable_h323=False, enable_sip=False,
                                 enable_streaming=False,
                                 enable_accessgrid=False))
    mmcs.start()
    with pytest.raises(RuntimeError):
        mmcs.create_h323_terminal("t")
    with pytest.raises(RuntimeError):
        mmcs.create_sip_user("u")
    with pytest.raises(RuntimeError):
        mmcs.create_venue("v")
    with pytest.raises(RuntimeError):
        mmcs.create_player("s")
    with pytest.raises(RuntimeError):
        mmcs.connect_admire("session-1")


def test_directory_tracks_communities():
    mmcs = GlobalMMCS(MMCSConfig(enable_admire=True))
    mmcs.start()
    communities = mmcs.directory.communities()
    for name in ("global", "h323", "sip", "accessgrid", "admire"):
        assert name in communities


def test_directory_tracks_created_users():
    mmcs = GlobalMMCS()
    mmcs.start()
    mmcs.create_sip_user("alice")
    mmcs.create_h323_terminal("polycom")
    assert mmcs.directory.user("alice").community == "sip"
    assert mmcs.directory.user("polycom").community == "h323"


def test_multi_broker_topologies():
    for topology, count, expected in (("chain", 3, 3), ("star", 4, 4)):
        mmcs = GlobalMMCS(MMCSConfig(
            broker_topology=topology, broker_count=count,
            enable_h323=False, enable_sip=False,
            enable_streaming=False, enable_accessgrid=False,
        ))
        mmcs.start()
        assert len(mmcs.broker_network) == expected
        session = mmcs.create_session("t")
        assert session.session_id


def test_unknown_topology_rejected():
    for topology in ("torus", "hier"):
        with pytest.raises(ValueError):
            GlobalMMCS(MMCSConfig(broker_topology=topology, broker_count=4))


def test_create_session_timeout_reports_error():
    mmcs = GlobalMMCS(MMCSConfig(enable_h323=False, enable_sip=False,
                                 enable_streaming=False,
                                 enable_accessgrid=False))
    # Do NOT settle: admin client is still connecting, but requests queue,
    # so creation still succeeds — verify the happy path settles itself.
    session = mmcs.create_session("eager", settle_s=3.0)
    assert session.session_id


def test_deterministic_for_fixed_seed():
    def run():
        mmcs = GlobalMMCS(MMCSConfig(seed=5, enable_h323=False,
                                     enable_sip=False,
                                     enable_streaming=False,
                                     enable_accessgrid=False))
        mmcs.start()
        session = mmcs.create_session("t")
        alice = mmcs.create_native_client("alice")
        mmcs.run_for(2.0)
        alice.join(session.session_id)
        mmcs.run_for(2.0)
        return mmcs.sim.events_processed

    assert run() == run()


def test_new_hosts_unique():
    mmcs = GlobalMMCS()
    first = mmcs.new_host()
    second = mmcs.new_host()
    assert first.name != second.name
