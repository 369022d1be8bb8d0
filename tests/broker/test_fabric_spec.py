"""FabricSpec: a fabric's settings as one value, checked in one place.

Every invalid combination is rejected by the spec — whether it is built
directly, through a topology builder, or reached by adding a broker or a
link the spec's clusters do not allow.  A broker reads its cluster role
and region from the spec by its own id, so a restarted broker comes back
with the role, region and watermarks it had.
"""

import pytest

from repro.broker import FAST_MESH, Broker, BrokerNetwork, FabricSpec, MeshTiming
from repro.broker.overload import ShedWatermarks

INVALID = [
    pytest.param(
        lambda net: FabricSpec(regions={"us": ["u0"], "eu": ["e0"]}),
        "regions need the link-state mesh",
        id="regions-without-mesh",
    ),
    pytest.param(
        lambda net: BrokerNetwork.chain(
            net, 3, regions={"us": ["broker-0", "broker-1"], "eu": ["broker-2"]}
        ),
        "regions need the link-state mesh",
        id="regions-without-mesh-through-a-builder",
    ),
    pytest.param(
        lambda net: FabricSpec(clusters={"c0": ["a", "b"]}),
        "clusters need the link-state mesh",
        id="clusters-without-mesh",
    ),
    pytest.param(
        lambda net: BrokerNetwork.clustered(net, [2, 2], mesh=None),
        "clusters need the link-state mesh",
        id="clusters-without-mesh-through-a-builder",
    ),
    pytest.param(
        lambda net: FabricSpec(
            mesh=FAST_MESH, clusters={"c0": ["a", "b"], "c1": ["b", "c"]}
        ),
        "broker 'b' assigned to two clusters",
        id="broker-in-two-clusters",
    ),
    pytest.param(
        lambda net: FabricSpec(
            mesh=FAST_MESH, regions={"us": ["a", "b"], "eu": ["b"]}
        ),
        "broker 'b' assigned to two regions",
        id="broker-in-two-regions",
    ),
    pytest.param(
        lambda net: FabricSpec(mesh=FAST_MESH, clusters={"c0": ["a"], "c1": []}),
        "cluster 'c1' has no members",
        id="empty-cluster",
    ),
    pytest.param(
        lambda net: BrokerNetwork.clustered(net, [2, 0]),
        "cluster 'c1' has no members",
        id="empty-cluster-through-a-builder",
    ),
    pytest.param(
        lambda net: BrokerNetwork(
            net, FabricSpec(mesh=FAST_MESH, clusters={"c0": ["a"]})
        ).add_broker("stray"),
        "broker 'stray' is not a member of any provisioned cluster",
        id="broker-outside-every-cluster",
    ),
    pytest.param(
        lambda net: BrokerNetwork.clustered(net, [3, 3]).connect(
            "broker-c0-2", "broker-c1-2"
        ),
        "inter-cluster link 'broker-c0-2'–'broker-c1-2' must join gateway",
        id="intercluster-link-off-the-gateways",
    ),
    pytest.param(
        lambda net: MeshTiming(heartbeat_s=0.0),
        "heartbeat_s > 0 and miss_limit >= 1",
        id="mesh-without-a-heartbeat",
    ),
    pytest.param(
        lambda net: MeshTiming(miss_limit=0),
        "heartbeat_s > 0 and miss_limit >= 1",
        id="mesh-without-a-miss-limit",
    ),
]


@pytest.mark.parametrize("build, message", INVALID)
def test_an_invalid_fabric_is_rejected(net, build, message):
    with pytest.raises(ValueError, match=message):
        build(net)


def test_a_broker_reads_its_role_and_region_from_the_spec(net):
    spec = FabricSpec(
        mesh=FAST_MESH,
        clusters={"c0": ["g0", "g1", "m0"]},
        regions={"us": ["g0", "m0"]},
    )
    gateway = Broker(net.create_host("g0-host"), broker_id="g0", spec=spec)
    member = Broker(net.create_host("m0-host"), broker_id="m0", spec=spec)
    assert (gateway.cluster_id, gateway.is_gateway, gateway.region) == (
        "c0", True, "us",
    )
    assert gateway.gateway.cluster_gateways == ("g0", "g1")
    assert (member.cluster_id, member.is_gateway, member.region) == (
        "c0", False, "us",
    )
    assert member.geo is not None and member.mesh.interval_s == 0.25
    with pytest.raises(ValueError, match="not a member"):
        Broker(net.create_host("x-host"), broker_id="x", spec=spec)


def test_the_default_spec_is_the_central_plane_with_overload_protection(net):
    broker = Broker(net.create_host("b-host"), broker_id="b0")
    assert broker.mesh is broker.gateway is broker.geo is None
    assert broker.overload.retry_after_s == ShedWatermarks().retry_after_s
    assert FabricSpec() == FabricSpec(overload=ShedWatermarks())
    assert Broker(
        net.create_host("c-host"), broker_id="c0", spec=FabricSpec(overload=None)
    ).overload is None


def test_restart_rebuilds_a_broker_with_its_role_region_and_watermarks(sim, net):
    marks = ShedWatermarks(cpu_degraded=500, cpu_shedding=900, retry_after_s=3.0)
    bnet = BrokerNetwork.clustered(
        net, [3, 3], regions=["us", "eu"], mesh=FAST_MESH, overload=marks
    )
    sim.run_for(5.0)

    def role(broker):
        controller = broker.overload
        return (
            broker.cluster_id, broker.is_gateway, broker.region,
            broker.geo is not None, broker.mesh.interval_s,
            broker.mesh.miss_limit, controller._cpu_mark,
            controller._enter, controller.retry_after_s,
        )

    before = {name: role(bnet.broker(name)) for name in ("broker-c1-0", "broker-c1-2")}
    assert before["broker-c1-0"][:4] == ("c1", True, "eu", True)
    assert before["broker-c1-2"][:4] == ("c1", False, "eu", True)
    assert before["broker-c1-2"][-1] == 3.0
    for name in before:
        bnet.crash_broker(name)
    sim.run_for(2.0)
    for name in before:
        restarted = bnet.restart_broker(name)
        assert restarted is bnet.broker(name)
        assert role(restarted) == before[name]
