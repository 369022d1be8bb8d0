"""Experiment abl-streaming: the RealProducer/Helix pipeline.

Measures what the paper's streaming path costs and provides: end-to-end
latency from live RTP to player screens (producer look-ahead + chunking +
startup buffer), and Helix's fan-out to many RTSP players — which is how
Global-MMCS serves large passive audiences without loading the broker.
Both runs are small, so ``quick`` runs them at full size.
"""

import random

from repro.bench.metrics import mean
from repro.core.mmcs import GlobalMMCS, MMCSConfig
from repro.rtp.media import AudioSource, VideoSource

PLAYERS = 40


def build_streaming_session():
    mmcs = GlobalMMCS(MMCSConfig(enable_h323=False, enable_sip=False,
                                 enable_accessgrid=False))
    mmcs.start()
    session = mmcs.create_session("lecture")
    mmcs.start_streaming(session)
    speaker = mmcs.create_native_client("speaker")
    mmcs.run_for(2.0)
    topics = {m.kind: m.topic for m in session.media}
    video = VideoSource(
        mmcs.sim,
        lambda p: speaker.publish_media(topics["video"], p, p.wire_size),
        rng=random.Random(2),
    )
    audio = AudioSource(
        mmcs.sim,
        lambda p: speaker.publish_media(topics["audio"], p, p.wire_size),
    )
    video.start()
    audio.start()
    mmcs.run_for(5.0)
    return mmcs, session


def scenario(quick):
    mmcs, session = build_streaming_session()
    player = mmcs.create_player(session.session_id)
    player.connect_and_play()
    mmcs.run_for(25.0)

    mmcs, session = build_streaming_session()
    players = []
    for _ in range(PLAYERS):
        fan_player = mmcs.create_player(session.session_id)
        fan_player.connect_and_play()
        players.append(fan_player)
    mmcs.run_for(30.0)
    playing = sum(1 for p in players if p.state == "playing")
    startup = [
        p.startup_latency_s for p in players if p.startup_latency_s is not None
    ]
    return {
        "params": {"players": PLAYERS},
        "results": {
            "first_chunk_latency_ms": (player.first_chunk_latency_s or 0) * 1000.0,
            "player_startup_s": player.startup_latency_s,
            "player_state": player.state,
            "player_stalls": player.stalls,
            "players_playing": playing,
            "fanout_avg_startup_s": mean(startup),
            "chunks_relayed": mmcs.helix.chunks_relayed,
        },
        "gates": {
            "player_playing_without_stalls":
                player.state == "playing" and player.stalls == 0,
            # Streaming trades latency for scale: startup is seconds
            # (encoder look-ahead + chunking + startup buffer), not the
            # broker's tens of ms.
            "startup_in_seconds": 1.0 < (player.startup_latency_s or 0) < 15.0,
            "every_player_playing": playing == PLAYERS,
            "helix_relayed_the_stream":
                mmcs.helix.chunks_relayed > PLAYERS * 20,
        },
    }
