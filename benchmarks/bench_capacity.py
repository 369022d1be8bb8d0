"""Experiments claim-video-capacity / claim-audio-capacity.

Section 3.2: "one broker can support more than a thousand audio clients
or more than 400 hundred video clients at one time providing a very good
quality."  Each sweep must find the knee: the claimed count still meets
the quality bar and the largest swept count does not.  The 400-client
pair shows the asymmetry behind the two claims: at the same client
count the audio load is far lighter than the video load.
"""

from dataclasses import asdict

from repro.bench.capacity import (
    CapacityConfig,
    run_capacity_point,
    run_capacity_sweep,
    supported_clients,
)

VIDEO_POINTS = [100, 200, 300, 400, 500]
AUDIO_POINTS = [400, 700, 1000, 1200]
#: The quick sweep keeps the two points either side of each knee.
QUICK_VIDEO_POINTS = [400, 500]
QUICK_AUDIO_POINTS = [1000, 1200]
SWEEP_S = 6.0
PAIR_CLIENTS = 400
PAIR_S = 5.0


def scenario(quick):
    video_points = QUICK_VIDEO_POINTS if quick else VIDEO_POINTS
    audio_points = QUICK_AUDIO_POINTS if quick else AUDIO_POINTS
    video = run_capacity_sweep(
        video_points, CapacityConfig(media="video", duration_s=SWEEP_S)
    )
    audio = run_capacity_sweep(
        audio_points, CapacityConfig(media="audio", duration_s=SWEEP_S)
    )
    pair_video = run_capacity_point(
        PAIR_CLIENTS, CapacityConfig(media="video", duration_s=PAIR_S)
    )
    pair_audio = run_capacity_point(
        PAIR_CLIENTS, CapacityConfig(media="audio", duration_s=PAIR_S)
    )
    video_supported = supported_clients(video)
    audio_supported = supported_clients(audio)
    return {
        "params": {
            "video_points": video_points,
            "audio_points": audio_points,
            "sweep_s": SWEEP_S,
            "pair_clients": PAIR_CLIENTS,
            "pair_s": PAIR_S,
        },
        "results": {
            "video_supported_clients": video_supported,
            "audio_supported_clients": audio_supported,
            "pair_video_avg_delay_ms": pair_video.avg_delay_ms,
            "pair_audio_avg_delay_ms": pair_audio.avg_delay_ms,
            "video": [asdict(point) for point in video],
            "audio": [asdict(point) for point in audio],
        },
        "gates": {
            "video_supports_400": video_supported >= 400,
            "video_knee_found": not video[-1].good_quality,
            "audio_supports_1000": audio_supported >= 1000,
            "audio_knee_found": not audio[-1].good_quality,
            "audio_cheaper_than_video":
                pair_audio.avg_delay_ms < pair_video.avg_delay_ms,
        },
    }
