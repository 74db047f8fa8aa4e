"""Streaming fleet runtime tests: the live session must reproduce the
offline run.

The contract of :class:`repro.fleet.FleetStream` is that, on the same
rendered corridor (no simulated driver faults), the hop-clocked session
produces (i) per-node :class:`FrameResult` streams numerically equivalent to
:meth:`FleetScheduler.run` and (ii) fused corridor tracks *identical* to
:func:`fuse_fleet` on the offline results — the same association decisions
(track count, labels, hits, contributing nodes, confirmation frames) and
bit-close filter states — for any hop batch and chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics.trajectory import LinearTrajectory
from repro.core import PipelineConfig
from repro.fleet import (
    CorridorScene,
    CorridorStream,
    FleetScheduler,
    OracleDetector,
    Vehicle,
    fleet_report,
    format_track_update,
    fuse_fleet,
    place_corridor_nodes,
    summarize_updates,
    synthesize_corridor,
)
from repro.signals import synthesize_siren
from repro.ssl.refine import RefineState

FS = 8000.0


def corridor(n_nodes=3, duration=1.2, n_vehicles=2, capture_samples=None):
    rng = np.random.default_rng(11)
    vehicles = [
        Vehicle(
            "siren_wail",
            LinearTrajectory([-25.0, 8.0, 0.8], [25.0, 8.0, 0.8], 15.0),
            synthesize_siren("wail", duration, FS, rng=rng),
        )
    ]
    if n_vehicles > 1:
        vehicles.append(
            Vehicle(
                "siren_yelp",
                LinearTrajectory([25.0, 13.0, 0.8], [-25.0, 13.0, 0.8], 12.0),
                synthesize_siren("yelp", duration, FS, rng=rng),
            )
        )
    nodes = place_corridor_nodes(n_nodes, 18.0)
    recording = synthesize_corridor(
        CorridorScene(vehicles, nodes), FS, capture_samples=capture_samples
    )
    return nodes, recording


def config(n_azimuth=36):
    return PipelineConfig(fs=FS, n_azimuth=n_azimuth, n_elevation=2)


def assert_frame_streams_equal(offline, live):
    assert offline.keys() == live.keys()
    for nid in offline:
        a, b = offline[nid], live[nid]
        assert len(a) == len(b)
        for r1, r2 in zip(a, b):
            assert r1.frame_index == r2.frame_index
            assert r1.label == r2.label
            assert r1.detected == r2.detected
            assert np.isclose(r1.confidence, r2.confidence)
            for u, v in ((r1.azimuth, r2.azimuth), (r1.elevation, r2.elevation)):
                assert (np.isnan(u) and np.isnan(v)) or np.isclose(u, v)


def assert_tracks_identical(offline_tracks, live_tracks):
    """Same association decisions, bit-close states."""
    assert len(offline_tracks) == len(live_tracks)
    for t1, t2 in zip(offline_tracks, live_tracks):
        assert t1.track_id == t2.track_id
        assert t1.label == t2.label
        assert t1.hits == t2.hits
        assert t1.nodes == t2.nodes
        assert t1.confirmed == t2.confirmed
        assert t1.confirmed_frame == t2.confirmed_frame
        assert t1.n_triangulated == t2.n_triangulated
        assert t1.n_multilaterated == t2.n_multilaterated
        assert np.array_equal(t1.frames(), t2.frames())
        assert np.allclose(t1.positions(), t2.positions(), rtol=1e-9, atol=1e-9)


class TestStreamingOfflineEquivalence:
    @settings(max_examples=4, deadline=None)
    @given(
        hop_batch=st.integers(min_value=1, max_value=24),
        chunk_samples=st.sampled_from([128, 256, 512, 1000]),
    )
    def test_fused_tracks_identical_any_schedule(self, hop_batch, chunk_samples):
        """Property: the delivery schedule (chunk size, hop batch) never
        changes what the corridor concludes."""
        nodes, recording = corridor()
        cfg = config()
        detector = OracleDetector("siren_wail")

        offline = FleetScheduler(nodes, cfg, detector=detector, n_shards=2).run(recording)
        offline_tracks = fuse_fleet(
            offline.node_results, nodes, frame_period=cfg.frame_period_s
        )

        live_sched = FleetScheduler(nodes, cfg, detector=detector, n_shards=2)
        stream = CorridorStream(recording, chunk_samples=chunk_samples)
        result = live_sched.stream(stream.sources(), hop_batch=hop_batch).run()

        assert_frame_streams_equal(offline.node_results, result.node_results)
        assert_tracks_identical(offline_tracks, result.tracks)

    def test_ragged_captures(self):
        """A node with a shorter capture window ends early; the stream must
        keep fusing the surviving nodes to the end, like the offline pass."""
        short = int(0.8 * FS)
        nodes, recording = corridor(capture_samples={"node2": short})
        cfg = config()
        detector = OracleDetector("siren_wail")

        offline = FleetScheduler(nodes, cfg, detector=detector, n_shards=1).run(recording)
        offline_tracks = fuse_fleet(
            offline.node_results, nodes, frame_period=cfg.frame_period_s
        )

        live_sched = FleetScheduler(nodes, cfg, detector=detector, n_shards=1)
        stream = CorridorStream(recording, chunk_samples=cfg.hop_length)
        result = live_sched.stream(stream.sources(), hop_batch=8).run()

        assert len(result.node_results["node2"]) < len(result.node_results["node0"])
        assert_frame_streams_equal(offline.node_results, result.node_results)
        assert_tracks_identical(offline_tracks, result.tracks)

    def test_multilateration_parity(self):
        """The wide-baseline TDOA upgrade fires identically in both runtimes
        when the stream session is given the recordings."""
        nodes, recording = corridor(duration=1.0, n_vehicles=1)
        cfg = config()
        detector = OracleDetector("siren_wail")

        offline = FleetScheduler(nodes, cfg, detector=detector, n_shards=1).run(recording)
        offline_tracks = fuse_fleet(
            offline.node_results,
            nodes,
            frame_period=cfg.frame_period_s,
            recordings=recording.recordings,
            fs=FS,
            hop_length=cfg.hop_length,
        )

        live_sched = FleetScheduler(nodes, cfg, detector=detector, n_shards=1)
        stream = CorridorStream(recording, chunk_samples=cfg.hop_length)
        result = live_sched.stream(
            stream.sources(), hop_batch=8, recordings=recording.recordings
        ).run()
        assert_tracks_identical(offline_tracks, result.tracks)


class TestFleetStreamSession:
    def test_step_api_and_accounting(self):
        nodes, recording = corridor(duration=1.0)
        cfg = config(n_azimuth=24)
        sched = FleetScheduler(nodes, cfg, detector=OracleDetector("siren_wail"))
        session = sched.stream(
            CorridorStream(recording, chunk_samples=cfg.hop_length).sources(),
            hop_batch=8,
        )
        steps = 0
        while not session.done:
            out = session.step()
            steps += 1
            assert out.fused_upto >= 0
            assert steps < 1000  # terminates
        result = session.finalize()
        assert result.n_steps == steps
        expected_frames = 1 + (recording.recordings["node0"].shape[1] - cfg.frame_length) // cfg.hop_length
        for nid, stats in result.node_stats.items():
            assert stats.n_frames == expected_frames
        assert result.hop_latency.deadline_s == pytest.approx(cfg.frame_period_s)
        assert all(s.n_dropped_chunks == 0 for s in result.ingest.values())
        # Every frame got fused and the update feed saw confirmations.
        counts = summarize_updates(result.updates)
        assert counts["confirmed"] >= 1
        # The finished stream feeds the standard corridor report.
        report = fleet_report(
            result.tracks, result, frame_period=cfg.frame_period_s
        )
        assert report.n_vehicles >= 1

    def test_report_reads_stream_result_directly(self):
        nodes, recording = corridor(duration=0.8, n_vehicles=1)
        cfg = config(n_azimuth=24)
        sched = FleetScheduler(nodes, cfg, detector=OracleDetector("siren_wail"))
        result = sched.stream(
            CorridorStream(recording, chunk_samples=cfg.hop_length).sources(),
            hop_batch=4,
            tap_window_s=1.0,
        ).run()
        report = fleet_report(
            result.tracks,
            result,
            frame_period=cfg.frame_period_s,
            pacer_stats=result.node_pacer_stats(),
            tap_misses=result.tap_misses,
        )
        assert [h.node_id for h in report.node_health] == sorted(result.node_stats)
        for health in report.node_health:
            stats = result.node_stats[health.node_id]
            assert health.n_frames == stats.n_frames
            assert health.n_detections == stats.n_detections
            assert health.peak_hop_batch == 4  # the fixed default batch
            assert health.n_tap_misses == 0

    def test_live_updates_feed_renders(self):
        nodes, recording = corridor(duration=0.8, n_vehicles=1)
        cfg = config(n_azimuth=24)
        sched = FleetScheduler(nodes, cfg, detector=OracleDetector("siren_wail"))
        result = sched.stream(
            CorridorStream(recording, chunk_samples=cfg.hop_length).sources(),
            hop_batch=4,
        ).run()
        assert result.updates, "a detected corridor must emit track updates"
        line = format_track_update(result.updates[0], frame_period=cfg.frame_period_s)
        assert "track" in line and "km/h" in line
        kinds = {u.kind for u in result.updates}
        assert kinds <= {"spawned", "confirmed", "updated", "coasted", "retired"}
        # Updates arrive in fusion-frame order.
        frames = [u.frame_index for u in result.updates]
        assert frames == sorted(frames)

    def test_dropped_chunks_accounted_and_survivable(self):
        nodes, recording = corridor(duration=1.0, n_vehicles=1)
        cfg = config(n_azimuth=24)
        sched = FleetScheduler(nodes, cfg, detector=OracleDetector("siren_wail"))
        stream = CorridorStream(
            recording,
            chunk_samples=cfg.hop_length,
            drop_prob=0.1,
            rng=np.random.default_rng(5),
        )
        result = sched.stream(stream.sources(), hop_batch=8).run()
        assert sum(s.n_dropped_chunks for s in result.ingest.values()) > 0
        # The hop grid stays aligned: full frame count despite the losses.
        expected_frames = 1 + (recording.recordings["node0"].shape[1] - cfg.frame_length) // cfg.hop_length
        assert all(s.n_frames == expected_frames for s in result.node_stats.values())

    def test_mid_run_finalize_is_a_pure_snapshot(self):
        """finalize() before any frame completes must not corrupt the
        latency monitors (no phantom 0.0 ticks in the final stats)."""
        nodes, recording = corridor(duration=0.6, n_vehicles=1)
        cfg = config(n_azimuth=24)
        sched = FleetScheduler(nodes, cfg, detector=OracleDetector("siren_wail"))
        session = sched.stream(
            CorridorStream(recording, chunk_samples=64).sources(), hop_batch=1
        )
        session.step()  # ring still filling: no node has a complete frame yet
        snapshot = session.finalize()
        assert all(s.latency.mean_s == 0.0 for s in snapshot.node_stats.values())
        result = session.run()
        for stats in result.node_stats.values():
            assert stats.latency.mean_s > 0.0
            assert stats.latency.max_s > 0.0  # no phantom zero sample

    def test_source_validation(self):
        nodes, recording = corridor(duration=0.5, n_vehicles=1)
        cfg = config(n_azimuth=24)
        sched = FleetScheduler(nodes, cfg)
        sources = CorridorStream(recording, chunk_samples=cfg.hop_length).sources()
        missing = dict(sources)
        del missing["node1"]
        with pytest.raises(ValueError, match="missing sources"):
            sched.stream(missing)
        with pytest.raises(ValueError, match="hop_batch"):
            sched.stream(sources, hop_batch=0)

    def test_corridor_stream_lazy_render_and_validation(self):
        nodes, recording = corridor(duration=0.5, n_vehicles=1)
        # Wrapping a recording does not re-render.
        stream = CorridorStream(recording, chunk_samples=256)
        assert stream.recording is recording
        assert stream.node_ids == [n.node_id for n in nodes]
        # Rendering a scene lazily produces the same corridor.
        lazy = CorridorStream(recording.scene, FS, chunk_samples=256)
        rendered = lazy.recording
        assert np.allclose(rendered.recordings["node0"], recording.recordings["node0"])
        with pytest.raises(ValueError, match="fs is required"):
            CorridorStream(recording.scene)
        with pytest.raises(ValueError, match="chunk_samples"):
            CorridorStream(recording, chunk_samples=0)


class TestRefineStateClone:
    def test_clone_is_independent(self):
        state = RefineState()
        state.anchor = (1, 2)
        state.window = np.array([3, 4, 5])
        state.n_reused = 7
        snap = state.clone()
        state.window[0] = 99
        state.anchor = (0, 0)
        assert snap.anchor == (1, 2)
        assert np.array_equal(snap.window, [3, 4, 5])
        assert snap.n_reused == 7
