"""Sample taps and streamed multilateration: live TDOA fixes without a
whole recording."""

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
    place_corridor_nodes,
    synthesize_corridor,
)
from repro.signals import synthesize_siren
from repro.stream import NodeIngest, RecordingChunkSource, RingBuffer, SampleTap, mlat_tap_capacity

FS = 8000.0


class TestSampleTap:
    def test_absolute_slices_match_stream(self):
        rng = np.random.default_rng(0)
        stream = rng.standard_normal((2, 5000))
        tap = SampleTap(2, 1024)
        for k in range(0, 5000, 137):
            tap.extend(stream[:, k : k + 137])
        assert tap.n_written == 5000
        assert tap.oldest == 5000 - 1024
        # Any resident absolute window reads back the exact stream samples.
        for start, stop in [(3976, 5000), (4000, 4500), (4999, 5000), (3976, 3977)]:
            assert np.array_equal(tap.read(start, stop), stream[:, start:stop])

    def test_evicted_and_future_reads_return_none(self):
        tap = SampleTap(1, 100)
        tap.extend(np.arange(250, dtype=float)[None, :])
        assert tap.read(149, 200) is None  # 149 was evicted (oldest is 150)
        assert tap.read(200, 251) is None  # 250 not written yet
        assert tap.read(150, 250) is not None

    def test_misses_count_eviction_but_not_lag(self):
        """n_misses flags an undersized window (evicted reads); reads that
        merely outran the stream are lag, not misses — and reset clears."""
        tap = SampleTap(1, 100)
        tap.extend(np.arange(250, dtype=float)[None, :])
        assert tap.n_misses == 0
        assert tap.read(149, 200) is None  # evicted: counted
        assert tap.n_misses == 1
        assert tap.read(200, 251) is None  # not written yet: NOT counted
        assert tap.n_misses == 1
        assert tap.read(150, 250) is not None  # a hit changes nothing
        assert tap.n_misses == 1
        tap.reset()
        assert tap.n_misses == 0

    def test_giant_block_keeps_newest(self):
        tap = SampleTap(1, 64)
        tap.extend(np.arange(1000, dtype=float)[None, :])
        assert tap.n_written == 1000
        got = tap.read(936, 1000)
        assert np.array_equal(got[0], np.arange(936.0, 1000.0))

    def test_validation_and_reset(self):
        with pytest.raises(ValueError):
            SampleTap(0, 10)
        with pytest.raises(ValueError):
            SampleTap(1, 0)
        tap = SampleTap(2, 16)
        with pytest.raises(ValueError):
            tap.extend(np.zeros((3, 4)))
        tap.extend(np.ones((2, 8)))
        with pytest.raises(ValueError):
            tap.read(5, 5)
        tap.reset()
        assert tap.n_written == 0
        assert tap.read(0, 1) is None

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_chunking_never_corrupts_resident_window(self, cap, seed):
        rng = np.random.default_rng(seed)
        stream = rng.standard_normal((1, 300))
        tap = SampleTap(1, cap)
        k = 0
        while k < 300:
            n = int(rng.integers(1, 50))
            tap.extend(stream[:, k : k + n])
            k = min(300, k + n)
        start = max(0, tap.n_written - cap)
        assert np.array_equal(
            tap.read(start, tap.n_written), stream[:, start : tap.n_written]
        )


class TestMlatTapCapacity:
    def test_floor_covers_block_frame_and_batch(self):
        floor = 2048 + 512 + 8 * 256
        assert mlat_tap_capacity(
            FS, frame_length=512, hop_length=256, hop_batch=8, mlat_block=2048,
            window_s=1e-6,
        ) == floor
        assert mlat_tap_capacity(
            FS, frame_length=512, hop_length=256, hop_batch=8, mlat_block=2048,
            window_s=2.0,
        ) == 16000

    def test_validation(self):
        with pytest.raises(ValueError):
            mlat_tap_capacity(
                FS, frame_length=512, hop_length=256, hop_batch=8, mlat_block=2048,
                window_s=0.0,
            )


class TestIngestTapMirroring:
    def test_tap_sees_data_and_zero_fill(self):
        """The tap must mirror exactly what enters the ring — delivered
        samples where chunks arrived, zeros where the driver dropped them —
        so absolute tap indices equal recording indices."""
        x = np.random.default_rng(5).standard_normal((2, 4096))

        class GappySource(RecordingChunkSource):
            def next_chunk(self):
                c = super().next_chunk()
                if c is not None and c.seq == 3:  # drop seq 3 deterministically
                    return super().next_chunk()
                return c

        tap = SampleTap(2, 4096)
        ingest = NodeIngest(
            GappySource(x, FS, chunk_samples=256),
            512,
            256,
            RingBuffer(2, 2 * (512 + 64 * 256)),
            tap=tap,
        )
        ingest.pull(None)
        assert tap.n_written == 4096
        expected = x.copy()
        expected[:, 3 * 256 : 4 * 256] = 0.0  # the lost chunk is silence
        assert np.array_equal(tap.read(0, 4096), expected)

    def test_channel_mismatch_raises(self):
        src = RecordingChunkSource(np.zeros((2, 1024)), FS, chunk_samples=256)
        with pytest.raises(ValueError, match="channels"):
            NodeIngest(
                src, 512, 256, RingBuffer(2, 2 * (512 + 64 * 256)), tap=SampleTap(3, 1024)
            )


def corridor_scene(seed, n_nodes=3, duration_s=2.0):
    rng = np.random.default_rng(seed)
    half = (n_nodes - 1) / 2 * 25.0 + 10.0
    y = float(rng.uniform(4.0, 12.0))
    speed = float(rng.uniform(10.0, 20.0))
    vehicle = Vehicle(
        "siren_wail",
        LinearTrajectory([-half, y, 0.8], [half, y, 0.8], speed),
        synthesize_siren("wail", duration_s, FS, rng=rng),
    )
    return CorridorScene([vehicle], place_corridor_nodes(n_nodes, 25.0))


class TestMlatWindowParity:
    """The window fusion hands to the TDOA localizer must be the *same
    audio* from a tap as from the full recording — the core parity
    property of streamed multilateration."""

    def engines(self, recordings, taps, hop_length=256):
        from repro.fleet.fusion import FusionConfig, FusionEngine

        nodes = place_corridor_nodes(2, 50.0)
        common = dict(
            config=FusionConfig(),
            frame_period=hop_length / FS,
            fs=FS,
            hop_length=hop_length,
            c=343.0,
        )
        rec_engine = FusionEngine(nodes, recordings=recordings, taps=None, **common)
        tap_engine = FusionEngine(nodes, recordings=None, taps=taps, **common)
        return rec_engine, tap_engine

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=40),
    )
    def test_fully_streamed_tap_reads_bit_identical_windows(self, seed, frame):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3000, 12000))
        recordings = {
            "node0": rng.standard_normal((4, n)),
            "node1": rng.standard_normal((4, n)),
        }
        taps = {nid: SampleTap(4, n) for nid in recordings}
        for nid, sig in recordings.items():
            k = 0
            while k < n:  # arbitrary chunking must not matter
                step = int(rng.integers(1, 700))
                taps[nid].extend(sig[:, k : k + step])
                k += step
        rec_engine, tap_engine = self.engines(recordings, taps)
        start = frame * 256
        stop = start + 2048
        a = rec_engine._mlat_window("node0", "node1", start, stop)
        b = tap_engine._mlat_window("node0", "node1", start, stop)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)

    def test_midstream_tap_clamps_to_ingested_horizon(self):
        rng = np.random.default_rng(1)
        recordings = {
            "node0": rng.standard_normal((4, 10000)),
            "node1": rng.standard_normal((4, 10000)),
        }
        taps = {nid: SampleTap(4, 4096) for nid in recordings}
        # Only 6000 samples have streamed so far.
        for nid, sig in recordings.items():
            taps[nid].extend(sig[:, :6000])
        _, tap_engine = self.engines(recordings, taps)
        # stop beyond the horizon: the window slides back to the newest
        # 2048 samples that exist so far — still real recording audio.
        win = tap_engine._mlat_window("node0", "node1", 5000, 7048)
        assert win is not None
        assert np.array_equal(win[:4], recordings["node0"][:, 6000 - 2048 : 6000])
        assert np.array_equal(win[4:], recordings["node1"][:, 6000 - 2048 : 6000])
        # start evicted from the tap: no fix rather than wrong audio.
        assert tap_engine._mlat_window("node0", "node1", 0, 2048) is None


class TestStreamedMultilateration:
    def setup_session(self, scene, **stream_kwargs):
        cfg = PipelineConfig(fs=FS, localizer="srp_fast", n_azimuth=36, n_elevation=2)
        sch = FleetScheduler(
            scene.nodes, cfg, detector=OracleDetector("siren_wail"), n_shards=2
        )
        rec = synthesize_corridor(scene, FS)
        stream = CorridorStream(rec, chunk_samples=cfg.hop_length)
        session = sch.stream(stream.sources(), hop_batch=8, **stream_kwargs)
        while not session.done:
            session.step()
        return sch, cfg, rec, session.finalize()

    def rms_to_truth(self, rec, cfg, result):
        """RMS road-plane error of the longest track vs the ground truth."""
        track = max(result.tracks, key=lambda t: len(t.history))
        frames = track.frames()
        truth = rec.vehicle_positions(frames * cfg.frame_period_s)[0, :, :2]
        err = track.positions() - truth
        return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))

    def test_taps_unlock_mlat_without_recordings(self):
        scene = corridor_scene(0)
        sch, _, rec, tap_res = self.setup_session(scene, tap_window_s=1.0)
        _, _, _, none_res = self.setup_session(scene)
        assert sum(t.n_multilaterated for t in none_res.tracks) == 0
        assert sum(t.n_multilaterated for t in tap_res.tracks) > 0
        sch.close()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_localization_quality_matches_full_recording_mlat(self, seed):
        """Across random corridors, tap-fed TDOA fixes keep the fused
        localization quality on par with the recordings-fed session.  (The
        fixes themselves may land on different frames: mid-stream the tap
        end-clamps windows to the audio that exists *so far*, where the
        offline path clamps to the full recording.)"""
        scene = corridor_scene(seed)
        sch, cfg, rec, tap_res = self.setup_session(scene, tap_window_s=1.0)
        _, _, _, rec_res = self.setup_session(scene, recordings=rec.recordings)
        assert sum(t.n_multilaterated for t in tap_res.tracks) > 0
        r_rec = self.rms_to_truth(rec, cfg, rec_res)
        r_tap = self.rms_to_truth(rec, cfg, tap_res)
        # Association is chaotic under siren jitter at a coarse azimuth
        # grid, so the comparison is deliberately loose — it guards against
        # taps feeding *wrong* audio (which sends fixes tens of metres off),
        # not against frame-level jitter between the two window clamps.
        assert r_tap < 3.0 * r_rec + 5.0
        sch.close()

    def test_small_tap_window_falls_back_cleanly(self):
        """A tap far too small to keep the multilateration window resident
        must degrade to triangulation, never localize on wrong audio."""
        scene = corridor_scene(4)
        sch, _, rec, res = self.setup_session(scene, tap_window_s=1e-6)
        # Tracks still exist and are confirmed via bearing triangulation.
        assert any(t.confirmed for t in res.tracks)
        sch.close()
