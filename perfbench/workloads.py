"""The benchmark workloads: scene generation, session loops, references.

Every workload builds its scene from the seed alone and hands the program
only the generated scene and audio.  A *session* is one complete live run:
set-up (construction, admission, warm-up) followed by free-running steps
until the program reports ``done``.  Each step's wall time, the newest
audio it consumed and the fusion frontier it reached are logged from
public step outputs only, for the replayed arrival clock of
:mod:`perfbench.clock`.

- ``dense_corridor`` / ``quiet_corridor`` drive ``FleetScheduler.stream``
  over pre-rendered audio and check the fused tracks against the offline
  ``FleetScheduler.run`` + ``fuse_fleet`` pass on the same recording.
- ``city_live`` drives ``CitySupervisor`` over two incrementally rendered
  full-physics corridors on a shared worker pool, and checks every
  session's tracks, bit for bit, against that corridor run standalone and
  in-process under the same audio delivery schedule (see
  :meth:`CityWorkload.check`).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.acoustics.trajectory import LinearTrajectory
from repro.city import CityScenario, CitySupervisor, CorridorSpec, corridor_rngs, render_corridor
from repro.core import PipelineConfig
from repro.fleet import (
    CorridorScene,
    CorridorStream,
    FleetScheduler,
    OracleDetector,
    Vehicle,
    fuse_fleet,
    place_corridor_nodes,
    synthesize_corridor,
)
from repro.signals import synthesize_siren
from repro.signals.noise import vehicle_pass_noise
from repro.stream import ChunkSource, RecordingChunkSource

from perfbench.check import track_mismatch
from perfbench.clock import capture_complete_s
from perfbench.spans import SESSION_STEP

FS = 8000.0
# The city runs at a quarter of the corridor rate: four times the hop period
# for the same per-hop work keeps every shard far inside its pacer budget on
# a two-core box (see CityWorkload).
CITY_FS = 2000.0
CITY_DURATION_S = 16.384  # audio per city session: 128 hops per node
SPACING_M = 22.0
CORRIDOR_CONFIG = PipelineConfig(fs=FS, n_azimuth=36, n_elevation=2, localizer="srp_fast")
WARMUP_S = 0.64  # audio per node replayed by the corridor warm-up session
CITY_SCENES = 3  # city scenarios a run cycles its sessions through

__all__ = ["WORKLOADS", "Session", "CorridorWorkload", "CityWorkload", "make_workload"]


@dataclass
class Session:
    """What one measured session recorded (seconds unless noted)."""

    setup_s: float
    run_id: str = ""
    walls: list[float] = field(default_factory=list)
    arrivals: list[float | None] = field(default_factory=list)
    fused: list[list[tuple[int, int, int]]] = field(default_factory=list)
    timed: list[bool] = field(default_factory=list)
    hops: int = 0  # node-hops processed
    failed: int = 0  # node-hops lost to dropped, late or overflowed chunks
    fused_node_s: float = 0.0  # node-seconds of audio fused in timed steps
    counters: dict[str, float] = field(default_factory=dict)
    outputs: object = None  # what the output check compares
    mismatch: str | None = None

    @property
    def step_s(self) -> float:
        """Wall time of the timed steps."""
        return float(sum(w for w, t in zip(self.walls, self.timed) if t))

    def log_step(self, wall, arrival, fused, timed=True) -> None:
        self.walls.append(wall)
        self.arrivals.append(arrival)
        self.fused.append(fused)
        self.timed.append(timed)


def _capture_s(frame: int, cfg: PipelineConfig) -> float:
    return float(
        capture_complete_s(frame, hop_length=cfg.hop_length, frame_length=cfg.frame_length, fs=cfg.fs)
    )


def _hops_lost(ingest, hop_length: int) -> int:
    """Node-hops lost to dropped, late or overflowed chunks (one chunk = one hop)."""
    return sum(
        s.n_dropped_chunks + s.n_late_chunks + -(-s.dropped_samples // hop_length)
        for s in ingest.values()
    )


def _traced_step(tracer, step):
    if tracer is None:
        return step()
    with tracer.span(SESSION_STEP):
        return step()


# ----------------------------------------------------------------- corridors


class CorridorWorkload:
    """One corridor over pre-rendered audio, driven by ``FleetScheduler.stream``."""

    def __init__(
        self,
        name: str,
        seed: int,
        *,
        n_nodes: int,
        duration_s: float,
        hop_batch: int,
        label: str,
        emergency: bool,
        n_shards: int | None = None,
    ) -> None:
        self.name = name
        self.config = CORRIDOR_CONFIG
        self.hop_batch = hop_batch
        self.label = label
        self.n_shards = n_shards
        self.workers = 0
        rng = np.random.default_rng(seed)
        self.nodes = place_corridor_nodes(n_nodes, SPACING_M)
        half = (n_nodes - 1) / 2 * SPACING_M + 10.0
        if emergency:
            # Two crossing sirens, wail and yelp, each on for the whole scene.
            signals = [
                ("siren_wail", synthesize_siren("wail", duration_s, FS, rng=rng, jitter=0.05)),
                ("siren_yelp", synthesize_siren("yelp", duration_s, FS, rng=rng, jitter=0.05)),
            ]
        else:
            # Ordinary traffic only: two passing cars, no emergency vehicle.
            signals = [
                ("background", vehicle_pass_noise(duration_s, FS, rng=rng)),
                ("background", vehicle_pass_noise(duration_s, FS, rng=rng)),
            ]
        vehicles = [
            Vehicle(
                signals[0][0],
                LinearTrajectory([-half, 8.0, 0.8], [half, 8.0, 0.8], 15.0),
                signals[0][1],
            ),
            Vehicle(
                signals[1][0],
                LinearTrajectory([half, 14.0, 0.8], [-half, 14.0, 0.8], 12.0),
                signals[1][1],
            ),
        ]
        self.recording = synthesize_corridor(
            CorridorScene(vehicles, self.nodes), FS, noise_std=1e-3, rng=rng
        )
        self._reference = None

    def _scheduler(self) -> FleetScheduler:
        return FleetScheduler(
            self.nodes, self.config, detector=OracleDetector(self.label), n_shards=self.n_shards
        )

    def _warm_sources(self) -> dict[str, ChunkSource]:
        n = int(WARMUP_S * FS)
        return {
            nid: RecordingChunkSource(
                rec[:, :n], FS, chunk_samples=self.config.hop_length
            )
            for nid, rec in self.recording.recordings.items()
        }

    def session(self, tracer=None, run_id: str = "") -> Session:
        cfg = self.config
        t0 = time.perf_counter()
        scheduler = self._scheduler()
        # Warm-up: a short live session fills the lazy caches (steering
        # pyramids, windows) that every later session reuses.
        warm = scheduler.stream(self._warm_sources(), hop_batch=self.hop_batch)
        while not warm.step().done:
            pass
        feed = CorridorStream(self.recording, chunk_samples=cfg.hop_length)
        stream = scheduler.stream(feed.sources(), hop_batch=self.hop_batch)
        session = Session(setup_s=time.perf_counter() - t0, run_id=run_id)

        n_nodes = len(self.nodes)
        fused_upto = 0
        updates = 0
        with tracer.tracing(run_id) if tracer is not None else nullcontext():
            done = False
            while not done:
                t = time.perf_counter()
                res = _traced_step(tracer, stream.step)
                wall = time.perf_counter() - t
                newest = max(
                    (out[-1].frame_index for out in res.new_results.values() if out), default=None
                )
                session.log_step(
                    wall,
                    None if newest is None else _capture_s(newest, cfg),
                    [(fused_upto, res.fused_upto, n_nodes)],
                )
                session.fused_node_s += (res.fused_upto - fused_upto) * n_nodes * cfg.frame_period_s
                fused_upto = res.fused_upto
                updates += len(res.updates)
                done = res.done
        result = stream.finalize()
        frames = [r for results in result.node_results.values() for r in results]
        session.hops = len(frames)
        session.failed = _hops_lost(result.ingest, cfg.hop_length)
        session.outputs = result.tracks
        session.counters = _corridor_counters(result, frames, updates, self.hop_batch)
        scheduler.close()
        return session

    def reference(self):
        """Offline ``FleetScheduler.run`` + ``fuse_fleet`` on the same recording."""
        if self._reference is None:
            scheduler = self._scheduler()
            offline = scheduler.run(self.recording)
            self._reference = fuse_fleet(
                offline.node_results, self.nodes, frame_period=self.config.frame_period_s
            )
            scheduler.close()
        return self._reference

    def check(self, session: Session) -> str | None:
        return track_mismatch(session.outputs, self.reference())


def _ingest_counters(ingest) -> dict[str, float]:
    return {
        "ingest.chunks_dropped": sum(s.n_dropped_chunks for s in ingest.values()),
        "ingest.chunks_late": sum(s.n_late_chunks for s in ingest.values()),
        "ingest.dropped_samples": sum(s.dropped_samples for s in ingest.values()),
    }


def _corridor_counters(result, frames, updates: int, hop_batch: int) -> dict[str, float]:
    localized = sum(r.detected for r in frames)
    return {
        "kernel.frames": len(frames),
        "kernel.localized_frames": localized,
        "kernel.localize_ratio": localized / len(frames) if frames else 0.0,
        "fusion.updates": updates,
        "fusion.tracks": len(result.tracks),
        "fusion.confirmed_tracks": sum(t.confirmed for t in result.tracks),
        "fusion.tap_misses": 0,
        **_ingest_counters(result.ingest),
        "pool.worker_kernel_ms": 0.0,
        "pool.steals": 0,
        "pool.migrations": 0,
        "pool.queue_depth_p95": 0.0,
        "pool.pipe_fallbacks": 0,
        "pool.slab_ratio": 0.0,
        "pool.worker_restarts": 0,
        "pacer.mean_batch": float(hop_batch),
    }


# ---------------------------------------------------------------------- city


class _ScheduledSource(ChunkSource):
    """Replays a chunk feed on a recorded delivery schedule.

    Chunk ``seq`` becomes available at ``(deliver_step[seq] + 0.5) * step_s``:
    a serial stream session whose steps advance its clock by ``step_s`` (longer
    than the whole capture, so capture time never gates delivery) then
    ingests exactly the chunks the recorded session ingested at each step.
    """

    def __init__(self, inner: ChunkSource, deliver_step: list[int], step_s: float) -> None:
        self.inner = inner
        self.fs = inner.fs
        self.n_channels = inner.n_channels
        self.chunk_samples = inner.chunk_samples
        self.deliver_step = deliver_step
        self.step_s = step_s

    def next_chunk(self):
        chunk = self.inner.next_chunk()
        if chunk is None:
            return None
        return replace(chunk, arrival_s=(self.deliver_step[chunk.seq] + 0.5) * self.step_s)


class CityWorkload:
    """Two live full-physics corridors on one shared pool (``CitySupervisor``).

    Sessions cycle through :data:`CITY_SCENES` scenarios drawn from the seed:
    how many tracks (and so multilateration solves) a scene produces varies
    from scene to scene, and a run should not hang on one draw.
    """

    def __init__(self, name: str, seed: int, *, duration_s: float, workers: int) -> None:
        self.name = name
        self.workers = workers
        # One siren per corridor, a one-hop nominal batch and a 2 kHz capture
        # keep every shard far inside its fair-share budget on two cores: a
        # shard that overruns widens its own batch, its stream clock then
        # runs ahead of its sibling's for the rest of the session, and every
        # later frontier frame waits for that lead, so latency stops
        # repeating from run to run.  The incremental renderer's block
        # flushes are the largest step costs; at 2 kHz the worst of them
        # takes about a fifth of the budget.
        specs = tuple(
            CorridorSpec(
                f"corridor{k}",
                n_nodes=3,
                duration_s=duration_s,
                speed2_mps=None,
                n_shards=2,
                surface="dense_asphalt",
                air_absorption=True,
                incremental=True,
            )
            for k in range(2)
        )
        self.scenarios = [
            CityScenario(
                corridors=specs,
                fs=CITY_FS,
                seed=int(np.random.SeedSequence([seed, k]).generate_state(1)[0]),
                hop_batch=1,
                tap_window_s=0.5,
            )
            for k in range(CITY_SCENES)
        ]
        scenario = self.scenarios[0]
        self.hop_batch = scenario.hop_batch
        self.config = PipelineConfig(
            fs=scenario.fs,
            localizer=scenario.localizer,
            n_azimuth=scenario.n_azimuth,
            n_elevation=scenario.n_elevation,
        )
        self._n_sessions = 0
        self._recordings: dict[tuple[int, str], object] = {}
        self._standalone: dict[tuple, list] = {}

    def session(self, tracer=None, run_id: str = "") -> Session:
        cfg = self.config
        scene = self._n_sessions % len(self.scenarios)
        self._n_sessions += 1
        t0 = time.perf_counter()
        sup = CitySupervisor(self.scenarios[scene], workers=self.workers)
        try:
            # Step 0 admits every corridor (scene build, pipelines, runner
            # registration on the forked pool) and runs the first hop batch
            # through the workers, filling their lazy caches: all set-up.
            sup.step()
            session = Session(setup_s=time.perf_counter() - t0, run_id=run_id)
            counts: dict[str, list[dict[str, int]]] = {cid: [] for cid in sup.manager.sessions}
            frontier = {cid: 0 for cid in sup.manager.sessions}
            self._log(sup, session, counts, frontier, 0.0, timed=False)
            with tracer.tracing(run_id) if tracer is not None else nullcontext():
                while not sup.done:
                    t = time.perf_counter()
                    _traced_step(tracer, sup.step)
                    wall = time.perf_counter() - t
                    self._log(sup, session, counts, frontier, wall, timed=True)
            results = {cid: s.result for cid, s in sup.manager.sessions.items()}
            restarts = sup.manager.n_worker_restarts
        finally:
            sup.close()
        frames = [r for res in results.values() for rs in res.node_results.values() for r in rs]
        session.hops = len(frames)
        session.failed = sum(_hops_lost(res.ingest, cfg.hop_length) for res in results.values())
        session.outputs = (scene, {cid: res.tracks for cid, res in results.items()}, counts)
        session.counters = _city_counters(results, frames, restarts)
        return session

    def _log(self, sup, session, counts, frontier, wall, *, timed) -> None:
        """Record one supervisor step from each session's public node results."""
        cfg = self.config
        arrival = None
        fused = []
        for cid, city_session in sup.manager.sessions.items():
            # Live and draining sessions expose their stream; left ones their result.
            source = city_session.stream or city_session.result
            now = {nid: len(rs) for nid, rs in source.node_results.items()}
            before = counts[cid][-1] if counts[cid] else {}
            for nid, n in now.items():
                if n > before.get(nid, 0):
                    cap = _capture_s(n - 1, cfg)
                    arrival = cap if arrival is None else max(arrival, cap)
            counts[cid].append(now)
            upto = min(now.values(), default=0)
            if upto > frontier[cid]:
                fused.append((frontier[cid], upto, len(now)))
                if timed:
                    session.fused_node_s += (upto - frontier[cid]) * len(now) * cfg.frame_period_s
                frontier[cid] = upto
        session.log_step(wall, arrival, fused, timed)

    # ------------------------------------------------------------ reference

    def _recording(self, scene: int, cid: str):
        if (scene, cid) not in self._recordings:
            scenario = self.scenarios[scene]
            rngs = corridor_rngs(scenario)
            for spec in scenario.corridors:
                self._recordings[scene, spec.corridor_id] = render_corridor(
                    spec, scenario, rngs[spec.corridor_id]
                )
        return self._recordings[scene, cid]

    def standalone_tracks(self, scene: int, cid: str, counts: list[dict[str, int]]):
        """The corridor run standalone and in-process (serial ``FleetScheduler.
        stream``, whole-rendered audio) on the city session's delivery schedule.

        Streamed multilateration reads the newest ingested audio when a frame
        fuses, so fused tracks depend on how far ingest ran ahead — which the
        city's wall-clock pacer chooses per step.  Replaying the session's
        schedule (chunks delivered per node per step, recovered from its
        node result counts) makes the reference deterministic.
        """
        cfg = self.config
        scenario = self.scenarios[scene]
        spec = next(s for s in scenario.corridors if s.corridor_id == cid)
        recording = self._recording(scene, cid)
        n_samples = max(rec.shape[1] for rec in recording.recordings.values())
        if n_samples % cfg.hop_length:
            raise ValueError("city corridors must capture a whole number of hops")
        n_chunks = n_samples // cfg.hop_length
        step_s = (n_chunks + 1) * cfg.frame_period_s
        scheduler = FleetScheduler(
            recording.scene.nodes,
            self.config,
            detector=OracleDetector("siren_wail"),
            n_shards=spec.n_shards,
        )
        feed = CorridorStream(recording, chunk_samples=cfg.hop_length)
        sources = {}
        for nid, source in feed.sources().items():
            # After a step with c >= 1 complete frames a node has ingested
            # exactly c + 1 hop-sized chunks.
            deliver = [len(counts)] * n_chunks
            delivered = 0
            for j, step_counts in enumerate(counts):
                c = step_counts.get(nid, 0)
                ingested = min(c + 1 if c else 0, n_chunks)
                deliver[delivered:ingested] = [j] * max(0, ingested - delivered)
                delivered = max(delivered, ingested)
            sources[nid] = _ScheduledSource(source, deliver, step_s)
        stream = scheduler.stream(
            sources, hop_batch=n_chunks + 1, tap_window_s=scenario.tap_window_s
        )
        while not stream.step().done:
            pass
        tracks = stream.finalize().tracks
        scheduler.close()
        return tracks

    def check(self, session: Session) -> str | None:
        scene, tracks, counts = session.outputs
        for cid, got in tracks.items():
            # Sessions that ran on the same delivery schedule share one
            # reference replay.
            key = (scene, cid, tuple(tuple(sorted(c.items())) for c in counts[cid]))
            if key not in self._standalone:
                self._standalone[key] = self.standalone_tracks(scene, cid, counts[cid])
            want = self._standalone[key]
            why = track_mismatch(got, want, exact=True)
            if why is not None:
                return f"{cid}: {why}"
        return None


def _city_counters(results, frames, restarts: int) -> dict[str, float]:
    localized = sum(r.detected for r in frames)
    ingest = {f"{cid}/{nid}": s for cid, res in results.items() for nid, s in res.ingest.items()}
    kernel = [b.kernel_ms for res in results.values() for b in res.stage_budgets]
    batches = [
        rec[2] for res in results.values() for p in res.pacer_stats.values() for rec in p.records
    ]
    slab = sum(res.n_slab_replies for res in results.values())
    pipe = sum(res.n_pipe_fallbacks for res in results.values())
    tracks = [t for res in results.values() for t in res.tracks]
    return {
        "kernel.frames": len(frames),
        "kernel.localized_frames": localized,
        "kernel.localize_ratio": localized / len(frames) if frames else 0.0,
        "fusion.updates": sum(len(res.updates) for res in results.values()),
        "fusion.tracks": len(tracks),
        "fusion.confirmed_tracks": sum(t.confirmed for t in tracks),
        "fusion.tap_misses": sum(sum(res.tap_misses.values()) for res in results.values()),
        **_ingest_counters(ingest),
        "pool.worker_kernel_ms": float(np.mean(kernel)) if kernel else 0.0,
        "pool.steals": sum(res.n_steals for res in results.values()),
        "pool.migrations": sum(res.n_migrations for res in results.values()),
        "pool.queue_depth_p95": max(res.queue_depth_p95 for res in results.values()),
        "pool.pipe_fallbacks": pipe,
        "pool.slab_ratio": slab / (slab + pipe) if slab + pipe else 0.0,
        "pool.worker_restarts": restarts,
        "pacer.mean_batch": float(np.mean(batches)) if batches else 0.0,
    }


# ---------------------------------------------------------------- registry

WORKLOADS = ("dense_corridor", "quiet_corridor", "city_live")


def make_workload(name: str, seed: int, *, tiny: bool = False):
    """Build workload ``name`` from ``seed`` (``tiny``: a seconds-long smoke variant)."""
    if name == "dense_corridor":
        return CorridorWorkload(
            name,
            seed,
            n_nodes=4,
            duration_s=0.96 if tiny else 32.0,
            hop_batch=1,
            label="siren_wail",
            emergency=True,
            n_shards=2,
        )
    if name == "quiet_corridor":
        return CorridorWorkload(
            name,
            seed,
            n_nodes=16,
            duration_s=0.96 if tiny else 8.0,
            hop_batch=8,
            label="background",
            emergency=False,
        )
    if name == "city_live":
        return CityWorkload(
            name,
            seed,
            duration_s=2.048 if tiny else CITY_DURATION_S,
            workers=min(2, os.cpu_count() or 1),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
