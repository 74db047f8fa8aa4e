"""Sharded execution of per-node pipelines over a fleet — offline or live.

Every corridor node runs the same perception stack; running K nodes as K
independent streaming loops wastes exactly the redundancy PR 1's batched
engine exists to exploit.  The scheduler

- builds one :class:`~repro.core.batch.BlockPipeline` per node, sharing a
  single detector (the fleet deploys one model) and — whenever nodes share
  a mounting design, i.e. identical local mic geometry — a single localizer
  instance, so the cached steering/interpolation tensors *and the
  coarse-to-fine steering pyramids* (per-level coarse tensors, window LUTs;
  see :mod:`repro.ssl.refine`) are built once for the whole fleet.  Temporal
  window-reuse state stays per node: each stream owns its own
  :class:`~repro.ssl.refine.RefineState`, so one node's anchor never leaks
  into another's;
- offline (:meth:`FleetScheduler.run`), assigns nodes to shards round-robin
  and fans each shard's recordings through **one** ragged ``process_batch``
  call (unequal capture lengths batch cleanly), optionally across a thread
  pool;
- live (:meth:`FleetScheduler.stream`), opens a hop-clocked
  :class:`FleetStream` session: per-node ring-buffer ingestion
  (:mod:`repro.stream`), one shared-:class:`~repro.ssl.gcc.SpectraCache`
  hop batch per shard per step through the same
  :class:`~repro.core.hop.HopKernel`, and *incremental* cross-node fusion
  (:class:`~repro.fleet.fusion.FusionEngine` stepped per hop, emitting
  live :class:`~repro.fleet.fusion.TrackUpdate` events) — producing tracks
  identical to the offline run on the same audio;
- accounts wall time per node and fleet-wide with
  :class:`~repro.core.realtime.LatencyMonitor` — against each node's
  capture duration offline, and against the hop deadline per step live.

:class:`FleetStream` is the one live session driver.  Each shard's kernel
pass lives in a :class:`_ShardRunner` that runs identically in the main
process (``workers=0``, the default) and inside a forked worker of a
:class:`~repro.stream.pool.ShardWorkerPool` (``workers=N``, or ``pool=``
to join a pool shared by many sessions, as :mod:`repro.city` does):

- **audio crosses the process boundary zero-copy.**  With workers, every
  node's ring is a :class:`~repro.stream.ring.SharedRingBuffer` in
  ``multiprocessing.shared_memory``; the worker pops hop frames straight
  out of the same pages, and only the per-hop
  :class:`~repro.core.pipeline.FrameResult` rows come back (through the
  pool's shared-memory reply slab).
- **workers are forked, not spawned, and every runner is registered.**
  Fork gives each worker the already-imported code and the pool's reply
  slabs; each shard runner then pickles once onto its worker — detector
  weights, steering tensors, coarse-to-fine pyramids — whether the pool
  is private (``workers=N``) or shared (``pool=``).  Every registered
  runner checkpoints its state each step, so a killed worker is
  recoverable either way.
- **fusion stays in the main process.**  Replies merge in shard order and
  step the incremental fusion engine, so fused tracks are bit-identical at
  every worker count.

Each shard is governed by a :class:`~repro.stream.pacer.Pacer`; by
default its batch is fixed at ``hop_batch``, and an adaptive
:class:`~repro.stream.pacer.PacerConfig` lets overruns widen a shard's
batch and headroom shrink it.  Every emitted update carries a
:class:`~repro.stream.budget.StageBudget` decomposing its detect-to-update
latency across capture → delivery → ingest → kernel → fusion → emit.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.acoustics.geometry import SPEED_OF_SOUND
from repro.core.batch import BlockPipeline
from repro.core.config import PipelineConfig
from repro.core.pipeline import FrameResult
from repro.core.realtime import LatencyMonitor, LatencyStats
from repro.fleet.corridor import CorridorNode, CorridorRecording
from repro.fleet.fusion import FusionConfig, FusedTrack, FusionEngine, TrackUpdate, detection_from_result
from repro.nn.module import Module
from repro.sed.events import EVENT_CLASSES, class_index
from repro.sed.models import build_sed_mlp
from repro.ssl.refine import RefineState
from repro.ssl.tracking import KalmanDoaTracker
from repro.stream.budget import StageBudget, summarize_budgets
from repro.stream.engine import IngestStats, NodeIngest
from repro.stream.pacer import Pacer, PacerConfig, PacerStats, SharedCapacity
from repro.stream.pool import ShardWorkerPool, WorkerCrashed, parallel_supported
from repro.stream.ring import RingBuffer, SharedRingBuffer
from repro.stream.slab import HopReply
from repro.stream.source import ChunkSource
from repro.stream.tap import SampleTap, mlat_tap_capacity

__all__ = [
    "OracleDetector",
    "NodeRunStats",
    "FleetRunResult",
    "FleetScheduler",
    "FleetStepResult",
    "FleetStreamResult",
    "FleetStream",
]


class OracleDetector(Module):
    """Deterministic detector that always reports one class.

    Stands in for a trained model in simulations where the target event is
    known to be present for the whole capture (demo scenes, fusion tests,
    benches): every frame fires with the same label and confidence, so the
    downstream localization/fusion behaviour is reproducible.
    """

    def __init__(self, label: str = "siren_wail", *, logit: float = 6.0) -> None:
        super().__init__()
        self._class = class_index(label)
        self._logit = float(logit)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.full((x.shape[0], len(EVENT_CLASSES)), -self._logit)
        out[:, self._class] = self._logit
        return out


@dataclass(frozen=True)
class NodeRunStats:
    """Per-node outcome of one fleet run.

    Attributes
    ----------
    node_id:
        The node.
    n_frames, n_detections:
        Frame count and frames whose detection fired.
    latency:
        Attributed processing-time distribution vs the node's real-time
        budget (capture duration).
    """

    node_id: str
    n_frames: int
    n_detections: int
    latency: LatencyStats


@dataclass(frozen=True)
class FleetRunResult:
    """Everything one :meth:`FleetScheduler.run` call produced.

    Attributes
    ----------
    node_results:
        ``node_id -> FrameResult`` stream (fresh tracker per node).
    node_stats:
        ``node_id -> NodeRunStats``.
    fleet_latency:
        Whole-run wall time vs the longest node capture (the fleet is
        real-time when the full corridor processes faster than it records).
    shards:
        The round-robin shard assignment, as lists of node ids.
    """

    node_results: dict[str, list[FrameResult]]
    node_stats: dict[str, NodeRunStats]
    fleet_latency: LatencyStats
    shards: list[list[str]]

    @property
    def realtime(self) -> bool:
        """Whether the whole fleet processed inside its capture window."""
        return self.fleet_latency.realtime


class FleetScheduler:
    """Shard per-node batched pipelines across a corridor fleet.

    Parameters
    ----------
    nodes:
        The corridor nodes (see :func:`repro.fleet.place_corridor_nodes`).
    config:
        Shared :class:`PipelineConfig` for every node pipeline.
    detector:
        Detector deployed fleet-wide; one untrained compact MLP is built
        (and shared) when omitted.
    n_shards:
        Number of round-robin shards (default: one shard per 2 nodes,
        at least 1).
    use_threads:
        Process shards on a thread pool.  The batched paths are BLAS/FFT
        shaped, so this mostly helps once the interpreter releases the GIL
        inside NumPy; it is off by default.
    """

    def __init__(
        self,
        nodes: Sequence[CorridorNode],
        config: PipelineConfig | None = None,
        *,
        detector: Module | None = None,
        n_shards: int | None = None,
        use_threads: bool = False,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        self.nodes = list(nodes)
        self.config = config or PipelineConfig()
        self.detector = detector or build_sed_mlp(self.config.n_mels, len(EVENT_CLASSES))
        if n_shards is None:
            n_shards = max(1, len(self.nodes) // 2)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.use_threads = bool(use_threads)
        self.pipelines: dict[str, BlockPipeline] = {}
        prototypes: list[BlockPipeline] = []
        self._n_shared_localizers = 0
        for node in self.nodes:
            rel = node.relative_positions
            # Same mounting design as an earlier node: inject the prototype's
            # localizer so its steering/read tensors are built once and serve
            # the whole fleet.
            shared = next(
                (
                    p.pipeline.localizer
                    for p in prototypes
                    if p.positions.shape == rel.shape and np.allclose(p.positions, rel)
                ),
                None,
            )
            pipe = BlockPipeline(
                rel, self.config, detector=self.detector, localizer=shared
            )
            if shared is None:
                prototypes.append(pipe)
            else:
                self._n_shared_localizers += 1
            self.pipelines[node.node_id] = pipe
        self.shards: list[list[str]] = [[] for _ in range(min(n_shards, len(self.nodes)))]
        for k, node in enumerate(self.nodes):
            self.shards[k % len(self.shards)].append(node.node_id)
        # One pool for the scheduler's lifetime (created on first threaded
        # run): per-call executors rebuilt and tore down their worker
        # threads every run, paying thread spawn latency each time.
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ API

    @property
    def n_shared_localizers(self) -> int:
        """Node pipelines reusing another node's cached steering tensors."""
        return self._n_shared_localizers

    def run(self, recordings: Mapping[str, np.ndarray] | CorridorRecording) -> FleetRunResult:
        """Process every node's recording; returns per-node results + stats."""
        if isinstance(recordings, CorridorRecording):
            if recordings.fs != self.config.fs:
                raise ValueError(
                    f"recording fs {recordings.fs} does not match pipeline fs {self.config.fs}"
                )
            recordings = recordings.recordings
        missing = [n.node_id for n in self.nodes if n.node_id not in recordings]
        if missing:
            raise ValueError(f"missing recordings for nodes: {missing}")
        clips = {
            n.node_id: np.asarray(recordings[n.node_id], dtype=np.float64) for n in self.nodes
        }
        for node in self.nodes:
            clip = clips[node.node_id]
            if clip.ndim != 2 or clip.shape[0] != node.array.n_mics:
                raise ValueError(
                    f"recording for {node.node_id!r} must be ({node.array.n_mics}, n_samples)"
                )
        fleet_deadline = max(c.shape[1] for c in clips.values()) / self.config.fs
        fleet_monitor = LatencyMonitor(fleet_deadline)
        node_results: dict[str, list[FrameResult]] = {}
        node_monitors = {
            nid: LatencyMonitor(clips[nid].shape[1] / self.config.fs) for nid in clips
        }

        fleet_monitor.tick_start()
        if self.use_threads and len(self.shards) > 1:
            pool = self._get_executor()
            for shard_out in pool.map(lambda s: self._run_shard(s, clips), self.shards):
                node_results.update(shard_out[0])
                for nid, dt in shard_out[1].items():
                    node_monitors[nid].record(dt)
        else:
            for shard in self.shards:
                results, durations = self._run_shard(shard, clips)
                node_results.update(results)
                for nid, dt in durations.items():
                    node_monitors[nid].record(dt)
        fleet_monitor.tick_end()

        node_stats = {
            nid: NodeRunStats(
                node_id=nid,
                n_frames=len(node_results[nid]),
                n_detections=sum(r.detected for r in node_results[nid]),
                latency=node_monitors[nid].stats(),
            )
            for nid in clips
        }
        return FleetRunResult(
            node_results=node_results,
            node_stats=node_stats,
            fleet_latency=fleet_monitor.stats(),
            shards=[list(s) for s in self.shards],
        )

    def stream(
        self,
        sources: Mapping[str, ChunkSource],
        *,
        hop_batch: int = 8,
        workers: int = 0,
        pacer: PacerConfig | None = None,
        fusion_config: FusionConfig | None = None,
        recordings: Mapping[str, np.ndarray] | None = None,
        ring_capacity: int | None = None,
        tap_window_s: float | None = None,
    ) -> "FleetStream":
        """Open a hop-clocked live :class:`FleetStream` over per-node sources.

        ``sources`` maps every node id to its :class:`ChunkSource` (e.g.
        from :meth:`repro.fleet.corridor.CorridorStream.sources`).  Each
        :meth:`FleetStream.step` advances every shard by one hop batch and
        fuses the newly complete frames; the fused corridor tracks are
        identical to :meth:`run` + :func:`~repro.fleet.fusion.fuse_fleet`
        on the same audio.  Pass ``recordings`` to enable the wide-baseline
        multilateration upgrade, exactly as with :func:`fuse_fleet` — or
        ``tap_window_s`` to enable it *without* recordings, from rolling
        per-node sample taps populated during ingest (the only option for
        truly live feeds, where whole recordings never exist).

        ``workers`` (default 0: every shard in-process) forks that many
        shard workers over shared-memory rings.  ``pacer`` (a
        :class:`~repro.stream.pacer.PacerConfig`) governs each shard's
        batch; by default every step advances exactly ``hop_batch`` hops.
        """
        return FleetStream(
            self,
            sources,
            hop_batch=hop_batch,
            workers=workers,
            pacer=pacer,
            fusion_config=fusion_config,
            recordings=recordings,
            ring_capacity=ring_capacity,
            tap_window_s=tap_window_s,
        )

    def close(self) -> None:
        """Shut the persistent shard executor down (idempotent; the
        scheduler remains usable — the next threaded run re-creates it)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- internals

    def _get_executor(self) -> ThreadPoolExecutor:
        """The scheduler-lifetime shard pool, created on first use."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=len(self.shards), thread_name_prefix="fleet-shard"
            )
        return self._executor

    def _run_shard(
        self, shard: list[str], clips: Mapping[str, np.ndarray]
    ) -> tuple[dict[str, list[FrameResult]], dict[str, float]]:
        """Process one shard; returns results and attributed durations."""
        t0 = time.perf_counter()
        pipes = [self.pipelines[nid] for nid in shard]
        shared = all(p.pipeline.localizer is pipes[0].pipeline.localizer for p in pipes)
        results: dict[str, list[FrameResult]] = {}
        if shared and len(shard) > 1:
            # One ragged batch through a single pipeline: one detector pass
            # and one localizer call for the whole shard.
            batch = pipes[0].process_batch([clips[nid] for nid in shard])
            results = dict(zip(shard, batch))
        else:
            for nid, pipe in zip(shard, pipes):
                pipe.reset()
                results[nid] = pipe.process_signal(clips[nid])
                pipe.reset()
        wall = time.perf_counter() - t0
        # Attribute the shard's wall time to its nodes by sample share.
        total = sum(clips[nid].shape[1] for nid in shard)
        durations = {nid: wall * clips[nid].shape[1] / total for nid in shard}
        return results, durations


@dataclass(frozen=True)
class FleetStepResult:
    """What one :meth:`FleetStream.step` produced.

    Attributes
    ----------
    new_results:
        Per-node :class:`FrameResult` rows completed this step (nodes with
        no new complete frame are absent).
    updates:
        Live fusion events of the frames fused this step.
    fused_upto:
        Frames fused so far (exclusive upper bound of the fusion frontier).
    done:
        Whether every source is exhausted, drained and fused.
    """

    new_results: dict[str, list[FrameResult]]
    updates: list[TrackUpdate]
    fused_upto: int
    done: bool




@dataclass(frozen=True)
class FleetStreamResult:
    """Everything one :meth:`FleetStream.run` session produced.

    ``node_results``/``node_stats``/``fleet_latency``/``shards`` mirror
    :class:`FleetRunResult`, so :func:`repro.fleet.report.fleet_report`
    consumes a finished stream directly.  On top of those the live session
    adds:

    Attributes
    ----------
    tracks, updates:
        The fused tracks and the full live update feed.
    hop_latency:
        Per-hop step wall vs the hop deadline (the Sec. II real-time
        criterion: one fleet step must fit the hop deadline).
    ingest:
        Per-node delivery accounting.
    n_steps:
        Session steps taken.
    workers:
        Worker processes used (0 = every shard in-process).
    hop_batch:
        The session's nominal hops per step.
    pacer_stats:
        ``shard index -> PacerStats``: overruns, widenings, shrinks and the
        raw per-step records (feed them to
        :class:`~repro.core.alerts.OverrunPolicy` for debounced alerts).
    stage_budgets:
        One :class:`StageBudget` per emitted update, in emission order.
    detect_to_update:
        Distribution of ``detect_to_update_ms`` vs the nominal budget of
        one hop batch of delivery delay plus one hop of processing.
    tap_misses:
        Per-node count of :class:`~repro.stream.tap.SampleTap` reads that
        returned ``None`` because the window had already been evicted
        (streamed multilateration asked for audio older than the tap
        keeps — a sizing signal, not an error).
    n_steals, n_migrations, queue_depth_p95:
        Pool-scheduling accounting for this session: shards stolen by idle
        workers, total shard migrations (steals + forced), and the p95 of
        the pool backlog sampled at each dispatch.  All zero in-process.
    n_slab_replies, n_pipe_fallbacks:
        How the session's hop replies traveled: decoded from the worker's
        shared-memory slab (zero pickling) vs pickled over the pipe
        (oversized or non-standard replies).
    """

    node_results: dict[str, list[FrameResult]]
    node_stats: dict[str, NodeRunStats]
    fleet_latency: LatencyStats
    shards: list[list[str]]
    tracks: list[FusedTrack]
    updates: list[TrackUpdate]
    hop_latency: LatencyStats
    ingest: dict[str, IngestStats]
    n_steps: int
    workers: int
    hop_batch: int
    pacer_stats: dict[int, PacerStats]
    stage_budgets: tuple[StageBudget, ...] = field(default=())
    detect_to_update: LatencyStats | None = None
    tap_misses: dict[str, int] = field(default_factory=dict)
    n_steals: int = 0
    n_migrations: int = 0
    queue_depth_p95: float = 0.0
    n_slab_replies: int = 0
    n_pipe_fallbacks: int = 0

    @property
    def realtime(self) -> bool:
        """Whether the p95 per-hop fleet step met the hop deadline."""
        return self.hop_latency.realtime

    def stage_summary(self) -> dict[str, tuple[float, float]]:
        """Per-stage ``(p50_ms, p95_ms)`` over every emitted update."""
        return summarize_budgets(self.stage_budgets)

    def node_pacer_stats(self) -> dict[str, PacerStats]:
        """Each node's shard pacer accounting (nodes share their shard's)."""
        return {
            nid: self.pacer_stats[si]
            for si, shard in enumerate(self.shards)
            for nid in shard
            if si in self.pacer_stats
        }


class _ShardRunner:
    """The kernel side of one shard: rings in, FrameResults out.

    Runs identically in-process (``workers=0``) and inside a forked worker
    (``workers>=1``) — the same object, the same code path — which is what
    makes the worker-count equivalence property testable at all.  Holds the
    shard's per-node stream state (tracker, refinement, frame counter) next
    to the pipelines so a forked worker owns everything its kernel pass
    mutates.
    """

    def __init__(
        self,
        nids: list[str],
        pipelines: dict[str, BlockPipeline],
        rings: dict[str, RingBuffer],
        frame_length: int,
        hop_length: int,
    ) -> None:
        self.nids = list(nids)
        self.pipelines = {nid: pipelines[nid] for nid in self.nids}
        self.rings = {nid: rings[nid] for nid in self.nids}
        self.frame_length = int(frame_length)
        self.hop_length = int(hop_length)
        self.trackers = {nid: KalmanDoaTracker() for nid in self.nids}
        self.refine = {nid: RefineState() for nid in self.nids}
        self.counts = {nid: 0 for nid in self.nids}

    def step(self) -> HopReply:
        """Pop every completed frame and run the shard's kernel pass.

        Steady state pops one hop batch per node; after a stall the whole
        backlog drains in one pass (catch up, don't let the bounded ring
        overflow).
        """
        t0 = time.perf_counter()
        blocks: list[np.ndarray] = []
        nids: list[str] = []
        for nid in self.nids:
            frames = self.rings[nid].pop_frames(self.frame_length, self.hop_length)
            if frames.shape[0]:
                blocks.append(frames)
                nids.append(nid)
        if not nids:
            return HopReply((), {}, time.perf_counter() - t0)
        pipes = [self.pipelines[nid] for nid in nids]
        shared = all(p.pipeline.localizer is pipes[0].pipeline.localizer for p in pipes)
        if shared and len(nids) > 1:
            # One shared-cache kernel pass for the whole shard: a single
            # detector forward, per-node localization/tracking replay.
            outs = pipes[0].pipeline.hop_kernel.run_clips(
                blocks,
                [self.trackers[nid] for nid in nids],
                [self.refine[nid] for nid in nids],
                [self.counts[nid] for nid in nids],
            )
        else:
            outs = [
                pipe.pipeline.hop_kernel.step(
                    block,
                    tracker=self.trackers[nid],
                    state=self.refine[nid],
                    start_index=self.counts[nid],
                )
                for nid, pipe, block in zip(nids, pipes, blocks)
            ]
        results: dict[str, list[FrameResult]] = {}
        for nid, out in zip(nids, outs):
            self.counts[nid] += len(out)
            results[nid] = out
        return HopReply(tuple(nids), results, time.perf_counter() - t0)

    def state_dict(self) -> dict:
        """The shard's mutable stream state (crash-recovery checkpoint).

        Small by construction — scalar Kalman trackers, refinement window
        bookkeeping and frame counters, a few hundred bytes — so a pool
        worker can afford to ship it with every step reply.  The rings are
        deliberately *not* part of it: their headers live in shared memory
        owned by the main process and survive a worker crash on their own.
        """
        return {
            "trackers": self.trackers,
            "refine": self.refine,
            "counts": dict(self.counts),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (after a worker respawn)."""
        self.trackers = dict(state["trackers"])
        self.refine = dict(state["refine"])
        self.counts = dict(state["counts"])


class FleetStream:
    """A live hop-clocked session over a :class:`FleetScheduler`.

    Construction wires, per node, a :class:`~repro.stream.engine.NodeIngest`
    (chunk source → ring buffer → hop blocks), one :class:`_ShardRunner`
    per shard holding the shard's tracker and refinement state, one
    :class:`~repro.stream.pacer.Pacer` per shard, and one incremental
    :class:`~repro.fleet.fusion.FusionEngine` for the corridor.  Each
    :meth:`step` then:

    1. advances every shard's stream clock by its pacer's batch and pulls
       the chunks delivered by then into the nodes' rings;
    2. runs every shard's kernel pass — pop the newly complete hop blocks
       and run them through the shard-lead pipeline's shared
       :class:`~repro.core.hop.HopKernel` (one shared-cache detector pass
       per shard per step) — in-process or in the shard's worker;
    3. advances the fusion frontier — frames every still-active node has
       finished — fusing each frontier frame immediately and emitting live
       :class:`~repro.fleet.fusion.TrackUpdate` events, each stamped with a
       :class:`~repro.stream.budget.StageBudget` of its detect-to-update
       latency;
    4. records the step's wall time against the hop deadline.

    A single array streams the same way, as a one-node corridor: one node,
    one shard, and its result stream in ``node_results[node_id]``.

    Determinism contract: on the same audio (no drops, ample rings) the
    per-node result streams and the fused tracks are identical to the
    offline :meth:`FleetScheduler.run` + :func:`~repro.fleet.fusion.
    fuse_fleet` pass — association decisions and all — at every worker
    count and under any batch schedule the pacers choose; asserted in
    ``tests/test_fleet_stream.py`` and ``tests/test_stream_parallel.py``.

    Parameters
    ----------
    scheduler:
        The fleet (its pipelines are forked into the workers, so construct
        and optionally warm it *before* opening the session).
    hop_batch:
        Nominal hops per step.
    workers:
        Worker processes; 0 runs every shard in-process through the exact
        same :class:`_ShardRunner` code, >= 1 distributes shards over a
        *private* forked :class:`~repro.stream.pool.ShardWorkerPool`
        without stealing: the runners register on it (each pickles once),
        one per worker round-robin, and stay pinned.  Clamped to the
        shard count.  Ignored when ``pool`` is given.
    pool:
        An existing :class:`~repro.stream.pool.ShardWorkerPool` to *join*
        instead of forking a private one: the session registers its shard
        runners on the pool's workers (runners pickle once; rings attach
        by shared-memory name) and releases them on :meth:`close`.  This
        is how :class:`repro.city.CitySupervisor` runs many sessions on
        one set of workers.  Registered runners checkpoint their state, so
        either pool can restore them after a worker death.
    session_id:
        Name registered on the shared pool (default ``"fleet"``); must be
        unique among the pool's live sessions.
    capacity:
        Optional :class:`~repro.stream.pacer.SharedCapacity` the session's
        pacers judge their budgets against (shards on an oversubscribed
        pool widen earlier).  The session acquires one slot per shard
        while open.
    pacer:
        Per-shard backpressure policy (shared config, independent state).
        By default the batch is fixed at ``hop_batch``; pass
        ``PacerConfig()`` for the adaptive policy, which widens on overrun
        up to ``8 x hop_batch`` and shrinks when headroom returns.
    fusion_config, recordings:
        Fusion policy and the optional whole recordings for wide-baseline
        multilateration (see :func:`~repro.fleet.fusion.fuse_fleet`).
    ring_capacity:
        Per-node ring size; the default covers the pacer's *maximum* batch
        so a fully widened catch-up step never overwrites unread samples.
    tap_window_s:
        Enables streamed multilateration from rolling per-node sample taps,
        so live sessions get wide-baseline fixes without any pre-rendered
        ``recordings``.
    clock, sleep:
        Injected monotonic clock / sleep for the per-shard pacers (tests
        drive paced sessions on a fake clock; production uses the real
        ones).

    Use as a context manager (or call :meth:`close`) so worker processes
    and shared-memory segments are torn down deterministically.

    Single-producer/single-consumer turn-taking makes the rings lock-free:
    the main process pushes a shard's chunks *before* dispatching its step
    and the runner pops *before* replying, so the two sides never touch a
    ring concurrently.
    """

    def __init__(
        self,
        scheduler: FleetScheduler,
        sources: Mapping[str, ChunkSource],
        *,
        hop_batch: int = 8,
        workers: int = 0,
        pool: ShardWorkerPool | None = None,
        session_id: str | None = None,
        capacity: SharedCapacity | None = None,
        pacer: PacerConfig | None = None,
        fusion_config: FusionConfig | None = None,
        recordings: Mapping[str, np.ndarray] | None = None,
        ring_capacity: int | None = None,
        tap_window_s: float | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if hop_batch < 1:
            raise ValueError("hop_batch must be >= 1")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        missing = [n.node_id for n in scheduler.nodes if n.node_id not in sources]
        if missing:
            raise ValueError(f"missing sources for nodes: {missing}")
        cfg = scheduler.config
        self.scheduler = scheduler
        self.hop_batch = int(hop_batch)
        self.session_id = session_id if session_id is not None else "fleet"
        if pool is not None:
            self.workers = pool.workers
        else:
            self.workers = min(int(workers), len(scheduler.shards))
        if self.workers:
            reason = parallel_supported()
            if reason is not None:
                raise RuntimeError(f"process-parallel execution unavailable: {reason}")
        # Shard-major node order matches the insertion order of the offline
        # run's node_results dict, so per-frame detection lists reach the
        # fusion engine in the identical order (association ties and all).
        self.node_order = [nid for shard in scheduler.shards for nid in shard]
        self._nodes = {n.node_id: n for n in scheduler.nodes}
        self._origins = {nid: n.position[:2].copy() for nid, n in self._nodes.items()}
        pacer_cfg = pacer or PacerConfig(min_batch=self.hop_batch, max_batch=self.hop_batch)
        max_batch = pacer_cfg.max_batch
        if max_batch is None:
            max_batch = max(8 * self.hop_batch, pacer_cfg.min_batch)
        if ring_capacity is None:
            # Cover the widest batch: a fully widened catch-up step must
            # fit without overwriting unread samples.
            ring_capacity = 2 * (cfg.frame_length + max_batch * cfg.hop_length)
        fcfg = fusion_config or FusionConfig()
        self.taps: dict[str, SampleTap] | None = None
        tap_capacity = 0
        if tap_window_s is not None:
            self.taps = {}
            tap_capacity = mlat_tap_capacity(
                cfg.fs,
                frame_length=cfg.frame_length,
                hop_length=cfg.hop_length,
                hop_batch=max_batch,  # taps must survive a fully widened step
                mlat_block=fcfg.mlat_block,
                window_s=tap_window_s,
            )
        self._shared_rings = self.workers > 0
        self._rings: dict[str, RingBuffer] = {}
        self._ingest: dict[str, NodeIngest] = {}
        for node in scheduler.nodes:
            source = sources[node.node_id]
            if source.n_channels != node.array.n_mics:
                raise ValueError(
                    f"source for {node.node_id!r} has {source.n_channels} channels, "
                    f"node has {node.array.n_mics} mics"
                )
            if source.fs != cfg.fs:
                raise ValueError(
                    f"source fs {source.fs} does not match pipeline fs {cfg.fs}"
                )
            ring: RingBuffer
            if self._shared_rings:
                ring = SharedRingBuffer(node.array.n_mics, ring_capacity)
            else:
                ring = RingBuffer(node.array.n_mics, ring_capacity)
            self._rings[node.node_id] = ring
            tap = None
            if self.taps is not None:
                # Taps live main-process-side (fusion reads them there), so
                # they stay heap-backed even when the rings are shared.
                tap = SampleTap(node.array.n_mics, tap_capacity)
                self.taps[node.node_id] = tap
            self._ingest[node.node_id] = NodeIngest(
                source, cfg.frame_length, cfg.hop_length, ring, tap=tap
            )
        # One runner per shard: the kernel-side state a worker owns.
        self._runners = [
            _ShardRunner(
                shard,
                scheduler.pipelines,
                self._rings,
                cfg.frame_length,
                cfg.hop_length,
            )
            for shard in scheduler.shards
        ]
        self._pacers = [
            Pacer(
                cfg.frame_period_s,
                hop_batch=self.hop_batch,
                config=pacer_cfg,
                capacity=capacity,
                clock=clock,
                sleep=sleep,
            )
            for _ in scheduler.shards
        ]
        self._capacity = capacity
        if capacity is not None:
            capacity.acquire(len(scheduler.shards))
        self._t = [0.0 for _ in scheduler.shards]
        # Main-side mirror of every node's result stream (runners report
        # rows back each step; fusion and `done` read this copy).
        self._results: dict[str, list[FrameResult]] = {nid: [] for nid in self._nodes}
        # Per-frame (delivery_ms, ingest_ms, kernel_ms) for budget assembly.
        self._frame_cost: dict[str, list[tuple[float, float, float]]] = {
            nid: [] for nid in self._nodes
        }
        self.fusion = FusionEngine(
            scheduler.nodes,
            fcfg,
            cfg.frame_period_s,
            recordings=recordings,
            fs=cfg.fs if (recordings is not None or self.taps is not None) else None,
            hop_length=cfg.hop_length,
            c=SPEED_OF_SOUND,
            taps=self.taps,
        )
        self.updates: list[TrackUpdate] = []
        self.stage_budgets: list[StageBudget] = []
        self.hop_monitor = LatencyMonitor(cfg.frame_period_s)
        self._node_monitors = {nid: LatencyMonitor(cfg.frame_period_s) for nid in self._nodes}
        self._wall = 0.0
        self._fused_upto = 0
        self._n_steps = 0
        self._closed = False
        self._pending: tuple[float, list[float]] | None = None
        self._pool: ShardWorkerPool | None = None
        self._owns_pool = pool is None and self.workers > 0
        if self._owns_pool:
            # Private pool, statically pinned: on an empty pool register's
            # least-loaded placement is round-robin over the workers.  Held
            # before registering so close() shuts it down if that fails.
            pool = self._pool = ShardWorkerPool(self.workers, steal=False)
        if pool is not None:
            # Ship each runner over the pipe (pipelines pickle once, rings
            # re-attach by segment name) so the pool's workers can serve
            # this session, alongside others on a shared pool.  A shared
            # pool is held only once registered: a refused join must not
            # release another session of the same id on close().
            pool.register(self.session_id, dict(enumerate(self._runners)))
            self._pool = pool

    # ------------------------------------------------------------------ API

    @property
    def node_results(self) -> dict[str, list[FrameResult]]:
        """Per-node result streams accumulated so far (shard-major order)."""
        return {nid: self._results[nid] for nid in self.node_order}

    @property
    def done(self) -> bool:
        """Whether every source is exhausted, drained and fully fused."""
        if not all(self._node_done(nid) for nid in self._nodes):
            return False
        return self._fused_upto >= self._last_frame() + 1

    def step(self) -> FleetStepResult:
        """Advance every shard by its pacer's hop batch and fuse the frontier.

        Equivalent to :meth:`step_begin` + :meth:`step_end`; a supervisor
        multiplexing several sessions calls the two halves itself so every
        session's workers compute concurrently.
        """
        self.step_begin()
        return self.step_end()

    def step_begin(self) -> None:
        """Deliver this step's audio and dispatch the kernel commands.

        Advances every shard's stream clock, pulls the now-delivered chunks
        into the rings, and — when the session runs on a pool — enqueues
        the step commands and *returns without waiting*, so the caller can
        ``step_begin`` other sessions while the workers compute.  Complete
        the step with :meth:`step_end`.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if self._pending is not None:
            raise RuntimeError("a step is already in flight (call step_end)")
        cfg = self.scheduler.config
        t0 = time.perf_counter()
        ingest_wall: list[float] = []
        for si, shard in enumerate(self.scheduler.shards):
            self._t[si] += self._pacers[si].batch * cfg.frame_period_s
            self._pacers[si].wait(self._t[si])
            t_ing = time.perf_counter()
            for nid in shard:
                ing = self._ingest[nid]
                ing.pull(None if ing.exhausted else self._t[si])
            ingest_wall.append(time.perf_counter() - t_ing)
        if self._pool is not None:
            self._pool.step_send(self.session_id)
        self._pending = (t0, ingest_wall)

    def step_end(self) -> FleetStepResult:
        """Collect the in-flight step's replies, fuse, and emit updates.

        Replies merge in shard-index order.  Raises
        :class:`~repro.stream.pool.WorkerCrashed` when a worker owning one
        of this session's shards died; the caller (on a shared pool, the
        supervisor) may call :meth:`~repro.stream.pool.ShardWorkerPool.
        recover` and retry — the step stays pending until a collect
        succeeds.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if self._pending is None:
            raise RuntimeError("no step in flight (call step_begin)")
        cfg = self.scheduler.config
        t0, ingest_wall = self._pending
        if self._pool is not None:
            replies = self._pool.step_collect(self.session_id)
        else:
            replies = {si: runner.step() for si, runner in enumerate(self._runners)}
        self._pending = None
        new_results: dict[str, list[FrameResult]] = {}
        hops_advanced = 0
        for si in range(len(self.scheduler.shards)):
            rep = replies[si]
            shard_hops = max((len(out) for out in rep.results.values()), default=0)
            hops_advanced = max(hops_advanced, shard_hops)
            total_frames = sum(len(out) for out in rep.results.values())
            ingest_ms = ingest_wall[si] / total_frames * 1e3 if total_frames else 0.0
            kernel_ms = rep.kernel_s / total_frames * 1e3 if total_frames else 0.0
            for nid in rep.nids:
                out = rep.results[nid]
                base = len(self._results[nid])
                for k in range(len(out)):
                    # Stream-clock wait from capture-complete to this pop.
                    f = base + k
                    t_cap = (f * cfg.hop_length + cfg.frame_length) / cfg.fs
                    delivery_ms = max(0.0, self._t[si] - t_cap) * 1e3
                    self._frame_cost[nid].append((delivery_ms, ingest_ms, kernel_ms))
                self._results[nid].extend(out)
                new_results[nid] = out
                # Per-hop attributed share of the shard's wall time.
                self._node_monitors[nid].record(
                    (ingest_wall[si] + rep.kernel_s) / total_frames
                )
            # Backpressure: judge the shard's step cost against the hops it
            # actually advanced; the pacer widens/shrinks its batch.
            self._pacers[si].observe(ingest_wall[si] + rep.kernel_s, shard_hops)
        fused_before = self._fused_upto
        t_fuse = time.perf_counter()
        updates = self._fuse_frontier()
        fusion_s = time.perf_counter() - t_fuse
        updates = self._attach_budgets(updates, fusion_s, self._fused_upto - fused_before)
        self.updates.extend(updates)
        step_wall = time.perf_counter() - t0
        self._wall += step_wall
        if hops_advanced:
            # The corridor clock advanced `hops_advanced` hops in step_wall:
            # per-hop fleet latency vs the hop deadline (Sec. II).
            self.hop_monitor.record(step_wall / hops_advanced)
        self._n_steps += 1
        return FleetStepResult(
            new_results=new_results,
            updates=updates,
            fused_upto=self._fused_upto,
            done=self.done,
        )

    def run(self) -> FleetStreamResult:
        """Step until every source is drained; closes workers when done."""
        try:
            while not self.done:
                self.step()
            return self.finalize()
        finally:
            self.close()

    def finalize(self) -> FleetStreamResult:
        """Summarize the session (callable mid-run for a snapshot)."""
        cfg = self.scheduler.config
        node_stats = {}
        for nid in self.node_order:
            monitor = self._node_monitors[nid]
            if monitor.n_ticks == 0:
                # No frame completed yet (mid-run snapshot while the ring is
                # still filling): report zeros without polluting the monitor.
                latency = LatencyStats(
                    mean_s=0.0, p95_s=0.0, max_s=0.0, deadline_s=monitor.deadline_s
                )
            else:
                latency = monitor.stats()
            node_stats[nid] = NodeRunStats(
                node_id=nid,
                n_frames=len(self._results[nid]),
                n_detections=sum(r.detected for r in self._results[nid]),
                latency=latency,
            )
        # Whole-session budget: total wall vs the longest capture ingested.
        deadline = max(
            (ing.ring.total_pushed / cfg.fs for ing in self._ingest.values()),
            default=cfg.frame_period_s,
        )
        fleet_monitor = LatencyMonitor(max(deadline, 1e-9))
        fleet_monitor.record(self._wall)
        if self.hop_monitor.n_ticks == 0:
            hop_latency = LatencyStats(
                mean_s=0.0, p95_s=0.0, max_s=0.0, deadline_s=self.hop_monitor.deadline_s
            )
        else:
            hop_latency = self.hop_monitor.stats()
        # Nominal end-to-end budget: one hop batch of delivery delay plus
        # one hop of processing.
        d2u_deadline = (self.hop_batch + 1) * cfg.frame_period_s
        if self.stage_budgets:
            vals = np.asarray([b.detect_to_update_ms for b in self.stage_budgets]) / 1e3
            detect_to_update = LatencyStats(
                mean_s=float(vals.mean()),
                p95_s=float(np.percentile(vals, 95)),
                max_s=float(vals.max()),
                deadline_s=d2u_deadline,
            )
        else:
            detect_to_update = LatencyStats(
                mean_s=0.0, p95_s=0.0, max_s=0.0, deadline_s=d2u_deadline
            )
        if self._pool is not None:
            sched = self._pool.session_stats(self.session_id)
        else:
            sched = {
                "n_steals": 0,
                "n_migrations": 0,
                "queue_depth_p95": 0.0,
                "n_slab_replies": 0,
                "n_pipe_fallbacks": 0,
            }
        tap_misses = (
            {nid: tap.n_misses for nid, tap in self.taps.items()}
            if self.taps is not None
            else {}
        )
        return FleetStreamResult(
            node_results=self.node_results,
            node_stats=node_stats,
            fleet_latency=fleet_monitor.stats(),
            shards=[list(s) for s in self.scheduler.shards],
            tracks=self.fusion.tracks,
            updates=list(self.updates),
            hop_latency=hop_latency,
            ingest={nid: ing.stats for nid, ing in self._ingest.items()},
            n_steps=self._n_steps,
            workers=self.workers,
            hop_batch=self.hop_batch,
            pacer_stats={si: p.stats() for si, p in enumerate(self._pacers)},
            stage_budgets=tuple(self.stage_budgets),
            detect_to_update=detect_to_update,
            tap_misses=tap_misses,
            **sched,
        )

    def close(self) -> None:
        """Leave/shut the pool and release shared-memory rings (idempotent).

        A private pool (``workers=N``) is shut down outright; a shared pool
        (``pool=``) only has this session's runners released — the pool and
        its other sessions keep running.
        """
        if self._closed:
            return
        self._closed = True
        self._pending = None
        if self._pool is not None:
            try:
                if self._owns_pool:
                    self._pool.close()
                else:
                    self._pool.release(self.session_id)
            except (WorkerCrashed, RuntimeError):  # pragma: no cover - dying pool
                pass
            self._pool = None
        if self._capacity is not None:
            self._capacity.release(len(self.scheduler.shards))
            self._capacity = None
        if self._shared_rings:
            for ring in self._rings.values():
                try:
                    ring.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "FleetStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------- internals

    def _node_done(self, nid: str) -> bool:
        ing = self._ingest[nid]
        return ing.exhausted and ing.ring.available < self.scheduler.config.frame_length

    def _last_frame(self) -> int:
        return max((len(r) for r in self._results.values()), default=0) - 1

    def _fuse_frontier(self) -> list[TrackUpdate]:
        """Fuse every frame all still-active nodes have completed.

        Fusion runs in the main process over the merged result streams, in
        shard-major node order, so association decisions cannot depend on
        worker count.
        """
        active_counts = [
            len(self._results[nid]) for nid in self._nodes if not self._node_done(nid)
        ]
        if active_counts:
            frontier = min(active_counts)
        else:
            frontier = self._last_frame() + 1  # ragged tail: fuse to the end
        cfg = self.fusion.config
        updates: list[TrackUpdate] = []
        for frame in range(self._fused_upto, frontier):
            detections = []
            for nid in self.node_order:
                results = self._results[nid]
                if frame >= len(results):
                    continue  # shorter capture: node ended before this frame
                det = detection_from_result(
                    results[frame],
                    self._nodes[nid],
                    config=cfg,
                    origin=self._origins[nid],
                )
                if det is not None:
                    detections.append(det)
            updates.extend(self.fusion.step(frame, detections))
        self._fused_upto = max(self._fused_upto, frontier)
        return updates

    def _attach_budgets(
        self, updates: list[TrackUpdate], fusion_s: float, n_fused: int
    ) -> list[TrackUpdate]:
        """Stamp each new update with its detect-to-update stage breakdown.

        Delivery/ingest/kernel are the max over the nodes contributing that
        frame (the update waited for the slowest node); fusion is the
        frontier pass attributed per fused frame; emit is measured here.
        """
        if not updates:
            return updates
        cfg = self.scheduler.config
        capture_ms = cfg.capture_latency_s * 1e3
        fusion_ms = fusion_s / max(1, n_fused) * 1e3
        t_emit = time.perf_counter()
        out: list[TrackUpdate] = []
        for u in updates:
            delivery = ingest = kernel = 0.0
            for nid in self.node_order:
                costs = self._frame_cost[nid]
                if u.frame_index < len(costs):
                    d, i, k = costs[u.frame_index]
                    delivery = max(delivery, d)
                    ingest = max(ingest, i)
                    kernel = max(kernel, k)
            budget = StageBudget(
                capture_ms=capture_ms,
                delivery_ms=delivery,
                ingest_ms=ingest,
                kernel_ms=kernel,
                fusion_ms=fusion_ms,
                emit_ms=(time.perf_counter() - t_emit) * 1e3,
            )
            self.stage_budgets.append(budget)
            out.append(replace(u, budget=budget))
        return out
