"""Real-time ingest runtime: chunks in, per-hop perception out.

The paper's headline requirement is "real-time low-latency operation"; the
offline engines of :mod:`repro.core` consume *complete* recordings.  This
package closes that gap with a hop-clocked runtime over the same shared
:class:`~repro.core.hop.HopKernel`:

- :mod:`repro.stream.ring` — fixed-capacity multichannel
  :class:`RingBuffer` (O(frame) memory, overflow accounting) and its
  :class:`SharedRingBuffer` twin over ``multiprocessing.shared_memory``
  (same semantics, pages visible across processes);
- :mod:`repro.stream.source` — :class:`Chunk` / :class:`ChunkSource`
  producer interface and the :class:`RecordingChunkSource` replay feed
  (with simulated drops and delivery jitter);
- :mod:`repro.stream.engine` — :class:`NodeIngest` (source → ring → hop
  blocks with late/dropped-chunk accounting), the ingest layer under every
  live session;
- :mod:`repro.stream.pacer` — the adaptive hop-batch governor
  (:class:`Pacer`): overruns widen a shard's batch, headroom shrinks it,
  optional monotonic-clock pacing replays at capture speed; a
  :class:`SharedCapacity` handle scales budgets by a shared pool's
  oversubscription;
- :mod:`repro.stream.budget` — the :class:`StageBudget` detect-to-update
  latency decomposition stamped on every fused update;
- :mod:`repro.stream.pool` — the :class:`ShardWorkerPool` of forked
  workers serving shard runners of *many* sessions (register/step/
  release/recover protocol; worker death surfaces as
  :class:`WorkerCrashed`), and :func:`parallel_supported`, which says
  whether this platform can fork workers over shared memory;
- :mod:`repro.stream.slab` — :class:`SharedResultSlab`, the per-worker
  seqlock'd shared-memory reply slots that carry each shard's
  :class:`HopReply` back to the main process with zero pickling.

The one live session driver built on these pieces,
:class:`repro.fleet.FleetStream`, lives in :mod:`repro.fleet.scheduler`;
this package does not import :mod:`repro.fleet`.  A single array streams
as a one-node corridor::

    FleetScheduler([CorridorNode("n0", MicrophoneArray(mics))], cfg).stream(
        {"n0": source}, hop_batch=4
    ).run()

**Work stealing and shard migration.**  The pool does not pin shards to
the worker that registered them: each worker has a deque of hop-step work
items, and a worker that drains its own deque *steals* a registered shard
from the deepest queue.  The stolen shard is dropped on the loser,
re-registered on the thief and restored from its per-step ``state_dict()``
checkpoint — exactly the machinery :meth:`ShardWorkerPool.recover` uses
after a worker death, so fused tracks are bit-identical whether a shard
ran its whole session on one worker or migrated a dozen times, and a
crash *mid-migration* resolves through the same recover/retry path as any
other :class:`WorkerCrashed`.  One skewed corridor can no longer stall
its neighbours while other workers idle (``steal=False`` restores static
pinning, which every private ``FleetStream(workers=N)`` pool uses).  Pool
pressure (queue depth + steal rate) feeds :class:`SharedCapacity`, which
scales every paced session's ``min_batch`` city-wide under sustained
backlog.

Execution tiers of the fleet stack:

==========  ===========================================================
offline     :meth:`repro.fleet.FleetScheduler.run` — whole recordings,
            one ragged batch per shard, optionally on a thread pool
            (``use_threads=True``).
live        :class:`repro.fleet.FleetStream` (from
            :meth:`~repro.fleet.FleetScheduler.stream`) — one driver for
            a corridor or a single array (a one-node corridor), at
            ``workers=0..N``: 0 runs every shard's kernel pass in the
            main process; N forks shard workers fed through
            shared-memory rings, so the per-hop Python cost
            parallelizes too, at the price of a fork plus one pipe
            round-trip per step.
supervisor  :class:`repro.city.CitySupervisor` — many concurrent
            corridor sessions multiplexed onto one
            :class:`ShardWorkerPool`, sessions joining and leaving
            mid-run, per-session pacing judged against the shared
            capacity, city-wide health rollups on top.
==========  ===========================================================

All tiers drive the same :class:`~repro.core.hop.HopKernel` and produce
bit-identical per-node results and fused tracks — at every worker count,
and for every session of a shared-pool city run vs the same corridor
standalone.
"""

from repro.stream.engine import IngestStats, NodeIngest
from repro.stream.ring import RingBuffer, SharedRingBuffer
from repro.stream.source import Chunk, ChunkSource, RecordingChunkSource
from repro.stream.budget import (
    STAGES,
    StageBudget,
    format_stage_summary,
    percentile_ms,
    summarize_budgets,
)
from repro.stream.pacer import Pacer, PacerConfig, PacerStats, SharedCapacity
from repro.stream.slab import HopReply, SharedResultSlab, StringInterner
from repro.stream.pool import ShardWorkerPool, WorkerCrashed, parallel_supported
from repro.stream.tap import SampleTap, mlat_tap_capacity

__all__ = [
    "Chunk",
    "ChunkSource",
    "HopReply",
    "IngestStats",
    "NodeIngest",
    "Pacer",
    "PacerConfig",
    "PacerStats",
    "RecordingChunkSource",
    "RingBuffer",
    "STAGES",
    "SampleTap",
    "SharedCapacity",
    "SharedResultSlab",
    "SharedRingBuffer",
    "ShardWorkerPool",
    "StageBudget",
    "StringInterner",
    "WorkerCrashed",
    "format_stage_summary",
    "parallel_supported",
    "mlat_tap_capacity",
    "percentile_ms",
    "summarize_budgets",
]
