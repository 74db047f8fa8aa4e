"""Chunk ingest for one array node: source → ring → hop frames.

:class:`NodeIngest` is the delivery side of every live session.  A chunk
source feeds a fixed-capacity :class:`~repro.stream.ring.RingBuffer`, and
the session driver — :class:`repro.fleet.FleetStream`, for a corridor of
arrays or a single array run as a one-node corridor — pops completed hop
frames out of the ring and runs them through the shared
:class:`~repro.core.hop.HopKernel`.  Ingest only changes *when* hops reach
the kernel, never *how*, so the result stream matches
:meth:`~repro.core.batch.process_signal_batched` over the same audio while
memory stays O(frame) per node.

Ingest accounting follows the real-time contract of the paper's Sec. II:
late chunks (delivered after their capture deadline), dropped chunks
(sequence-number gaps, zero-filled to keep the hop clock aligned) and ring
overruns are counted per node and surfaced in :class:`IngestStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stream.ring import RingBuffer
from repro.stream.source import ChunkSource
from repro.stream.tap import SampleTap

__all__ = ["IngestStats", "NodeIngest"]


@dataclass(frozen=True)
class IngestStats:
    """Delivery-side accounting of one node's chunk feed.

    Attributes
    ----------
    n_chunks:
        Chunks delivered and ingested.
    n_dropped_chunks:
        Chunks the driver lost (sequence gaps); their samples were
        zero-filled so the hop clock stayed aligned.
    n_late_chunks:
        Delivered chunks whose delivery latency exceeded the tolerance.
    dropped_samples:
        Samples overwritten by ring overruns (consumer fell behind).
    """

    n_chunks: int
    n_dropped_chunks: int
    n_late_chunks: int
    dropped_samples: int


class NodeIngest:
    """Chunk-to-frame ingestion for one node: source → ring → hop blocks.

    Parameters
    ----------
    source:
        The node's chunk feed.
    frame_length, hop_length:
        Analysis-frame geometry, samples.
    ring:
        The ring to ingest into, owned by the session driver: a
        :class:`~repro.stream.ring.SharedRingBuffer` when shard workers pop
        the frames out of shared pages, a heap ring in-process.  Its
        capacity bounds how far delivery may run ahead of the consumer.
    late_tolerance_s:
        Delivery latency above which a chunk counts as late; defaults to
        one hop period at the source rate.
    tap:
        Optional :class:`~repro.stream.tap.SampleTap` mirroring every
        ingested sample (including drop zero-fill, so absolute indices track
        the nominal capture clock).  This is the live-stream audio source
        for streamed multilateration: fusion reads detection windows out of
        the tap instead of a pre-rendered full recording.
    """

    def __init__(
        self,
        source: ChunkSource,
        frame_length: int,
        hop_length: int,
        ring: RingBuffer,
        *,
        late_tolerance_s: float | None = None,
        tap: SampleTap | None = None,
    ) -> None:
        self.source = source
        self.frame_length = int(frame_length)
        self.hop_length = int(hop_length)
        if ring.n_channels != source.n_channels:
            raise ValueError(
                f"ring has {ring.n_channels} channels, source has {source.n_channels}"
            )
        self.ring = ring
        if tap is not None and tap.n_channels != source.n_channels:
            raise ValueError(
                f"tap has {tap.n_channels} channels, source has {source.n_channels}"
            )
        self.tap = tap
        if late_tolerance_s is None:
            late_tolerance_s = self.hop_length / source.fs
        self.late_tolerance_s = float(late_tolerance_s)
        self._pending = None  # one-chunk lookahead for time-gated pulls
        self._exhausted = False
        self._next_seq = 0
        self._chunk_samples: int | None = None
        self.n_chunks = 0
        self.n_dropped_chunks = 0
        self.n_late_chunks = 0

    @property
    def exhausted(self) -> bool:
        """Whether the source ended and the lookahead is empty."""
        return self._exhausted and self._pending is None

    @property
    def stats(self) -> IngestStats:
        """Current delivery accounting."""
        return IngestStats(
            n_chunks=self.n_chunks,
            n_dropped_chunks=self.n_dropped_chunks,
            n_late_chunks=self.n_late_chunks,
            dropped_samples=self.ring.dropped_samples,
        )

    def pull(self, until_s: float | None = None) -> int:
        """Ingest every chunk *delivered* by ``until_s`` (all remaining when
        ``None``); returns the number of chunks ingested.

        Delivery is gated on arrival, not capture: a jittered chunk whose
        ``arrival_s`` lies past the engine time stays pending, stalling its
        frames to later steps exactly as a slow driver would.  Sequence gaps
        are zero-filled — a dropped chunk must not slip the hop grid of
        everything after it — and counted; delivery latency beyond the
        tolerance marks a chunk late.
        """
        ingested = 0
        while True:
            if self._pending is None:
                if self._exhausted:
                    break
                self._pending = self.source.next_chunk()
                if self._pending is None:
                    self._exhausted = True
                    break
            chunk = self._pending
            if until_s is not None and max(chunk.t, chunk.arrival_s) > until_s:
                break  # not yet delivered at this engine time
            self._pending = None
            if self._chunk_samples is None:
                self._chunk_samples = getattr(
                    self.source, "chunk_samples", chunk.data.shape[1]
                )
            if chunk.seq > self._next_seq:
                gap = chunk.seq - self._next_seq
                self.n_dropped_chunks += gap
                fill = np.zeros((self.ring.n_channels, gap * self._chunk_samples))
                self.ring.push(fill)
                if self.tap is not None:
                    self.tap.extend(fill)
            self._next_seq = chunk.seq + 1
            if chunk.arrival_s - chunk.t > self.late_tolerance_s:
                self.n_late_chunks += 1
            self.ring.push(chunk.data)
            if self.tap is not None:
                self.tap.extend(chunk.data)
            self.n_chunks += 1
            ingested += 1
        return ingested

    def pop_frames(self, max_frames: int | None = None) -> np.ndarray:
        """Completed hop frames, ``(T, n_channels, frame_length)``."""
        return self.ring.pop_frames(
            self.frame_length, self.hop_length, max_frames=max_frames
        )
