"""Corridor scene synthesis: one traffic scene heard by K roadside nodes.

A deployment of the paper's roadside monitoring system is not one array but
a *corridor* of array nodes along the road.  This module renders a single
shared physical scene — several vehicles moving on
:mod:`repro.acoustics.trajectory` paths — to every node with the existing
:class:`~repro.acoustics.simulator.RoadAcousticsSimulator`, so all nodes
hear the same events with mutually consistent geometry (the property the
cross-node fusion in :mod:`repro.fleet.fusion` relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.air import Atmosphere, shared_air_filter_bank
from repro.acoustics.asphalt import RoadSurface, asphalt_reflection_fir
from repro.acoustics.delay_line import StreamingDelayReader
from repro.acoustics.environment import MicrophoneArray, Scene
from repro.acoustics.simulator import AirAbsorptionStage, RoadAcousticsSimulator
from repro.acoustics.trajectory import Trajectory
from repro.dsp.block_fir import BlockFir
from repro.arrays.topologies import uniform_circular_array
from repro.sed.events import EVENT_CLASSES
from repro.stream.source import Chunk, ChunkSource, RecordingChunkSource

__all__ = [
    "Vehicle",
    "CorridorNode",
    "CorridorScene",
    "CorridorRecording",
    "CorridorBlockRenderer",
    "CorridorStream",
    "IncrementalCorridorSource",
    "place_corridor_nodes",
    "synthesize_corridor",
]


@dataclass(frozen=True)
class Vehicle:
    """One sound-emitting vehicle in the corridor.

    Attributes
    ----------
    label:
        Ground-truth event class from :data:`repro.sed.events.EVENT_CLASSES`.
    trajectory:
        Source motion in corridor (global) coordinates.
    signal:
        Source waveform at the synthesis sampling rate.
    gain:
        Linear emission gain applied to ``signal``.
    """

    label: str
    trajectory: Trajectory
    signal: np.ndarray
    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.label not in EVENT_CLASSES:
            raise ValueError(f"unknown class {self.label!r}; expected one of {EVENT_CLASSES}")
        sig = np.asarray(self.signal, dtype=np.float64)
        if sig.ndim != 1 or sig.size == 0:
            raise ValueError("signal must be a non-empty 1-D array")
        if self.gain <= 0:
            raise ValueError("gain must be positive")
        object.__setattr__(self, "signal", sig)


@dataclass(frozen=True)
class CorridorNode:
    """One roadside array node.

    Attributes
    ----------
    node_id:
        Unique name used to key recordings and per-node results.
    array:
        Microphone positions in corridor (global) coordinates.
    heading:
        Yaw of the node's local frame about +z, radians.  A node pipeline
        measures azimuth in its local frame; the global bearing of a
        detection is ``azimuth + heading``.
    """

    node_id: str
    array: MicrophoneArray
    heading: float = 0.0

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValueError("node_id must be non-empty")

    @property
    def position(self) -> np.ndarray:
        """Node reference point: the array centroid, metres."""
        return self.array.centroid

    @property
    def relative_positions(self) -> np.ndarray:
        """Mic positions in the node's local (centroid-centred) frame.

        The local frame is de-rotated by ``heading``, so nodes that share a
        mounting design have *identical* relative geometry regardless of
        placement — which lets :class:`repro.fleet.scheduler.FleetScheduler`
        share one set of steering tensors across the whole fleet.
        """
        rel = self.array.positions - self.array.centroid
        if self.heading:
            c, s = np.cos(-self.heading), np.sin(-self.heading)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            rel = rel @ rot.T
        return rel


def place_corridor_nodes(
    n_nodes: int,
    spacing: float,
    *,
    n_mics: int = 4,
    radius: float = 0.1,
    height: float = 1.0,
    roadside_y: float = 0.0,
    layout: np.ndarray | None = None,
) -> list[CorridorNode]:
    """Place ``n_nodes`` identical array nodes along the road (the x axis).

    Node centres sit at ``x = (k - (n_nodes - 1) / 2) * spacing`` on the
    line ``y = roadside_y``, so the corridor is centred on the origin.
    Every node reuses the same local mic ``layout`` (default: an ``n_mics``
    UCA of ``radius`` metres at ``height``), which keeps their relative
    geometries identical.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if layout is None:
        layout = uniform_circular_array(n_mics, radius, center=(0.0, 0.0, height))
    layout = np.asarray(layout, dtype=np.float64)
    nodes = []
    for k in range(n_nodes):
        center = np.array([(k - (n_nodes - 1) / 2) * spacing, roadside_y, 0.0])
        nodes.append(CorridorNode(f"node{k}", MicrophoneArray(layout + center)))
    return nodes


@dataclass
class CorridorScene:
    """A shared traffic scene observed by a fleet of nodes."""

    vehicles: list[Vehicle]
    nodes: list[CorridorNode]
    surface: RoadSurface | str | None = None
    atmosphere: Atmosphere = field(default_factory=Atmosphere)

    def __post_init__(self) -> None:
        if not self.vehicles:
            raise ValueError("scene needs at least one vehicle")
        if not self.nodes:
            raise ValueError("scene needs at least one node")
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")


@dataclass(frozen=True)
class CorridorRecording:
    """Per-node multichannel recordings of one corridor scene.

    Attributes
    ----------
    fs:
        Sampling rate, Hz.
    recordings:
        ``node_id -> (n_mics, n_samples)``; lengths may differ per node
        when capture windows were truncated.
    scene:
        The scene that produced the recordings (carries the ground truth).
    """

    fs: float
    recordings: dict[str, np.ndarray]
    scene: CorridorScene

    def duration_s(self, node_id: str) -> float:
        """Capture length of one node, seconds."""
        return self.recordings[node_id].shape[1] / self.fs

    def vehicle_positions(self, t: np.ndarray) -> np.ndarray:
        """Ground-truth positions, shape ``(n_vehicles, len(t), 3)``."""
        t = np.asarray(t, dtype=np.float64)
        return np.stack([v.trajectory.positions(t) for v in self.scene.vehicles])


def synthesize_corridor(
    scene: CorridorScene,
    fs: float,
    *,
    interpolation: str = "linear",
    order: int = 3,
    air_absorption: bool = False,
    capture_samples: dict[str, int] | None = None,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> CorridorRecording:
    """Render every vehicle of ``scene`` to every node.

    Each (node, vehicle) pair runs one :class:`RoadAcousticsSimulator` with
    the *global* vehicle trajectory and the node's *global* array, so the
    propagation geometry (delays, Doppler, spreading) is consistent across
    the whole corridor.  Vehicle signals of unequal length are zero-padded
    to the longest (a vehicle that falls silent simply stops emitting).

    Parameters
    ----------
    capture_samples:
        Optional per-node truncation ``node_id -> n_samples`` (nodes with
        shorter capture windows); the ragged batch path of
        :meth:`repro.core.batch.BlockPipeline.process_batch` handles the
        resulting unequal lengths.
    noise_std:
        Per-mic white sensor-noise standard deviation.
    """
    if fs <= 0:
        raise ValueError("fs must be positive")
    n_samples = max(v.signal.size for v in scene.vehicles)
    gen = rng if rng is not None else np.random.default_rng(0)
    recordings: dict[str, np.ndarray] = {}
    for node in scene.nodes:
        out = np.zeros((node.array.n_mics, n_samples))
        for vehicle in scene.vehicles:
            sub = Scene(
                vehicle.trajectory,
                node.array,
                surface=scene.surface,
                atmosphere=scene.atmosphere,
            )
            sim = RoadAcousticsSimulator(
                sub,
                fs,
                interpolation=interpolation,
                order=order,
                air_absorption=air_absorption,
            )
            sig = vehicle.signal
            if sig.size < n_samples:
                sig = np.pad(sig, (0, n_samples - sig.size))
            out += vehicle.gain * sim.simulate(sig)
        if noise_std > 0:
            # One generator across nodes: sensor noise must be independent
            # per node, or it injects spurious cross-node correlation.
            out += noise_std * gen.standard_normal(out.shape)
        stop = n_samples
        if capture_samples and node.node_id in capture_samples:
            stop = int(capture_samples[node.node_id])
            if not 0 < stop <= n_samples:
                raise ValueError("capture_samples must lie in (0, n_samples]")
        recordings[node.node_id] = out[:, :stop]
    return CorridorRecording(fs=float(fs), recordings=recordings, scene=scene)


class _SampleFifo:
    """FIFO of ``(..., m)`` arrays popped in arbitrary sample counts."""

    def __init__(self) -> None:
        self._parts: list[np.ndarray] = []
        self._n = 0

    @property
    def n(self) -> int:
        return self._n

    def push(self, x: np.ndarray) -> None:
        if x.shape[-1]:
            self._parts.append(x)
            self._n += x.shape[-1]

    def pop(self, m: int) -> np.ndarray:
        if m > self._n:
            raise ValueError(f"pop of {m} from fifo holding {self._n}")
        out: list[np.ndarray] = []
        taken = 0
        while taken < m:
            part = self._parts[0]
            need = m - taken
            if part.shape[-1] <= need:
                out.append(part)
                taken += part.shape[-1]
                self._parts.pop(0)
            else:
                out.append(part[..., :need])
                self._parts[0] = part[..., need:]
                taken = m
        self._n -= m
        return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)


class _PathChain:
    """FIR stages of one propagation path, fed in raw-time slices.

    Mirrors the stage order of
    :meth:`~repro.acoustics.simulator.RoadAcousticsSimulator._render_path`
    (reflection :class:`~repro.dsp.block_fir.BlockFir`, then the
    distance-varying :class:`~repro.acoustics.simulator.AirAbsorptionStage`)
    with the *same* stateful classes — fed in slices here, whole-signal
    there, which by their block-boundary invariance yields bitwise identical
    output.  The per-sample path distances the air stage needs are buffered
    and consumed in lockstep with the (lagging) reflection-FIR output, so
    they stay aligned to the zero-phase output sample they describe.
    """

    def __init__(
        self,
        refl_fir: np.ndarray | None,
        air_bank,
        total: int,
    ) -> None:
        self._fir = BlockFir(refl_fir, zero_phase=True) if refl_fir is not None else None
        self._air = AirAbsorptionStage(air_bank, total) if air_bank is not None else None
        self._dfifo = _SampleFifo() if self._air is not None else None

    def push(self, x: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """Feed one raw slice (+ matching distances); return finalized samples."""
        y = self._fir.feed(x) if self._fir is not None else x
        if self._air is None:
            return y
        self._dfifo.push(distances)
        k = y.shape[-1]
        if k == 0:
            return y
        return self._air.feed(y, self._dfifo.pop(k))

    def finish(self) -> np.ndarray:
        """Flush both stages; total output equals total input."""
        parts: list[np.ndarray] = []
        if self._fir is not None:
            tail = self._fir.finish()
            if self._air is None:
                parts.append(tail)
            elif tail.shape[-1]:
                parts.append(self._air.feed(tail, self._dfifo.pop(tail.shape[-1])))
        if self._air is not None:
            parts.append(self._air.finish())
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


class _VehiclePaths:
    """Streaming state of one ``(node, vehicle)`` pair under full physics."""

    __slots__ = ("vehicle", "sub", "reader", "direct_chain", "refl_chain", "direct_fifo", "refl_fifo")

    def __init__(self, vehicle, sub, reader, direct_chain, refl_chain):
        self.vehicle = vehicle
        self.sub = sub
        self.reader = reader
        self.direct_chain = direct_chain
        self.refl_chain = refl_chain
        self.direct_fifo = _SampleFifo()
        self.refl_fifo = _SampleFifo() if refl_chain is not None else None


class CorridorBlockRenderer:
    """Render a corridor scene to its nodes in hop-sized slices, on demand.

    :func:`synthesize_corridor` pays the whole render cost up front, which
    makes a "live" session start late by the full scene duration's worth of
    simulation.  This renderer produces the **same samples, bit for bit**
    (asserted in ``tests/test_fleet_corridor_incremental.py``), but one block
    at a time: each ``(node, vehicle)`` pair holds a
    :class:`~repro.acoustics.delay_line.StreamingDelayReader` whose output
    cursor advances with the node's capture clock, so the k-th requested
    block costs only that block's delay-line gathers.

    The full physics set streams.  Surface reflections run through the same
    stateful :class:`~repro.dsp.block_fir.BlockFir` the offline simulator
    uses; distance-varying air absorption through the same
    :class:`~repro.acoustics.simulator.AirAbsorptionStage` (whose 50 %
    Hann overlap crossfades air-filter switches at distance-bin crossings).
    Both stages emit a sample only once no future input can change it, so a
    full-physics node lags its raw render cursor by up to one FIR step plus
    one air block — throughput is unchanged, only the first chunk waits.
    Per-path finalized samples are staged in FIFOs and combined (direct +
    reflected, summed over vehicles in scene order) exactly as the offline
    path sums whole arrays.

    Differences from the offline path, by construction:

    - A trajectory that dips below the road plane (``z <= 0``) raises when
      the offending block is rendered, not at session start.
    - Per-node sensor noise (``noise_std > 0``) is still pre-drawn whole at
      construction — in scene node order, the exact generator call pattern
      of :func:`synthesize_corridor` — so seeded incremental and offline
      renders match bit for bit.

    Blocks per node are strictly sequential (the delay readers carry
    cross-boundary interpolator state); there is no random access.
    """

    def __init__(
        self,
        scene: CorridorScene,
        fs: float,
        *,
        interpolation: str = "linear",
        order: int = 3,
        air_absorption: bool = False,
        capture_samples: dict[str, int] | None = None,
        noise_std: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if fs <= 0:
            raise ValueError("fs must be positive")
        self.scene = scene
        self.fs = float(fs)
        self.min_distance = 0.5  # RoadAcousticsSimulator default
        self.n_samples = max(v.signal.size for v in scene.vehicles)
        self._capture: dict[str, int] = {}
        for node in scene.nodes:
            stop = self.n_samples
            if capture_samples and node.node_id in capture_samples:
                stop = int(capture_samples[node.node_id])
                if not 0 < stop <= self.n_samples:
                    raise ValueError("capture_samples must lie in (0, n_samples]")
            self._capture[node.node_id] = stop
        gen = rng if rng is not None else np.random.default_rng(0)
        self._noise: dict[str, np.ndarray] = {}
        if noise_std > 0:
            for node in scene.nodes:
                self._noise[node.node_id] = noise_std * gen.standard_normal(
                    (node.array.n_mics, self.n_samples)
                )
        self._cursor = {node.node_id: 0 for node in scene.nodes}
        # Full physics (surface reflection and/or air absorption) streams
        # through stateful FIR stages; the default physics subset keeps the
        # lag-free direct path.
        self._full_physics = bool(air_absorption) or scene.surface is not None
        self._air = bool(air_absorption)
        self._refl_fir = (
            asphalt_reflection_fir(scene.surface, fs)
            if scene.surface is not None
            else None
        )
        air_bank = (
            shared_air_filter_bank(self.fs, scene.atmosphere) if self._air else None
        )
        # One streaming delay reader per (node, vehicle) propagation path.
        # The padded source signal is fed whole (it already exists in
        # memory); what streams is the per-block delay evaluation.
        self._paths: dict[str, list[tuple[Vehicle, Scene]]] = {}
        self._readers: dict[str, list[StreamingDelayReader]] = {}
        self._full: dict[str, list[_VehiclePaths]] = {}
        self._raw: dict[str, int] = {node.node_id: 0 for node in scene.nodes}
        self._out: dict[str, _SampleFifo] = {node.node_id: _SampleFifo() for node in scene.nodes}
        for node in scene.nodes:
            paths: list[tuple[Vehicle, Scene]] = []
            readers: list[StreamingDelayReader] = []
            full: list[_VehiclePaths] = []
            for vehicle in scene.vehicles:
                sub = Scene(
                    vehicle.trajectory,
                    node.array,
                    surface=scene.surface if self._full_physics else None,
                    atmosphere=scene.atmosphere,
                )
                reader = StreamingDelayReader(interpolation=interpolation, order=order)
                sig = vehicle.signal
                if sig.size < self.n_samples:
                    sig = np.pad(sig, (0, self.n_samples - sig.size))
                reader.feed(sig)
                reader.end()
                paths.append((vehicle, sub))
                readers.append(reader)
                if self._full_physics:
                    direct_chain = (
                        _PathChain(None, air_bank, self.n_samples) if self._air else None
                    )
                    refl_chain = (
                        _PathChain(self._refl_fir, air_bank, self.n_samples)
                        if self._refl_fir is not None
                        else None
                    )
                    full.append(_VehiclePaths(vehicle, sub, reader, direct_chain, refl_chain))
            self._paths[node.node_id] = paths
            self._readers[node.node_id] = readers
            self._full[node.node_id] = full

    def capture_samples_of(self, node_id: str) -> int:
        """Capture window of one node, samples."""
        return self._capture[node_id]

    def cursor(self, node_id: str) -> int:
        """Samples rendered so far for one node."""
        return self._cursor[node_id]

    def render_next(self, node_id: str, n: int) -> np.ndarray:
        """Render the next (up to) ``n`` samples of one node's capture.

        Returns ``(n_mics, m)`` with ``m = min(n, samples remaining)``; the
        final block of a capture window comes back short.  Raises once the
        window is exhausted.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        start = self._cursor[node_id]
        stop = min(start + n, self._capture[node_id])
        if stop <= start:
            raise ValueError(f"capture window of {node_id!r} is exhausted")
        if self._full_physics:
            need = stop - start
            fifo = self._out[node_id]
            while fifo.n < need and self._raw[node_id] < self.n_samples:
                self._advance_raw(node_id)
            out = fifo.pop(need)
            if node_id in self._noise:
                out = out + self._noise[node_id][:, start:stop]
            self._cursor[node_id] = stop
            return out
        t = np.arange(start, stop) / self.fs
        out: np.ndarray | None = None
        for (vehicle, sub), reader in zip(self._paths[node_id], self._readers[node_id]):
            src = sub.trajectory.positions(t)
            if np.any(src[:, 2] <= 0):
                raise ValueError("trajectory dips to or below the road plane (z <= 0)")
            mics = sub.array.positions
            d = np.linalg.norm(src[None, :, :] - mics[:, None, :], axis=2)
            block = reader.read(d / sub.speed_of_sound * self.fs)
            term = vehicle.gain * (block / np.maximum(d, self.min_distance))
            out = term if out is None else out + term
        assert out is not None  # scene has >= 1 vehicle
        if node_id in self._noise:
            out = out + self._noise[node_id][:, start:stop]
        self._cursor[node_id] = stop
        return out

    _RAW_CHUNK = 4096  # raw-time slice per advance; >= the air stage's hop

    def _advance_raw(self, node_id: str) -> None:
        """Push one raw-time slice through every path chain of a node.

        Renders delays/spreading for ``_RAW_CHUNK`` samples, feeds each
        path's FIR chain, and moves whatever every chain has finalized into
        the node's output FIFO (combined over paths and vehicles in the
        offline summation order).
        """
        start = self._raw[node_id]
        stop = min(start + self._RAW_CHUNK, self.n_samples)
        t = np.arange(start, stop) / self.fs
        paths = self._full[node_id]
        for p in paths:
            src = p.sub.trajectory.positions(t)
            if np.any(src[:, 2] <= 0):
                raise ValueError("trajectory dips to or below the road plane (z <= 0)")
            mics = p.sub.array.positions
            d1 = np.linalg.norm(src[None, :, :] - mics[:, None, :], axis=2)
            c = p.sub.speed_of_sound
            if p.refl_chain is not None:
                img = src.copy()
                img[:, 2] = -img[:, 2]
                d2 = np.linalg.norm(img[None, :, :] - mics[:, None, :], axis=2)
                # Direct and image path share one reader: a single stacked
                # gather over (2, n_mics, m) absolute-index delays.
                block = p.reader.read(np.stack([d1, d2]) / c * self.fs)
                raw_dir = block[0] / np.maximum(d1, self.min_distance)
                raw_ref = block[1] / np.maximum(d2, self.min_distance)
                p.refl_fifo.push(p.refl_chain.push(raw_ref, d2))
            else:
                block = p.reader.read(d1 / c * self.fs)
                raw_dir = block / np.maximum(d1, self.min_distance)
            if p.direct_chain is not None:
                p.direct_fifo.push(p.direct_chain.push(raw_dir, d1))
            else:
                p.direct_fifo.push(raw_dir)
        self._raw[node_id] = stop
        if stop >= self.n_samples:
            for p in paths:
                if p.direct_chain is not None:
                    p.direct_fifo.push(p.direct_chain.finish())
                if p.refl_chain is not None:
                    p.refl_fifo.push(p.refl_chain.finish())
        m = min(
            min(p.direct_fifo.n for p in paths),
            min((p.refl_fifo.n for p in paths if p.refl_fifo is not None), default=np.inf),
        )
        m = int(m)
        if m > 0:
            acc: np.ndarray | None = None
            for p in paths:
                term = p.direct_fifo.pop(m)
                if p.refl_fifo is not None:
                    term = term + p.refl_fifo.pop(m)
                term = p.vehicle.gain * term
                acc = term if acc is None else acc + term
            self._out[node_id].push(acc)


class IncrementalCorridorSource(ChunkSource):
    """Chunk source that renders its node's audio on demand, block by block.

    The incremental twin of :class:`~repro.stream.source.RecordingChunkSource`:
    identical chunk framing (sequence numbers, capture timestamps, short
    final chunk), identical driver-fault simulation (per-chunk drop draws,
    jittered but non-decreasing arrival times, in the same generator call
    order), but each chunk's samples come from
    :meth:`CorridorBlockRenderer.render_next` at the moment the chunk is
    pulled — no whole-scene render ever exists.  A dropped chunk is still
    rendered (the "driver" captured it and lost it), which also keeps the
    renderer's sequential cursor advancing.
    """

    def __init__(
        self,
        renderer: CorridorBlockRenderer,
        node_id: str,
        *,
        chunk_samples: int,
        drop_prob: float = 0.0,
        jitter_s: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if chunk_samples < 1:
            raise ValueError("chunk_samples must be >= 1")
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError("drop_prob must lie in [0, 1)")
        if jitter_s < 0.0:
            raise ValueError("jitter_s must be non-negative")
        self._renderer = renderer
        self._node_id = node_id
        self.fs = renderer.fs
        self.n_channels = next(
            node.array.n_mics for node in renderer.scene.nodes if node.node_id == node_id
        )
        self.chunk_samples = int(chunk_samples)
        self._n_samples = renderer.capture_samples_of(node_id)
        self._drop_prob = float(drop_prob)
        self._jitter_s = float(jitter_s)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._seq = 0
        self._last_arrival = 0.0

    @property
    def n_chunks_total(self) -> int:
        """Chunks the capture window slices into (including dropped ones)."""
        return -(-self._n_samples // self.chunk_samples)

    def next_chunk(self):
        """Render and deliver the next chunk; ``None`` once the window ends."""
        while self._renderer.cursor(self._node_id) < self._n_samples:
            data = self._renderer.render_next(self._node_id, self.chunk_samples)
            seq = self._seq
            self._seq += 1
            if self._drop_prob > 0.0 and self._rng.random() < self._drop_prob:
                continue  # the driver lost this one
            t = self._renderer.cursor(self._node_id) / self.fs
            arrival = t
            if self._jitter_s > 0.0:
                arrival += float(self._rng.uniform(0.0, self._jitter_s))
                arrival = max(arrival, self._last_arrival)
            self._last_arrival = arrival
            return Chunk(data=data, seq=seq, t=t, arrival_s=arrival)
        return None


class CorridorStream:
    """A corridor scene as a *live* feed: hop-sized slices per node.

    The bridge between the offline scene synthesis and the real-time ingest
    runtime: it exposes every node's capture as a
    :class:`~repro.stream.source.RecordingChunkSource` delivering the scene
    in hop-sized chunks (sequence-numbered, capture-timestamped), optionally
    with simulated driver faults — chunk drops and delivery jitter — so the
    engine's late/dropped accounting can be exercised end to end.

    By default the acoustic render is computed lazily in one pass on first
    use (cached whole); *delivery* is what streams.  With
    ``incremental=True`` the render itself streams too: each
    :meth:`sources` call builds a :class:`CorridorBlockRenderer` and
    per-node :class:`IncrementalCorridorSource` feeds that render each
    chunk's samples at pull time — bit-identical audio, but the session
    starts without paying the whole-scene render cost up front.  The full
    physics set streams, including surface reflections and distance-varying
    air absorption (stateful overlap-save FIR stages; see
    :class:`CorridorBlockRenderer`).  A hardware deployment replaces these
    sources with ADC-backed :class:`~repro.stream.source.ChunkSource`
    implementations and nothing above them changes.

    Parameters
    ----------
    scene:
        The corridor scene to render, or a pre-rendered
        :class:`CorridorRecording` to replay.
    fs:
        Synthesis sampling rate (ignored when a recording is given).
    chunk_samples:
        Samples per delivered chunk; defaults to one pipeline hop (256).
    drop_prob, jitter_s:
        Per-node driver-fault simulation, forwarded to every source.
    rng:
        Generator seeding both the render (sensor noise) and the fault
        simulation; per-node sub-generators keep faults independent.
    incremental:
        Render each chunk on demand instead of the whole scene up front.
        Requires a scene (not a pre-rendered recording).  With the same
        seed, the *first* :meth:`sources` call yields the same audio and
        fault draws as the non-incremental path; later calls match too
        unless ``noise_std > 0`` (the cached whole render draws its noise
        once, an incremental render re-draws per call).
    synth_kwargs:
        Extra keyword arguments for :func:`synthesize_corridor`.
    """

    def __init__(
        self,
        scene: CorridorScene | CorridorRecording,
        fs: float | None = None,
        *,
        chunk_samples: int = 256,
        drop_prob: float = 0.0,
        jitter_s: float = 0.0,
        rng: np.random.Generator | None = None,
        incremental: bool = False,
        **synth_kwargs,
    ) -> None:
        if chunk_samples < 1:
            raise ValueError("chunk_samples must be >= 1")
        if incremental and isinstance(scene, CorridorRecording):
            raise ValueError("incremental rendering needs a scene, not a recording")
        self.incremental = bool(incremental)
        if isinstance(scene, CorridorRecording):
            self._recording: CorridorRecording | None = scene
            self._scene = scene.scene
            self.fs = float(scene.fs)
        else:
            if fs is None or fs <= 0:
                raise ValueError("fs is required (and positive) when rendering a scene")
            self._recording = None
            self._scene = scene
            self.fs = float(fs)
        self.chunk_samples = int(chunk_samples)
        self.drop_prob = float(drop_prob)
        self.jitter_s = float(jitter_s)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._synth_kwargs = dict(synth_kwargs)

    @property
    def node_ids(self) -> list[str]:
        """Node ids of the corridor, in scene order."""
        return [n.node_id for n in self._scene.nodes]

    @property
    def recording(self) -> CorridorRecording:
        """The rendered corridor (computed once, on first access)."""
        if self._recording is None:
            self._recording = synthesize_corridor(
                self._scene, self.fs, rng=self._rng, **self._synth_kwargs
            )
        return self._recording

    def sources(self) -> dict:
        """Fresh per-node chunk sources over the rendered corridor.

        Each call returns independent sources (rewound to t=0), so one
        stream object can feed several sessions — e.g. a live run and an
        offline equivalence check over the same audio.

        In incremental mode each call builds a fresh
        :class:`CorridorBlockRenderer` shared by that call's sources, and
        chunks are rendered as they are pulled.  The stream RNG is consumed
        in the same order as the non-incremental path (render noise first,
        then one per-node fault seed in scene node order), so a seeded
        incremental session reproduces the recorded session's faults.
        """
        if self.incremental:
            renderer = CorridorBlockRenderer(
                self._scene, self.fs, rng=self._rng, **self._synth_kwargs
            )
            return {
                node_id: IncrementalCorridorSource(
                    renderer,
                    node_id,
                    chunk_samples=self.chunk_samples,
                    drop_prob=self.drop_prob,
                    jitter_s=self.jitter_s,
                    rng=np.random.default_rng(self._rng.integers(2**32)),
                )
                for node_id in self.node_ids
            }
        recording = self.recording
        return {
            node_id: RecordingChunkSource(
                signals,
                self.fs,
                chunk_samples=self.chunk_samples,
                drop_prob=self.drop_prob,
                jitter_s=self.jitter_s,
                rng=np.random.default_rng(self._rng.integers(2**32)),
            )
            for node_id, signals in recording.recordings.items()
        }
