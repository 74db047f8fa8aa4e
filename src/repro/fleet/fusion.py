"""Cross-node track fusion: corridor-level vehicle tracks in road coordinates.

Each node's pipeline emits a :class:`~repro.core.pipeline.FrameResult`
stream — per-frame labels, confidences and a *bearing* (tracked azimuth in
the node's local frame).  One node can never observe range; a corridor can.
This module associates per-node detections across time and class, and fuses
them into fleet-level tracks the same way multi-detector networks combine
independent sensors into one global event picture:

1. detections are filtered by the per-class fusion floors of
   :func:`repro.sed.events.fusion_threshold` and converted to global
   bearing rays from their node positions;
2. rays are gated against existing tracks by bearing residual and
   assigned greedy-nearest; each fleet track runs a constant-velocity
   Kalman filter in road (x, y) coordinates;
3. a track seen by two or more nodes in the same frame gets a *position*
   fix — wide-baseline TDOA :func:`~repro.ssl.multilateration.multilaterate`
   across the node pair when raw audio is available (and the solve
   residual is sane), otherwise least-squares bearing triangulation.  Raw
   audio comes from either full per-node ``recordings`` (offline replay)
   or rolling per-node :class:`~repro.stream.tap.SampleTap` windows
   populated during live ingest — the streamed path reads the same sample
   slice the offline path would, so fixes agree bit-for-bit whenever the
   tap window still covers them;
4. a track seen by a single node takes a linearized (EKF) bearing-only
   update, so vehicles covered by one node survive with growing range
   uncertainty and re-converge when a second node picks them up.

Tracks coast through detection gaps and re-associate afterwards; collinear
or parallel-ray geometries degrade gracefully to bearing-only updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.acoustics.geometry import SPEED_OF_SOUND
from repro.core.pipeline import FrameResult
from repro.fleet.corridor import CorridorNode
from repro.sed.events import fusion_threshold, is_emergency
from repro.ssl.multilateration import localize_position

if TYPE_CHECKING:  # imported lazily to keep fleet importable without stream
    from repro.stream.budget import StageBudget
    from repro.stream.tap import SampleTap

__all__ = [
    "FusionConfig",
    "NodeDetection",
    "FusedTrack",
    "TrackUpdate",
    "FusionEngine",
    "collect_detections",
    "detection_from_result",
    "triangulate_bearings",
    "bearing_only_positions",
    "fuse_fleet",
]


def _wrap(angle: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float((angle + np.pi) % (2 * np.pi) - np.pi)


@dataclass(frozen=True)
class FusionConfig:
    """Tuning of the cross-node fusion stage.

    Attributes
    ----------
    gate_deg:
        Bearing-residual association gate, degrees.
    assumed_range_m:
        Seed range for bearing-only track initialization.
    min_hits:
        Frames with at least one associated detection before a track is
        confirmed (reported as a vehicle).
    coast_frames:
        Consecutive missed frames a *confirmed* track survives before
        retiring.
    tentative_coast_frames:
        Miss budget of an unconfirmed track.  Node-level azimuth trackers
        swing between vehicles when dominance changes; the transient
        bearings spawn tentative tracks that must prove persistence within
        this much slack or die (M/N logic).
    min_triangulation_deg:
        Minimum angle between two bearing rays for a triangulated fix
        (parallel/collinear rays are rejected and fall back to
        bearing-only updates).
    bearing_noise_rad:
        1-sigma bearing measurement noise.
    position_noise_m:
        1-sigma per-axis noise of a triangulated/multilaterated fix.
    process_noise:
        Acceleration noise density of the road-coordinate Kalman filter,
        m/s^2.
    source_height_m:
        Assumed emitter height for the wide-baseline multilateration solve
        (planar node arrays cannot observe z).
    mlat_block:
        Samples per node pulled around a detection for multilateration.
    mlat_max_residual_s:
        RMS TDOA residual above which a multilateration fix is rejected
        (falls back to bearing triangulation).
    class_thresholds:
        Optional per-class confidence floors overriding
        :data:`repro.sed.events.FUSION_CONFIDENCE_THRESHOLDS`.
    """

    gate_deg: float = 20.0
    assumed_range_m: float = 30.0
    min_hits: int = 4
    coast_frames: int = 12
    tentative_coast_frames: int = 1
    min_triangulation_deg: float = 8.0
    bearing_noise_rad: float = float(np.radians(6.0))
    position_noise_m: float = 2.0
    process_noise: float = 4.0
    source_height_m: float = 0.8
    mlat_block: int = 2048
    mlat_max_residual_s: float = 1e-3
    class_thresholds: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.gate_deg <= 0 or self.min_triangulation_deg <= 0:
            raise ValueError("angular gates must be positive")
        if self.assumed_range_m <= 0 or self.position_noise_m <= 0:
            raise ValueError("ranges and noises must be positive")
        if self.min_hits < 1 or self.coast_frames < 0 or self.tentative_coast_frames < 0:
            raise ValueError("min_hits must be >= 1 and coast budgets >= 0")
        if self.bearing_noise_rad <= 0 or self.process_noise <= 0:
            raise ValueError("noise parameters must be positive")
        if self.mlat_block < 256:
            raise ValueError("mlat_block must be >= 256 samples")

    def threshold(self, label: str) -> float:
        """Fusion confidence floor for a class."""
        if self.class_thresholds is not None and label in self.class_thresholds:
            return float(self.class_thresholds[label])
        return fusion_threshold(label)


@dataclass(frozen=True)
class NodeDetection:
    """One node's detection in one frame, as a global bearing ray.

    Attributes
    ----------
    node_id:
        Emitting node.
    frame_index:
        Hop counter (shared across nodes — the fleet is sample-synchronous).
    label, confidence:
        Detection outcome.
    bearing:
        Global bearing of the ray, radians (node azimuth + node heading).
    origin:
        Ray origin: the node position in the road plane, shape ``(2,)``.
    """

    node_id: str
    frame_index: int
    label: str
    confidence: float
    bearing: float
    origin: np.ndarray


def detection_from_result(
    result: FrameResult,
    node: CorridorNode,
    *,
    config: FusionConfig,
    origin: np.ndarray | None = None,
) -> NodeDetection | None:
    """One node's frame result as a global bearing ray, or ``None``.

    Applies the fusion gates — emergency class, finite tracked azimuth,
    per-class confidence floor — and converts the node-local azimuth to a
    corridor bearing.  The single shared filter behind both the offline
    :func:`collect_detections` pass and the per-hop streaming fusion of
    :class:`repro.fleet.scheduler.FleetStream`, so the two runtimes cannot
    disagree about what counts as a detection.
    """
    if not (result.detected and is_emergency(result.label)):
        return None
    if not np.isfinite(result.azimuth) or result.confidence < config.threshold(result.label):
        return None
    return NodeDetection(
        node_id=node.node_id,
        frame_index=result.frame_index,
        label=result.label,
        confidence=float(result.confidence),
        bearing=_wrap(result.azimuth + node.heading),
        origin=origin if origin is not None else node.position[:2].copy(),
    )


def collect_detections(
    node_results: Mapping[str, Sequence[FrameResult]],
    nodes: Sequence[CorridorNode],
    *,
    config: FusionConfig | None = None,
) -> dict[int, list[NodeDetection]]:
    """Group per-node detections by frame, applying per-class fusion floors."""
    config = config or FusionConfig()
    by_node = {n.node_id: n for n in nodes}
    out: dict[int, list[NodeDetection]] = {}
    for node_id, results in node_results.items():
        node = by_node.get(node_id)
        if node is None:
            raise ValueError(f"results for unknown node {node_id!r}")
        origin = node.position[:2].copy()
        for r in results:
            det = detection_from_result(r, node, config=config, origin=origin)
            if det is not None:
                out.setdefault(r.frame_index, []).append(det)
    return out


def triangulate_bearings(
    origins: np.ndarray, bearings: np.ndarray, *, min_angle_deg: float = 1.0
) -> np.ndarray | None:
    """Least-squares intersection of two or more bearing rays in the plane.

    Minimizes the sum of squared perpendicular distances to every ray.
    Returns ``None`` when the rays are (near) parallel — e.g. collinear
    nodes staring down their own baseline — or when the solution lies
    behind any ray.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 2)
    bearings = np.asarray(bearings, dtype=np.float64).ravel()
    if origins.shape[0] != bearings.size or bearings.size < 2:
        raise ValueError("need matching origins and >= 2 bearings")
    u = np.stack([np.cos(bearings), np.sin(bearings)], axis=1)
    spread = np.abs(np.sin(bearings[:, None] - bearings[None, :]))
    if spread.max() < np.sin(np.radians(min_angle_deg)):
        return None
    # Perpendicular projector of each ray: A_i = I - u_i u_i^T.
    a = np.eye(2)[None] - u[:, :, None] * u[:, None, :]
    lhs = a.sum(axis=0)
    rhs = np.einsum("nij,nj->i", a, origins)
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return None
    ranges = np.einsum("nj,nj->n", x[None, :] - origins, u)
    if np.any(ranges <= 0):
        return None
    return x


class _RoadKalman:
    """Constant-velocity Kalman filter over road coordinates [x, y, vx, vy]."""

    def __init__(self, x0: np.ndarray, p0: np.ndarray, *, q: float, dt: float) -> None:
        self.x = np.asarray(x0, dtype=np.float64).copy()
        self.p = np.asarray(p0, dtype=np.float64).copy()
        self.dt = float(dt)
        self.f = np.eye(4)
        self.f[0, 2] = self.f[1, 3] = self.dt
        # White-acceleration process noise (discrete constant-velocity model).
        dt2, dt3, dt4 = dt**2, dt**3, dt**4
        blk = np.array([[dt4 / 4, dt3 / 2], [dt3 / 2, dt2]]) * q**2
        self.q = np.zeros((4, 4))
        self.q[np.ix_([0, 2], [0, 2])] = blk
        self.q[np.ix_([1, 3], [1, 3])] = blk

    def predict(self) -> None:
        self.x = self.f @ self.x
        self.p = self.f @ self.p @ self.f.T + self.q

    def update_xy(self, z: np.ndarray, sigma_m: float) -> None:
        # H selects (x, y); the innovation covariance is a plain 2x2 block.
        innovation = np.asarray(z, dtype=np.float64) - self.x[:2]
        s = self.p[:2, :2] + np.eye(2) * sigma_m**2
        k = self.p[:, :2] @ np.linalg.inv(s)
        self.x = self.x + k @ innovation
        i_kh = np.eye(4)
        i_kh[:, :2] -= k
        self.p = i_kh @ self.p

    def update_bearing(self, origin: np.ndarray, bearing: float, sigma_rad: float) -> None:
        dx = self.x[0] - origin[0]
        dy = self.x[1] - origin[1]
        r2 = dx * dx + dy * dy
        if r2 < 1e-6:
            return  # predicted position on top of the node: bearing uninformative
        h = np.array([-dy / r2, dx / r2, 0.0, 0.0])
        innovation = _wrap(bearing - np.arctan2(dy, dx))
        s = float(h @ self.p @ h) + sigma_rad**2
        k = (self.p @ h) / s
        self.x = self.x + k * innovation
        self.p = (np.eye(4) - np.outer(k, h)) @ self.p


@dataclass
class FusedTrack:
    """One corridor-level vehicle track.

    Attributes
    ----------
    track_id:
        Stable id (creation order).
    label:
        Event class the track is fusing.
    history:
        Per-frame ``(frame_index, x, y)`` states, including coasted frames.
    nodes:
        Every node that ever contributed a detection.
    hits, misses:
        Frames with/without an associated detection (misses are
        consecutive, reset on every hit).
    n_triangulated, n_multilaterated:
        Position fixes applied, by kind.
    confirmed:
        Whether the track reached ``min_hits``.
    """

    track_id: int
    label: str
    kf: _RoadKalman
    history: list[tuple[int, float, float]] = field(default_factory=list)
    nodes: set[str] = field(default_factory=set)
    hits: int = 0
    misses: int = 0
    n_triangulated: int = 0
    n_multilaterated: int = 0
    confirmed: bool = False
    confirmed_frame: int | None = None

    @property
    def bearing_only(self) -> bool:
        """True while no position fix (triangulated or TDOA) was applied."""
        return self.n_triangulated + self.n_multilaterated == 0

    @property
    def speed_mps(self) -> float:
        """Current speed estimate from the track-filter velocity, m/s."""
        return float(np.hypot(self.kf.x[2], self.kf.x[3]))

    def frames(self) -> np.ndarray:
        """Frame indices of the history, shape ``(n,)``."""
        return np.array([h[0] for h in self.history], dtype=np.int64)

    def positions(self) -> np.ndarray:
        """Road-plane positions of the history, shape ``(n, 2)``."""
        return np.array([[h[1], h[2]] for h in self.history], dtype=np.float64)


def bearing_only_positions(
    results: Sequence[FrameResult],
    node: CorridorNode,
    *,
    road_line_y: float | None = None,
    assumed_range_m: float = 30.0,
    config: FusionConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-effort position estimates from a *single* node's bearings.

    The single-node baseline the fused tracks are judged against: each
    detection's bearing ray is intersected with the known road line
    ``y = road_line_y`` (or, when that is unavailable or the ray runs
    parallel to the road, a point at ``assumed_range_m``).  Returns
    ``(frame_indices, positions)`` with positions of shape ``(n, 2)``.
    """
    config = config or FusionConfig()
    origin = node.position[:2]
    frames: list[int] = []
    points: list[np.ndarray] = []
    for r in results:
        if not (r.detected and is_emergency(r.label)) or not np.isfinite(r.azimuth):
            continue
        if r.confidence < config.threshold(r.label):
            continue
        bearing = _wrap(r.azimuth + node.heading)
        u = np.array([np.cos(bearing), np.sin(bearing)])
        t = None
        if road_line_y is not None and abs(u[1]) > 1e-3:
            t = (road_line_y - origin[1]) / u[1]
        if t is None or t <= 0:
            t = assumed_range_m
        frames.append(r.frame_index)
        points.append(origin + t * u)
    if not frames:
        return np.empty(0, dtype=np.int64), np.empty((0, 2))
    return np.asarray(frames, dtype=np.int64), np.stack(points)


@dataclass(frozen=True)
class TrackUpdate:
    """One live fusion event, emitted by :meth:`FusionEngine.step`.

    The streaming runtime's operator feed: every per-hop fusion step reports
    what happened to each touched track, so a corridor dashboard can follow
    vehicles in real time instead of waiting for the end-of-run report.

    Attributes
    ----------
    kind:
        ``spawned`` (new tentative track), ``confirmed`` (crossed the M/N
        confirmation gate this frame), ``updated`` (confirmed track took a
        detection), ``coasted`` (confirmed track predicted through a miss)
        or ``retired`` (miss budget exhausted).
    frame_index:
        Fusion frame the event belongs to.
    track_id, label:
        The track.
    x, y:
        Road-plane state after the step, metres.
    speed_mps:
        Track-filter speed estimate.
    n_nodes:
        Distinct nodes that have contributed so far.
    budget:
        End-to-end :class:`~repro.stream.budget.StageBudget` of this update
        (capture → delivery → ingest → kernel → fusion → emit), attached by
        the live :class:`repro.fleet.scheduler.FleetStream`; ``None`` in
        the offline :func:`fuse_fleet` pass, which does not instrument
        stages.
    """

    kind: str
    frame_index: int
    track_id: int
    label: str
    x: float
    y: float
    speed_mps: float
    n_nodes: int
    budget: "StageBudget | None" = None


class FusionEngine:
    """Frame-by-frame cross-node fusion engine.

    The one implementation behind both runtimes: the offline
    :func:`fuse_fleet` pass replays every frame through :meth:`step`, and
    the streaming :class:`repro.fleet.scheduler.FleetStream` calls
    :meth:`step` per hop as node results arrive — so live corridor tracks
    are *identical* (same association decisions, same filter states) to the
    offline ones on the same detections.
    """

    def __init__(
        self,
        nodes: Sequence[CorridorNode],
        config: FusionConfig,
        frame_period: float,
        *,
        recordings: Mapping[str, np.ndarray] | None,
        fs: float | None,
        hop_length: int,
        c: float,
        taps: "Mapping[str, SampleTap] | None" = None,
    ) -> None:
        self.nodes = {n.node_id: n for n in nodes}
        self.config = config
        self.frame_period = float(frame_period)
        self.recordings = recordings
        self.taps = taps
        self.fs = fs
        self.hop_length = int(hop_length)
        self.c = float(c)
        self.active: list[FusedTrack] = []
        self.retired: list[FusedTrack] = []
        self._next_id = 0

    # -------------------------------------------------------------- stepping

    @property
    def tracks(self) -> list[FusedTrack]:
        """Every track ever spawned (retired + active), in creation order."""
        return self.retired + self.active

    def _event(self, kind: str, frame: int, track: FusedTrack) -> TrackUpdate:
        return TrackUpdate(
            kind=kind,
            frame_index=frame,
            track_id=track.track_id,
            label=track.label,
            x=float(track.kf.x[0]),
            y=float(track.kf.x[1]),
            speed_mps=track.speed_mps,
            n_nodes=len(track.nodes),
        )

    def step(self, frame: int, detections: list[NodeDetection]) -> list[TrackUpdate]:
        """Advance the fusion state by one frame of detections.

        Predict → associate → update/spawn → coast/retire; returns the live
        :class:`TrackUpdate` events of this frame (one per touched track).
        """
        cfg = self.config
        events: list[TrackUpdate] = []
        for track in self.active:
            track.kf.predict()
        assigned, unassigned = self._associate(detections)
        updated: set[int] = set()
        for track in self.active:
            dets = assigned.get(track.track_id, [])
            if dets:
                was_confirmed = track.confirmed
                self._apply(track, frame, dets)
                updated.add(track.track_id)
                kind = "confirmed" if track.confirmed and not was_confirmed else "updated"
                events.append(self._event(kind, frame, track))
        leftovers = [d for d in detections if id(d) in unassigned]
        for track in self._spawn(frame, leftovers):
            updated.add(track.track_id)
            events.append(
                self._event("confirmed" if track.confirmed else "spawned", frame, track)
            )
        survivors: list[FusedTrack] = []
        for track in self.active:
            if track.track_id not in updated and track.history:
                track.misses += 1
                if track.confirmed:
                    # Coast: record the predicted state so gaps stay covered.
                    track.history.append((frame, float(track.kf.x[0]), float(track.kf.x[1])))
                    events.append(self._event("coasted", frame, track))
            budget = cfg.coast_frames if track.confirmed else cfg.tentative_coast_frames
            if track.misses > budget:
                self.retired.append(track)
                events.append(self._event("retired", frame, track))
            else:
                survivors.append(track)
        self.active = survivors
        return events

    def _associate(
        self, detections: list[NodeDetection]
    ) -> tuple[dict[int, list[NodeDetection]], set[int]]:
        cfg = self.config
        gate = np.radians(cfg.gate_deg)
        candidates: list[tuple[float, FusedTrack, NodeDetection]] = []
        for track in self.active:
            for det in detections:
                if det.label != track.label:
                    continue
                dx = track.kf.x[0] - det.origin[0]
                dy = track.kf.x[1] - det.origin[1]
                if dx * dx + dy * dy < 1e-6:
                    continue
                residual = abs(_wrap(det.bearing - np.arctan2(dy, dx)))
                if residual <= gate:
                    candidates.append((residual, track, det))
        # Confirmed tracks pick first so tentative phantoms cannot steal
        # detections from an established vehicle.
        candidates.sort(key=lambda c: (not c[1].confirmed, c[0]))
        assigned: dict[int, list[NodeDetection]] = {}
        taken: set[int] = set()
        used_node: set[tuple[int, str]] = set()
        for residual, track, det in candidates:
            if id(det) in taken or (track.track_id, det.node_id) in used_node:
                continue
            assigned.setdefault(track.track_id, []).append(det)
            taken.add(id(det))
            used_node.add((track.track_id, det.node_id))
        return assigned, {id(d) for d in detections} - taken

    def _apply(self, track: FusedTrack, frame: int, dets: list[NodeDetection]) -> None:
        cfg = self.config
        fix = None
        if len(dets) >= 2:
            fix, kind = self._position_fix(frame, dets)
            if fix is not None:
                track.kf.update_xy(fix, cfg.position_noise_m)
                if kind == "mlat":
                    track.n_multilaterated += 1
                else:
                    track.n_triangulated += 1
        if fix is None:
            for det in dets:
                track.kf.update_bearing(det.origin, det.bearing, cfg.bearing_noise_rad)
        track.hits += 1
        track.misses = 0
        track.nodes.update(d.node_id for d in dets)
        if not track.confirmed and track.hits >= cfg.min_hits:
            track.confirmed = True
            track.confirmed_frame = frame
        track.history.append((frame, float(track.kf.x[0]), float(track.kf.x[1])))

    def _position_fix(
        self, frame: int, dets: list[NodeDetection]
    ) -> tuple[np.ndarray | None, str]:
        cfg = self.config
        if (self.recordings is not None or self.taps is not None) and self.fs is not None:
            fix = self._multilaterate_pair(frame, dets[0], dets[1])
            if fix is not None:
                return fix, "mlat"
        origins = np.stack([d.origin for d in dets])
        bearings = np.array([d.bearing for d in dets])
        xy = triangulate_bearings(origins, bearings, min_angle_deg=cfg.min_triangulation_deg)
        return xy, "triangulated"

    def _mlat_window(self, a_id: str, b_id: str, start: int, stop: int) -> np.ndarray | None:
        """The ``[start, stop)`` audio of both nodes, stacked, or ``None``.

        Both sources apply the same end clamp against the shared sample
        horizon — the recording length offline, the ingested-sample count
        ``min(tap.n_written)`` live — so a tap whose window still covers the
        clamped slice returns *bit-identical* audio to the offline read.
        Mid-stream (``stop`` past the horizon) the clamp slides the window
        back to the newest available block, and an evicted ``start`` returns
        ``None``: better no fix than a fix on the wrong samples.
        """
        block = stop - start
        if self.recordings is not None:
            rec_a = self.recordings.get(a_id)
            rec_b = self.recordings.get(b_id)
            if rec_a is None or rec_b is None:
                return None
            n = min(rec_a.shape[1], rec_b.shape[1])
            if stop > n:
                start, stop = max(0, n - block), n
            if stop - start < 256:
                return None
            return np.vstack([rec_a[:, start:stop], rec_b[:, start:stop]])
        tap_a = self.taps.get(a_id) if self.taps is not None else None
        tap_b = self.taps.get(b_id) if self.taps is not None else None
        if tap_a is None or tap_b is None:
            return None
        n = min(tap_a.n_written, tap_b.n_written)
        if stop > n:
            start, stop = max(0, n - block), n
        if stop - start < 256:
            return None
        win_a = tap_a.read(start, stop)
        win_b = tap_b.read(start, stop)
        if win_a is None or win_b is None:
            return None
        return np.vstack([win_a, win_b])

    def _multilaterate_pair(
        self, frame: int, a: NodeDetection, b: NodeDetection
    ) -> np.ndarray | None:
        """Wide-baseline TDOA fix across a node pair; None when implausible."""
        cfg = self.config
        start = frame * self.hop_length
        stop = start + cfg.mlat_block
        frames = self._mlat_window(a.node_id, b.node_id, start, stop)
        if frames is None:
            return None
        positions = np.vstack(
            [self.nodes[a.node_id].array.positions, self.nodes[b.node_id].array.positions]
        )
        try:
            result = localize_position(
                frames, positions, self.fs, c=self.c, z_fixed=cfg.source_height_m
            )
        except (ValueError, np.linalg.LinAlgError):
            return None
        if result.residual_s > cfg.mlat_max_residual_s:
            return None
        xy = result.position[:2]
        baseline = np.linalg.norm(a.origin - b.origin)
        if np.linalg.norm(xy - (a.origin + b.origin) / 2) > 10.0 * max(baseline, 1.0):
            return None  # wildly out-of-corridor solve
        return xy

    def _spawn(self, frame: int, dets: list[NodeDetection]) -> list[FusedTrack]:
        cfg = self.config
        spawned: list[FusedTrack] = []
        by_label: dict[str, list[NodeDetection]] = {}
        for det in dets:
            by_label.setdefault(det.label, []).append(det)
        for label, group in by_label.items():
            used: set[int] = set()
            # Pairwise triangulation first: two fresh rays from distinct
            # nodes that intersect ahead of both seed a positioned track.
            for i in range(len(group)):
                if id(group[i]) in used:
                    continue
                for j in range(i + 1, len(group)):
                    if id(group[j]) in used or group[i].node_id == group[j].node_id:
                        continue
                    xy = triangulate_bearings(
                        np.stack([group[i].origin, group[j].origin]),
                        np.array([group[i].bearing, group[j].bearing]),
                        min_angle_deg=cfg.min_triangulation_deg,
                    )
                    if xy is None:
                        continue
                    p0 = np.diag(
                        [cfg.position_noise_m**2 * 4, cfg.position_noise_m**2 * 4, 100.0, 100.0]
                    )
                    track = self._new_track(label, xy, p0)
                    track.n_triangulated += 1
                    self._seed(track, frame, [group[i], group[j]])
                    spawned.append(track)
                    used.update((id(group[i]), id(group[j])))
                    break
            # Remaining singles become bearing-only tracks on the ray at the
            # assumed range, with covariance stretched along the ray.
            for det in group:
                if id(det) in used:
                    continue
                u = np.array([np.cos(det.bearing), np.sin(det.bearing)])
                xy = det.origin + cfg.assumed_range_m * u
                along = (cfg.assumed_range_m * 0.5) ** 2
                across = (cfg.assumed_range_m * cfg.bearing_noise_rad) ** 2 * 4
                rot = np.array([[u[0], -u[1]], [u[1], u[0]]])
                pos_cov = rot @ np.diag([along, across]) @ rot.T
                p0 = np.zeros((4, 4))
                p0[:2, :2] = pos_cov
                p0[2, 2] = p0[3, 3] = 100.0
                track = self._new_track(label, xy, p0)
                self._seed(track, frame, [det])
                spawned.append(track)
        return spawned

    def _new_track(self, label: str, xy: np.ndarray, p0: np.ndarray) -> FusedTrack:
        kf = _RoadKalman(
            np.array([xy[0], xy[1], 0.0, 0.0]),
            p0,
            q=self.config.process_noise,
            dt=self.frame_period,
        )
        track = FusedTrack(track_id=self._next_id, label=label, kf=kf)
        self._next_id += 1
        self.active.append(track)
        return track

    def _seed(self, track: FusedTrack, frame: int, dets: list[NodeDetection]) -> None:
        track.hits = 1
        track.nodes.update(d.node_id for d in dets)
        if track.hits >= self.config.min_hits:
            track.confirmed = True
            track.confirmed_frame = frame
        track.history.append((frame, float(track.kf.x[0]), float(track.kf.x[1])))


def fuse_fleet(
    node_results: Mapping[str, Sequence[FrameResult]],
    nodes: Sequence[CorridorNode],
    *,
    frame_period: float,
    config: FusionConfig | None = None,
    recordings: Mapping[str, np.ndarray] | None = None,
    fs: float | None = None,
    hop_length: int = 256,
    c: float = SPEED_OF_SOUND,
) -> list[FusedTrack]:
    """Fuse per-node result streams into corridor-level vehicle tracks.

    Parameters
    ----------
    node_results:
        ``node_id -> FrameResult`` stream, as produced by
        :meth:`repro.fleet.scheduler.FleetScheduler.run`.
    nodes:
        The corridor geometry the results came from.
    frame_period:
        Seconds per frame hop (``PipelineConfig.frame_period_s``); the
        Kalman velocities are in m/s.
    recordings, fs, hop_length:
        Pass the raw per-node recordings (and their sample geometry) to
        enable the wide-baseline multilateration upgrade for frames where
        two nodes detect; omit to fuse from bearings alone.

    Returns
    -------
    Every track ever spawned (confirmed or not), in creation order; filter
    on :attr:`FusedTrack.confirmed` for reporting.
    """
    if frame_period <= 0:
        raise ValueError("frame_period must be positive")
    if recordings is not None and fs is None:
        raise ValueError("fs is required when recordings are given")
    config = config or FusionConfig()
    detections = collect_detections(node_results, nodes, config=config)
    fuser = FusionEngine(
        nodes,
        config,
        frame_period,
        recordings=recordings,
        fs=fs,
        hop_length=hop_length,
        c=c,
    )
    last_frame = -1
    for results in node_results.values():
        for r in results:
            last_frame = max(last_frame, r.frame_index)
    for frame in range(last_frame + 1):
        fuser.step(frame, detections.get(frame, []))
    return fuser.tracks
