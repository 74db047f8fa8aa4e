"""Corridor-level reporting: vehicle events, speeds, per-node health.

Turns the fused tracks of :mod:`repro.fleet.fusion` and the run statistics
of :mod:`repro.fleet.scheduler` into the operator-facing picture: when a
vehicle entered and left the corridor, how fast it was going (from the
track slope), and whether every node is healthy — detecting, alerting
(via the existing :class:`repro.core.alerts.AlertPolicy` hysteresis) and
meeting its real-time budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.alerts import AlertPolicy, OverrunPolicy
from repro.core.pipeline import FrameResult
from repro.core.realtime import LatencyStats
from repro.fleet.corridor import CorridorNode
from repro.fleet.fusion import FusedTrack, TrackUpdate, bearing_only_positions
from repro.fleet.scheduler import FleetRunResult, FleetStreamResult
from repro.stream.pacer import PacerStats

__all__ = [
    "CorridorEvent",
    "NodeHealth",
    "FleetReport",
    "fleet_report",
    "format_report",
    "format_track_update",
    "summarize_updates",
    "localization_scorecard",
    "track_rms_error",
]


@dataclass(frozen=True)
class CorridorEvent:
    """One corridor-level transition.

    Attributes
    ----------
    kind:
        ``vehicle_entered`` or ``vehicle_left``.
    track_id, label:
        The fused track behind the event.
    frame_index, t:
        When it happened (frames / seconds).
    position:
        Road-plane position at the transition, shape ``(2,)``.
    speed_mps:
        Track-slope speed estimate at the transition.
    """

    kind: str
    track_id: int
    label: str
    frame_index: int
    t: float
    position: np.ndarray
    speed_mps: float


@dataclass(frozen=True)
class NodeHealth:
    """Operational summary of one node over a run.

    Attributes
    ----------
    node_id:
        The node.
    n_frames, n_detections:
        Processed frames and fired detections.
    n_alerts:
        Debounced alerts raised by :class:`AlertPolicy` (frame-level
        dropouts do not count; see :mod:`repro.core.alerts`).
    latency:
        Attributed processing-time stats for the node.
    realtime:
        Whether the node's attributed processing met its capture budget.
    n_overruns:
        Paced sessions only: steps of the node's shard that blew their hop
        budget (raw count, before debouncing).
    n_overrun_alerts:
        Debounced overrun alerts from :class:`~repro.core.alerts.
        OverrunPolicy` — sustained misses, not single slow steps.
    peak_hop_batch:
        Widest effective hop batch the shard's pacer reached while
        catching up (0 when the session was not paced).
    n_tap_misses:
        Streamed-multilateration reads of this node's
        :class:`~repro.stream.tap.SampleTap` that returned ``None``
        because the window had been evicted — a sign the tap window is
        undersized for the fusion lag (0 when taps were not used).
    """

    node_id: str
    n_frames: int
    n_detections: int
    n_alerts: int
    latency: LatencyStats
    realtime: bool
    n_overruns: int = 0
    n_overrun_alerts: int = 0
    peak_hop_batch: int = 0
    n_tap_misses: int = 0

    @property
    def detection_rate(self) -> float:
        """Fraction of frames whose detector fired."""
        return self.n_detections / self.n_frames if self.n_frames else 0.0


@dataclass(frozen=True)
class FleetReport:
    """Corridor-level report of one fleet run."""

    events: list[CorridorEvent]
    tracks: list[FusedTrack]
    node_health: list[NodeHealth]
    frame_period: float

    @property
    def n_vehicles(self) -> int:
        """Confirmed vehicle tracks seen during the run."""
        return len(self.tracks)


def _track_speed(track: FusedTrack, frame_period: float) -> float:
    """Speed from the track slope: median frame-to-frame displacement rate."""
    pos = track.positions()
    frames = track.frames()
    if pos.shape[0] < 2:
        return track.speed_mps
    steps = np.diff(frames)
    good = steps > 0
    if not good.any():
        return track.speed_mps
    v = np.linalg.norm(np.diff(pos, axis=0), axis=1)[good] / (steps[good] * frame_period)
    return float(np.median(v))


def fleet_report(
    tracks: Sequence[FusedTrack],
    run: FleetRunResult | FleetStreamResult,
    *,
    frame_period: float,
    alert_policy_factory=AlertPolicy,
    pacer_stats: Mapping[str, PacerStats] | None = None,
    overrun_policy_factory=OverrunPolicy,
    tap_misses: Mapping[str, int] | None = None,
) -> FleetReport:
    """Build the corridor report from fused tracks and a fleet run.

    ``run`` is an offline :class:`FleetRunResult` or a finished live
    :class:`FleetStreamResult`; only its ``node_stats`` and
    ``node_results`` are read.  ``pacer_stats`` (``node_id ->
    PacerStats``, e.g. from :meth:`FleetStreamResult.node_pacer_stats`)
    folds a paced session's overrun/catch-up accounting into each node's
    health row: the raw overrun count, the *debounced* overrun alerts from
    :class:`~repro.core.alerts.OverrunPolicy`, and the widest hop batch the
    backpressure reached.  ``tap_misses`` (``node_id -> count``) folds in
    each node's evicted sample-tap reads the same way.
    """
    if frame_period <= 0:
        raise ValueError("frame_period must be positive")
    confirmed = [t for t in tracks if t.confirmed and t.history]
    events: list[CorridorEvent] = []
    for track in confirmed:
        speed = _track_speed(track, frame_period)
        first = track.confirmed_frame if track.confirmed_frame is not None else track.frames()[0]
        enter_idx = int(np.searchsorted(track.frames(), first))
        enter_idx = min(enter_idx, len(track.history) - 1)
        f_in, x_in, y_in = track.history[enter_idx]
        f_out, x_out, y_out = track.history[-1]
        events.append(
            CorridorEvent(
                "vehicle_entered",
                track.track_id,
                track.label,
                int(f_in),
                f_in * frame_period,
                np.array([x_in, y_in]),
                speed,
            )
        )
        events.append(
            CorridorEvent(
                "vehicle_left",
                track.track_id,
                track.label,
                int(f_out),
                f_out * frame_period,
                np.array([x_out, y_out]),
                speed,
            )
        )
    events.sort(key=lambda e: (e.frame_index, e.kind))

    health: list[NodeHealth] = []
    for node_id, stats in sorted(run.node_stats.items()):
        results = run.node_results[node_id]
        alerts = alert_policy_factory().process(list(results))
        n_alerts = sum(1 for a in alerts if a.kind == "raised")
        n_overruns = n_overrun_alerts = peak_hop_batch = 0
        if pacer_stats is not None and node_id in pacer_stats:
            ps = pacer_stats[node_id]
            n_overruns = ps.n_overruns
            peak_hop_batch = ps.max_batch_used
            transitions = overrun_policy_factory().process(ps.records)
            n_overrun_alerts = sum(1 for a in transitions if a.kind == "overrun")
        health.append(
            NodeHealth(
                node_id=node_id,
                n_frames=stats.n_frames,
                n_detections=stats.n_detections,
                n_alerts=n_alerts,
                latency=stats.latency,
                realtime=stats.latency.realtime,
                n_overruns=n_overruns,
                n_overrun_alerts=n_overrun_alerts,
                peak_hop_batch=peak_hop_batch,
                n_tap_misses=int(tap_misses.get(node_id, 0)) if tap_misses else 0,
            )
        )
    return FleetReport(
        events=events,
        tracks=confirmed,
        node_health=health,
        frame_period=frame_period,
    )


def track_rms_error(track: FusedTrack, truth_xy: np.ndarray) -> float:
    """RMS distance between a track's history and per-frame ground truth.

    ``truth_xy`` is ``(n_frames, 2)`` indexed by frame; history frames
    outside it are ignored.
    """
    truth_xy = np.asarray(truth_xy, dtype=np.float64)
    frames = track.frames()
    keep = frames < truth_xy.shape[0]
    if not keep.any():
        return float("nan")
    err = track.positions()[keep] - truth_xy[frames[keep]]
    return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))


def localization_scorecard(
    tracks: Sequence[FusedTrack],
    node_results: Mapping[str, Sequence[FrameResult]],
    nodes: Sequence[CorridorNode],
    truth_xy: np.ndarray,
    *,
    road_line_y: float | None = None,
) -> tuple[list[float], dict[str, float]]:
    """Score fused tracks against single-node bearing-only baselines.

    ``truth_xy`` is ``(n_vehicles, n_frames, 2)`` ground truth indexed by
    frame.  Returns ``(fused_rms, single_rms)``: per vehicle, the RMS error
    of its best-matching track (``nan`` when no track overlaps); per node,
    the RMS of the node's bearing-only estimates, each scored against
    whichever vehicle it lands closest to (a deliberately generous
    baseline).  Nodes with no qualifying detections are omitted.
    """
    truth_xy = np.asarray(truth_xy, dtype=np.float64)
    if truth_xy.ndim != 3 or truth_xy.shape[2] != 2:
        raise ValueError("truth_xy must be (n_vehicles, n_frames, 2)")
    fused_rms = []
    for v in range(truth_xy.shape[0]):
        errors = [track_rms_error(t, truth_xy[v]) for t in tracks]
        finite = [e for e in errors if np.isfinite(e)]
        fused_rms.append(min(finite) if finite else float("nan"))
    single_rms: dict[str, float] = {}
    for node in nodes:
        frames, pos = bearing_only_positions(
            node_results[node.node_id], node, road_line_y=road_line_y
        )
        keep = frames < truth_xy.shape[1]
        if not keep.any():
            continue
        frames, pos = frames[keep], pos[keep]
        per_frame = np.min(
            [np.sum((pos - truth_xy[v][frames]) ** 2, axis=1) for v in range(truth_xy.shape[0])],
            axis=0,
        )
        single_rms[node.node_id] = float(np.sqrt(per_frame.mean()))
    return fused_rms, single_rms


def format_track_update(update: TrackUpdate, *, frame_period: float) -> str:
    """Render one live fusion event as an operator log line.

    The streaming counterpart of :func:`format_report`: the corridor CLI
    prints these as :class:`repro.fleet.scheduler.FleetStream` steps emit
    them, instead of waiting for the end-of-run report.
    """
    return (
        f"[{update.frame_index * frame_period:7.2f} s] {update.kind:<9} "
        f"track {update.track_id} ({update.label}) "
        f"at ({update.x:+7.1f}, {update.y:+6.1f}) m, "
        f"{update.speed_mps * 3.6:5.1f} km/h, {update.n_nodes} node(s)"
    )


def summarize_updates(updates: Sequence[TrackUpdate]) -> dict[str, int]:
    """Event counts by kind over a live feed (missing kinds are zero)."""
    counts = {k: 0 for k in ("spawned", "confirmed", "updated", "coasted", "retired")}
    for u in updates:
        counts[u.kind] = counts.get(u.kind, 0) + 1
    return counts


def format_report(report: FleetReport) -> str:
    """Render a fleet report as the text block the CLI prints."""
    lines = [f"corridor vehicles : {report.n_vehicles}"]
    for e in report.events:
        lines.append(
            f"  [{e.t:7.2f} s] {e.kind:<15} track {e.track_id} ({e.label}) "
            f"at ({e.position[0]:+7.1f}, {e.position[1]:+6.1f}) m, "
            f"{e.speed_mps * 3.6:5.1f} km/h"
        )
    lines.append("node health       :")
    for h in report.node_health:
        status = "ok" if h.realtime else "OVERRUN"
        line = (
            f"  {h.node_id:<8} frames {h.n_frames:>5}  det {h.detection_rate:5.1%}  "
            f"alerts {h.n_alerts}  proc {h.latency.mean_s * 1e3:7.1f} ms  [{status}]"
        )
        if h.peak_hop_batch:
            line += (
                f"  pacer: {h.n_overruns} overrun(s), "
                f"{h.n_overrun_alerts} alert(s), peak batch {h.peak_hop_batch}"
            )
        if h.n_tap_misses:
            line += f"  tap misses {h.n_tap_misses}"
        lines.append(line)
    return "\n".join(lines)
