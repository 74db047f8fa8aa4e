"""City-wide health rollups: many corridors, one operator picture.

The per-corridor layers already exist — :func:`repro.fleet.report.
fleet_report` rolls a session's node health up, :class:`repro.stream.pacer.
PacerStats` records every pacing decision, and :class:`repro.stream.budget.
StageBudget` decomposes each update's detect-to-update latency.  This module
folds all of it across sessions:

- **per-corridor**: one :class:`CorridorHealth` row per session — lifecycle
  state, node health counts from ``fleet_report``, hop / detect-to-update
  p95s, and *debounced* overrun alerts from :class:`repro.core.alerts.
  OverrunPolicy` over the corridor's worst shard per step;
- **city-level**: the pooled detect-to-update distribution over every
  session and a second :class:`~repro.core.alerts.OverrunPolicy` pass over
  the city's step-wise worst corridor — so a city alert means *somewhere,
  sustained*, the deployment missed its budget, debounced exactly like the
  per-node alerts operators already read.

Step-wise rollups take the **max duration against the min budget** at each
step index: the city is as slow as its slowest corridor and as tight as its
tightest deadline, which makes the rollup conservative — a city that never
alerts is a city where *no* corridor sustained an overrun.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.alerts import BudgetAlert, OverrunPolicy
from repro.core.realtime import LatencyStats
from repro.fleet.report import fleet_report

__all__ = [
    "CorridorHealth",
    "CityReport",
    "city_report",
    "format_city_report",
    "city_report_json",
]


@dataclass(frozen=True)
class CorridorHealth:
    """One corridor session's rollup inside the city report.

    Attributes
    ----------
    corridor_id, state, degraded:
        Which session, where its lifecycle stands, and whether it ran
        in-process because the pool was saturated (or absent).
    joined_step, left_step:
        Supervisor steps bracketing the session's live span (``None``
        while not yet reached).
    n_nodes, n_nodes_realtime:
        Node count and how many met their attributed processing budget.
    n_frames, n_detections, n_tracks, n_updates:
        Volume counters over the session's node results and fused output.
    hop_p95_ms, d2u_p95_ms, d2u_deadline_ms:
        Per-hop fleet-step p95 and the end-to-end detect-to-update p95
        against its nominal budget.
    n_overruns, n_overrun_alerts, peak_hop_batch:
        Raw pacer overruns, *debounced* overrun alerts over the corridor's
        step-wise worst shard, and the widest hop batch backpressure
        reached.
    n_steals, n_migrations, queue_depth_p95:
        Pool-scheduling accounting: shards of this session stolen by idle
        workers, total migrations, and the p95 pool backlog sampled at the
        session's dispatches (all zero for degraded/in-process sessions).
    n_tap_misses:
        Sample-tap reads that returned ``None`` due to eviction, summed
        over the session's nodes (streamed multilateration wanted audio
        older than the tap window keeps).
    alerts:
        The debounced :class:`~repro.core.alerts.BudgetAlert` transitions
        themselves (overrun and recovered, in step order).
    """

    corridor_id: str
    state: str
    degraded: bool
    joined_step: int | None
    left_step: int | None
    n_nodes: int
    n_nodes_realtime: int
    n_frames: int
    n_detections: int
    n_tracks: int
    n_updates: int
    hop_p95_ms: float
    d2u_p95_ms: float
    d2u_deadline_ms: float
    n_overruns: int
    n_overrun_alerts: int
    peak_hop_batch: int
    n_steals: int = 0
    n_migrations: int = 0
    queue_depth_p95: float = 0.0
    n_tap_misses: int = 0
    alerts: tuple[BudgetAlert, ...] = ()

    @property
    def realtime(self) -> bool:
        """Whether the corridor's detect-to-update p95 met its budget."""
        return self.d2u_p95_ms <= self.d2u_deadline_ms


@dataclass(frozen=True)
class CityReport:
    """The whole deployment's health at one point in (or after) a run."""

    corridors: tuple[CorridorHealth, ...]
    n_sessions: int
    n_live: int
    n_left: int
    n_degraded: int
    n_worker_restarts: int
    pool_workers: int
    detect_to_update: LatencyStats
    city_alerts: tuple[BudgetAlert, ...] = ()

    @property
    def realtime(self) -> bool:
        """Whether the city-wide detect-to-update p95 met the budget."""
        return self.detect_to_update.realtime

    @property
    def n_city_overrun_alerts(self) -> int:
        """Debounced city-level overrun alerts (``overrun`` kind only)."""
        return sum(1 for a in self.city_alerts if a.kind == "overrun")


def _stepwise_worst(
    streams: Sequence[Sequence[Sequence[float]]],
) -> list[tuple[float, float]]:
    """Fold per-step ``(duration, budget, ...)`` record streams into one.

    At each step index the rollup takes the *max* duration against the
    *min* budget over every stream that reached that step — the
    conservative "slowest member vs tightest deadline" view used for both
    the per-corridor (over shards) and city-level (over corridors)
    debounce passes.  Ragged streams contribute for as long as they ran.
    """
    n = max((len(s) for s in streams), default=0)
    out: list[tuple[float, float]] = []
    for i in range(n):
        rows = [s[i] for s in streams if i < len(s)]
        out.append(
            (max(r[0] for r in rows), min(r[1] for r in rows))
        )
    return out


def _corridor_health(
    session, *, overrun_policy_factory=OverrunPolicy
) -> tuple[CorridorHealth, list[tuple[float, float]], tuple[float, ...]]:
    """One session's rollup row, plus its merged records and d2u samples
    for the city-level pass."""
    result = session.snapshot()
    spec = session.spec
    if result is None:
        # Not yet live: an empty row keeps submitted sessions visible.
        empty = CorridorHealth(
            corridor_id=spec.corridor_id,
            state=session.state,
            degraded=session.degraded,
            joined_step=session.joined_step,
            left_step=session.left_step,
            n_nodes=spec.n_nodes,
            n_nodes_realtime=0,
            n_frames=0,
            n_detections=0,
            n_tracks=0,
            n_updates=0,
            hop_p95_ms=0.0,
            d2u_p95_ms=0.0,
            d2u_deadline_ms=0.0,
            n_overruns=0,
            n_overrun_alerts=0,
            peak_hop_batch=0,
        )
        return empty, [], ()
    frame_period = session.scheduler.config.frame_period_s
    report = fleet_report(
        result.tracks,
        result,
        frame_period=frame_period,
        pacer_stats=result.node_pacer_stats(),
        tap_misses=result.tap_misses,
    )
    merged = _stepwise_worst(
        [ps.records for ps in result.pacer_stats.values()]
    )
    alerts = tuple(overrun_policy_factory().process(merged))
    d2u = result.detect_to_update
    d2u_samples = tuple(b.detect_to_update_ms for b in result.stage_budgets)
    health = CorridorHealth(
        corridor_id=spec.corridor_id,
        state=session.state,
        degraded=session.degraded,
        joined_step=session.joined_step,
        left_step=session.left_step,
        n_nodes=len(report.node_health),
        n_nodes_realtime=sum(1 for h in report.node_health if h.realtime),
        n_frames=sum(h.n_frames for h in report.node_health),
        n_detections=sum(h.n_detections for h in report.node_health),
        n_tracks=len(result.tracks),
        n_updates=len(result.updates),
        hop_p95_ms=result.hop_latency.p95_s * 1e3,
        d2u_p95_ms=d2u.p95_s * 1e3 if d2u is not None else 0.0,
        d2u_deadline_ms=d2u.deadline_s * 1e3 if d2u is not None else 0.0,
        n_overruns=sum(ps.n_overruns for ps in result.pacer_stats.values()),
        n_overrun_alerts=sum(1 for a in alerts if a.kind == "overrun"),
        peak_hop_batch=max(
            (ps.max_batch_used for ps in result.pacer_stats.values()), default=0
        ),
        n_steals=result.n_steals,
        n_migrations=result.n_migrations,
        queue_depth_p95=result.queue_depth_p95,
        n_tap_misses=sum(result.tap_misses.values()),
        alerts=alerts,
    )
    return health, merged, d2u_samples


def city_report(
    sessions: Iterable,
    *,
    n_worker_restarts: int = 0,
    pool_workers: int = 0,
    overrun_policy_factory=OverrunPolicy,
) -> CityReport:
    """Roll every session's health up into one :class:`CityReport`.

    ``sessions`` are :class:`~repro.city.session.CitySession` objects in
    any lifecycle state: live sessions are snapshotted in place, left
    sessions use their final results, submitted ones appear as empty rows.
    The city-level debounce runs ``overrun_policy_factory()`` over the
    step-wise worst corridor (max duration, min budget per step).
    """
    rows: list[CorridorHealth] = []
    corridor_streams: list[list[tuple[float, float]]] = []
    d2u_all: list[float] = []
    d2u_deadline = 0.0
    for session in sessions:
        health, merged, d2u_samples = _corridor_health(
            session, overrun_policy_factory=overrun_policy_factory
        )
        rows.append(health)
        if merged:
            corridor_streams.append(merged)
        d2u_all.extend(d2u_samples)
        d2u_deadline = max(d2u_deadline, health.d2u_deadline_ms / 1e3)
    city_samples = _stepwise_worst(corridor_streams)
    city_alerts = tuple(overrun_policy_factory().process(city_samples))
    if d2u_all:
        vals = np.asarray(d2u_all) / 1e3
        detect_to_update = LatencyStats(
            mean_s=float(vals.mean()),
            p95_s=float(np.percentile(vals, 95)),
            max_s=float(vals.max()),
            deadline_s=max(d2u_deadline, 1e-9),
        )
    else:
        detect_to_update = LatencyStats(
            mean_s=0.0, p95_s=0.0, max_s=0.0, deadline_s=max(d2u_deadline, 1e-9)
        )
    return CityReport(
        corridors=tuple(rows),
        n_sessions=len(rows),
        n_live=sum(1 for r in rows if r.state == "live"),
        n_left=sum(1 for r in rows if r.state == "left"),
        n_degraded=sum(1 for r in rows if r.degraded),
        n_worker_restarts=n_worker_restarts,
        pool_workers=pool_workers,
        detect_to_update=detect_to_update,
        city_alerts=city_alerts,
    )


def format_city_report(report: CityReport) -> str:
    """Render a city report as the text block the CLI prints."""
    d2u = report.detect_to_update
    lines = [
        f"city sessions     : {report.n_sessions} "
        f"({report.n_live} live, {report.n_left} left, "
        f"{report.n_degraded} degraded) on {report.pool_workers} pool worker(s)",
        f"worker restarts   : {report.n_worker_restarts}",
        f"city detect→update: p95 {d2u.p95_s * 1e3:.1f} ms vs "
        f"{d2u.deadline_s * 1e3:.1f} ms budget "
        f"({'real-time' if report.realtime else 'OVERRUN'}), "
        f"{report.n_city_overrun_alerts} debounced city alert(s)",
    ]
    for c in report.corridors:
        status = "ok" if c.realtime else "OVERRUN"
        line = (
            f"  {c.corridor_id:<12} [{c.state:<9}] nodes {c.n_nodes_realtime}/{c.n_nodes} rt  "
            f"tracks {c.n_tracks:>3}  d2u p95 {c.d2u_p95_ms:6.1f} ms  "
            f"alerts {c.n_overrun_alerts}  [{status}]"
        )
        if c.n_steals or c.n_migrations:
            line += f"  steals {c.n_steals}/{c.n_migrations} moved"
        if c.n_tap_misses:
            line += f"  tap misses {c.n_tap_misses}"
        if c.degraded:
            line += "  (degraded: in-process)"
        lines.append(line)
    return "\n".join(lines)


def city_report_json(report: CityReport) -> dict:
    """The report as JSON-serializable plain types (for ``--json``)."""
    d2u = report.detect_to_update
    return {
        "n_sessions": report.n_sessions,
        "n_live": report.n_live,
        "n_left": report.n_left,
        "n_degraded": report.n_degraded,
        "n_worker_restarts": report.n_worker_restarts,
        "pool_workers": report.pool_workers,
        "realtime": bool(report.realtime),
        "n_city_overrun_alerts": report.n_city_overrun_alerts,
        "detect_to_update": {
            "mean_ms": d2u.mean_s * 1e3,
            "p95_ms": d2u.p95_s * 1e3,
            "max_ms": d2u.max_s * 1e3,
            "deadline_ms": d2u.deadline_s * 1e3,
        },
        "city_alerts": [
            {
                "kind": a.kind,
                "step_index": a.step_index,
                "duration_ms": a.duration_s * 1e3,
                "budget_ms": a.budget_s * 1e3,
            }
            for a in report.city_alerts
        ],
        "corridors": [
            {
                "corridor_id": c.corridor_id,
                "state": c.state,
                "degraded": bool(c.degraded),
                "joined_step": c.joined_step,
                "left_step": c.left_step,
                "n_nodes": c.n_nodes,
                "n_nodes_realtime": c.n_nodes_realtime,
                "n_frames": c.n_frames,
                "n_detections": c.n_detections,
                "n_tracks": c.n_tracks,
                "n_updates": c.n_updates,
                "hop_p95_ms": c.hop_p95_ms,
                "d2u_p95_ms": c.d2u_p95_ms,
                "d2u_deadline_ms": c.d2u_deadline_ms,
                "n_overruns": c.n_overruns,
                "n_overrun_alerts": c.n_overrun_alerts,
                "peak_hop_batch": c.peak_hop_batch,
                "n_steals": c.n_steals,
                "n_migrations": c.n_migrations,
                "queue_depth_p95": c.queue_depth_p95,
                "n_tap_misses": c.n_tap_misses,
                "realtime": bool(c.realtime),
            }
            for c in report.corridors
        ],
    }
