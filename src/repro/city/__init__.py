"""repro.city — multi-corridor supervision on one shared worker pool.

The city tier sits above :mod:`repro.stream`: where a
:class:`~repro.fleet.scheduler.FleetStream` runs *one* corridor's
fleet on its own workers, the city runs *many* corridor sessions
concurrently on one shared :class:`~repro.stream.pool.ShardWorkerPool`,
with sessions joining and leaving mid-run and city-wide health rollups on
top.

Layers (bottom-up):

- :mod:`repro.city.scenario` — declarative city runs: corridor specs,
  join/leave schedules, per-corridor RNG streams derived from one root
  seed (:func:`~repro.city.scenario.corridor_rngs`).
- :mod:`repro.city.session` — session lifecycle (submitted → warming →
  live → draining → left) and the :class:`~repro.city.session.
  SessionManager` owning the shared pool and capacity.
- :mod:`repro.city.supervisor` — the step loop: admit, two-phase step
  across sessions, crash recovery, drain/leave.
- :mod:`repro.city.report` — :func:`~repro.city.report.city_report`
  rollups: per-corridor health plus city-level debounced overrun alerts
  and the pooled detect-to-update distribution.

Determinism contract: a city run's per-session fused tracks are
bit-identical to running each corridor standalone at ``workers=0`` —
sharing the pool changes *when* hop batches execute, never *what* they
produce (the PR 5/6 schedule-invariance contract, extended across
sessions).
"""

from repro.city.report import (
    CityReport,
    CorridorHealth,
    city_report,
    city_report_json,
    format_city_report,
)
from repro.city.scenario import (
    CityScenario,
    CorridorSpec,
    build_corridor_scene,
    corridor_rngs,
    default_scenario,
    load_scenario,
    render_corridor,
)
from repro.city.session import (
    DRAINING,
    LEFT,
    LIVE,
    SUBMITTED,
    WARMING,
    CitySession,
    SessionManager,
)
from repro.city.supervisor import CityStepResult, CitySupervisor

__all__ = [
    "CityScenario",
    "CorridorSpec",
    "build_corridor_scene",
    "corridor_rngs",
    "default_scenario",
    "load_scenario",
    "render_corridor",
    "SUBMITTED",
    "WARMING",
    "LIVE",
    "DRAINING",
    "LEFT",
    "CitySession",
    "SessionManager",
    "CityStepResult",
    "CitySupervisor",
    "CorridorHealth",
    "CityReport",
    "city_report",
    "format_city_report",
    "city_report_json",
]
