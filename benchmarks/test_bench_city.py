"""E17 — city soak: corridor sessions join and leave on one shared pool.

E16 pinned one corridor's process-parallel runtime; E17 soaks the tier
above it: a :class:`~repro.city.CitySupervisor` multiplexing several
corridor sessions onto ONE :class:`~repro.stream.pool.ShardWorkerPool`
while the session set churns mid-run — corridors join staggered, one is
asked to leave early, the rest run to exhaustion.  The claims asserted:

1. the join/leave schedule actually exercises churn: sessions join while
   others are already live, and at least one session leaves while others
   are still running;
2. every run-to-completion session's fused corridor tracks are
   **bit-identical** to running that corridor standalone (workers=0) —
   the PR 5/6 determinism contract survives pool sharing and lifecycle
   churn; the early-leaver instead proves it was genuinely cut short
   (strictly fewer updates than its standalone reference);
3. no session degrades to in-process (the pool admitted the whole city),
   every session reaches ``left``, and the city-wide detect-to-update p95
   stays inside the nominal budget.

The recorded row ``{bench: E17_city_soak, wall_ms, speedup, ...}`` lands
in ``BENCH_pipeline.json``; ``speedup`` is sequential-vs-multiplexed (the
summed standalone walls over the city wall — how much interleaving the
sessions on one pool buys over running them back to back), and ``p95_ms``
is the city-wide detect-to-update p95 so the CI guard is

    --bench-max-p95 E17_city_soak=300

The module is marked ``soak`` (run with ``--run-soak``): it is a
multi-second churn harness, not a unit test.  Unlike E16 it does NOT
need multiple cores — a shared pool on one worker is exactly the
oversubscribed regime the supervisor exists for — so it gates on fork +
shared-memory support rather than the ``parallel`` marker.
"""

import time

import pytest

from benchmarks.conftest import print_table
from repro.city import (
    CityScenario,
    CitySupervisor,
    CorridorSpec,
    corridor_rngs,
    render_corridor,
)
from repro.core import PipelineConfig
from repro.fleet import CorridorStream, FleetScheduler, FleetStream, OracleDetector
from repro.stream import PacerConfig, parallel_supported

pytestmark = [
    pytest.mark.soak,
    pytest.mark.skipif(
        parallel_supported() is not None,
        reason=f"process runtime unavailable: {parallel_supported()}",
    ),
]

N_NODES = 2
DURATION_S = 1.0
WORKERS = 1  # deliberately oversubscribed: every session shares one worker


EARLY_LEAVER = "corridor2"


def _soak_scenario() -> CityScenario:
    """Four corridors joining two steps apart; the third is cut short.

    At 8 kHz / hop 256 / hop_batch 8 each supervisor step covers 0.256 s,
    so a 1 s corridor takes 4 live steps; corridor2 joins at step 4 and
    would finish at step 7 — ``leave_step=6`` yanks it one step early,
    while the others are still live.

    ``tap_window_s`` is set, so every live session runs streamed TDOA
    multilateration off rolling per-node sample taps populated at ingest —
    the soak exercises the SampleTap path end to end, and the bit-identity
    claim below covers the tap-refined fixes too.
    """
    specs = tuple(
        CorridorSpec(
            corridor_id=f"corridor{k}",
            n_nodes=N_NODES,
            duration_s=DURATION_S,
            join_step=2 * k,
            leave_step=6 if f"corridor{k}" == EARLY_LEAVER else None,
        )
        for k in range(4)
    )
    return CityScenario(corridors=specs, seed=17, tap_window_s=0.5)


def _track_signature(tracks):
    """Bit-exact identity signature of a fused track list (the same shape
    the determinism suite in tests/test_city.py compares)."""
    return [
        (t.track_id, t.label, t.hits, t.confirmed, tuple(t.history), tuple(sorted(t.nodes)))
        for t in tracks
    ]


def _standalone_signature(spec, scenario):
    """Wall time and bit-exact track signature of the corridor standalone
    (workers=0: the in-process determinism reference)."""
    rngs = corridor_rngs(scenario)
    recording = render_corridor(spec, scenario, rngs[spec.corridor_id])
    config = PipelineConfig(
        fs=scenario.fs,
        localizer=scenario.localizer,
        n_azimuth=scenario.n_azimuth,
        n_elevation=scenario.n_elevation,
    )
    sched = FleetScheduler(
        recording.scene.nodes,
        config,
        detector=OracleDetector("siren_wail"),
        n_shards=spec.n_shards,
    )
    feed = CorridorStream(
        recording,
        chunk_samples=sched.config.hop_length,
        drop_prob=spec.drop_prob,
        rng=rngs[spec.corridor_id],
    )
    t0 = time.perf_counter()
    with FleetStream(
        sched,
        feed.sources(),
        hop_batch=scenario.hop_batch,
        workers=0,
        pacer=PacerConfig(),
        tap_window_s=scenario.tap_window_s,
    ) as session:
        result = session.run()
    wall_ms = (time.perf_counter() - t0) * 1e3
    sched.close()
    return wall_ms, _track_signature(result.tracks), len(result.updates)


def test_e17_city_soak_churn_identity_and_budget(bench_json):
    scenario = _soak_scenario()

    # Reference: each corridor standalone, in-process, back to back.
    sequential_wall_ms = 0.0
    reference = {}
    for spec in scenario.corridors:
        wall_ms, sig, n_updates = _standalone_signature(spec, scenario)
        sequential_wall_ms += wall_ms
        reference[spec.corridor_id] = (sig, n_updates)

    # The soak itself: one shared pool, churning session set.
    events = []
    t0 = time.perf_counter()
    with CitySupervisor(scenario, workers=WORKERS) as supervisor:
        report = supervisor.run(on_step=events.append)
        sessions = dict(supervisor.manager.sessions)
    city_wall_ms = (time.perf_counter() - t0) * 1e3

    # Claim 1: genuine churn.  Later corridors joined while earlier ones
    # were live, and at least one left while others were still running.
    joined = {cid: r.step_index for r in events for cid in r.joined}
    left = {cid: r.step_index for r in events for cid in r.left}
    assert len(joined) == len(scenario.corridors)
    assert set(left) == set(joined), "every session must finish the lifecycle"
    assert any(
        r.joined and r.n_live > len(r.joined) for r in events
    ), "no session joined a city that was already live"
    assert any(
        r.left and r.n_live > 0 for r in events
    ), "no session left while others were still live"
    assert left[EARLY_LEAVER] < max(left.values())

    # Claim 2: per-session bit-identity against the standalone references.
    # The early-leaver is the one legitimate divergence: it was yanked
    # before exhausting its sources, so it must have emitted strictly
    # fewer updates than its standalone (run-to-completion) reference.
    for cid, session in sessions.items():
        assert session.state == "left"
        ref_sig, ref_updates = reference[cid]
        if cid == EARLY_LEAVER:
            emitted = sum(r.updates.get(cid, 0) for r in events)
            assert 0 < emitted < ref_updates, (
                f"{cid}: expected a cut-short run "
                f"({emitted} vs {ref_updates} standalone updates)"
            )
            continue
        sig = _track_signature(session.result.tracks)
        assert sig == ref_sig, f"{cid}: city run diverged from standalone"

    # Claim 3: nothing degraded, and the city-wide end-to-end latency is
    # inside the nominal budget even with every session on one worker.
    assert report.n_left == len(scenario.corridors)
    assert report.n_degraded == 0, "pool refused sessions it was sized for"
    d2u = report.detect_to_update
    p95_ms = d2u.p95_s * 1e3
    deadline_ms = d2u.deadline_s * 1e3
    assert p95_ms <= deadline_ms, (
        f"city detect-to-update p95 {p95_ms:.1f} ms exceeds the "
        f"{deadline_ms:.1f} ms nominal budget"
    )

    speedup = sequential_wall_ms / city_wall_ms
    bench_json(
        "E17_city_soak",
        city_wall_ms,
        speedup,
        n_sessions=len(scenario.corridors),
        workers=WORKERS,
        n_worker_restarts=report.n_worker_restarts,
        p95_ms=p95_ms,
        deadline_ms=deadline_ms,
    )
    print_table(
        f"E17 city soak ({len(scenario.corridors)} corridors, "
        f"{N_NODES} nodes each, {WORKERS} shared worker)",
        ["run", "wall ms", "speedup", "d2u p95 ms", "d2u budget ms"],
        [
            ("sequential", sequential_wall_ms, 1.0, float("nan"), float("nan")),
            ("city pool", city_wall_ms, speedup, p95_ms, deadline_ms),
        ],
    )
