"""City supervisor tests: shared pool, lifecycle, determinism, rollups.

The contract under test, in layers:

- :class:`ShardWorkerPool` serves shard runners of *many* sessions on one
  set of forked workers (register/step/release) and survives worker death
  (checkpoint + :meth:`recover`);
- :class:`SharedCapacity` arithmetic and the :class:`Pacer`'s fair-share
  budget scaling against it;
- scenario declaration and **seed hygiene**: every corridor renders
  distinct traffic from one root seed, bit-reproducibly;
- the :class:`CitySupervisor` lifecycle (join/leave schedule, one-step
  draining, degradation when the pool is absent or saturated) and the
  headline determinism contract: every session of a concurrent city run
  produces fused tracks **bit-identical** to the same corridor standalone
  — in-process and on a shared pool, even across a worker crash;
- the :func:`city_report` rollup layer and its JSON projection.
"""

import os
import signal

import numpy as np
import pytest

from repro.city import (
    CityScenario,
    CitySupervisor,
    CorridorSpec,
    SessionManager,
    city_report_json,
    corridor_rngs,
    default_scenario,
    format_city_report,
    load_scenario,
    render_corridor,
)
from repro.core import PipelineConfig
from repro.fleet import CorridorStream, FleetScheduler, FleetStream, OracleDetector
from repro.stream import (
    Pacer,
    SharedCapacity,
    ShardWorkerPool,
    WorkerCrashed,
    parallel_supported,
)

needs_processes = pytest.mark.skipif(
    parallel_supported() is not None,
    reason=f"process runtime unavailable: {parallel_supported()}",
)


class CountingRunner:
    """Minimal pool-compatible runner: step counts, state round-trips."""

    def __init__(self, key):
        self.key = key
        self.count = 0

    def step(self):
        self.count += 1
        return (self.key, self.count)

    def state_dict(self):
        return {"count": self.count}

    def load_state_dict(self, state):
        self.count = int(state["count"])


class ExplodingRunner:
    """Raises inside the worker; the traceback must cross the pipe."""

    def step(self):
        raise RuntimeError("kaboom in the worker")

    def state_dict(self):
        return {}

    def load_state_dict(self, state):
        pass


# --------------------------------------------------------------------------
# ShardWorkerPool
# --------------------------------------------------------------------------


@needs_processes
class TestShardWorkerPool:
    def test_register_step_release(self):
        with ShardWorkerPool(1) as pool:
            pool.register("a", {0: CountingRunner(0), 1: CountingRunner(1)})
            assert pool.sessions() == ["a"]
            assert pool.load == 2
            assert pool.step("a") == {0: (0, 1), 1: (1, 1)}
            assert pool.step("a") == {0: (0, 2), 1: (1, 2)}
            pool.release("a")
            assert pool.load == 0
            assert pool.sessions() == []
            pool.release("a")  # idempotent

    def test_two_sessions_interleave_on_one_worker(self):
        """Send both sessions' steps before collecting either — replies
        arriving out of collect order are stashed per session."""
        with ShardWorkerPool(1) as pool:
            pool.register("a", {0: CountingRunner(0)})
            pool.register("b", {0: CountingRunner(0)})
            pool.step_send("a")
            pool.step_send("b")
            # Collect b first: a's reply (queued first) must be stashed.
            assert pool.step_collect("b") == {0: (0, 1)}
            assert pool.step_collect("a") == {0: (0, 1)}

    def test_duplicate_session_rejected(self):
        with ShardWorkerPool(1) as pool:
            pool.register("a", {0: CountingRunner(0)})
            with pytest.raises(ValueError, match="already registered"):
                pool.register("a", {0: CountingRunner(0)})

    def test_saturation_is_advisory(self):
        with ShardWorkerPool(1, max_shards_per_worker=1) as pool:
            assert not pool.saturated()
            pool.register("a", {0: CountingRunner(0)})
            assert pool.saturated()
            pool.release("a")
            assert not pool.saturated()

    def test_kill_recover_continues_from_checkpoint(self):
        """A SIGKILLed worker respawns; registered runners resume from
        their last completed step, and the lost step is re-run."""
        with ShardWorkerPool(1) as pool:
            pool.register("a", {0: CountingRunner(0)})
            assert pool.step("a") == {0: (0, 1)}
            proc = pool._procs[0]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join()
            with pytest.raises(WorkerCrashed) as excinfo:
                pool.step("a")
            assert "a/shard0" in str(excinfo.value)
            assert pool.recover() == 1
            # The in-flight step was re-queued on the replacement worker:
            # collecting yields the continuation, not a restart from zero.
            assert pool.step_collect("a") == {0: (0, 2)}
            assert pool.step("a") == {0: (0, 3)}

    def test_worker_exception_propagates_with_traceback(self):
        with ShardWorkerPool(1) as pool:
            pool.register("a", {0: ExplodingRunner()})
            with pytest.raises(RuntimeError, match="kaboom in the worker"):
                pool.step("a")

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ShardWorkerPool(0)
        with pytest.raises(ValueError, match="max_shards_per_worker"):
            ShardWorkerPool(1, max_shards_per_worker=0)


# --------------------------------------------------------------------------
# SharedCapacity and fair-share pacing
# --------------------------------------------------------------------------


class TestSharedCapacity:
    def test_oversubscription_arithmetic(self):
        cap = SharedCapacity(2)
        assert cap.oversubscription() == 1.0  # idle pool counts as fair
        cap.acquire(2)
        assert cap.oversubscription() == 1.0  # fully but fairly loaded
        cap.acquire(4)
        assert cap.oversubscription() == 3.0  # 6 shards on 2 slots
        cap.release(4)
        cap.release(2)
        assert cap.held == 0
        cap.release(5)  # clamps at zero, never negative
        assert cap.held == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedCapacity(0)

    def test_pacer_scales_budget_by_oversubscription(self):
        """On a 3x oversubscribed pool a shard gets 1/3 of real time: a
        wall time inside the raw budget but outside the fair share must
        count as an overrun, and the recorded budget must be the share."""
        cap = SharedCapacity(1)
        cap.acquire(3)
        paced = Pacer(0.032, hop_batch=8, capacity=cap)
        raw_budget = 8 * 0.032
        paced.observe(0.6 * raw_budget, 8)  # inside raw, outside raw/3
        assert paced.stats().n_overruns == 1
        assert paced.stats().records[0][1] == pytest.approx(raw_budget / 3)
        # The same wall time on an uncontended pool is not an overrun.
        free = Pacer(0.032, hop_batch=8, capacity=SharedCapacity(1))
        free.observe(0.6 * raw_budget, 8)
        assert free.stats().n_overruns == 0


# --------------------------------------------------------------------------
# Scenarios and seed hygiene
# --------------------------------------------------------------------------


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError, match="corridor_id"):
            CorridorSpec("")
        with pytest.raises(ValueError, match="leave_step"):
            CorridorSpec("a", join_step=4, leave_step=4)
        with pytest.raises(ValueError, match="unique"):
            CityScenario((CorridorSpec("a"), CorridorSpec("a")))
        with pytest.raises(ValueError, match="at least one"):
            CityScenario(())
        with pytest.raises(ValueError, match="hop_batch"):
            CityScenario((CorridorSpec("a"),), hop_batch=0)

    def test_corridor_rngs_distinct_and_reproducible(self):
        scn = default_scenario(3, seed=42)
        rngs = corridor_rngs(scn)
        draws = {cid: rng.standard_normal(8) for cid, rng in rngs.items()}
        ids = list(draws)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                assert not np.allclose(draws[a], draws[b]), (
                    f"{a} and {b} derived identical streams"
                )
        again = {cid: rng.standard_normal(8) for cid, rng in corridor_rngs(scn).items()}
        for cid in ids:
            assert np.array_equal(draws[cid], again[cid])

    def test_rendered_corridors_differ_but_reproduce(self):
        """Seed hygiene end to end: distinct traffic per corridor, yet the
        whole city replays bit-identically from the root seed."""
        scn = default_scenario(2, duration_s=0.3, n_nodes=2, seed=5)
        rngs = corridor_rngs(scn)
        recs = {
            spec.corridor_id: render_corridor(spec, scn, rngs[spec.corridor_id])
            for spec in scn.corridors
        }
        first = {cid: rec.recordings[rec.scene.nodes[0].node_id] for cid, rec in recs.items()}
        assert not np.array_equal(first["corridor0"], first["corridor1"])
        rngs2 = corridor_rngs(scn)
        rec0 = render_corridor(scn.corridors[0], scn, rngs2["corridor0"])
        assert np.array_equal(
            first["corridor0"], rec0.recordings[rec0.scene.nodes[0].node_id]
        )

    def test_load_scenario_round_trip_and_typo_rejection(self, tmp_path):
        path = tmp_path / "city.json"
        path.write_text(
            '{"seed": 3, "hop_batch": 4, "corridors": ['
            '{"corridor_id": "north", "n_nodes": 2, "duration_s": 0.5},'
            '{"corridor_id": "south", "join_step": 8, "leave_step": 40}]}'
        )
        scn = load_scenario(str(path))
        assert scn.seed == 3 and scn.hop_batch == 4
        assert [c.corridor_id for c in scn.corridors] == ["north", "south"]
        assert scn.corridors[1].leave_step == 40
        path.write_text('{"corridors": [{"corridor_id": "x", "n_node": 2}]}')
        with pytest.raises(ValueError, match="n_node"):
            load_scenario(str(path))
        path.write_text('{"sead": 3, "corridors": [{"corridor_id": "x"}]}')
        with pytest.raises(ValueError, match="sead"):
            load_scenario(str(path))


# --------------------------------------------------------------------------
# Supervisor lifecycle and determinism
# --------------------------------------------------------------------------


def standalone_result(spec, scenario):
    """The reference: the corridor run standalone, in-process (workers=0)."""
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
    with FleetStream(
        sched, feed.sources(), hop_batch=scenario.hop_batch, workers=0
    ) as session:
        result = session.run()
    sched.close()
    return result


def track_signature(tracks):
    """Bit-exact identity signature of a fused track list."""
    return [
        (t.track_id, t.label, t.hits, t.confirmed, tuple(t.history), tuple(sorted(t.nodes)))
        for t in tracks
    ]


@pytest.fixture(scope="module")
def city_scenario():
    return default_scenario(3, duration_s=0.4, n_nodes=2, seed=9, stagger_steps=1)


@pytest.fixture(scope="module")
def standalone_signatures(city_scenario):
    return {
        spec.corridor_id: track_signature(standalone_result(spec, city_scenario).tracks)
        for spec in city_scenario.corridors
    }


class TestCitySupervisor:
    def test_join_leave_lifecycle(self, city_scenario):
        events = []
        with CitySupervisor(city_scenario, workers=0) as sup:
            report = sup.run(on_step=lambda r: events.append(r))
        joined = {cid: r.step_index for r in events for cid in r.joined}
        left = {cid: r.step_index for r in events for cid in r.left}
        # Staggered joins: corridor k joins at step k.
        assert joined == {"corridor0": 0, "corridor1": 1, "corridor2": 2}
        # Every session left, exactly once, after at least one live step
        # plus the one-step draining window.
        assert set(left) == set(joined)
        for cid in joined:
            assert left[cid] >= joined[cid] + 2
        assert report.n_left == 3 and report.n_live == 0

    def test_sessions_record_join_and_left_steps(self, city_scenario):
        with CitySupervisor(city_scenario, workers=0) as sup:
            sup.run()
            for spec in city_scenario.corridors:
                session = sup.manager.sessions[spec.corridor_id]
                assert session.state == "left"
                assert session.joined_step == spec.join_step
                assert session.left_step > session.joined_step
                assert session.result is not None

    def test_leave_step_cuts_a_session_short(self):
        cut = CorridorSpec(
            "corridor0", n_nodes=2, duration_s=0.8, join_step=0, leave_step=1
        )
        full = CorridorSpec("corridor1", n_nodes=2, duration_s=0.8)
        scn = CityScenario(corridors=(cut, full), seed=9)
        with CitySupervisor(scn, workers=0) as sup:
            sup.run()
            short = sup.manager.sessions["corridor0"]
            long = sup.manager.sessions["corridor1"]
            assert short.state == "left" and long.state == "left"
            assert short.left_step < long.left_step
            assert len(short.result.updates) < len(long.result.updates)

    def test_workers0_everyone_degraded(self, city_scenario):
        with CitySupervisor(city_scenario, workers=0) as sup:
            report = sup.run()
        assert report.n_degraded == 3
        assert report.pool_workers == 0

    def test_in_process_city_matches_standalone(
        self, city_scenario, standalone_signatures
    ):
        """Headline contract, portable flavour: concurrent supervised
        sessions (workers=0) are bit-identical to standalone runs."""
        with CitySupervisor(city_scenario, workers=0) as sup:
            sup.run()
            for cid, want in standalone_signatures.items():
                got = track_signature(sup.manager.sessions[cid].result.tracks)
                assert got == want, f"{cid} diverged from its standalone run"

    def test_incremental_full_physics_city_matches_replay(self):
        """Sessions that render chunk-by-chunk at ingest (full physics on)
        fuse the same tracks as whole-render replay sessions, per seed."""

        def scn(incremental):
            specs = tuple(
                CorridorSpec(
                    f"corridor{k}",
                    n_nodes=2,
                    duration_s=0.4,
                    surface="dense_asphalt",
                    air_absorption=True,
                    incremental=incremental,
                )
                for k in range(2)
            )
            return CityScenario(corridors=specs, seed=9)

        def run(incremental):
            with CitySupervisor(scn(incremental), workers=0) as sup:
                sup.run()
                return {
                    cid: track_signature(s.result.tracks)
                    for cid, s in sup.manager.sessions.items()
                }

        replay, incremental = run(False), run(True)
        assert replay == incremental
        assert any(len(sig) > 0 for sig in replay.values())

    @needs_processes
    def test_shared_pool_city_matches_standalone(
        self, city_scenario, standalone_signatures
    ):
        """Headline contract: >= 3 concurrent sessions multiplexed on one
        shared worker pool, bit-identical per-session fused tracks."""
        with CitySupervisor(city_scenario, workers=1) as sup:
            report = sup.run()
            assert report.n_degraded == 0  # everyone actually used the pool
            for cid, want in standalone_signatures.items():
                got = track_signature(sup.manager.sessions[cid].result.tracks)
                assert got == want, f"{cid} diverged on the shared pool"

    @needs_processes
    def test_worker_crash_recovers_and_stays_deterministic(
        self, city_scenario, standalone_signatures
    ):
        """SIGKILL a pool worker mid-run: the supervisor respawns it,
        restores every session from checkpoints, re-runs the lost step —
        and the final tracks are still bit-identical."""
        killed = []

        with CitySupervisor(city_scenario, workers=1) as sup:
            def on_step(result):
                if result.step_index == 1 and not killed:
                    proc = sup.manager.pool._procs[0]
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join()
                    killed.append(proc.pid)

            report = sup.run(on_step=on_step)
            assert killed, "kill hook never fired"
            assert report.n_worker_restarts >= 1
            for cid, want in standalone_signatures.items():
                got = track_signature(sup.manager.sessions[cid].result.tracks)
                assert got == want, f"{cid} diverged after worker crash"

    @needs_processes
    def test_saturated_pool_degrades_later_joiners(self, city_scenario):
        """Admission control: once the pool carries max_shards_per_worker
        per worker, later sessions run in-process instead of queueing."""
        with CitySupervisor(
            city_scenario, workers=1, max_shards_per_worker=1
        ) as sup:
            report = sup.run()
        assert report.n_degraded >= 1  # later joiners pushed in-process
        assert report.n_degraded < report.n_sessions  # first one got the pool
        assert report.n_left == 3

    def test_manager_rejects_duplicate_submission(self, city_scenario):
        with SessionManager(workers=0) as manager:
            rngs = corridor_rngs(city_scenario)
            spec = city_scenario.corridors[0]
            manager.submit(spec, city_scenario, rngs[spec.corridor_id])
            with pytest.raises(ValueError, match="already submitted"):
                manager.submit(spec, city_scenario, rngs[spec.corridor_id])


# --------------------------------------------------------------------------
# City report rollups
# --------------------------------------------------------------------------


class TestCityReport:
    @pytest.fixture(scope="class")
    def finished(self, city_scenario):
        with CitySupervisor(city_scenario, workers=0) as sup:
            report = sup.run()
        return report

    def test_rollup_counters(self, finished):
        assert finished.n_sessions == 3
        assert finished.n_left == 3 and finished.n_live == 0
        assert len(finished.corridors) == 3
        for row in finished.corridors:
            assert row.state == "left"
            assert row.n_tracks > 0 and row.n_updates > 0
            assert row.n_nodes == 2
            assert row.d2u_deadline_ms > 0
        d2u = finished.detect_to_update
        assert d2u.max_s >= d2u.p95_s >= d2u.mean_s > 0

    def test_format_and_json(self, finished):
        text = format_city_report(finished)
        assert "city sessions" in text and "detect→update" in text
        for row in finished.corridors:
            assert row.corridor_id in text
        doc = city_report_json(finished)
        import json

        json.dumps(doc)  # must be plain-type serializable
        assert doc["n_sessions"] == 3
        assert {c["corridor_id"] for c in doc["corridors"]} == {
            "corridor0", "corridor1", "corridor2"
        }
        for c in doc["corridors"]:
            assert set(c) >= {
                "state", "degraded", "d2u_p95_ms", "n_overruns",
                "n_overrun_alerts", "peak_hop_batch", "realtime",
            }

    def test_report_mid_run_includes_pending_sessions(self):
        scn = default_scenario(2, duration_s=0.4, n_nodes=2, seed=9, stagger_steps=50)
        with CitySupervisor(scn, workers=0) as sup:
            sup.step()  # corridor0 joins; corridor1 still submitted
            report = sup.report()
            states = {r.corridor_id: r.state for r in report.corridors}
            assert states["corridor0"] == "live"
            assert states["corridor1"] == "submitted"
            assert report.n_live == 1
