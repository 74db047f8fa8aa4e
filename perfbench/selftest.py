"""The benchmark's own smoke tests.

Run from the root of a checkout (not part of the program's test suite)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench.check import track_mismatch  # noqa: E402
from perfbench.clock import hop_latencies, replay_steps, tail_percentile  # noqa: E402
from perfbench.measure import run_benchmark  # noqa: E402
from perfbench.spans import LAYER_TARGETS, Tracer, _resolve  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HOP, FRAME, FS = 256, 512, 8000.0
PERIOD = HOP / FS


def _capture(frame: int) -> float:
    return (frame * HOP + FRAME) / FS


# ------------------------------------------------------------ replayed clock


def test_faster_than_real_time_lag_equals_step_wall():
    walls = [0.004, 0.011, 0.007, 0.002]
    # Step k consumes and fuses exactly frame k.
    arrivals = [_capture(k) for k in range(4)]
    replay = replay_steps(walls, arrivals)
    lat = hop_latencies(
        replay.end_s, [[(k, k + 1, 1)] for k in range(4)], hop_length=HOP, frame_length=FRAME, fs=FS
    )
    assert np.allclose(lat, walls)
    assert np.all(replay.backlog_s == 0.0)


def test_slower_than_real_time_backlog_grows_monotonically():
    walls = [1.5 * PERIOD] * 20
    arrivals = [_capture(k) for k in range(20)]
    replay = replay_steps(walls, arrivals)
    assert np.all(np.diff(replay.backlog_s) > 0)
    lat = hop_latencies(
        replay.end_s, [[(k, k + 1, 2)] for k in range(20)], hop_length=HOP, frame_length=FRAME, fs=FS
    )
    assert lat.size == 40 and np.all(np.diff(lat[::2]) > 0)


def test_setup_steps_and_empty_steps():
    replay = replay_steps([0.0, 0.003, 0.001], [_capture(3), None, _capture(4)])
    # A step with no new frame waits for nothing newer than its predecessor.
    assert replay.start_s[1] == pytest.approx(_capture(3))
    lat = hop_latencies(
        replay.end_s,
        [[(0, 4, 1)], [], [(4, 5, 3)]],
        hop_length=HOP,
        frame_length=FRAME,
        fs=FS,
        timed=[False, True, True],
    )
    assert lat.size == 3 and np.allclose(lat, 0.001)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(5000) == 99.0
    assert tail_percentile(200) == pytest.approx(95.0)
    assert tail_percentile(10) == 50.0


def test_quiet_corridor_gets_latencies_without_track_updates():
    workload = make_workload("quiet_corridor", 3, tiny=True)
    session = workload.session()
    assert session.counters["fusion.updates"] == 0
    replay = replay_steps(session.walls, session.arrivals)
    cfg = workload.config
    lat = hop_latencies(
        replay.end_s, session.fused, hop_length=cfg.hop_length, frame_length=cfg.frame_length, fs=cfg.fs
    )
    assert lat.size == session.hops and np.all(lat > 0)


# ------------------------------------------------------------- output check


def test_output_check_rejects_a_perturbed_track():
    workload = make_workload("dense_corridor", 4, tiny=True)
    session = workload.session()
    assert workload.check(session) is None
    tracks = copy.deepcopy(session.outputs)
    frame, x, y = tracks[0].history[-1]
    tracks[0].history[-1] = (frame, x + 1e-6, y)
    assert track_mismatch(tracks, workload.reference()) is not None
    tracks = copy.deepcopy(session.outputs)
    tracks[-1].hits += 1
    assert track_mismatch(tracks, workload.reference()) is not None
    # Bit-exact mode (city) also rejects a one-ulp move.
    tracks = copy.deepcopy(session.outputs)
    frame, x, y = tracks[0].history[0]
    tracks[0].history[0] = (frame, float(np.nextafter(x, np.inf)), y)
    assert track_mismatch(tracks, session.outputs) is None
    assert track_mismatch(tracks, session.outputs, exact=True) is not None


def test_city_check_rejects_a_perturbed_session_track():
    workload = make_workload("city_live", 4, tiny=True)
    session = workload.session()
    assert workload.check(session) is None
    scene, tracks, counts = session.outputs
    perturbed = copy.deepcopy(tracks)
    perturbed["corridor1"][0].hits += 1
    session.outputs = (scene, perturbed, counts)
    assert "corridor1" in workload.check(session)


# ------------------------------------------------------------------ tracing


def test_no_span_once_wrappers_are_removed():
    originals = {target: _resolve(target) for _, target in LAYER_TARGETS}
    originals = {t: vars(owner).get(attr) for t, (owner, attr) in originals.items()}
    tracer = Tracer()
    workload = make_workload("dense_corridor", 5, tiny=True)
    workload.session(tracer, "traced")
    assert tracer.counts("traced").get("kernel.localize", 0) > 0
    n = len(tracer.spans)
    for target, original in originals.items():
        owner, attr = _resolve(target)
        assert vars(owner).get(attr) is original, f"{target} not restored"
    workload.session()
    assert len(tracer.spans) == n


def test_self_times_partition_the_parent():
    tracer = Tracer()
    tracer.run_id = "r"
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
        sum(range(20000))
    self_ms = tracer.self_ms("r")
    (_, start, end, _, _) = tracer.spans[0]
    assert sum(self_ms.values()) == pytest.approx((end - start) * 1e3)
    assert tracer.spans[1][3] == 0  # inner's parent is outer


# ------------------------------------------------------- tiny end-to-end runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace, tmp_path):
    result, ctx = run_benchmark(
        workload, 7, 0.1, bool(trace), tiny=True, spans_path=tmp_path / "spans.jsonl", min_sessions=1
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert set(result["metrics"]) == set(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name], name
    if trace:
        # Layer self times plus the step loop's own self time cover the traced
        # step wall time, up to the loop's bookkeeping between steps.
        assert abs(result["metrics"]["trace.unaccounted_frac"]["value"]) < 0.05
        assert (tmp_path / "spans.jsonl").stat().st_size > 0
    else:
        for name in names:
            assert result["metrics"][name]["value"] > 0, name
    assert ctx["nproc"] >= 1 and ctx["threads"]["OPENBLAS_NUM_THREADS"] == "1"
