"""Measurement loop and metric aggregation for one benchmark run."""

from __future__ import annotations

import datetime
import hashlib
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import THREAD_VARS
from perfbench.clock import hop_latencies, replay_steps, tail_percentile
from perfbench.spans import SESSION_STEP, Tracer
from perfbench.workloads import make_workload

__all__ = ["run_benchmark", "context", "LAYER_SELF_METRICS"]

MIN_SESSIONS = 3

# Per-layer metric name -> span name whose self time it reports.
LAYER_SELF_METRICS = {
    "kernel.detect.self_ms": "kernel.detect",
    "kernel.prime.self_ms": "kernel.prime",
    "kernel.localize.self_ms": "kernel.localize",
    "kernel.track.self_ms": "kernel.track",
    "ingest.pull.self_ms": "ingest.pull",
    "ingest.pop.self_ms": "ingest.pop",
    "fusion.step.self_ms": "fusion.step",
    "fusion.mlat.self_ms": "fusion.mlat",
    "render.self_ms": "render",
    "pool.send.self_ms": "pool.send",
    "pool.collect.wait_ms": "pool.collect",
    "session.step.self_ms": SESSION_STEP,
}

# Units of the per-layer metrics that are neither ``*_ms`` times nor counts.
UNITS = {
    "kernel.localize_ratio": "ratio",
    "pool.queue_depth_p95": "items",
    "pool.slab_ratio": "ratio",
    "pacer.mean_batch": "hops",
    "ingest.dropped_samples": "samples",
    "trace.unaccounted_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _sessions(workload, seconds: float, tracer=None, min_sessions: int = MIN_SESSIONS):
    """Run whole sessions until ``seconds`` have passed (at least ``min_sessions``)."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < min_sessions or time.perf_counter() < deadline:
        run_id = f"{workload.name}/{'traced' if tracer else 'plain'}/{len(out)}"
        out.append(workload.session(tracer, run_id))
    return out


def _latencies(workload, session) -> tuple[np.ndarray, float]:
    """Per-hop latencies (s) of one session and its largest backlog (s)."""
    cfg = workload.config
    replay = replay_steps(session.walls, session.arrivals)
    lat = hop_latencies(
        replay.end_s,
        session.fused,
        hop_length=cfg.hop_length,
        frame_length=cfg.frame_length,
        fs=cfg.fs,
        timed=session.timed,
    )
    return lat, float(replay.backlog_s.max(initial=0.0))


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest ended child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _end_to_end(workload, sessions, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics: medians over sessions of per-session figures.

    Each session's hop latencies give its median and its highest percentile
    (up to p99) with ten samples beyond it.  The median across sessions
    keeps one session that the machine disturbed (a stall, a backlog) from
    moving the whole run.
    """
    cfg = workload.config
    limit_s = (workload.hop_batch + 1) * cfg.frame_period_s
    p50, tail, late, tail_qs, n_samples, backlog = [], [], [], [], [], []
    for s in sessions:
        lat, max_backlog = _latencies(workload, s)
        if lat.size == 0:
            raise RuntimeError("no hop was fused in a timed step")
        q = tail_percentile(lat.size)
        p50.append(np.percentile(lat, 50) * 1e3)
        tail.append(np.percentile(lat, q) * 1e3)
        # A hop lost or mis-fused counts as late.
        lost = s.hops if s.mismatch else s.failed
        late.append((np.count_nonzero(lat > limit_s) + lost) / (lat.size + lost))
        tail_qs.append(q)
        n_samples.append(lat.size)
        backlog.append(max_backlog)
    metrics = {
        "setup_s": (float(np.median([s.setup_s for s in sessions])), "s"),
        "node_audio_s_per_s": (
            float(np.median([s.fused_node_s / s.step_s for s in sessions])),
            "s/s",
        ),
        "detect_to_update_p50_ms": (float(np.median(p50)), "ms"),
        "detect_to_update_p99_ms": (float(np.median(tail)), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "sessions": len(sessions),
        "latency_samples_per_session": int(np.median(n_samples)),
        "tail_percentile": float(min(tail_qs)),
        "late_limit_ms": limit_s * 1e3,
        "late_frame_frac": float(np.median(late)),
        "max_backlog_ms": max(backlog) * 1e3,
    }
    return metrics, detail


def _per_layer(traced, tracer: Tracer, plain) -> dict:
    """Per-layer metrics: medians over the traced sessions."""
    rows = []
    for s in traced:
        self_ms = tracer.self_ms(s.run_id)
        row = {m: self_ms.get(span, 0.0) for m, span in LAYER_SELF_METRICS.items()}
        row["fusion.mlat.calls"] = tracer.counts(s.run_id).get("fusion.mlat", 0)
        row.update(s.counters)
        # Share of the traced step wall the layer self times do not cover.
        row["trace.unaccounted_frac"] = 1.0 - sum(self_ms.values()) / 1e3 / s.step_s
        rows.append(row)
    plain_s = float(np.median([s.step_s for s in plain]))
    traced_s = float(np.median([s.step_s for s in traced]))
    values = {name: float(np.median([r[name] for r in rows])) for name in rows[0]}
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return {
        name: (value, "ms" if name.endswith("_ms") else UNITS.get(name, "count"))
        for name, value in values.items()
    }


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    spans_path: str | Path | None = None,
    min_sessions: int = MIN_SESSIONS,
) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result line, context)``."""
    workload = make_workload(workload_name, seed, tiny=tiny)
    # One discarded session fills the process-lifetime caches (FFT plans,
    # filter banks, windows) before anything is timed.
    workload.session()
    tracer = None
    traced = []
    if trace:
        plain = _sessions(workload, seconds / 2, min_sessions=min_sessions)
        tracer = Tracer()
        traced = _sessions(workload, seconds / 2, tracer, min_sessions=min_sessions)
    else:
        plain = _sessions(workload, seconds, min_sessions=min_sessions)
    rss_mb = _peak_rss_mb(workload.workers)
    # Output check, outside every timed interval.
    for s in plain + traced:
        s.mismatch = workload.check(s)
    e2e, detail = _end_to_end(workload, plain, rss_mb)
    metrics = _per_layer(traced, tracer, plain) if trace else e2e
    sessions = plain + traced
    attempted = sum(s.hops for s in sessions)
    failed = sum(s.hops if s.mismatch else s.failed for s in sessions)
    mismatches = [s.mismatch for s in sessions if s.mismatch]
    if tracer is not None and spans_path is not None:
        tracer.write(spans_path)
    result = {
        "correct": not mismatches,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    ctx = context(workload_name, seed, seconds, trace)
    ctx.update(detail)
    ctx["worker_restarts"] = int(sum(s.counters.get("pool.worker_restarts", 0) for s in sessions))
    if mismatches:
        ctx["mismatches"] = mismatches[:5]
    if trace:
        ctx["end_to_end_untraced"] = {k: v for k, (v, _) in e2e.items()}
    return result, ctx


def _source_digest(root: Path) -> str:
    """SHA-256 over the program sources (stands in for a commit id off git)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Hardware and software context stamped on every result."""
    import scipy

    root = Path(__file__).resolve().parent.parent
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "machine": platform.machine(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "argv": sys.argv[1:],
    }
