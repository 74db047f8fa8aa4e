"""Repo-wide pytest configuration: the ``parallel`` and ``soak`` markers.

Tests marked ``@pytest.mark.parallel`` exercise multi-worker
process-parallel sessions (``repro.fleet.FleetStream`` with forked shard
workers) and only make sense where they can actually run concurrently:
they are skipped when the
machine has fewer than 2 CPUs, when the ``fork`` start method is missing,
or when ``multiprocessing.shared_memory`` is unusable (e.g. no /dev/shm).
Single-worker and in-process parallel tests are unmarked — the runtime
itself works on one CPU; only the *speedup* claims need cores.

``--run-parallel-forced`` overrides the CPU-count part of that skip (fork
and shared memory must still work): the multi-worker code paths are valid
on one core — only the timing claims aren't — so a single-core box can
still exercise correctness, determinism and crash recovery end to end.
The report header prints the machine facts behind the verdict either way,
so a "skipped 12 parallel tests" line is never a mystery.

Tests marked ``@pytest.mark.soak`` are long-running endurance benchmarks
(the city supervisor join/leave soak, E17).  They are **skipped by
default** — pass ``--run-soak`` to run them — so the tier-1 suite stays
fast; CI runs them on an opt-in schedule.

BLAS/OpenMP thread pools are pinned to one thread before anything imports
numpy (unless the caller already set them), as ``perfbench/run.py`` does:
a second BLAS thread speeds up only the GEMM-shaped side of a speedup
comparison (E14's dense sweep), so both sides must run at the same count.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import multiprocessing  # noqa: E402

import pytest  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--run-soak",
        action="store_true",
        default=False,
        help="run tests marked 'soak' (long-running endurance benchmarks; "
        "skipped by default)",
    )
    parser.addoption(
        "--run-parallel-forced",
        action="store_true",
        default=False,
        help="run tests marked 'parallel' even on < 2 CPUs (fork and "
        "shared_memory must still be available; timing claims will be "
        "meaningless, correctness paths still execute)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "parallel: multi-worker process-parallel tests (skipped when "
        "cpu_count() < 2, fork is unavailable, or shared_memory is unusable; "
        "--run-parallel-forced overrides the CPU check)",
    )
    config.addinivalue_line(
        "markers",
        "soak: long-running endurance benchmarks (skipped unless --run-soak "
        "is given)",
    )


def _shared_memory_status():
    try:
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=8)
        seg.close()
        seg.unlink()
    except Exception as exc:
        return f"unusable: {exc}"
    return "ok"


def _parallel_skip_reason(forced=False):
    cpus = os.cpu_count() or 1
    if cpus < 2 and not forced:
        return f"needs >= 2 CPUs (have {cpus}; --run-parallel-forced overrides)"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the 'fork' start method is unavailable"
    shm = _shared_memory_status()
    if shm != "ok":
        return f"multiprocessing.shared_memory is {shm}"
    return None


def pytest_report_header(config):
    # Why multi-worker tests will (or won't) run here, stated up front.
    forced = config.getoption("--run-parallel-forced")
    reason = _parallel_skip_reason(forced=forced)
    verdict = "will run" if reason is None else f"skipped ({reason})"
    if reason is None and forced and (os.cpu_count() or 1) < 2:
        verdict = "forced on < 2 CPUs (timing claims meaningless)"
    return (
        "parallel marker: cpu_count={} start_methods={} shared_memory={} -> {}".format(
            os.cpu_count() or 1,
            "/".join(multiprocessing.get_all_start_methods()),
            _shared_memory_status(),
            verdict,
        )
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--run-soak"):
        skip_soak = pytest.mark.skip(reason="soak: needs --run-soak")
        for item in items:
            if item.get_closest_marker("soak"):
                item.add_marker(skip_soak)
    if not any(item.get_closest_marker("parallel") for item in items):
        return
    reason = _parallel_skip_reason(
        forced=config.getoption("--run-parallel-forced")
    )
    if reason is None:
        return
    skip = pytest.mark.skip(reason=f"parallel: {reason}")
    for item in items:
        if item.get_closest_marker("parallel"):
            item.add_marker(skip)
