"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense_corridor --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
sessions untraced and then traced, and prints the per-layer metrics (span
self times, counts, tracing overhead), writing the spans to
``.perfbench/spans/<workload>-seed<seed>.jsonl``.  The line before the
result is a JSON object with the hardware/software context.  The process
exits non-zero without a result when the program sources are missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as the ``perfbench`` package, never its modules as
# top-level names from the script directory.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
sys.path.insert(0, str(ROOT))

from perfbench import THREAD_VARS  # noqa: E402  (imports no numpy)

# Pin BLAS/OpenMP to one thread before numpy is imported: a second BLAS
# thread changes which code path is fastest and makes timings unrepeatable.
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _stop_resource_tracker() -> None:
    """Stop and reap the multiprocessing resource tracker that the program's
    shared-memory rings start, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import signal

    # A terminated run still unwinds, so open sessions close their worker
    # pools and shared memory instead of leaving orphans behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench.measure import run_benchmark
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spans = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        result, ctx = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans
        )
    finally:
        _stop_resource_tracker()
    print(json.dumps(ctx))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
