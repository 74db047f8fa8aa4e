"""Summarize the benchmark trail: ``python -m repro.tools.bench_report``.

Every guarded bench appends ``{bench, wall_ms, speedup, ...}`` rows to
``BENCH_pipeline.json`` (see ``benchmarks/conftest.py``), so the file holds
the performance trajectory of the whole PR sequence.  This tool renders that
trail as one table per bench — run count, latest and best wall/speedup, and
the latest ``p95_ms`` where the bench records one — so a regression shows up
as "latest" drifting away from "best" without replaying any bench.

``--check`` turns the tool into a smoke test for the trail itself (usable
from tier-1): the file must parse to a list of well-formed rows and every
bench that recorded rows must carry finite ``wall_ms``/``speedup`` values —
the same "NaN must fail loudly" rationale as the ``--bench-min-speedup``
guard.  A *missing* trail passes (fresh checkouts have no rows yet), and no
particular bench is required to be present: the multi-core benches (E16,
E19's speedup contrast) legitimately never record rows on single-core
runners, so their absence is reported but never fatal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

__all__ = ["load_rows", "group_rows", "summarize", "check_rows", "main"]

_REQUIRED = ("bench", "wall_ms", "speedup")


def load_rows(path: str | Path) -> list[dict]:
    """Parse the trail file into a row list.

    Raises ``ValueError`` on malformed JSON or a non-list top level;
    ``FileNotFoundError`` propagates for a missing file (callers distinguish
    "no trail yet" from "broken trail").
    """
    text = Path(path).read_text()
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("trail must be a JSON list of row objects")
    return data


def group_rows(rows: list[dict]) -> dict[str, list[dict]]:
    """Rows per bench name, preserving append (chronological) order."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        if isinstance(row, dict) and "bench" in row:
            groups.setdefault(str(row["bench"]), []).append(row)
    return groups


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def summarize(groups: dict[str, list[dict]]) -> list[dict]:
    """One summary record per bench: latest vs best trajectory."""
    out = []
    for name in sorted(groups):
        rows = groups[name]
        walls = [r["wall_ms"] for r in rows if _finite(r.get("wall_ms"))]
        speeds = [r["speedup"] for r in rows if _finite(r.get("speedup"))]
        p95s = [r["p95_ms"] for r in rows if _finite(r.get("p95_ms"))]
        out.append(
            {
                "bench": name,
                "runs": len(rows),
                "latest_ms": walls[-1] if walls else float("nan"),
                "best_ms": min(walls) if walls else float("nan"),
                "latest_x": speeds[-1] if speeds else float("nan"),
                "best_x": max(speeds) if speeds else float("nan"),
                "latest_p95_ms": p95s[-1] if p95s else None,
            }
        )
    return out


def check_rows(rows: list[dict]) -> list[str]:
    """Integrity problems in the trail (empty list = healthy).

    A row missing the ``bench``/``wall_ms``/``speedup`` triple, or carrying
    a non-finite wall/speedup, indicates a broken bench run that would also
    defeat the CI guards — surface it here so tier-1 catches it first.
    """
    problems = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"row {i}: not an object")
            continue
        missing = [k for k in _REQUIRED if k not in row]
        if missing:
            problems.append(f"row {i}: missing {', '.join(missing)}")
            continue
        for key in ("wall_ms", "speedup"):
            if not _finite(row[key]):
                problems.append(
                    f"row {i} ({row['bench']}): non-finite {key} ({row[key]!r})"
                )
    return problems


def _print_report(groups: dict[str, list[dict]]) -> None:
    header = ("bench", "runs", "latest ms", "best ms", "latest x", "best x", "p95 ms")
    widths = (28, 5, 10, 10, 9, 9, 8)
    print(" | ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
    for s in summarize(groups):
        p95 = f"{s['latest_p95_ms']:.4g}" if s["latest_p95_ms"] is not None else "-"
        cells = (
            s["bench"],
            str(s["runs"]),
            f"{s['latest_ms']:.4g}",
            f"{s['best_ms']:.4g}",
            f"{s['latest_x']:.3g}",
            f"{s['best_x']:.3g}",
            p95,
        )
        print(" | ".join(f"{c:>{w}}" for c, w in zip(cells, widths)))


# Benches that only record rows on multi-core machines (written only by
# ``parallel``-marked bench modules); their absence from a trail is expected
# on single-core runners and never a check failure.
MULTICORE_ONLY = tuple(f"E16_parallel_fleet_{w}w" for w in (1, 2, 4)) + (
    "E16_detect_to_update", "E18_paced_min_batch", "E19_city_steal_on", "E19_city_steal_off",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench_report",
        description="summarize the BENCH_pipeline.json performance trail",
    )
    parser.add_argument(
        "--json",
        default="BENCH_pipeline.json",
        help="trail file to read (default: BENCH_pipeline.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the trail instead of printing tables (exit 1 on problems)",
    )
    args = parser.parse_args(argv)

    try:
        rows = load_rows(args.json)
    except FileNotFoundError:
        print(f"no trail at {args.json} (nothing recorded yet)")
        return 0
    except ValueError as exc:
        print(f"broken trail {args.json}: {exc}", file=sys.stderr)
        return 1

    problems = check_rows(rows)
    groups = group_rows(rows)

    if args.check:
        for p in problems:
            print(f"check: {p}", file=sys.stderr)
        absent = [b for b in MULTICORE_ONLY if b not in groups]
        if absent:
            print(f"skipped (multi-core only, no rows): {', '.join(absent)}")
        print(
            f"{args.json}: {len(rows)} rows, {len(groups)} benches, "
            f"{len(problems)} problem(s)"
        )
        return 1 if problems else 0

    _print_report(groups)
    if problems:
        print(f"\n{len(problems)} malformed row(s) — run --check for details")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
