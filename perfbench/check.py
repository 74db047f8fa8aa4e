"""Output check: fused corridor tracks against a reference computation."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["track_mismatch"]


def track_mismatch(got: Sequence, want: Sequence, *, exact: bool = False) -> str | None:
    """Why two fused-track lists differ, or ``None`` when they match.

    Ids, labels, hits, contributing nodes, confirmation (flag and frame) and
    history frames must be equal; positions equal within 1e-9 (the live
    versus offline contract), or bit for bit with ``exact``.
    """
    if len(got) != len(want):
        return f"{len(got)} tracks, reference has {len(want)}"
    for live, ref in zip(got, want):
        for field in ("track_id", "label", "hits", "nodes", "confirmed", "confirmed_frame"):
            a, b = getattr(live, field), getattr(ref, field)
            if a != b:
                return f"track {ref.track_id}: {field} {a!r} != {b!r}"
        if not np.array_equal(live.frames(), ref.frames()):
            return f"track {ref.track_id}: history frames differ"
        a, b = live.positions(), ref.positions()
        same = np.array_equal(a, b) if exact else np.allclose(a, b, rtol=1e-9, atol=1e-9)
        if not same:
            return f"track {ref.track_id}: positions differ"
    return None
