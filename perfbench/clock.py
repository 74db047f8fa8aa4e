"""Replayed real-time arrival clock: per-hop detect-to-update latency.

The benchmark steps a session as fast as it can ("free-running") and then
replays the measured step wall times against the capture clock, as if the
audio had arrived in real time:

- step ``k`` starts at ``max(end of step k-1, arrival of the newest audio
  step k consumed)`` and lasts its measured wall time;
- a hop of frame ``f`` is captured completely at ``(f*hop + frame)/fs``;
- it is updated at the end of the step whose fusion frontier passed ``f``.

A session faster than real time therefore waits for its audio (lag = the
step's own wall time), and a session slower than real time accumulates a
backlog that every later hop pays for, without anything having to sleep.
Everything here is a pure function of the recorded step log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Replay", "replay_steps", "hop_latencies", "capture_complete_s", "tail_percentile"]


@dataclass(frozen=True)
class Replay:
    """Replayed schedule of a session's steps (seconds on the capture clock).

    ``backlog_s[k]`` is how long step ``k`` waited for the previous step
    after its audio had already arrived: 0 while the session keeps up with
    real time, growing while it falls behind.
    """

    start_s: np.ndarray
    end_s: np.ndarray
    backlog_s: np.ndarray


def capture_complete_s(frame: int | np.ndarray, *, hop_length: int, frame_length: int, fs: float):
    """Capture-complete time of frame ``frame``: ``(f*hop + frame_length)/fs``."""
    return (np.asarray(frame, dtype=np.float64) * hop_length + frame_length) / fs


def replay_steps(walls_s: Sequence[float], arrivals_s: Sequence[float | None]) -> Replay:
    """Replay measured step walls on the real-time arrival clock.

    ``arrivals_s[k]`` is the capture-complete time of the newest audio step
    ``k`` consumed, or ``None`` for a step that completed no new frame (it
    then waits for nothing newer than its predecessor did).  Arrivals are
    taken as a running maximum: audio never arrives out of order.
    """
    if len(walls_s) != len(arrivals_s):
        raise ValueError("walls_s and arrivals_s must align")
    n = len(walls_s)
    start = np.empty(n)
    end = np.empty(n)
    backlog = np.empty(n)
    prev_end = 0.0
    arrival = 0.0
    for k, (wall, arr) in enumerate(zip(walls_s, arrivals_s)):
        if wall < 0:
            raise ValueError("step wall times must be non-negative")
        if arr is not None:
            arrival = max(arrival, float(arr))
        start[k] = max(prev_end, arrival)
        backlog[k] = start[k] - arrival
        end[k] = start[k] + float(wall)
        prev_end = end[k]
    return Replay(start, end, backlog)


def hop_latencies(
    end_s: np.ndarray,
    fused: Sequence[Sequence[tuple[int, int, int]]],
    *,
    hop_length: int,
    frame_length: int,
    fs: float,
    timed: Sequence[bool] | None = None,
) -> np.ndarray:
    """Detect-to-update latency (seconds) of every fused ``(node, frame)`` hop.

    ``fused[k]`` lists the ``(lo, hi, n_nodes)`` frame ranges whose fusion
    frontier step ``k`` passed, each frame counted once per node that
    captured it.  Steps with ``timed[k]`` false (set-up steps) contribute
    no samples.  Every hop gets a latency whether or not any track update
    was emitted for its frame.
    """
    if len(fused) != len(end_s):
        raise ValueError("fused and end_s must align")
    out: list[np.ndarray] = []
    for k, ranges in enumerate(fused):
        if timed is not None and not timed[k]:
            continue
        for lo, hi, n_nodes in ranges:
            if hi <= lo or n_nodes <= 0:
                continue
            cap = capture_complete_s(
                np.arange(lo, hi), hop_length=hop_length, frame_length=frame_length, fs=fs
            )
            out.append(np.repeat(end_s[k] - cap, n_nodes))
    return np.concatenate(out) if out else np.empty(0)


def tail_percentile(n_samples: int) -> float:
    """The highest percentile up to 99 with at least 10 samples beyond it.

    With 10 samples or fewer no tail is resolvable and the median (50) is
    returned.
    """
    if n_samples <= 10:
        return 50.0
    return max(50.0, min(99.0, 100.0 * (1.0 - 10 / n_samples)))
