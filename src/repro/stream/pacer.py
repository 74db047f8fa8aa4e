"""Monotonic-clock pacing with backpressure: the adaptive hop batch.

The lock-step runtime of PR 5 advances shards as fast as Python allows and
*accounts* overruns after the fact; a deployed corridor service must instead
*react* to them.  :class:`Pacer` closes that loop per shard:

- **overrun → widen.**  When a shard's step spends more wall time than the
  hops it advanced bought it (``hops x hop_period``), the pacer widens that
  shard's effective hop batch (doubling, up to ``max_batch``).  A wider
  batch amortizes the per-step Python cost over more hops — the classic
  batching throughput/latency trade — so the shard catches up *by design*
  instead of letting the bounded ring silently overwrite samples.
- **headroom → shrink.**  When the step finishes well inside its budget
  (below ``shrink_headroom`` of it), the batch halves again (down to
  ``min_batch``), cutting the hop-batch delivery delay that dominates the
  detect-to-update latency budget (see :mod:`repro.stream.budget`).
- **real-time pacing (optional).**  With ``pace=True`` the pacer sleeps on
  the *monotonic* clock until the stream clock catches up, so a replayed
  corridor runs at capture speed instead of as-fast-as-possible.  The clock
  is injectable for deterministic tests.

Every decision is recorded; :class:`PacerStats` feeds the per-node health
rollups in :mod:`repro.fleet.report` through the debounced
:class:`repro.core.alerts.OverrunPolicy`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

__all__ = ["PacerConfig", "PacerStats", "Pacer", "SharedCapacity"]

# Pool-pressure policy of SharedCapacity: EMA thresholds (backlog per slot)
# above which the min-batch scale doubles / below which it halves, the
# consecutive hot (cool) observations required before it moves (debounce,
# so one skewed tick does not widen the city), and its power-of-two ceiling.
_WIDEN_PRESSURE = 2.0
_SHRINK_PRESSURE = 0.75
_PRESSURE_PATIENCE = 4
_MAX_MIN_BATCH_SCALE = 8


class SharedCapacity:
    """Fair-share accounting for shards contending for one worker pool.

    A city supervisor runs many corridor sessions' shards on one fixed set
    of workers; each session's pacers cannot judge their steps against the
    full hop budget as if the machine were theirs.  One ``SharedCapacity``
    is shared by every pacer on the pool: sessions :meth:`acquire` slots
    for their shards on join and :meth:`release` them on leave, and
    :meth:`oversubscription` reports how many shards currently contend for
    each worker slot.  A :class:`Pacer` given a capacity divides its step
    budget by that factor, so shards on an oversubscribed pool widen their
    hop batches *earlier* — backpressure reacts to city load before wall
    clocks actually slip, and relaxes as sessions leave.

    The pool also feeds a **pressure signal** back through the
    capacity: every ``step_send`` reports the pool's hop-item backlog and
    steal rate via :meth:`note_pressure`.  Sustained pressure (an EMA of
    backlog-per-slot above 2.0 for 4 consecutive observations) doubles
    :meth:`min_batch_scale` — the city-wide ``min_batch`` multiplier every
    paced session applies — up to 8, and sustained headroom (EMA below
    0.75 for as long) halves it back down.  Stealing counts double: a
    steal means a worker went idle while another was backed up, i.e. the
    pool is skew-bound, which wider batches amortize.

    Parameters
    ----------
    slots:
        Concurrent execution slots (the pool's worker count).
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = int(slots)
        self._held = 0
        self._pressure = 0.0
        self._scale = 1
        self._hot = 0
        self._cool = 0
        self.n_pressure_widenings = 0
        self.n_pressure_shrinks = 0

    @property
    def held(self) -> int:
        """Slots currently acquired across every session."""
        return self._held

    def acquire(self, n: int = 1) -> None:
        """Claim ``n`` shard slots (session join)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self._held += int(n)

    def release(self, n: int = 1) -> None:
        """Return ``n`` shard slots (session leave)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self._held = max(0, self._held - int(n))

    def oversubscription(self) -> float:
        """Shards per worker slot, floored at 1 (an idle pool scales nothing)."""
        return max(1.0, self._held / self.slots)

    def note_pressure(self, backlog: int, steals: int = 0) -> None:
        """Feed one pool observation: queued+in-flight hop items and the
        steals since the last observation (the pool calls this per
        ``step_send``)."""
        if backlog < 0 or steals < 0:
            raise ValueError("backlog and steals must be >= 0")
        inst = (backlog + 2.0 * steals) / self.slots
        self._pressure += 0.25 * (inst - self._pressure)
        if self._pressure > _WIDEN_PRESSURE:
            self._hot += 1
            self._cool = 0
            if self._hot >= _PRESSURE_PATIENCE and self._scale < _MAX_MIN_BATCH_SCALE:
                self._scale *= 2
                self._hot = 0
                self.n_pressure_widenings += 1
        elif self._pressure < _SHRINK_PRESSURE:
            self._cool += 1
            self._hot = 0
            if self._cool >= _PRESSURE_PATIENCE and self._scale > 1:
                self._scale //= 2
                self._cool = 0
                self.n_pressure_shrinks += 1
        else:
            self._hot = 0
            self._cool = 0

    def pressure(self) -> float:
        """Smoothed backlog-per-slot (EMA of :meth:`note_pressure` feeds)."""
        return self._pressure

    def min_batch_scale(self) -> int:
        """City-wide ``min_batch`` multiplier under sustained pool pressure
        (1 = no pressure; doubles up to 8)."""
        return self._scale


@dataclass(frozen=True)
class PacerConfig:
    """Backpressure policy of one :class:`Pacer`.

    Attributes
    ----------
    min_batch, max_batch:
        Bounds of the effective hop batch.  ``max_batch`` defaults to 8x
        the nominal batch at construction; ``min_batch`` to 1 (lowest
        delivery delay the hop grid allows).
    widen_factor:
        Multiplicative widen step on overrun (and the shrink divisor).
    shrink_headroom:
        Fraction of the step budget *below* which the batch shrinks again;
        between it and 1.0 the batch holds (hysteresis band, so the batch
        does not oscillate every step).
    pace:
        Sleep on the monotonic clock so steps track the stream clock
        (real-time replay) instead of free-running.
    resync_slip_s:
        Pacing stall tolerance.  When a step comes due more than this many
        seconds *late* (the loop stalled — GC pause, swapped page, noisy
        neighbour), the pacer re-anchors its stream epoch to "due now"
        instead of free-running the whole backlog: small slips are caught
        up at full speed, but a long stall is *accepted* so delivery
        cadence recovers immediately rather than staying late for the rest
        of the session.
    """

    min_batch: int = 1
    max_batch: int | None = None
    widen_factor: float = 2.0
    shrink_headroom: float = 0.5
    pace: bool = False
    resync_slip_s: float = 0.5

    def __post_init__(self) -> None:
        if self.min_batch < 1:
            raise ValueError("min_batch must be >= 1")
        if self.max_batch is not None and self.max_batch < self.min_batch:
            raise ValueError("max_batch must be >= min_batch")
        if self.widen_factor <= 1.0:
            raise ValueError("widen_factor must be > 1")
        if not 0.0 < self.shrink_headroom < 1.0:
            raise ValueError("shrink_headroom must lie in (0, 1)")
        if self.resync_slip_s <= 0.0:
            raise ValueError("resync_slip_s must be positive")


@dataclass(frozen=True)
class PacerStats:
    """What one pacer saw and did over a session.

    ``records`` holds one ``(wall_s, budget_s, batch)`` triple per step with
    at least one hop advanced, so report-side policies (e.g. the debounced
    :class:`~repro.core.alerts.OverrunPolicy`) can replay the decisions.
    """

    n_steps: int
    n_overruns: int
    n_widenings: int
    n_shrinks: int
    min_batch_used: int
    max_batch_used: int
    n_resyncs: int = 0
    records: tuple[tuple[float, float, int], ...] = field(default=())
    n_floor_raises: int = 0

    @property
    def overrun_rate(self) -> float:
        """Fraction of recorded steps that blew their hop budget."""
        return self.n_overruns / self.n_steps if self.n_steps else 0.0


class Pacer:
    """Adaptive hop-batch governor for one shard's step loop.

    Usage per step: read :attr:`batch`, advance the shard by (up to) that
    many hops, then call :meth:`observe` with the measured wall time and the
    hops actually advanced.  :meth:`wait` (no-op unless ``pace=True``)
    sleeps until the stream clock's next step is due.

    Parameters
    ----------
    hop_period_s:
        The hop deadline (``hop_length / fs``).
    hop_batch:
        Nominal (starting) hops per step.
    config:
        Backpressure policy; default bounds are ``[1, 8 x hop_batch]``.
    capacity:
        Optional :class:`SharedCapacity` of the worker pool this shard
        contends on.  When set, each step's budget is divided by the pool's
        current oversubscription before judging overrun/headroom, so a
        shard sharing a worker with K others only gets a 1/K share of real
        time — and widens its batch accordingly before wall clocks slip.
    clock, sleep:
        Injectable monotonic clock and sleeper (tests pass fakes).
    """

    def __init__(
        self,
        hop_period_s: float,
        *,
        hop_batch: int = 8,
        config: PacerConfig | None = None,
        capacity: SharedCapacity | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if hop_period_s <= 0:
            raise ValueError("hop_period_s must be positive")
        if hop_batch < 1:
            raise ValueError("hop_batch must be >= 1")
        cfg = config or PacerConfig()
        if cfg.max_batch is None:
            cfg = replace(cfg, max_batch=max(8 * hop_batch, cfg.min_batch))
        self.hop_period_s = float(hop_period_s)
        self.nominal_batch = int(hop_batch)
        self.config = cfg
        self.capacity = capacity
        self._clock = clock
        self._sleep = sleep
        self._batch = min(max(int(hop_batch), cfg.min_batch), cfg.max_batch)
        self._origin: float | None = None  # monotonic epoch of stream t=0
        self._stream_t = 0.0
        self.n_steps = 0
        self.n_overruns = 0
        self.n_widenings = 0
        self.n_shrinks = 0
        self.n_resyncs = 0
        self.n_floor_raises = 0
        self._min_used = self._batch
        self._max_used = self._batch
        self._records: list[tuple[float, float, int]] = []

    # ------------------------------------------------------------------ API

    @property
    def batch(self) -> int:
        """Current effective hop batch (what the next step should advance)."""
        return self._batch

    def wait(self, next_stream_t: float) -> float:
        """Sleep (monotonic clock) until stream time ``next_stream_t`` is
        due; returns the seconds slept.  No-op when pacing is off.

        The first call anchors the stream epoch so that *this* step is due
        exactly now (``origin = now - next_stream_t``); every later step
        then paces at capture cadence from that epoch.  (Anchoring at
        ``origin = now`` — the original bug — shifted every due time one
        step late, so a paced session permanently trailed the capture
        clock by a full hop batch.)  A step arriving more than
        ``resync_slip_s`` past its due time re-anchors the epoch the same
        way, accepting the slip so pacing resumes immediately after a
        stall instead of free-running the whole backlog.
        """
        self._stream_t = float(next_stream_t)
        if not self.config.pace:
            return 0.0
        now = self._clock()
        if self._origin is None:
            self._origin = now - next_stream_t
            return 0.0
        due = self._origin + next_stream_t
        delay = due - now
        if delay > 0:
            self._sleep(delay)
            return delay
        if -delay > self.config.resync_slip_s:
            self._origin = now - next_stream_t
            self.n_resyncs += 1
        return 0.0

    def observe(self, wall_s: float, hops_advanced: int) -> None:
        """Feed one step's measurement; adapts the batch for the next step.

        Steps that advanced no hops (ring still filling, source stalled)
        are not judged — there was no budget to spend.
        """
        if wall_s < 0:
            raise ValueError("wall_s must be non-negative")
        if hops_advanced <= 0:
            return
        self.n_steps += 1
        budget = hops_advanced * self.hop_period_s
        if self.capacity is not None:
            # Fair share of a contended pool: this shard is only entitled
            # to 1/oversubscription of real time, so both the overrun
            # judgement and the recorded budget reflect the scaled deadline.
            budget /= self.capacity.oversubscription()
        self._records.append((float(wall_s), float(budget), self._batch))
        cfg = self.config
        # City-wide pressure floor: when the shared pool reports sustained
        # backlog, every paced shard's minimum batch rises together (then
        # relaxes as the pool drains) — the whole city amortizes harder,
        # not just the shards that happen to overrun.
        floor = cfg.min_batch
        if self.capacity is not None:
            scale = self.capacity.min_batch_scale()
            if scale > 1:
                floor = min(cfg.min_batch * scale, cfg.max_batch)
        if self._batch < floor:
            self._batch = floor
            self.n_floor_raises += 1
        if wall_s > budget:
            # Backpressure: the shard cannot keep up at this batch size —
            # amortize harder instead of letting the ring drop.
            self.n_overruns += 1
            widened = min(cfg.max_batch, max(self._batch + 1, int(self._batch * cfg.widen_factor)))
            if widened != self._batch:
                self._batch = widened
                self.n_widenings += 1
        elif wall_s < cfg.shrink_headroom * budget and self._batch > floor:
            # Headroom returned: shrink toward the lowest delivery delay
            # (clamped at the pressure floor while the pool stays hot).
            shrunk = max(floor, int(self._batch / cfg.widen_factor))
            if shrunk != self._batch:
                self._batch = shrunk
                self.n_shrinks += 1
        self._min_used = min(self._min_used, self._batch)
        self._max_used = max(self._max_used, self._batch)

    def stats(self) -> PacerStats:
        """Everything this pacer saw and did so far."""
        return PacerStats(
            n_steps=self.n_steps,
            n_overruns=self.n_overruns,
            n_widenings=self.n_widenings,
            n_shrinks=self.n_shrinks,
            min_batch_used=self._min_used,
            max_batch_used=self._max_used,
            n_resyncs=self.n_resyncs,
            records=tuple(self._records),
            n_floor_raises=self.n_floor_raises,
        )
