"""The shared per-hop kernel: detect → (prime) → localize → track.

Every execution engine of the perception stack — the frame-by-frame
streaming :class:`~repro.core.pipeline.AcousticPerceptionPipeline`, the
batched :class:`~repro.core.batch.BlockPipeline`, and the live session
driver :class:`repro.fleet.FleetStream` (hop frames ingested through
:mod:`repro.stream`) — runs the *same* per-hop sequence: classify
the reference channel, localize the hops whose detection fired, replay the
scalar DOA tracker in stream order.  Before this module each engine carried
its own copy of that sequence and the copies had to be kept bit-identical by
convention; :class:`HopKernel` is the one implementation they all drive.

A kernel is a thin stateless view over one pipeline's components (window,
mel filterbank, detector, localizer, detection-density EMA).  Stream state —
tracker, refinement window, frame counter — is *not* owned here: each driver
passes the state it wants advanced, so one kernel serves a single stream,
a batch of independent clips, or a fleet shard equally.

**Adaptive priming.**  In the dense-detection regime the kernel "primes" the
shared :class:`~repro.ssl.gcc.SpectraCache` — the localizer's FFTs are
computed up front and the detector derives its windowed spectra from them
(one FFT pass per block instead of two).  Whether that pays depends on the
FFT geometry: priming spends ``n_fft_srp`` FFTs on *every* hop but saves the
``frame_length`` detection FFT only when the derivation shortcut applies,
while undetected hops would never have paid the localizer FFT at all.  The
kernel therefore primes when the recent detection density (the pipeline's
EMA, the expected cache hit rate) exceeds a per-configuration break-even
threshold computed from the FFT cost ratio; configurations where the cost
model degenerates fall back to the historical fixed 0.5 gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.nn.losses import softmax
from repro.sed.events import EVENT_CLASSES, is_emergency
from repro.ssl.gcc import SpectraCache
from repro.ssl.refine import RefineState
from repro.ssl.srp import SrpResult
from repro.ssl.tracking import KalmanDoaTracker

if TYPE_CHECKING:  # circular at runtime: pipeline builds its kernel lazily
    from repro.core.pipeline import AcousticPerceptionPipeline, FrameResult

__all__ = ["HopKernel", "DENSE_PRIME_THRESHOLD"]

_EMERGENCY_MASK = np.array([is_emergency(name) for name in EVENT_CLASSES])

# Historical fixed detection-density gate; the fallback when the FFT cost
# model cannot produce a usable break-even point.
DENSE_PRIME_THRESHOLD = 0.5


class HopKernel:
    """One pipeline's per-hop core, drivable by any execution engine.

    Parameters
    ----------
    pipeline:
        The :class:`AcousticPerceptionPipeline` whose components (detector,
        localizer, window, mel filterbank) and detection-density EMA this
        kernel advances.
    """

    def __init__(self, pipeline: "AcousticPerceptionPipeline") -> None:
        self.pipeline = pipeline
        self._prime_threshold: float | None = None
        self._accepts_cache: bool | None = None

    # ------------------------------------------------------------- cache

    def make_cache(self, frames: np.ndarray) -> SpectraCache:
        """Shared spectra cache over a ``(T, M, L)`` frame block."""
        dtype = np.float32 if self.pipeline.config.spectra_dtype == "float32" else np.float64
        return SpectraCache(frames, dtype=dtype)

    # ----------------------------------------------------------- priming

    @property
    def prime_threshold(self) -> float:
        """Detection density above which priming the shared cache pays off.

        Break-even of the per-hop FFT budget: unprimed, a hop pays the
        ``frame_length`` detection FFT plus — with probability ``ema`` (the
        expected cache hit rate) — the ``n_fft_srp`` localizer FFT; primed,
        every hop pays the localizer FFT once and detection is derived from
        it.  Priming wins when ``ema > 1 - cost(det) / cost(loc)``.  The
        derivation shortcut only exists for a periodic-Hann window with
        ``n_fft_srp == 2 * frame_length`` (see
        :meth:`SpectraCache.ref_windowed_power`); other geometries never
        prime (threshold 1.0).  A degenerate estimate falls back to the
        fixed :data:`DENSE_PRIME_THRESHOLD` EMA gate.
        """
        if self._prime_threshold is None:
            cfg = self.pipeline.config
            length, n_fft = cfg.frame_length, cfg.n_fft_srp
            if n_fft != 2 * length or not SpectraCache._is_periodic_hann(self.pipeline.window):
                self._prime_threshold = 1.0  # derivation unavailable: priming is pure cost
            else:
                detect_cost = length * np.log2(length)
                localize_cost = n_fft * np.log2(n_fft)
                estimate = 1.0 - detect_cost / localize_cost
                if not np.isfinite(estimate) or not 0.0 < estimate < 1.0:
                    estimate = DENSE_PRIME_THRESHOLD
                self._prime_threshold = float(estimate)
        return self._prime_threshold

    def should_prime(self) -> bool:
        """Whether the current detection-density EMA clears the break-even."""
        return self.pipeline._dense_ema > self.prime_threshold

    # ------------------------------------------------------------ stages

    def detect(
        self, cache: SpectraCache, *, prime: bool | None = None
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Batched detection front-end over a shared spectra cache.

        Returns ``(labels, confidences, detected)`` and advances the
        pipeline's detection-density EMA in closed form (identical to the
        per-hop 0.9/0.1 update of a streaming tick).  ``prime`` overrides
        the adaptive priming decision (``None`` = cost model; streaming
        single-frame drivers pass ``False`` to keep the detection front-end
        on the bit-exact float64 path).
        """
        pipeline = self.pipeline
        if prime is None:
            prime = self.should_prime()
        if prime:
            cache.prime_dense(pipeline.config.n_fft_srp, pipeline.window)
        spectra = cache.ref_windowed_power(pipeline.window)
        mel = spectra @ pipeline.mel_fb.T
        feat = np.log(np.maximum(mel, 1e-10))
        std = feat.std(axis=-1, keepdims=True)
        feat = (feat - feat.mean(axis=-1, keepdims=True)) / np.where(std == 0.0, 1.0, std)
        post = softmax(pipeline.detector.forward(feat), axis=1)
        best = np.argmax(post, axis=1)
        confidences = post[np.arange(post.shape[0]), best]
        labels = [EVENT_CLASSES[k] for k in best]
        detected = _EMERGENCY_MASK[best] & (confidences >= pipeline.config.detect_threshold)
        if detected.size:
            # Same 0.9/0.1 per-hop EMA as the streaming tick, closed-form.
            decay = 0.9 ** np.arange(detected.size - 1, -1, -1)
            pipeline._dense_ema = float(
                0.9**detected.size * pipeline._dense_ema + 0.1 * (detected @ decay)
            )
        return labels, confidences, detected

    def localize(
        self,
        cache: SpectraCache,
        detected: np.ndarray,
        state: RefineState | None,
        *,
        offset: int = 0,
    ) -> dict[int, SrpResult]:
        """Batched localization of the detected frames only.

        ``detected`` indexes cache rows ``offset .. offset + len(detected)``;
        the hit rows are sliced out of the shared cache (keeping whatever
        spectra the detector already computed) and run through the
        localizer's cached coarse-to-fine path; ``state`` carries the
        temporal-reuse window.  The returned dict is keyed relative to
        ``offset``.
        """
        hits = np.flatnonzero(detected)
        if hits.size == 0:
            return {}
        if offset == 0 and hits.size == cache.n_frames:
            sub = cache
        else:
            sub = cache.take(hits + offset)
        return dict(zip(hits.tolist(), self._localize_cache(sub, state)))

    def _localize_cache(self, sub: SpectraCache, state: RefineState | None) -> list[SrpResult]:
        """Run one cache of frames through the localizer's batched path.

        External localizers degrade gracefully: without the cache/state
        keywords they receive the original float64 frames, and without a
        ``localize_batch`` at all they are driven one frame at a time
        through ``localize`` (passing ``state`` when supported) — the
        contract the streaming tick has always offered.
        """
        localizer = self.pipeline.localizer
        fn = getattr(localizer, "localize_batch", None)
        if fn is None:
            frames = np.ascontiguousarray(sub.source_frames, dtype=np.float64)
            if self._accepts_cache is None:
                self._accepts_cache = self._probe_kwargs(localizer.localize, ("state",))
            if self._accepts_cache:
                return [localizer.localize(f, state=state) for f in frames]
            return [localizer.localize(f) for f in frames]
        if self._accepts_cache is None:
            self._accepts_cache = self._probe_kwargs(fn, ("cache", "state"))
        if self._accepts_cache:
            return fn(None, cache=sub, state=state)
        # External localizer without the cache/coarse-to-fine keywords: hand
        # it the original float64 frames, exactly like the streaming path.
        return fn(np.ascontiguousarray(sub.source_frames, dtype=np.float64))

    @staticmethod
    def _probe_kwargs(fn, names: tuple[str, ...]) -> bool:
        """Whether ``fn``'s signature accepts every keyword in ``names``."""
        try:
            import inspect

            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            return False
        return all(name in params for name in names)

    def track(
        self,
        tracker: KalmanDoaTracker,
        labels: list[str],
        confidences: np.ndarray,
        detected: np.ndarray,
        doas: dict[int, SrpResult],
        start_index: int,
    ) -> "list[FrameResult]":
        """Sequential tracker update/predict pass, identical to stream order."""
        from repro.core.pipeline import FrameResult

        nan = float("nan")
        if not tracker.initialized and not detected.any():
            # Nothing fires and nothing is tracked: the replay is bookkeeping.
            return [
                FrameResult(start_index + t, labels[t], conf, False, nan, nan)
                for t, conf in enumerate(confidences.tolist())
            ]
        out: "list[FrameResult]" = []
        for t in range(len(labels)):
            azimuth = elevation = float("nan")
            if detected[t]:
                res = doas[t]
                state = tracker.update(res.azimuth, res.elevation)
                azimuth, elevation = state.azimuth, state.elevation
            elif tracker.initialized:
                state = tracker.predict()
                azimuth, elevation = state.azimuth, state.elevation
            out.append(
                FrameResult(
                    start_index + t,
                    labels[t],
                    float(confidences[t]),
                    bool(detected[t]),
                    azimuth,
                    elevation,
                )
            )
        return out

    # ----------------------------------------------------------- drivers

    def step(
        self,
        frames: np.ndarray,
        *,
        tracker: KalmanDoaTracker,
        state: RefineState | None,
        start_index: int = 0,
        prime: bool | None = None,
    ) -> "list[FrameResult]":
        """Advance one stream by one block of hops.

        ``frames`` is ``(T, M, L)``; ``tracker``/``state`` are the stream's
        mutable tracker and refinement-window state, advanced in place.
        This is the whole per-hop pipeline for every engine: a streaming
        tick is a block of one, a batch chunk a block of many.
        """
        cache = self.make_cache(frames)
        labels, confidences, detected = self.detect(cache, prime=prime)
        doas = self.localize(cache, detected, state)
        return self.track(tracker, labels, confidences, detected, doas, start_index)

    def run_clips(
        self,
        blocks: Sequence[np.ndarray],
        trackers: Sequence[KalmanDoaTracker],
        states: Sequence[RefineState | None],
        start_indices: Sequence[int],
        *,
        prime: bool | None = None,
    ) -> "list[list[FrameResult]]":
        """Advance several independent streams through **one** shared cache.

        The blocks (``(T_i, M, L)`` each) are concatenated so detection and
        cache priming run as a single batched pass; localization and
        tracking then replay per stream with that stream's own state.  This
        is the fleet-shard shape: one detector forward per shard per step.
        """
        if not len(blocks) == len(trackers) == len(states) == len(start_indices):
            raise ValueError("blocks, trackers, states and start_indices must align")
        if not blocks:
            return []
        flat = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
        cache = self.make_cache(flat)
        labels, confidences, detected = self.detect(cache, prime=prime)
        out: "list[list[FrameResult]]" = []
        lo = 0
        for block, tracker, state, start in zip(blocks, trackers, states, start_indices):
            per_clip = block.shape[0]
            clip_detected = detected[lo : lo + per_clip]
            doas = self.localize(cache, clip_detected, state, offset=lo)
            out.append(
                self.track(
                    tracker,
                    labels[lo : lo + per_clip],
                    confidences[lo : lo + per_clip],
                    clip_detected,
                    doas,
                    start,
                )
            )
            lo += per_clip
        return out
