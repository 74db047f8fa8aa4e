"""repro: Real-Time Acoustic Perception for Automotive Applications.

A full reproduction of the I-SPOT project paper (DATE 2023,
arXiv:2301.12808): road-acoustics simulation, emergency-sound detection,
sound-source localization (SRP-PHAT / Cross3D), microphone-array
assessment, and the hardware-algorithm co-design workflow with operator IR,
cost models and a CGRA mapping substrate.

Subpackages
-----------
acoustics
    Road-acoustics simulator (pyroadacoustics reimplementation).
signals
    Siren/horn/urban-noise synthesis.
dsp
    STFT, FIR design, levels, resampling.
features
    Spectrogram/mel/MFCC/gammatone/GFCC/CQT/chroma front-ends.
nn
    From-scratch numpy neural-network framework.
sed
    Detection dataset, models, training, metrics.
ssl
    GCC-PHAT, SRP-PHAT (conventional + low-complexity), Cross3D, tracking.
arrays
    Microphone-array topologies and assessment.
hw
    Operator IR, roofline/cost models, CGRA fabric + mapper, co-design DSE.
core
    The end-to-end streaming pipeline with drive/park modes.
fleet
    Multi-node roadside sensor network: corridor simulation, sharded
    per-node pipelines, cross-node track fusion and corridor reports.
stream
    Real-time ingest runtime: ring buffers, chunk sources, hop-clocked
    engines with latency and late/dropped-chunk accounting.

Performance notes
-----------------
Three execution engines drive one shared per-hop implementation
(:class:`repro.core.hop.HopKernel` — detect, prime, localize, track):

- **Streaming** (:class:`repro.core.AcousticPerceptionPipeline`): one
  ``process_frame`` tick per hop — bounded latency, the low-latency driving
  mode of the paper.
- **Batched** (:class:`repro.core.BlockPipeline` /
  :func:`repro.core.process_signal_batched`): whole recordings (or batches
  of recordings) flow through as array operations — a zero-copy framing
  view (:func:`repro.dsp.stft.frame_signals`), one batched FFT + mel +
  detector forward over all hops, and one batched SRP/MUSIC call over the
  detected frames (``map_from_frames_batch``).  Results are numerically
  equivalent to streaming; throughput is ~10x on front-end-bound clips
  (see ``benchmarks/test_bench_throughput.py`` and ``BENCH_pipeline.json``).
- **Real-time ingest** (:class:`repro.fleet.FleetStream`, one driver
  for a corridor or a single array run as a one-node corridor, in-process
  or on forked shard workers): chunk sources feed fixed-capacity ring
  buffers (:class:`repro.stream.NodeIngest`); each hop-clocked step
  advances one hop batch and fuses the new frames immediately, with per-hop
  latency guarded against the hop deadline (bench E15).

The batched GCC layer (:func:`repro.ssl.gcc_phat_spectra`) computes each
microphone's FFT once and whitens per mic, so both engines spend
``n_mics`` transforms per frame instead of ``2 * n_pairs``.  In the
dense-detection regime (a siren in every hop), localization runs through a
shared per-block :class:`repro.ssl.SpectraCache` and a coarse-to-fine grid
search with temporal window reuse (:mod:`repro.ssl.refine`) — the default
path, ~5-6x streaming where the one-shot dense sweep managed ~1.5x.
Coefficient tables (:func:`repro.dsp.stft.get_window`,
:func:`repro.features.mel_filterbank`) are memoized and shared.
"""

__version__ = "1.0.0"

__all__ = [
    "acoustics",
    "signals",
    "dsp",
    "features",
    "nn",
    "sed",
    "ssl",
    "arrays",
    "hw",
    "core",
    "fleet",
    "stream",
]
