"""The benchmark's layer hooks resolve against the program.

``perfbench`` times each layer by wrapping program attributes named by
``module:Class.attr`` paths (:data:`perfbench.spans.LAYER_TARGETS`).  A
refactor that moves or renames one of them would otherwise first fail in
the middle of a benchmark run; these tests catch it in the unit suite, and
check that removing the tracer leaves every wrapped attribute exactly as it
was.
"""

import numpy as np

from perfbench.spans import LAYER_TARGETS, Tracer, _resolve
from repro.stream import NodeIngest, RecordingChunkSource, RingBuffer

_ABSENT = object()


def _snapshot():
    """``target -> (owner, attr, own value or _ABSENT, resolved value)``."""
    out = {}
    for _, target in LAYER_TARGETS:
        owner, attr = _resolve(target)
        out[target] = (owner, attr, vars(owner).get(attr, _ABSENT), getattr(owner, attr))
    return out


def test_every_layer_target_resolves_to_a_callable():
    for name, target in LAYER_TARGETS:
        owner, attr = _resolve(target)
        assert hasattr(owner, attr), f"{name}: {target} does not resolve"
        assert callable(getattr(owner, attr)), f"{name}: {target} is not callable"


def test_install_wraps_and_remove_restores_the_identical_objects():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        for target, (owner, attr, _, resolved) in before.items():
            wrapped = getattr(owner, attr)
            assert wrapped is not resolved, f"{target} was not wrapped"
            assert wrapped.__wrapped__ is resolved
    finally:
        tracer.remove()
    for target, (owner, attr, own, resolved) in before.items():
        assert vars(owner).get(attr, _ABSENT) is own, f"{target} not restored"
        assert getattr(owner, attr) is resolved, f"{target} not restored"


def test_wrapped_ingest_records_its_spans():
    src = RecordingChunkSource(np.zeros((1, 2048)), 8000.0, chunk_samples=256)
    ingest = NodeIngest(src, 512, 256, RingBuffer(1, 4096))
    tracer = Tracer()
    with tracer.tracing("t"):
        ingest.pull(None)
        ingest.pop_frames()
    assert [span[0] for span in tracer.spans] == ["ingest.pull", "ingest.pop"]
