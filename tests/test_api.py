"""The names the step benchmark's tracer and the package exports rely on.

``stepbench/spans.py`` wraps harness and layer calls by attribute name when
it installs its spans, so deleting or renaming one of them breaks the traced
benchmark run without failing any other test.
"""

import types
from pathlib import Path

import acpshield

SPANS_PATH = Path(__file__).resolve().parent.parent / "stepbench" / "spans.py"


def load_spans():
    """Execute spans.py from its source, writing no bytecode cache beside it."""
    module = types.ModuleType("stepbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"),
         module.__dict__)
    return module


def test_span_targets_resolve():
    spans = load_spans()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in spans.SPANS.values() if not hasattr(owner, attr)]
    assert missing == []
    assert callable(spans.harness.make_predictor)


def test_tracer_installs_and_restores():
    spans = load_spans()
    originals = {(owner, attr): getattr(owner, attr)
                 for owner, attr in spans.SPANS.values()}
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())


def test_public_names_import():
    namespace = {}
    exec("from acpshield import *", namespace)
    assert sorted(set(acpshield.__all__) - set(namespace)) == []
    assert len(set(acpshield.__all__)) == len(acpshield.__all__)
