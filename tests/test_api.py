"""The names and configs the step benchmark and the package exports rely on.

``stepbench/spans.py`` wraps harness and layer calls by attribute name when
it installs its spans, so deleting or renaming one of them breaks the traced
benchmark run without failing any other test. An episode loop that reached
a stage without looking its call up there would leave that stage's spans
empty, which the episode tests below catch. Likewise a config key the
program drops but a config the benchmark reads still sets would fail every
benchmark run.
"""

import ast
from pathlib import Path

import acpshield
from acpshield.harness import AgentSetup, load_config, parse_config, run_episode

import oracles
from test_harness import load_stepbench, small_config

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_configs_parse():
    paths = sorted((ROOT / "configs").glob("*.yaml"))
    assert len(paths) >= 2
    for path in paths:
        load_config(path)
    for make_config, _ in load_stepbench("inputs").WORKLOADS.values():
        parse_config(make_config())


def test_span_targets_resolve():
    spans = load_stepbench("spans")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in spans.SPANS.values() if not hasattr(owner, attr)]
    assert missing == []
    assert callable(spans.harness.make_predictor)


def test_tracer_installs_and_restores():
    spans = load_stepbench("spans")
    originals = {(owner, attr): getattr(owner, attr)
                 for owner, attr in spans.SPANS.values()}
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())


def traced_span_names(cfg, source=None):
    """Names of the spans one episode records under an installed tracer."""
    tracer = load_stepbench("spans").Tracer()
    tracer.install()
    try:
        run_episode(cfg, source=source)
    finally:
        tracer.remove()
    return {span[0] for span in tracer.spans}


def test_traced_episode_records_every_stage():
    spans = load_stepbench("spans")
    names = traced_span_names(small_config(max_steps=4))
    expected = set(spans.SPANS) - {"planner.fallback"}
    expected |= {"trajectory.load_predictor", "trajectory.predict"}
    assert sorted(expected - names) == []
    # every root action shielded: one parked agent and a wide buffer
    parked = oracles.source_from_tracks({0: [(t, (1.0, 1.0)) for t in range(200)]})
    deadlocked = small_config(epsilon=8.0, max_steps=6, agents=AgentSetup(count=1))
    assert "planner.fallback" in traced_span_names(deadlocked, parked)


def test_public_names_import():
    namespace = {}
    exec("from acpshield import *", namespace)
    assert sorted(set(acpshield.__all__) - set(namespace)) == []
    assert len(set(acpshield.__all__)) == len(acpshield.__all__)


def test_public_names_are_used_by_cli_or_harness():
    # the package exports what the CLI and the harness are built from; a
    # name only tests use belongs in tests/
    imported = set()
    for module in ("cli", "harness"):
        source = (ROOT / "src" / "acpshield" / f"{module}.py").read_text(encoding="utf-8")
        imported |= {alias.name for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(set(acpshield.__all__) - imported) == []


def unused_imports(path):
    """Names a module imports at its top level and never reads; a name in
    ``__all__`` counts as read, ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_unused_imports():
    unused = {str(path.relative_to(ROOT)): names
              for folder in ("src", "tests") for path in sorted((ROOT / folder).rglob("*.py"))
              if (names := unused_imports(path))}
    assert unused == {}
