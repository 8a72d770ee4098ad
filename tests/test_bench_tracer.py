"""The benchmark's tracer (bench/tracer.py) looks up distmine functions and
methods by name. A rename, or a method that moves to a base class, breaks
the traced benchmark run; this checks the bindings on a tiny input."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bindings(tracer) -> dict:
    """Every name in the traced modules and classes, with its object."""
    owners = [importlib.import_module(f"distmine.{m}") for m in tracer.LAYERS]
    owners += [
        getattr(importlib.import_module(f"distmine.{home}"), cls)
        for home, cls, *_ in tracer.METHODS
    ]
    return {(id(o), name): obj for o in owners for name, obj in vars(o).items()}


def test_traced_runs_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    before = bindings(tracer)
    trace = tracer.Tracer()
    with tracer.instrument(trace) as main:
        for algorithm in ("improved", "cd", "sequential"):
            rc = main([
                "--synthetic", "T=3,I=12,D=80,seed=1", "--sites", "2",
                "--minsup", "0.1", "--algorithm", algorithm,
                "--out", str(tmp_path / f"{algorithm}.json"),
            ])  # fmt: skip
            assert rc == 0, algorithm
    names = {span[0] for span in trace.spans}
    assert {"cli.main", "protocol.run", "count_distribution.run"} <= names
    assert bindings(tracer) == before
