"""The benchmark's tracer (bench/tracer.py) looks up distmine functions and
methods by name. A rename, or a method that moves to a base class, breaks
the traced benchmark run; this checks the bindings on a tiny input."""

import importlib
from pathlib import Path

from conftest import delivering
from test_cli import PINNED_RUN

import distmine

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


def test_aggregate_counters_match_an_untraced_run(monkeypatch):
    # The tracer's aggregate probe counts through len() on the fields of
    # CenterSite.aggregate's outcome; the same counts, taken from the
    # messages of an untraced run, pin what those fields mean.
    db = distmine.generate_synthetic(500, 20, 4, seed=4)
    parts = distmine.partition(db, distmine.PartitionSpec(5, "random", 7))
    run = distmine.ImprovedRun(parts, "0.05")
    sent = []

    def record(src, dst, msg):
        sent.append(msg)
        return msg

    with delivering(record):
        run.run()
    requests = [m for m in sent if isinstance(m, distmine.CountRequest)]
    everywhere = 0  # itemsets every site reported, which need no poll
    for k in range(1, len(run.metrics) + 1):
        reports = [m for m in sent if isinstance(m, distmine.LocalReport) and m.k == k]
        assert len(reports) == 5
        everywhere += len(set.intersection(*(set(map(tuple, r.rows.tolist())) for r in reports)))
    expected = {
        "protocol.decided_immediately": everywhere,
        "protocol.maxcount_pruned": sum(map(len, run.maxcount_pruned)),
        "protocol.poll_requests": len(requests),
        "protocol.polled_itemsets": sum(len(r.rows) for r in requests),
    }
    assert (expected["protocol.poll_requests"], expected["protocol.maxcount_pruned"]) == (13, 60)

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    trace = tracer.Tracer()
    with tracer.instrument(trace) as main:
        assert main([*PINNED_RUN, "--algorithm", "improved"]) == 0
    assert {name: trace.counts[name] for name in expected} == expected
