"""Spans and counters around the public functions of each distmine layer.

The program is left untouched: ``instrument`` swaps traced wrappers into the
module namespaces and classes for the length of a ``with`` block and puts the
originals back afterwards. A span is (name, start, end, parent index); the
root is ``cli.main``. Counters are taken at the same boundaries, from the
arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

LAYERS = ("dataset", "lmatrix", "miner", "protocol", "count_distribution", "messages", "cli")


class Tracer:
    """Spans and counters of one traced ``cli.main`` call, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        # Ingested databases, counted after the run so that the counting
        # does not land in the parent span's self time.
        self.ingested: list = []

    def totals(self) -> tuple[Counter, Counter]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the duration of its direct
        children; spans nest strictly, so this is the time it covers alone.
        """
        total: Counter = Counter()
        own: Counter = Counter()
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] += d
            own[name] += d
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        return total, own

    def write_jsonl(self, path, workload: str, algorithm: str) -> None:
        """One JSON line per span; times in seconds from the root's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "a", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(
                    f'{{"id":{i},"name":"{name}","start":{start - t0:.9f},'
                    f'"end":{end - t0:.9f},"parent":{parent},'
                    f'"workload":"{workload}","algorithm":"{algorithm}"}}\n'
                )


def _wrap(tracer: Tracer, name: str, fn, probe=None):
    spans, stack, clock = tracer.spans, tracer.stack, time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(sid)
        start = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, parent)
        if probe is not None:
            probe(tracer, args, out)
        return out

    return traced


def _support(t, args, out):
    matrix, itemset = args
    t.counts["lmatrix.support_calls"] += 1
    # Computed, not measured: every column of the itemset is read in full
    # (the early exit on an all-zero running vector is ignored).
    t.counts["lmatrix.support_words"] += len(itemset) * ((matrix.n_rows + 63) >> 6)


def _from_db(t, args, out):
    # Computed, not measured: the size of the words array from_db allocates.
    t.counts["lmatrix.matrix_bytes"] += out.n_cols * ((out.n_rows + 63) >> 6) * 8


def _apriori_gen(t, args, out):
    t.counts["miner.apriori_gen_calls"] += 1
    t.counts["miner.candidates_generated"] += len(out)


def _ingest(t, args, out):
    t.ingested.append(out)


def _local_prune(t, args, out):
    t.counts["protocol.locally_pruned"] += len(args[0]) - len(out)


def _aggregate(t, args, out):
    immediate, pruned, requests = out
    t.counts["protocol.decided_immediately"] += len(immediate)
    t.counts["protocol.maxcount_pruned"] += len(pruned)
    t.counts["protocol.poll_requests"] += len(requests)
    t.counts["protocol.polled_itemsets"] += sum(len(r.itemsets) for r in requests.values())


def _send(t, args, out):
    t.counts["messages.send_calls"] += 1


# (defining module, function, span name, probe). The wrapper replaces the
# function in every distmine module that imported it, so calls from any
# caller are traced.
FUNCTIONS = (
    ("dataset", "generate_synthetic", "dataset.generate", _ingest),
    ("dataset", "load_fimi", "dataset.load_fimi", _ingest),
    ("dataset", "partition", "dataset.partition", None),
    ("miner", "apriori_gen", "miner.apriori_gen", _apriori_gen),
    ("miner", "sequential_apriori", "miner.sequential_apriori", None),
    ("protocol", "local_support", "protocol.local_support", None),
    ("protocol", "local_prune", "protocol.local_prune", _local_prune),
    ("messages", "_check_sorted", "messages.validate", None),
    ("cli", "result_to_json", "cli.result_to_json", None),
)

# Span names of a function that depend on the module calling it.
CALLER_NAMES = {("count_distribution", "local_support"): "count_distribution.local_support"}

# (module, class, method, span name, probe)
METHODS = (
    ("lmatrix", "LMatrix", "from_db", "lmatrix.from_db", _from_db),
    ("lmatrix", "LMatrix", "support", "lmatrix.support", _support),
    ("lmatrix", "LMatrix", "support_batch", "lmatrix.support_batch", None),
    ("protocol", "LocalSite", "build_report", "protocol.build_report", None),
    ("protocol", "LocalSite", "handle_count_request", "protocol.count_request", None),
    ("protocol", "LocalSite", "update_heavy", "protocol.update_heavy", None),
    ("protocol", "CenterSite", "aggregate", "protocol.aggregate", _aggregate),
    ("protocol", "CenterSite", "finalize", "protocol.finalize", None),
    ("protocol", "ImprovedRun", "__init__", "protocol.setup", None),
    ("protocol", "ImprovedRun", "run", "protocol.run", None),
    ("count_distribution", "CountDistributionRun", "__init__", "count_distribution.setup", None),
    ("count_distribution", "CountDistributionRun", "run", "count_distribution.run", None),
    ("messages", "MessageLog", "send", "messages.send", _send),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every call into the listed functions while the block runs.

    Yields the traced ``cli.main``, the root span of the run.
    """
    modules = {m: importlib.import_module(f"distmine.{m}") for m in LAYERS}
    undo = []
    try:
        for home, attr, name, probe in FUNCTIONS:
            original = getattr(modules[home], attr)
            for mod_name, mod in modules.items():
                if getattr(mod, attr, None) is original:
                    span = CALLER_NAMES.get((mod_name, attr), name)
                    undo.append((mod, attr, original))
                    setattr(mod, attr, _wrap(tracer, span, original, probe))
        for home, cls_name, attr, name, probe in METHODS:
            cls = getattr(modules[home], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, name, original.__func__, probe))
            else:
                wrapped = _wrap(tracer, name, original, probe)
            setattr(cls, attr, wrapped)
        yield _wrap(tracer, "cli.main", modules["cli"].main)
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
