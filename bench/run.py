"""Benchmark of the distmine CLI: improved, cd and sequential on two workloads.

Usage (from the repository root):

    python3 bench/run.py --workload uniform-deep --seed 1 --seconds 48 --trace 0

Untraced (``--trace 0``): one long-lived ``python3`` worker per algorithm
(child.py), each running ``distmine.cli.main`` on request from input to
result JSON, metrics CSV and message trace. After one warm-up run in each,
the workers run one at a time, in rounds over the algorithms, until the next
round would end past ``--seconds``. This is a closed loop with a single
caller, so every run is a batch job at the workload's stated size.
Traced (``--trace 1``): one untraced run per algorithm, then one
in-process traced ``cli.main`` per algorithm, which gives the per-layer
metrics (see tracer.py); the spans are written at the end to
``.bench_work/spans-<workload>.jsonl``.

Every mining run goes through a correctness gate; one that fails counts in
``failed``. The last stdout line is the JSON summary; the lines before it
are a readable report. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# sequential runs first: it is the reference the others must match.
ALGORITHMS = ("sequential", "improved", "cd")
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    rows: int
    sites: int
    minsup: str
    synthetic: str | None = None  # --synthetic spec without D and seed
    baskets: Callable[[int, int], gen.Baskets] | None = None  # (seed, rows); written as FIMI


# Why each workload is here is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "uniform-deep": Workload(
        rows=30_000,
        sites=4,
        minsup="0.02",
        synthetic="T=10,I=100",
    ),
    "skewed-sites": Workload(
        rows=30_000,
        sites=8,
        minsup="0.01",
        baskets=lambda seed, rows: gen.skewed_sites(seed, rows, 100, 10, 8),
    ),
}


class Gate:
    """Counts attempted and failed mining runs; prints why a run failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {label}: {p}", file=sys.stderr)


@dataclass
class Outputs:
    result: bytes
    metrics: bytes
    trace: bytes


def cli_argv(wl: Workload, seed: int, source: Path | None, algorithm: str, out: Path) -> list[str]:
    if wl.synthetic is not None:
        src = ["--synthetic", f"{wl.synthetic},D={wl.rows},seed={seed}"]
    else:
        src = ["--input", str(source)]
    return src + [
        "--sites", str(wl.sites), "--minsup", wl.minsup, "--algorithm", algorithm,
        "--out", str(out / "result.json"), "--metrics", str(out / "metrics.csv"),
        "--trace", str(out / "trace.jsonl"),
    ]  # fmt: skip


def read_outputs(out: Path) -> Outputs | None:
    try:
        return Outputs(
            (out / "result.json").read_bytes(),
            (out / "metrics.csv").read_bytes(),
            (out / "trace.jsonl").read_bytes(),
        )
    except OSError:
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)


class Worker:
    """A child.py process that runs ``cli.main`` for one algorithm on request.

    A kill timer ends it at the run's deadline; ``close`` ends it and waits
    for it on every path.
    """

    def __init__(self, deadline: float) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")), repr(time.monotonic())]
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        self.killer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.killer.start()
        self.rss_mb = 0.0
        reply = self._reply()
        self.setup_s = reply.get("setup_s") if reply else None

    def _reply(self) -> dict | None:
        try:
            return json.loads(self.proc.stdout.readline())
        except json.JSONDecodeError:
            return None

    def run(self, argv: list[str]) -> dict | None:
        """One ``cli.main(argv)``: its ``run_s`` and ``rc``, or None if the
        worker is gone."""
        try:
            self.proc.stdin.write((json.dumps(argv) + "\n").encode())
            self.proc.stdin.flush()
        except OSError:
            return None
        return self._reply()

    def close(self) -> int:
        """End the worker and wait for it; returns its exit status and
        records its peak RSS."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.killer.cancel()
        self.proc.stdout.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode


def cost_model(algorithm: str, metrics_csv: bytes, n: int) -> tuple[list[str], list[tuple]]:
    """Per-level (k, messages, bytes) and violations of the paper's bounds:
    improved sends at most 4n messages per level, cd exactly n(n-1)."""
    rows = [line.split(",") for line in metrics_csv.decode().splitlines()[1:]]
    levels = [(int(r[1]), int(r[4]), int(r[5])) for r in rows]
    problems = []
    for k, msgs, _ in levels:
        if algorithm == "improved" and msgs > 4 * n:
            problems.append(f"level {k}: {msgs} messages > 4n = {4 * n}")
        if algorithm == "cd" and msgs != n * (n - 1):
            problems.append(f"level {k}: {msgs} messages != n(n-1) = {n * (n - 1)}")
    return problems, levels


def check_result(result: bytes, wl: Workload, baskets: gen.Baskets | None) -> list[str]:
    """Independent checks of a result JSON: size, exact threshold, downward
    closure, and, for harness-written inputs, every frequent single item and
    pair and the support of the longest frequent itemsets, counted from the
    input."""
    doc = json.loads(result)
    s = Fraction(wl.minsup)
    n_rows = wl.rows
    thr = -(-(s.numerator * n_rows) // s.denominator)
    problems = []
    if doc["db_size"] != n_rows or doc["threshold"] != thr:
        problems.append(f"db_size/threshold {doc['db_size']}/{doc['threshold']} != {n_rows}/{thr}")
    found = {tuple(e["items"]): e["support"] for e in doc["frequent"]}
    for x, n in found.items():
        if n < thr:
            problems.append(f"{x} has support {n} < threshold {thr}")
        if len(x) > 1 and any(x[:j] + x[j + 1 :] not in found for j in range(len(x))):
            problems.append(f"{x} is frequent but a subset is not")
    if baskets is not None:
        counts = baskets.item_counts()
        items = np.array(sorted(i for i, c in counts.items() if c >= thr), dtype=np.int64)
        if {x: n for x, n in found.items() if len(x) == 1} != {(i,): counts[i] for i in items.tolist()}:
            problems.append("frequent single items differ from the input's item counts")
        # Pair supports of the frequent items: a 0/1 float32 product, exact
        # below 2**24 rows.
        keep = np.isin(baskets.items, items)
        onehot = np.zeros((n_rows, len(items)), dtype=np.float32)
        onehot[baskets.rows[keep], np.searchsorted(items, baskets.items[keep])] = 1.0
        pair_counts = (onehot.T @ onehot).astype(np.int64)
        del onehot
        pairs = {
            (int(items[i]), int(items[j])): int(pair_counts[i, j])
            for i, j in zip(*np.nonzero(np.triu(pair_counts, 1) >= thr))
        }
        if {x: n for x, n in found.items() if len(x) == 2} != pairs:
            problems.append("frequent pairs differ from the pair counts of the input")
        longest = sorted(x for x in found if len(x) == max(map(len, found)))[:20]
        for x in longest:
            member = np.ones(n_rows, dtype=bool)
            for i in x:
                hits = np.zeros(n_rows, dtype=bool)
                hits[baskets.rows[baskets.items == i]] = True
                member &= hits
            n = int(member.sum())
            if n != found[x]:
                problems.append(f"{x}: support {found[x]} != {n} counted from input")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, seconds: int) -> None:
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.gate = Gate()
        self.samples = {"setup_s": []}
        for a in ALGORITHMS:
            self.samples[f"run_s.{a}"] = []
            self.samples[f"peak_rss_mb.{a}"] = []
        self.reference: dict[str, Outputs] = {}
        self.levels: dict[str, list[tuple]] = {}
        self.input_ok = True
        self.runs = 0

    def prepare_input(self) -> None:
        """Write the workload's input file; generating it again from the
        seed must give the same transactions."""
        self.source = None
        self.baskets = None
        if self.wl.baskets is None:
            print(f"input: --synthetic {self.wl.synthetic},D={self.wl.rows},seed={self.seed}")
            return
        self.baskets = self.wl.baskets(self.seed, self.wl.rows)
        again = self.wl.baskets(self.seed, self.wl.rows)
        if not (np.array_equal(again.rows, self.baskets.rows) and np.array_equal(again.items, self.baskets.items)):
            self.input_ok = False
            print(f"FAIL input: seed {self.seed} gave two different inputs", file=sys.stderr)
        data = self.baskets.fimi_bytes()
        self.source = self.work / "input.dat"
        self.source.write_bytes(data)
        print(f"input: {self.source.name} {len(data)} bytes sha256={hashlib.sha256(data).hexdigest()}")

    def compare(self, label: str, algorithm: str, outputs: Outputs | None, problems: list[str]) -> None:
        """Gate one run's outputs against the workload's references."""
        if outputs is None:
            problems.append("missing output file")
        else:
            first = next(iter(self.reference.values()), None)
            ref = self.reference.get(algorithm)
            try:
                if first is None:
                    problems += check_result(outputs.result, self.wl, self.baskets)
                elif outputs.result != first.result:
                    problems.append("result JSON differs from the first run's")
                if ref is not None and (ref.metrics, ref.trace) != (outputs.metrics, outputs.trace):
                    problems.append("metrics CSV or trace differs from an earlier run")
                if algorithm != "sequential":
                    violations, levels = cost_model(algorithm, outputs.metrics, self.wl.sites)
                    problems += violations
                    self.levels.setdefault(algorithm, levels)
            except (ValueError, IndexError, KeyError) as err:
                problems.append(f"malformed output: {err!r}")
            if not problems:
                self.reference.setdefault(algorithm, outputs)
        self.gate.record(label, problems)

    def start_worker(self, algorithm: str) -> Worker:
        worker = Worker(self.deadline)
        if worker.setup_s is None:
            self.gate.record(f"{algorithm} worker", ["worker did not start"])
        else:
            self.samples["setup_s"].append(worker.setup_s)
        return worker

    def stop_worker(self, algorithm: str, worker: Worker) -> None:
        status = worker.close()
        if status != 0:
            self.gate.record(f"{algorithm} worker", [f"exit status {status}"])
        else:
            self.samples[f"peak_rss_mb.{algorithm}"].append(worker.rss_mb)

    def run_in(self, worker: Worker, algorithm: str) -> float | None:
        """One gated CLI run in the algorithm's worker; returns its run_s, or
        None if it failed."""
        out = self.work / f"{algorithm}-{self.runs}"
        self.runs += 1
        out.mkdir()
        reply = worker.run(cli_argv(self.wl, self.seed, self.source, algorithm, out))
        problems = []
        if reply is None or reply.get("rc") != 0:
            problems.append(f"worker reply {reply}")
        failed = self.gate.failed
        self.compare(f"{algorithm} run {self.runs}", algorithm, read_outputs(out), problems)
        return reply["run_s"] if self.gate.failed == failed else None

    def end_to_end(self) -> dict[str, dict]:
        """One worker per algorithm; after a gated warm-up run in each, rounds
        of one run per algorithm until the next round would end past
        ``seconds``, and at least three rounds. Three more workers that only
        import the program take ``setup_s`` samples at the end too."""
        workers = {}
        start = time.monotonic()
        rounds = 0
        try:
            for a in ALGORITHMS:
                workers[a] = self.start_worker(a)
            ok = all(w.setup_s is not None for w in workers.values())
            ok = ok and all(self.run_in(workers[a], a) is not None for a in ALGORITHMS)
            start = time.monotonic()
            round_s = 0.0
            while ok and (rounds < 3 or time.monotonic() - start + round_s <= self.seconds):
                if time.monotonic() + round_s > self.deadline - 30:
                    break
                t0 = time.monotonic()
                for a in ALGORITHMS:
                    run_s = self.run_in(workers[a], a)
                    if run_s is None:
                        ok = False
                        break
                    self.samples[f"run_s.{a}"].append(run_s)
                round_s = time.monotonic() - t0
                rounds += 1
        finally:
            for a, w in workers.items():
                self.stop_worker(a, w)
        print(f"rounds: {rounds} in {time.monotonic() - start:.1f} s")
        for a in ALGORITHMS:
            status = self.start_worker(a).close()
            if status != 0:
                self.gate.record(f"{a} import-only worker", [f"exit status {status}"])
        metrics = {}
        for name, values in self.samples.items():
            unit = "MB" if name.startswith("peak_rss") else "s"
            q1, med, q3 = quartiles(values) if values else (0.0, 0.0, 0.0)
            top = max(values, default=0.0)
            print(f"{name:22s} median {med:9.4f} q1 {q1:9.4f} q3 {q3:9.4f} max {top:9.4f} {unit:2s} n={len(values)}")
            print("  samples: " + " ".join(f"{v:.3f}" for v in values))
            if name.startswith("run_s."):
                # The slowest sample, which the machine's fast phases move
                # least (NOTES.md, "Noise").
                metrics[name.replace("run_s.", "run_s_max.")] = {"value": top, "unit": unit}
            else:
                metrics[name] = {"value": med, "unit": unit}
        for a in ("improved", "cd"):
            levels = self.levels.get(a, [])
            for k, msgs, nbytes in levels:
                print(f"  {a:9s} level {k}: {msgs} messages, {nbytes} bytes")
            metrics[f"messages.{a}"] = {"value": sum(m for _, m, _ in levels), "unit": "count"}
            metrics[f"bytes.{a}"] = {"value": sum(b for _, _, b in levels), "unit": "bytes"}
        return metrics

    def untraced(self, algorithm: str) -> float | None:
        """run_s of one untraced run after a warm-up run, in a fresh worker."""
        worker = self.start_worker(algorithm)
        try:
            if worker.setup_s is None or self.run_in(worker, algorithm) is None:
                return None
            return self.run_in(worker, algorithm)
        finally:
            self.stop_worker(algorithm, worker)

    def traced(self) -> dict[str, dict]:
        untraced = {a: self.untraced(a) for a in ALGORITHMS}
        sys.path.insert(0, str(SRC))
        import tracer

        metrics = {}
        tracers = []
        for a in ALGORITHMS:
            out = self.work / f"{a}-traced"
            out.mkdir()
            t = tracer.Tracer()
            with tracer.instrument(t) as main:
                try:
                    rc = main(cli_argv(self.wl, self.seed, self.source, a, out))
                except Exception:
                    traceback.print_exc()
                    rc = None
            sizes = sum(p.stat().st_size for p in out.iterdir())
            self.compare(f"{a} traced", a, read_outputs(out), [] if rc == 0 else [f"exit code {rc}"])
            if rc is None:
                continue
            n_frequent = len(json.loads(self.reference[a].result)["frequent"]) if a in self.reference else 0
            for name, (value, unit) in layer_metrics(t, a, n_frequent, sizes, untraced[a]).items():
                metrics[f"{name}.{a}"] = {"value": value, "unit": unit}
            t.ingested.clear()
            tracers.append((a, t))
        for name, m in metrics.items():
            label = " (computed)" if name.rsplit(".", 1)[0] in COMPUTED else ""
            print(f"{name:45s} {m['value']:14.6g} {m['unit']}{label}")
        spans_path = WORK / f"spans-{self.name}.jsonl"
        spans_path.unlink(missing_ok=True)
        for a, t in tracers:
            t.write_jsonl(spans_path, self.name, a)
        print(f"spans: {spans_path.relative_to(ROOT)}")
        return metrics


# Counters derived from sizes by formula rather than observed (see tracer.py).
COMPUTED = {"lmatrix.support_words", "lmatrix.matrix_bytes"}

LAYERS_OF = {
    "improved": ("dataset", "lmatrix", "miner", "protocol", "messages"),
    "cd": ("dataset", "lmatrix", "miner", "count_distribution", "messages"),
    "sequential": ("dataset", "lmatrix", "miner"),
}


def layer_metrics(t, algorithm: str, n_frequent: int, output_bytes: int, untraced_s: float | None) -> dict:
    """Per-layer metrics of one traced run. ``*_s`` are inclusive span
    times, ``<layer>.self_s`` and ``cli.self_s`` self times."""
    total, own = t.totals()
    layer_self = {}
    for name, d in own.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + d
    main_s = total["cli.main"]
    if abs(sum(layer_self.values()) - main_s) > 1e-6 * max(1.0, main_s):
        raise RuntimeError("layer self times do not add up to cli.main")
    m = {
        "dataset.generate_s": (total["dataset.generate"], "s"),
        "dataset.load_fimi_s": (total["dataset.load_fimi"], "s"),
        "dataset.partition_s": (total["dataset.partition"], "s"),
        "dataset.pairs_ingested": (sum(len(x) for db in t.ingested for x in db.transactions), "count"),
        "lmatrix.from_db_s": (total["lmatrix.from_db"], "s"),
        "lmatrix.matrix_bytes": (t.counts["lmatrix.matrix_bytes"], "bytes"),
        "lmatrix.support_s": (total["lmatrix.support"], "s"),
        "lmatrix.support_calls": (t.counts["lmatrix.support_calls"], "count"),
        "lmatrix.support_words": (t.counts["lmatrix.support_words"], "count"),
        "miner.apriori_gen_s": (total["miner.apriori_gen"], "s"),
        "miner.apriori_gen_calls": (t.counts["miner.apriori_gen_calls"], "count"),
        "miner.candidates_generated": (t.counts["miner.candidates_generated"], "count"),
        "miner.useful_ratio": (n_frequent / max(t.counts["lmatrix.support_calls"], 1), "ratio"),
        "cli.main_s": (main_s, "s"),
        "cli.result_to_json_s": (total["cli.result_to_json"], "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.self_s": (own["cli.main"], "s"),
        "trace_overhead_ratio": (main_s / untraced_s if untraced_s else 0.0, "ratio"),
    }
    if algorithm == "improved":
        for name in ("aggregate", "count_request", "finalize", "update_heavy", "build_report", "local_prune"):
            m[f"protocol.{name}_s"] = (total[f"protocol.{name}"], "s")
        for name in ("polled_itemsets", "poll_requests", "decided_immediately", "maxcount_pruned", "locally_pruned"):
            m[f"protocol.{name}"] = (t.counts[f"protocol.{name}"], "count")
    if algorithm == "cd":
        m["count_distribution.local_support_s"] = (total["count_distribution.local_support"], "s")
        m["count_distribution.run_self_s"] = (own["count_distribution.run"], "s")
    if algorithm != "sequential":
        m["messages.send_s"] = (total["messages.send"], "s")
        m["messages.send_calls"] = (t.counts["messages.send_calls"], "count")
        m["messages.validate_s"] = (total["messages.validate"], "s")
    for layer in LAYERS_OF[algorithm]:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "distmine" / "cli.py").is_file():
        print(f"no distmine sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    bench.work.mkdir(parents=True)
    try:
        bench.prepare_input()
        metrics = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    g = bench.gate
    if not args.trace:
        ok = (g.attempted - g.failed) / g.attempted if g.attempted else 0.0
        metrics["pass_ratio"] = {"value": ok, "unit": "ratio"}
    correct = g.attempted > 0 and g.failed == 0 and bench.input_ok
    print(json.dumps({"correct": correct, "attempted": g.attempted, "failed": g.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
