"""Command-line front end: load or generate a database, partition it, mine
with one of the algorithms, and emit result JSON / metrics CSV / a message
trace. Sweep mode reruns over lists of minimum supports and database sizes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .count_distribution import CountDistributionRun
from .dataset import (
    PARTITION_STRATEGIES,
    FimiFormatError,
    PartitionSpec,
    TransactionDb,
    generate_synthetic,
    load_fimi,
    partition,
)
from .miner import MiningResult, RoundMetrics, run_sequential
from .protocol import ImprovedRun

ALGORITHMS = ("improved", "cd", "sequential")

RUN_METRICS_HEADER = (
    "algorithm,round,candidates,candidates_pruned_local,"
    "messages,bytes,llk_total,lk_size,wall_ms"
)
SWEEP_METRICS_HEADER = (
    "algorithm,minsup,size,round,candidates,candidates_pruned_local,"
    "messages,bytes,llk_total,lk_size,wall_ms"
)


class ConfigError(ValueError):
    """Invalid flag combination or malformed flag value."""


@dataclass(frozen=True)
class SyntheticSpec:
    avg_len: int
    n_items: int
    n_transactions: int
    seed: int = 0

    def generate(self, n_transactions: int | None = None) -> TransactionDb:
        size = self.n_transactions if n_transactions is None else n_transactions
        return generate_synthetic(size, self.n_items, self.avg_len, self.seed)


@dataclass
class RunConfig:
    """Everything one invocation needs; exactly one data source is set."""

    input_path: Path | None = None
    synthetic: SyntheticSpec | None = None
    minsup: str | None = None
    n_sites: int = 1
    partition_strategy: str = "contiguous"
    partition_seed: int = 0
    algorithms: list[str] = field(default_factory=list)
    out_path: Path | None = None
    metrics_path: Path | None = None
    trace_path: Path | None = None
    labels_path: Path | None = None
    count_colocated_messages: bool = True
    sweep_minsups: list[str] = field(default_factory=list)
    sweep_sizes: list[int] = field(default_factory=list)


def parse_synthetic(text: str) -> SyntheticSpec:
    """Parse "T=<avg_len>,I=<items>,D=<txns>,seed=<u64>" (seed optional)."""
    fields = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in ("T", "I", "D", "seed"):
            raise ConfigError(f"bad --synthetic field {part!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise ConfigError(f"bad --synthetic value {part!r}") from None
    missing = {"T", "I", "D"} - fields.keys()
    if missing:
        raise ConfigError(f"--synthetic is missing {sorted(missing)}")
    return SyntheticSpec(
        avg_len=fields["T"],
        n_items=fields["I"],
        n_transactions=fields["D"],
        seed=fields.get("seed", 0),
    )


def parse_partition(text: str) -> tuple[str, int]:
    name, sep, seed_text = text.partition(":")
    strategy = "round-robin" if name == "roundrobin" else name
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigError(f"unknown partition strategy {name!r}")
    if sep and strategy != "random":
        raise ConfigError(f"only random takes a seed, got {text!r}")
    seed = 0
    if sep:
        try:
            seed = int(seed_text)
        except ValueError:
            raise ConfigError(f"bad partition seed {seed_text!r}") from None
    return strategy, seed


def load_labels(path: Path) -> dict[int, str]:
    """Read an item-id -> name map from a JSON object with string-int keys."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise FimiFormatError(f"labels file {path}: {err}") from None
    if not isinstance(raw, dict):
        raise FimiFormatError(f"labels file {path}: expected a JSON object")
    labels = {}
    for key, value in raw.items():
        try:
            labels[int(key)] = str(value)
        except ValueError:
            raise FimiFormatError(
                f"labels file {path}: non-integer item id {key!r}"
            ) from None
    return labels


def result_to_json(
    result: MiningResult, minsup_text: str, labels: dict[int, str] | None = None
) -> str:
    """Serialize a result to the stable JSON schema (sorted, compact)."""
    entries = []
    for items, support in result.sorted_items():
        entry: dict = {"items": list(items)}
        if labels is not None:
            entry["labels"] = [labels.get(i, str(i)) for i in items]
        entry["support"] = support
        entries.append(entry)
    return json.dumps(
        {
            "minsup": minsup_text,
            "db_size": result.db_size,
            "threshold": result.threshold,
            "frequent": entries,
        },
        separators=(",", ":"),
    )


def _counter_cells(m: RoundMetrics) -> tuple[int, ...]:
    """The six counter columns after ``round``, in CSV order."""
    pruned = m.candidates_generated - m.candidates_after_local_prune
    return (
        m.candidates_generated,
        pruned,
        m.messages_sent,
        m.payload_bytes,
        m.llk_total,
        m.lk_size,
    )


def _metrics_cells(m: RoundMetrics) -> str:
    return ",".join(map(str, (m.k, *_counter_cells(m))))


def _execute(
    algorithm: str,
    db: TransactionDb,
    config: RunConfig,
    minsup: str,
) -> tuple[MiningResult, list[RoundMetrics], list]:
    """Run one algorithm; returns (result, metrics, trace records)."""
    if algorithm == "sequential":
        result, metrics = run_sequential(db, minsup)
        return result, metrics, []
    parts = partition(
        db,
        PartitionSpec(
            n_sites=config.n_sites,
            strategy=config.partition_strategy,
            seed=config.partition_seed,
        ),
    )
    if algorithm == "improved":
        run_state = ImprovedRun(
            parts, minsup, count_colocated_messages=config.count_colocated_messages
        )
    else:
        run_state = CountDistributionRun(parts, minsup)
    result = run_state.run()
    return result, run_state.metrics, run_state.log.trace


def _load_db(config: RunConfig) -> TransactionDb:
    if config.input_path is not None:
        return load_fimi(config.input_path.read_text(encoding="utf-8"))
    assert config.synthetic is not None
    return config.synthetic.generate()


def run(config: RunConfig) -> int:
    """Single mining run: write result JSON (file or stdout), optional
    metrics CSV (per-round rows, empty wall_ms) and optional trace."""
    if len(config.algorithms) != 1:
        raise ConfigError("run mode takes exactly one --algorithm")
    if config.minsup is None:
        raise ConfigError("--minsup is required")
    algorithm = config.algorithms[0]
    labels = load_labels(config.labels_path) if config.labels_path else None

    db = _load_db(config)
    result, metrics, trace = _execute(algorithm, db, config, config.minsup)

    json_text = result_to_json(result, config.minsup, labels)
    if config.out_path is not None:
        config.out_path.write_text(json_text + "\n", encoding="utf-8")
    else:
        print(json_text)
    if config.metrics_path is not None:
        lines = [RUN_METRICS_HEADER]
        lines += [f"{algorithm},{_metrics_cells(m)}," for m in metrics]
        config.metrics_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if config.trace_path is not None:
        config.trace_path.write_text(
            "".join(rec.to_json() + "\n" for rec in trace), encoding="utf-8"
        )
    return 0


def sweep(config: RunConfig) -> int:
    """Grid of (algorithm, minsup, size) runs over one seeded synthetic
    database, generated once at the largest size; smaller sizes are its
    prefixes, as ``generate_synthetic`` would give them. Emits per-round
    rows plus one summary row (with wall-clock ms) per grid point."""
    if config.synthetic is None:
        raise ConfigError("sweep mode requires --synthetic")
    if not config.algorithms:
        raise ConfigError("sweep mode needs at least one --algorithm")
    minsups = config.sweep_minsups or ([config.minsup] if config.minsup else [])
    if not minsups:
        raise ConfigError("sweep mode needs --sweep-minsups or --minsup")
    sizes = config.sweep_sizes or [config.synthetic.n_transactions]
    if min(sizes) < 0:
        raise ConfigError(f"database sizes must be >= 0, got {min(sizes)}")
    full = config.synthetic.generate(max(sizes))
    dbs = {n: TransactionDb(full.transactions[:n], full.universe) for n in sizes}

    lines = [SWEEP_METRICS_HEADER]
    for algorithm in config.algorithms:
        for minsup in minsups:
            for size in sizes:
                start = time.perf_counter()
                _, metrics, _ = _execute(algorithm, dbs[size], config, minsup)
                wall_ms = (time.perf_counter() - start) * 1000.0
                prefix = f"{algorithm},{minsup},{size}"
                lines += [f"{prefix},{_metrics_cells(m)}," for m in metrics]
                rows = [_counter_cells(m) for m in metrics]
                summary = ",".join(str(sum(r[i] for r in rows)) for i in range(6))
                lines.append(f"{prefix},summary,{summary},{wall_ms:.3f}")
    text = "\n".join(lines) + "\n"
    if config.metrics_path is not None:
        config.metrics_path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distmine",
        description="Distributed frequent-itemset mining over simulated sites.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--input", type=Path, help="FIMI .dat transaction file")
    source.add_argument(
        "--synthetic",
        metavar="T=<avg_len>,I=<items>,D=<txns>,seed=<u64>",
        help="generate a seeded synthetic database instead of reading a file",
    )
    parser.add_argument("--minsup", help="minimum support, e.g. 0.4 or 2/3")
    parser.add_argument("--sites", type=int, default=1, help="number of sites")
    parser.add_argument(
        "--partition",
        default="contiguous",
        metavar="contiguous|roundrobin|random:<seed>",
        help="how transactions are split across sites",
    )
    parser.add_argument(
        "--algorithm",
        default=None,
        metavar="improved|cd|sequential",
        help="algorithm to run (comma list allowed in sweep mode)",
    )
    parser.add_argument("--out", type=Path, help="result JSON path (default stdout)")
    parser.add_argument("--metrics", type=Path, help="metrics CSV path")
    parser.add_argument("--trace", type=Path, help="message trace path (JSON lines)")
    parser.add_argument("--labels", type=Path, help="JSON item-id -> name map")
    parser.add_argument(
        "--count-colocated-messages",
        choices=("true", "false"),
        default="true",
        help="count site:0 <-> center messages in the metrics (default true)",
    )
    parser.add_argument(
        "--sweep-minsups", help="comma list of minsups; enables sweep mode"
    )
    parser.add_argument(
        "--sweep-sizes", help="comma list of database sizes; enables sweep mode"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if (args.input is None) == (args.synthetic is None):
        raise ConfigError("exactly one of --input or --synthetic is required")
    if args.algorithm is None:
        raise ConfigError("--algorithm is required")
    algorithms = [a.strip() for a in args.algorithm.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    strategy, seed = parse_partition(args.partition)
    if args.sites < 1:
        raise ConfigError("--sites must be >= 1")

    sweep_minsups = []
    if args.sweep_minsups:
        sweep_minsups = [s.strip() for s in args.sweep_minsups.split(",") if s.strip()]
    sweep_sizes = []
    if args.sweep_sizes:
        try:
            sweep_sizes = [int(s) for s in args.sweep_sizes.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"bad --sweep-sizes {args.sweep_sizes!r}") from None

    return RunConfig(
        input_path=args.input,
        synthetic=parse_synthetic(args.synthetic) if args.synthetic else None,
        minsup=args.minsup,
        n_sites=args.sites,
        partition_strategy=strategy,
        partition_seed=seed,
        algorithms=algorithms,
        out_path=args.out,
        metrics_path=args.metrics,
        trace_path=args.trace,
        labels_path=args.labels,
        count_colocated_messages=args.count_colocated_messages == "true",
        sweep_minsups=sweep_minsups,
        sweep_sizes=sweep_sizes,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.sweep_minsups or config.sweep_sizes:
            return sweep(config)
        return run(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FimiFormatError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
