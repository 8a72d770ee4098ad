"""Command-line front end: load or generate a database, partition it, mine
with one of the algorithms, and emit result JSON / metrics CSV / a message
trace. Sweep mode reruns over lists of minimum supports and database sizes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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
from .miner import MiningResult, RoundMetrics, parse_minsup, run_sequential
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


def _is_digits(text: str) -> bool:
    """ASCII decimal digits only: no sign, no ``_``, no other scripts' digits."""
    return text.isascii() and text.isdigit()


def parse_synthetic(text: str) -> tuple[int, int, int, int]:
    """Parse "T=<avg_len>,I=<items>,D=<txns>,seed=<u64>" (seed optional) into
    ``generate_synthetic``'s arguments (D, I, T, seed)."""
    fields = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in ("T", "I", "D", "seed"):
            raise ConfigError(f"bad --synthetic field {part!r}")
        if key in fields:
            raise ConfigError(f"--synthetic repeats field {key!r}")
        if not _is_digits(value):
            raise ConfigError(f"bad --synthetic value {part!r}")
        fields[key] = int(value)
    missing = {"T", "I", "D"} - fields.keys()
    if missing:
        raise ConfigError(f"--synthetic is missing {sorted(missing)}")
    if not 1 <= fields["T"] <= fields["I"]:
        raise ConfigError(f"--synthetic needs 1 <= T <= I, got {text!r}")
    return fields["D"], fields["I"], fields["T"], fields.get("seed", 0)


def parse_partition(text: str) -> tuple[str, int]:
    name, sep, seed_text = text.partition(":")
    strategy = "round-robin" if name == "roundrobin" else name
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigError(f"unknown partition strategy {name!r}")
    if sep and strategy != "random":
        raise ConfigError(f"only random takes a seed, got {text!r}")
    if sep and not _is_digits(seed_text):
        raise ConfigError(f"bad partition seed {seed_text!r}")
    return strategy, int(seed_text) if sep else 0


def _reject_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` hook: an object may not name a key twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FimiFormatError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_labels(path: Path) -> dict[int, str]:
    """Read an item-id -> name map from a JSON object whose keys are item ids
    in ASCII decimal digits and whose values are strings; no key may repeat
    and two keys may not name the same item."""
    try:
        raw = json.loads(
            path.read_text(encoding="utf-8"), object_pairs_hook=_reject_repeated_keys
        )
    except (json.JSONDecodeError, FimiFormatError) as err:
        raise FimiFormatError(f"labels file {path}: {err}") from None
    if not isinstance(raw, dict):
        raise FimiFormatError(f"labels file {path}: expected a JSON object")
    labels = {}
    for key, value in raw.items():
        if not _is_digits(key):
            raise FimiFormatError(f"labels file {path}: malformed item id {key!r}")
        item = int(key)
        if item in labels:
            raise FimiFormatError(
                f"labels file {path}: item id {key!r} names item {item} again"
            )
        if not isinstance(value, str):
            raise FimiFormatError(f"labels file {path}: label of {key!r} is not a string")
        labels[item] = value
    return labels


def result_to_json(
    result: MiningResult, minsup_text: str, labels: dict[int, str] | None = None
) -> str:
    """Serialize a result to the stable JSON schema (compact), its entries
    written from each level's arrays in (length, lex) order."""
    entries = []
    for rows, supports in result.levels:
        for items, support in zip(rows.tolist(), supports.tolist()):
            entry: dict = {"items": items}
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
    """The six counter columns after ``round``, in CSV order; no miner
    prunes locally, so ``candidates_pruned_local`` is always 0."""
    return (
        m.candidates_generated,
        0,
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
    args: argparse.Namespace,
    minsup: str,
) -> tuple[MiningResult, list[RoundMetrics], list]:
    """Run one algorithm; returns (result, metrics, trace records)."""
    try:
        parse_minsup(minsup)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if algorithm == "sequential":
        result, metrics = run_sequential(db, minsup)
        return result, metrics, []
    if db.size < args.sites:
        raise ConfigError(
            f"cannot partition {db.size} transactions across {args.sites} sites"
        )
    parts = partition(db, PartitionSpec(args.sites, *args.partition))
    miner = ImprovedRun if algorithm == "improved" else CountDistributionRun
    run_state = miner(parts, minsup)
    result = run_state.run()
    return result, run_state.metrics, run_state.log.trace


def run(args: argparse.Namespace) -> int:
    """Single mining run: write result JSON (file or stdout), optional
    metrics CSV (per-round rows, empty wall_ms) and optional trace."""
    if len(args.algorithm) != 1:
        raise ConfigError("run mode takes exactly one --algorithm")
    if args.minsup is None:
        raise ConfigError("--minsup is required")
    algorithm = args.algorithm[0]
    labels = load_labels(args.labels) if args.labels else None

    if args.input is not None:
        db = load_fimi(args.input.read_text(encoding="utf-8"))
    else:
        db = generate_synthetic(*args.synthetic)
    result, metrics, trace = _execute(algorithm, db, args, args.minsup)

    json_text = result_to_json(result, args.minsup, labels)
    if args.out is not None:
        args.out.write_text(json_text + "\n", encoding="utf-8")
    else:
        print(json_text)
    if args.metrics is not None:
        lines = [RUN_METRICS_HEADER]
        lines += [f"{algorithm},{_metrics_cells(m)}," for m in metrics]
        args.metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.trace is not None:
        args.trace.write_text(
            "".join(rec.to_json() + "\n" for rec in trace), encoding="utf-8"
        )
    return 0


def sweep(args: argparse.Namespace) -> int:
    """Grid of (algorithm, minsup, size) runs over one seeded synthetic
    database, generated once at the largest size; smaller sizes are its
    leading rows, as ``generate_synthetic`` would give them. Emits per-round
    rows plus one summary row (with wall-clock ms) per grid point."""
    if args.synthetic is None:
        raise ConfigError("sweep mode requires --synthetic")
    if not args.algorithm:
        raise ConfigError("sweep mode needs at least one --algorithm")
    minsups = args.sweep_minsups or ([args.minsup] if args.minsup else [])
    if not minsups:
        raise ConfigError("sweep mode needs --sweep-minsups or --minsup")
    for flag in ("out", "trace", "labels"):
        if getattr(args, flag) is not None:
            raise ConfigError(f"sweep mode takes no --{flag}")
    n_transactions, *params = args.synthetic
    sizes = args.sweep_sizes or [n_transactions]
    full = generate_synthetic(max(sizes), *params)
    dbs = {n: full.slice(0, n) for n in sizes}

    lines = [SWEEP_METRICS_HEADER]
    for algorithm in args.algorithm:
        for minsup in minsups:
            for size in sizes:
                start = time.perf_counter()
                _, metrics, _ = _execute(algorithm, dbs[size], args, minsup)
                wall_ms = (time.perf_counter() - start) * 1000.0
                prefix = f"{algorithm},{minsup},{size}"
                lines += [f"{prefix},{_metrics_cells(m)}," for m in metrics]
                rows = [_counter_cells(m) for m in metrics]
                summary = ",".join(str(sum(r[i] for r in rows)) for i in range(6))
                lines.append(f"{prefix},summary,{summary},{wall_ms:.3f}")
    text = "\n".join(lines) + "\n"
    if args.metrics is not None:
        args.metrics.write_text(text, encoding="utf-8")
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
    parser.add_argument("--sites", default="1", help="number of sites")
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
        "--sweep-minsups", help="comma list of minsups; enables sweep mode"
    )
    parser.add_argument(
        "--sweep-sizes", help="comma list of database sizes; enables sweep mode"
    )
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Check the flags and replace their compound values in ``args`` with
    the parsed forms that ``run`` and ``sweep`` read."""
    if (args.input is None) == (args.synthetic is None):
        raise ConfigError("exactly one of --input or --synthetic is required")
    if args.algorithm is None:
        raise ConfigError("--algorithm is required")
    args.algorithm = [a.strip() for a in args.algorithm.split(",") if a.strip()]
    for a in args.algorithm:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}")
    args.partition = parse_partition(args.partition)
    if not _is_digits(args.sites) or int(args.sites) < 1:
        raise ConfigError(f"--sites must be a whole number >= 1, got {args.sites!r}")
    args.sites = int(args.sites)

    args.sweep_minsups = [
        s.strip() for s in (args.sweep_minsups or "").split(",") if s.strip()
    ]
    sizes = [s.strip() for s in (args.sweep_sizes or "").split(",") if s.strip()]
    if not all(map(_is_digits, sizes)):
        raise ConfigError(f"bad --sweep-sizes {args.sweep_sizes!r}")
    args.sweep_sizes = [int(s) for s in sizes]
    if len(set(args.sweep_sizes)) < len(args.sweep_sizes):
        raise ConfigError(f"--sweep-sizes repeats a size: {args.sweep_sizes}")
    if args.synthetic:
        args.synthetic = parse_synthetic(args.synthetic)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        if args.sweep_minsups or args.sweep_sizes:
            return sweep(args)
        return run(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FimiFormatError, UnicodeDecodeError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
