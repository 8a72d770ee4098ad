"""Transaction databases: FIMI-format ingestion, synthetic generation, partitioning.

A transaction database is a list of transactions over a dense integer item
universe. Items within a transaction are stored as a strictly ascending,
duplicate-free tuple, so a transaction doubles as an itemset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

Itemset = tuple[int, ...]

PARTITION_STRATEGIES = ("contiguous", "round-robin", "random")


class FimiFormatError(ValueError):
    """Raised when FIMI input contains a token that is not a non-negative integer."""


@dataclass(frozen=True)
class TransactionDb:
    """Horizontal transaction list over items 0 .. universe-1.

    Each transaction is strictly ascending and duplicate-free; every item id
    is below ``universe``. Instances are immutable and safe to share.
    """

    transactions: tuple[Itemset, ...]
    universe: int

    def __post_init__(self) -> None:
        if self.universe < 0:
            raise ValueError("universe must be non-negative")
        for t in self.transactions:
            if any(a >= b for a, b in zip(t, t[1:])):
                raise ValueError(f"transaction {t!r} is not strictly ascending")
            if t and (t[0] < 0 or t[-1] >= self.universe):
                raise ValueError(f"transaction {t!r} has items outside universe {self.universe}")

    @property
    def size(self) -> int:
        """Number of transactions."""
        return len(self.transactions)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a database across sites.

    ``seed`` is consulted only by the "random" strategy.
    """

    n_sites: int
    strategy: str = "contiguous"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {self.strategy!r}; expected one of {PARTITION_STRATEGIES}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def load_fimi(source: str | IO[str] | Iterable[str]) -> TransactionDb:
    """Parse FIMI .dat text: one transaction per non-empty line.

    Items on a line are whitespace-separated runs of ASCII decimal digits;
    duplicates within a line are dropped and items sorted ascending. Blank
    lines are skipped, so ``size`` may be smaller than the raw line count.
    The universe is inferred as 1 + the largest item id seen (0 if empty).

    Raises FimiFormatError naming the offending 1-based line number.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = source

    transactions: list[Itemset] = []
    max_item = -1
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        # int() also takes signs, underscores and non-ASCII digits; only a
        # line that holds one of those needs the per-token check.
        if not line.isascii() or "-" in line or "+" in line or "_" in line:
            for tok in tokens:
                if not (tok.isascii() and tok.isdigit()):
                    digits = tok[1:]
                    negative = tok[0] == "-" and digits.isascii() and digits.isdigit()
                    kind = "negative" if negative else "malformed"
                    raise FimiFormatError(f"line {lineno}: {kind} item {tok!r}")
        items = set()
        for tok in tokens:
            try:
                items.add(int(tok, 10))
            except ValueError:
                raise FimiFormatError(f"line {lineno}: malformed item {tok!r}") from None
        t = tuple(sorted(items))
        max_item = max(max_item, t[-1])
        transactions.append(t)
    return TransactionDb(transactions=tuple(transactions), universe=max_item + 1)


def dump_fimi(db: TransactionDb) -> str:
    """Render a database back to FIMI text (one line per transaction)."""
    return "".join(" ".join(str(i) for i in t) + "\n" for t in db.transactions)


def partition(db: TransactionDb, spec: PartitionSpec) -> list[TransactionDb]:
    """Split ``db`` horizontally into ``spec.n_sites`` disjoint, covering parts.

    contiguous: equal-size blocks, the first ``size % n`` blocks one larger.
    round-robin: transaction t goes to site ``t % n``.
    random: seeded shuffle of the transaction order, then contiguous blocks.

    All parts inherit the parent universe. Raises ValueError when the
    database has fewer transactions than sites.
    """
    n = spec.n_sites
    if db.size < n:
        raise ValueError(f"cannot partition {db.size} transactions across {n} sites")

    if spec.strategy == "round-robin":
        groups = [db.transactions[i::n] for i in range(n)]
    else:
        txns = db.transactions
        if spec.strategy == "random":
            perm = np.random.default_rng(spec.seed).permutation(db.size)
            txns = tuple(db.transactions[j] for j in perm)
        base, extra = divmod(db.size, n)
        groups = []
        start = 0
        for i in range(n):
            stop = start + base + (1 if i < extra else 0)
            groups.append(txns[start:stop])
            start = stop
    return [TransactionDb(transactions=tuple(g), universe=db.universe) for g in groups]


def generate_synthetic(
    n_transactions: int, n_items: int, avg_len: int, seed: int
) -> TransactionDb:
    """Generate a random database with rank-biased item popularity.

    Transaction lengths are Poisson(avg_len) clamped to [1, n_items]; items
    are drawn without replacement with weight 1/(rank+1), so low item ids are
    common and frequent patterns exist. Deterministic for a given seed, and
    the first k transactions of an n-transaction database equal the
    k-transaction database for the same seed (each row consumes a fixed
    amount of the random stream).
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if not 1 <= avg_len <= n_items:
        raise ValueError("avg_len must be in [1, n_items]")
    if n_transactions < 0:
        raise ValueError("n_transactions must be >= 0")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    rng = np.random.default_rng(seed)
    u = rng.random((n_transactions, n_items + 1))
    # Fixed-consumption length draw: one uniform per row through the inverse
    # CDF, i.e. the smallest k with P(X <= k) >= u, from a table over 0..n_items.
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_items + 1)])
    log_pmf = np.arange(n_items + 1) * math.log(avg_len) - avg_len - log_fact
    lengths = np.searchsorted(np.cumsum(np.exp(log_pmf)), u[:, 0])
    np.clip(lengths, 1, n_items, out=lengths)
    # Weighted sampling without replacement: key_i = u_i ** (1/w_i) with
    # w_i = 1/(i+1); the largest keys win (Efraimidis-Spirakis).
    keys = u[:, 1:] ** np.arange(1, n_items + 1, dtype=np.float64)
    order = np.argsort(-keys, axis=1, kind="stable")
    transactions = tuple(
        tuple(sorted(order[r, : lengths[r]].tolist())) for r in range(n_transactions)
    )
    return TransactionDb(transactions=transactions, universe=n_items)
