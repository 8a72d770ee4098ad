"""Level-wise frequent-itemset machinery: thresholds, candidate generation,
per-round metrics, and a sequential miner used as the correctness reference
for the distributed algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import Itemset, TransactionDb
from .lmatrix import LMatrix, ScanCounter


def itemset_key(x: Itemset) -> tuple[int, Itemset]:
    """Canonical ordering key: length first, then lexicographic."""
    return (len(x), x)


def parse_minsup(value) -> Fraction:
    """Convert a minimum-support spec to an exact Fraction in (0, 1].

    Accepts Fraction, int, str ("2/3" or "0.4"), or float. Floats are read
    through their shortest decimal repr, so 0.2 means exactly 1/5 rather
    than the nearest binary float.
    """
    if isinstance(value, Fraction):
        s = value
    elif isinstance(value, bool):
        raise TypeError("minsup must be a number or string, not bool")
    elif isinstance(value, int):
        s = Fraction(value)
    elif isinstance(value, float):
        s = Fraction(str(value))
    elif isinstance(value, str):
        try:
            s = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse minsup {value!r}") from None
    else:
        raise TypeError(f"cannot parse minsup of type {type(value).__name__}")
    if not 0 < s <= 1:
        raise ValueError(f"minsup must be in (0, 1], got {s}")
    return s


def threshold(minsup, size: int) -> int:
    """Minimum support count for a database of ``size`` transactions.

    Exact integer ceiling of minsup * size; an itemset is frequent iff its
    count is >= the returned value. No floating point touches the boundary.
    """
    s = parse_minsup(minsup)
    return -(-(s.numerator * size) // s.denominator)


def apriori_gen(prev_frequent) -> list[Itemset]:
    """Generate (k+1)-candidates from the frequent k-itemsets.

    Join step merges pairs agreeing on their first k-1 items; the prune
    step drops any candidate with a k-subset missing from ``prev_frequent``.
    The result is duplicate-free and lexicographically sorted. Raises
    ValueError if the input mixes itemset lengths or holds a negative id.
    """
    prev = sorted(set(prev_frequent))
    if not prev:
        return []
    k = len(prev[0])
    if k < 1 or len(prev[-1]) != k or any(len(x) != k for x in prev):
        raise ValueError("apriori_gen input must be non-empty itemsets of one length")
    rows = np.array(prev, dtype=np.int64)
    if rows.min() < 0:
        raise ValueError("apriori_gen takes non-negative item ids")
    # Sorted rows with one (k-1)-prefix are consecutive; every pair (i, j),
    # i < j, inside such a run joins, in lexicographic order of the result.
    n = len(rows)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
    run_end = np.append(np.flatnonzero(new_run)[1:], n)[np.cumsum(new_run) - 1]
    partners = run_end - np.arange(1, n + 1)
    left = np.repeat(np.arange(n), partners)
    first_pair = np.repeat(np.cumsum(partners) - partners, partners)
    right = left + 1 + np.arange(len(left)) - first_pair
    cand = np.concatenate((rows[left], rows[right, -1:]), axis=1)
    # Dropping either of the two joined positions gives a or b, which are
    # present by construction; look the remaining k-1 subsets up in the
    # sorted rows. Rows compare as raw bytes, which no id range overflows;
    # big-endian, the bytes of non-negative ids sort in numeric order.
    as_bytes = np.dtype((np.void, 8 * k))
    known = rows.astype(">i8").view(as_bytes).ravel()
    for j in range(k - 1):
        wanted = np.delete(cand, j, axis=1).astype(">i8").view(as_bytes).ravel()
        at = np.minimum(np.searchsorted(known, wanted), n - 1)
        cand = cand[known[at] == wanted]
    return list(zip(*cand.T.tolist()))


@dataclass(frozen=True)
class MiningResult:
    """Frequent itemsets with their global support counts."""

    minsup: Fraction
    db_size: int
    frequent: dict[Itemset, int]

    @property
    def threshold(self) -> int:
        return threshold(self.minsup, self.db_size)

    def sorted_items(self) -> list[tuple[Itemset, int]]:
        """Entries ordered by (length, lexicographic) for stable serialization."""
        return sorted(self.frequent.items(), key=lambda e: itemset_key(e[0]))

    def level(self, k: int) -> dict[Itemset, int]:
        """The frequent k-itemsets."""
        return {x: n for x, n in self.frequent.items() if len(x) == k}


@dataclass(frozen=True)
class RoundMetrics:
    """Per-level counters shared by all runs.

    Candidate counters are distinct-across-sites: ``candidates_generated``
    is the number of distinct itemsets proposed anywhere this round and
    ``candidates_after_local_prune`` the distinct itemsets actually counted.
    ``llk_total`` sums the entries of all local reports.
    """

    k: int
    candidates_generated: int
    candidates_after_local_prune: int
    messages_sent: int
    payload_bytes: int
    llk_total: int
    lk_size: int


def run_sequential(
    db: TransactionDb, minsup
) -> tuple[MiningResult, list[RoundMetrics]]:
    """Exact single-site Apriori over a bit matrix, with per-level metrics.

    Counts candidates level by level on an LMatrix built in one scan. An
    empty database yields an empty result and no levels (its threshold of
    zero would otherwise make every itemset vacuously frequent). Levels
    send no messages and prune nothing locally.
    """
    s = parse_minsup(minsup)
    frequent: dict[Itemset, int] = {}
    metrics: list[RoundMetrics] = []
    if db.size > 0:
        thr = threshold(s, db.size)
        matrix = LMatrix.from_db(db, ScanCounter())
        candidates: list[Itemset] = [(i,) for i in range(db.universe)]
        while candidates:
            counts = matrix.count(candidates).tolist()
            level = {x: n for x, n in zip(candidates, counts) if n >= thr}
            frequent.update(level)
            metrics.append(
                RoundMetrics(
                    k=len(metrics) + 1,
                    candidates_generated=len(candidates),
                    candidates_after_local_prune=len(candidates),
                    messages_sent=0,
                    payload_bytes=0,
                    llk_total=0,
                    lk_size=len(level),
                )
            )
            candidates = apriori_gen(level) if level else []
    return MiningResult(minsup=s, db_size=db.size, frequent=frequent), metrics


def sequential_apriori(db: TransactionDb, minsup) -> MiningResult:
    """The frequent itemsets of ``db``; the reference the distributed miners match."""
    return run_sequential(db, minsup)[0]
