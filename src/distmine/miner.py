"""Level-wise frequent-itemset machinery: thresholds, candidate generation,
the level loop and per-round metrics every miner shares, and the sequential
miner that is the correctness reference for the distributed algorithms."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import Itemset, TransactionDb
from .lmatrix import LMatrix, ScanCounter
from .messages import MessageLog, read_only


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


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of an (m, k) int64 array, k >= 1, for ``searchsorted``:
    the keys compare as raw bytes, which no id range overflows, in the rows'
    lexicographic order. Each id is stored big-endian with its sign bit
    flipped, so its bytes sort in numeric order."""
    flipped = (rows ^ np.int64(-1 << 63)).astype(">i8")
    return flipped.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def find_rows(known: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each row of ``rows`` is in ``known``, the ``row_keys`` of sorted,
    distinct rows, and whether it is there at all."""
    keys = row_keys(rows)
    if not len(known):
        return np.zeros(len(keys), dtype=np.intp), np.zeros(len(keys), dtype=bool)
    at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
    return at, known[at] == keys


def join_rows(rows: np.ndarray) -> np.ndarray:
    """The (k+1)-candidates of sorted, distinct k-itemset rows, as sorted
    rows: every two rows that share their first k-1 items join, and a join
    with a k-subset missing from ``rows`` is dropped."""
    # Sorted rows with one (k-1)-prefix are consecutive; every pair (i, j),
    # i < j, inside such a run joins, in lexicographic order of the result.
    n, k = rows.shape
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
    run_end = np.append(np.flatnonzero(new_run)[1:], n)[np.cumsum(new_run) - 1]
    partners = run_end - np.arange(1, n + 1)
    left = np.repeat(np.arange(n), partners)
    first_pair = np.repeat(np.cumsum(partners) - partners, partners)
    right = left + 1 + np.arange(len(left)) - first_pair
    cand = np.concatenate((rows[left], rows[right, -1:]), axis=1)
    # Dropping either of the two joined positions gives a or b, which are
    # present by construction; look the remaining k-1 subsets up.
    known = row_keys(rows)
    for j in range(k - 1):
        cand = cand[find_rows(known, np.delete(cand, j, axis=1))[1]]
    return cand


def apriori_gen(prev_frequent) -> list[Itemset]:
    """Generate (k+1)-candidates from the frequent k-itemsets.

    Join step merges pairs agreeing on their first k-1 items; the prune
    step drops any candidate with a k-subset missing from ``prev_frequent``.
    The result is duplicate-free and lexicographically sorted. Raises
    ValueError if the input mixes itemset lengths or holds a negative id.
    Kept for bench/tracer.py; the miners call ``join_rows``.
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
    return list(zip(*join_rows(rows).T.tolist()))


@dataclass(frozen=True)
class MiningResult:
    """Frequent itemsets with their global support counts. ``levels[k-1]``
    holds the frequent k-itemsets as the read-only rows of an (m, k) int64
    array, in strictly rising lexicographic order, and their read-only count
    vector; there is one level per length up to the longest frequent one."""

    minsup: Fraction
    db_size: int
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def threshold(self) -> int:
        return threshold(self.minsup, self.db_size)

    @functools.cached_property
    def frequent(self) -> dict[Itemset, int]:
        """The itemsets as tuples with their counts, in (length, lex) order,
        built on first use."""
        frequent: dict[Itemset, int] = {}
        for rows, supports in self.levels:
            frequent.update(zip(map(tuple, rows.tolist()), supports.tolist()))
        return frequent

    def __eq__(self, other) -> bool:
        if not isinstance(other, MiningResult):
            return NotImplemented
        mine, theirs = sum(self.levels, ()), sum(other.levels, ())
        header = (self.minsup, self.db_size, len(mine))
        same = header == (other.minsup, other.db_size, len(theirs))
        return same and all(map(np.array_equal, mine, theirs))


@dataclass(frozen=True)
class RoundMetrics:
    """Per-level counters shared by all runs.

    ``candidates_generated`` is the number of distinct itemsets counted
    anywhere this round; ``llk_total`` sums the entries of all local reports.
    """

    k: int
    candidates_generated: int
    messages_sent: int
    payload_bytes: int
    llk_total: int
    lk_size: int


def mine_levels(
    levels, minsup: Fraction, db_size: int, log: MessageLog
) -> tuple[MiningResult, list[RoundMetrics]]:
    """The level loop of every miner. ``levels`` yields, per level, its
    frequent itemsets as sorted rows, their counts, the number of distinct
    candidates counted and of report entries sent; the miner stops by ending
    it. The result keeps read-only views of each non-empty level's arrays. A
    level's metrics row counts the trace records ``log`` added while the
    level ran, and sums their bytes."""
    frequent: list[tuple[np.ndarray, np.ndarray]] = []
    metrics: list[RoundMetrics] = []
    seen = len(log.trace)
    for k, (rows, supports, candidates, entries) in enumerate(levels, 1):
        if len(rows):
            frequent.append((read_only(rows), read_only(supports)))
        added, seen = log.trace[seen:], len(log.trace)
        metrics.append(
            RoundMetrics(
                k=k,
                candidates_generated=candidates,
                messages_sent=len(added),
                payload_bytes=sum(rec.bytes for rec in added),
                llk_total=entries,
                lk_size=len(rows),
            )
        )
    return MiningResult(minsup, db_size, tuple(frequent)), metrics


def apriori_levels(universe: int, thr: int, count):
    """The levels of sequential and cd: every item at level 1, then
    ``join_rows`` of the last level's frequent rows, until no candidate is
    left (so a universe of 0 runs no level). ``count(rows)`` returns the
    global counts of the rows and the number of report entries it sent."""
    rows = np.arange(universe, dtype=np.int64)[:, None]
    while len(rows):
        counts, entries = count(rows)
        frequent = counts >= thr
        yield rows[frequent], counts[frequent], len(rows), entries
        rows = join_rows(rows[frequent])


def run_sequential(
    db: TransactionDb, minsup
) -> tuple[MiningResult, list[RoundMetrics]]:
    """Exact single-site Apriori over a bit matrix, with per-level metrics.

    Runs ``apriori_levels`` on an LMatrix built in one scan, counting each
    level on that one matrix. An empty database yields an empty result and
    no levels (its threshold of zero would otherwise make every itemset
    vacuously frequent). Levels send no messages and report no entries.
    """
    s = parse_minsup(minsup)
    levels = ()
    if db.size > 0:
        matrix = LMatrix.from_db(db, ScanCounter())
        levels = apriori_levels(
            db.universe,
            threshold(s, db.size),
            lambda rows: (matrix.count(rows), 0),
        )
    return mine_levels(levels, s, db.size, MessageLog())


def sequential_apriori(db: TransactionDb, minsup) -> MiningResult:
    """The frequent itemsets of ``db``; the reference the distributed miners
    match (bench/tracer.py looks this name up)."""
    return run_sequential(db, minsup)[0]
