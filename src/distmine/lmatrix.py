"""Compressed transaction-by-item bit matrix for support counting.

The matrix is built from a database in a single scan; afterwards every
support query is answered by intersecting item columns and popcounting,
never by re-reading raw transactions. ``LMatrix.count`` is the counting
path of all three miners: it answers a whole level of candidates in a few
numpy calls per fixed-size chunk. ``support`` answers a single itemset.
"""

from __future__ import annotations

import numpy as np

from .dataset import CHUNK_BYTES, Itemset, TransactionDb


class ScanCounter:
    """Counts full passes over raw transaction lists; never decreases."""

    def __init__(self) -> None:
        self.raw_scans = 0

    def record_scan(self) -> None:
        self.raw_scans += 1


class LMatrix:
    """One bit per (transaction, item), stored column-major.

    Each item owns a contiguous vector of 64-bit words (its metavector);
    bit r of column c is set iff transaction r contains item c. Support of
    an itemset is the popcount of the AND of its columns. Instances are
    immutable after construction.
    """

    def __init__(self, n_rows: int, n_cols: int, words: np.ndarray) -> None:
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._words = words

    @classmethod
    def from_db(cls, db: TransactionDb, counter: ScanCounter) -> "LMatrix":
        """Build the matrix in one scan of ``db``'s CSR arrays; increments
        ``counter`` once. Rows are ORed in by blocks of whole 64-row words:
        a block holds as many words of rows as keep one int64 per (row,
        item) pair within ``CHUNK_BYTES``, and at least one, so only the
        matrix grows with the database."""
        n_rows, n_cols = db.size, db.universe
        words = np.zeros((n_cols, (n_rows + 63) >> 6), dtype=np.uint64)
        indptr, items = db.indptr, db.items
        start = 0
        while start < n_rows:
            # The last row bound whose pairs fit, cut down to a word edge.
            fits = np.searchsorted(indptr, indptr[start] + CHUNK_BYTES // 8, side="right")
            stop = min(max((int(fits) - 1) & ~63, start + 64), n_rows)
            bounds = indptr[start : stop + 1]
            rows = np.repeat(np.arange(start, stop, dtype=np.int64), np.diff(bounds))
            word = rows >> 6
            # Each pair's bit, 1 << (row & 63), made in place in ``rows``.
            bits = np.bitwise_and(rows, 63, out=rows).view(np.uint64)
            np.left_shift(np.uint64(1), bits, out=bits)
            np.bitwise_or.at(words, (items[bounds[0] : bounds[-1]], word), bits)
            start = stop
        counter.record_scan()
        return cls(n_rows, n_cols, words)

    def _column(self, item: int) -> np.ndarray:
        if not 0 <= item < self.n_cols:
            raise ValueError(f"item {item} outside universe of {self.n_cols} items")
        return self._words[item]

    def support(self, itemset: Itemset) -> int:
        """Number of transactions containing every item of ``itemset``.

        Columns are intersected in the given (ascending) order with an early
        exit once the running vector is all zero. Rejects empty itemsets and
        out-of-range items.
        """
        if not itemset:
            raise ValueError("support of the empty itemset is not queryable")
        if len(itemset) == 1:
            return int(np.bitwise_count(self._column(itemset[0])).sum())
        acc = self._column(itemset[0]).copy()
        for item in itemset[1:]:
            acc &= self._column(item)
            if not acc.any():
                return 0
        return int(np.bitwise_count(acc).sum())

    def count(self, itemsets) -> np.ndarray:
        """Supports of equal-length itemsets, in input order, as int64.

        The level is counted in chunks of candidates: for each chunk the k
        item columns are gathered into reused buffers, ANDed there and
        popcounted in one step. Each temporary holds at most
        ``CHUNK_BYTES``, so memory does not grow with the size of the
        level. Items outside ``[0, n_cols)`` occur in no transaction here, so
        an itemset holding one counts 0. Empty or mixed-length itemsets raise
        ValueError. An int64 array of rows is read without a copy.
        """
        counts = np.zeros(len(itemsets), dtype=np.int64)
        if not len(itemsets):
            return counts
        rows = np.asarray(itemsets, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ValueError("count takes non-empty itemsets of one length")
        known = np.flatnonzero(((rows >= 0) & (rows < self.n_cols)).all(axis=1))
        n_words = self._words.shape[1]
        step = max(CHUNK_BYTES // max(8 * n_words, 1), 1)
        acc = np.empty((min(step, len(known)), n_words), dtype=np.uint64)
        col = np.empty_like(acc)
        for start in range(0, len(known), step):
            at = known[start : start + step]
            chunk = rows[at]
            a, c = acc[: len(at)], col[: len(at)]
            # Indices are checked above; "clip" lets take fill out unbuffered.
            np.take(self._words, chunk[:, 0], axis=0, out=a, mode="clip")
            for j in range(1, chunk.shape[1]):
                np.take(self._words, chunk[:, j], axis=0, out=c, mode="clip")
                a &= c
            counts[at] = np.bitwise_count(a).sum(axis=1)
        return counts

    def support_batch(self, itemsets: list[Itemset]) -> list[int]:
        """Map support() over ``itemsets``; errors name the offending index."""
        out = []
        for i, x in enumerate(itemsets):
            try:
                out.append(self.support(x))
            except ValueError as err:
                raise ValueError(f"itemset at index {i}: {err}") from None
        return out

    def dump_rows(self) -> list[str]:
        """Debug view: one '0'/'1' string per transaction (row-major display)."""
        rows = []
        for r in range(self.n_rows):
            word, bit = r >> 6, np.uint64(r & 63)
            rows.append(
                "".join(
                    "1" if (self._words[c, word] >> bit) & np.uint64(1) else "0"
                    for c in range(self.n_cols)
                )
            )
        return rows
