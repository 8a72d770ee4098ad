"""Seeded input generator for the benchmark's file workload, skewed-sites.

It is written against numpy alone, independent of
``distmine.generate_synthetic``, so that changes to the program cannot
change the benchmark's inputs. The same seed always gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Baskets:
    """Transactions as (row, item) pairs sorted by row, then item."""

    n_rows: int
    rows: np.ndarray
    items: np.ndarray

    def fimi_bytes(self) -> bytes:
        """FIMI text: one line per transaction, items ascending."""
        tokens = list(map(str, self.items.tolist()))
        bounds = np.searchsorted(self.rows, np.arange(self.n_rows + 1)).tolist()
        lines = [" ".join(tokens[s:e]) for s, e in zip(bounds, bounds[1:])]
        return ("\n".join(lines) + "\n").encode("ascii")

    def item_counts(self) -> dict[int, int]:
        """Support of every single item that occurs."""
        counts = np.bincount(self.items)
        ids = np.flatnonzero(counts)
        return dict(zip(ids.tolist(), counts[ids].tolist()))


def _draw(rng, n_rows, avg_len, weights, max_len):
    """Per row, Poisson(avg_len) draws clamped to [1, max_len] of popularity
    ranks, with replacement; duplicates are dropped later, so every row keeps
    at least one item."""
    lengths = np.clip(rng.poisson(avg_len, n_rows), 1, max_len)
    cdf = np.cumsum(weights / weights.sum())
    ranks = np.searchsorted(cdf, rng.random(int(lengths.sum())), side="right")
    np.minimum(ranks, len(weights) - 1, out=ranks)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    return rows, ranks


def _baskets(n_rows, n_cols, rows, items) -> Baskets:
    keys = np.sort(rows * n_cols + items)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return Baskets(n_rows, keys // n_cols, keys % n_cols)


def skewed_sites(seed, n_rows, n_items, avg_len, n_blocks) -> Baskets:
    """Contiguous blocks whose item popularity ranking is rotated by
    ``b * n_items // n_blocks`` in block b, with weight 1/(rank+1).

    Block sizes follow the program's contiguous split (the first
    ``n_rows % n_blocks`` blocks one larger), so each block is one site.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_items + 1)
    rows, ranks = _draw(rng, n_rows, avg_len, weights, n_items)
    base, extra = divmod(n_rows, n_blocks)
    sizes = [base + (1 if b < extra else 0) for b in range(n_blocks)]
    block = np.repeat(np.arange(n_blocks), sizes)[rows]
    items = (ranks + block * (n_items // n_blocks)) % n_items
    return _baskets(n_rows, n_items, rows, items)

