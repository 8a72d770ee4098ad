"""Independent reference oracles for the test suite.

Everything here counts by direct subset tests over raw transaction tuples
and enumerates the itemset lattice exhaustively. No bit matrices, no
candidate generation, no shared threshold code with the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def oracle_minsup(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def oracle_threshold(minsup, size: int) -> int:
    return math.ceil(oracle_minsup(minsup) * size)


def naive_support(transactions, itemset) -> int:
    wanted = set(itemset)
    return sum(1 for t in transactions if wanted.issubset(t))


def enumerate_frequent(db, minsup) -> dict[tuple, int]:
    """All frequent itemsets by checking every subset of the universe."""
    if db.size == 0:
        return {}
    thr = oracle_threshold(minsup, db.size)
    max_len = max((len(t) for t in db.transactions), default=0)
    out = {}
    for k in range(1, max_len + 1):
        for combo in combinations(range(db.universe), k):
            count = naive_support(db.transactions, combo)
            if count >= thr:
                out[combo] = count
    return out


def join_candidates(level) -> list[tuple]:
    """Every (k+1)-set over the level's items whose k-subsets all appear."""
    level = set(level)
    if not level:
        return []
    k = len(next(iter(level)))
    items = sorted({i for x in level for i in x})
    return [
        c
        for c in combinations(items, k + 1)
        if all(s in level for s in combinations(c, k))
    ]


def parse_fimi(text: str) -> tuple[tuple, int]:
    """FIMI text as (transactions, universe), one line at a time: each
    non-blank line's tokens as a sorted tuple of distinct ints, universe one
    past the largest. Raises ValueError with ``load_fimi``'s message for the
    first token that is not ASCII digits or for an id above 2**63 - 1."""
    transactions = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                rest = tok[1:]
                negative = tok[0] == "-" and rest.isascii() and rest.isdigit()
                kind = "negative" if negative else "malformed"
                raise ValueError(f"line {lineno}: {kind} item {tok!r}")
        t = tuple(sorted({int(tok) for tok in tokens}))
        if t[-1] >= 2**63:
            largest = 2**63 - 1
            raise ValueError(f"line {lineno}: item {t[-1]} is above the largest id {largest}")
        transactions.append(t)
    return tuple(transactions), max((t[-1] for t in transactions), default=-1) + 1


def bit_words(transactions, universe: int) -> list[list[int]]:
    """The bit matrix one (row, item) pair at a time: per item, its 64-bit
    words, bit r of the column set iff transaction r holds the item."""
    words = [[0] * ((len(transactions) + 63) // 64) for _ in range(universe)]
    for r, t in enumerate(transactions):
        for i in t:
            words[i][r // 64] |= 1 << (r % 64)
    return words
