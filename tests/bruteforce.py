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
