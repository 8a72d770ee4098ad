"""Property test: every miner equals the exhaustive oracle on random input.

Reaches what the acceptance corpus does not: 5-8 sites, minsups exactly on
the ceil(s*D) boundary, sites whose universes differ, and columns of more
than one 64-bit word, counted in chunks of every size down to one itemset.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from bruteforce import enumerate_frequent
from hypothesis import given, settings
from hypothesis import strategies as st

from distmine import (
    CountDistributionRun,
    ImprovedRun,
    PartitionSpec,
    TransactionDb,
    partition,
    sequential_apriori,
)
from distmine import dataset, lmatrix
from distmine.dataset import PARTITION_STRATEGIES


def _shrunk(part: TransactionDb) -> TransactionDb:
    """The same part with its universe cut to its own largest item + 1."""
    top = max((t[-1] for t in part.transactions if t), default=-1)
    return TransactionDb(part.transactions, top + 1)


def _split(draw, db: TransactionDb) -> tuple:
    """``db``, its parts for up to 8 sites and a minsup, drawn."""
    spec = PartitionSpec(
        n_sites=draw(st.integers(1, min(8, db.size))),
        strategy=draw(st.sampled_from(PARTITION_STRATEGIES)),
        seed=draw(st.integers(0, 2**16)),
    )
    parts = partition(db, spec)
    if draw(st.booleans()):
        parts = [_shrunk(p) for p in parts]
    # t/D sits exactly on the threshold: itemsets with support t are frequent
    minsup = Fraction(draw(st.integers(1, db.size)), db.size)
    return db, parts, minsup


@st.composite
def instances(draw):
    n_items = draw(st.integers(1, 7))
    rows = draw(
        st.lists(st.frozensets(st.integers(0, n_items - 1)), min_size=1, max_size=30)
    )
    return _split(draw, TransactionDb(tuple(tuple(sorted(t)) for t in rows), n_items))


@st.composite
def wide_instances(draw):
    """Databases of 63 to 300 rows, on both sides of the 64-bit word
    boundaries; a seeded generator draws the rows, which is faster than
    hypothesis lists of that length."""
    size = draw(st.sampled_from([63, 64, 65, 127, 128, 129, 200, 300]))
    n_items = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dense = rng.random((size, n_items)) < draw(st.sampled_from([0.2, 0.5, 0.8]))
    db = TransactionDb(tuple(tuple(np.flatnonzero(r).tolist()) for r in dense), n_items)
    return _split(draw, db)


def _check_miners(db, parts, minsup) -> None:
    oracle = enumerate_frequent(db, minsup)
    results = {
        "sequential": sequential_apriori(db, minsup),
        "improved": ImprovedRun(parts, minsup).run(),
        "cd": CountDistributionRun(parts, minsup).run(),
    }
    for name, result in results.items():
        assert result.frequent == oracle, name
        assert result == results["sequential"], name
        # The itemsets are listed in (length, lex) order: level by level, as
        # ``levels`` holds them and the result JSON gives them.
        itemsets = list(result.frequent)
        assert itemsets == sorted(itemsets, key=lambda x: (len(x), x)), name


@settings(max_examples=400, deadline=None, derandomize=True)
@given(instances())
def test_miners_equal_oracle(instance):
    _check_miners(*instance)


@pytest.mark.parametrize("chunk_bytes", [dataset.CHUNK_BYTES, 16])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(wide_instances())
def test_miners_equal_oracle_past_one_word(chunk_bytes, instance):
    # lmatrix imported the budget by name, so both bindings are patched.
    with mock.patch.object(dataset, "CHUNK_BYTES", chunk_bytes), mock.patch.object(
        lmatrix, "CHUNK_BYTES", chunk_bytes
    ):
        _check_miners(*instance)
