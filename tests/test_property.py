"""Property test: every miner equals the exhaustive oracle on random input.

Reaches what the acceptance corpus does not: 5-8 sites, minsups exactly on
the ceil(s*D) boundary, and sites whose universes differ.
"""

from fractions import Fraction

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
from distmine.dataset import PARTITION_STRATEGIES


def _shrunk(part: TransactionDb) -> TransactionDb:
    """The same part with its universe cut to its own largest item + 1."""
    top = max((t[-1] for t in part.transactions if t), default=-1)
    return TransactionDb(part.transactions, top + 1)


@st.composite
def instances(draw):
    n_items = draw(st.integers(1, 7))
    rows = draw(
        st.lists(st.frozensets(st.integers(0, n_items - 1)), min_size=1, max_size=30)
    )
    db = TransactionDb(tuple(tuple(sorted(t)) for t in rows), n_items)
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


@settings(max_examples=400, deadline=None, derandomize=True)
@given(instances())
def test_miners_equal_oracle(instance):
    db, parts, minsup = instance
    oracle = enumerate_frequent(db, minsup)
    results = {
        "sequential": sequential_apriori(db, minsup),
        "improved": ImprovedRun(parts, minsup).run(),
        "cd": CountDistributionRun(parts, minsup).run(),
    }
    for name, result in results.items():
        assert result.frequent == oracle, name
        # The itemsets are listed in (length, lex) order, which is the order
        # ``sorted_items`` and the result JSON give them in.
        itemsets = list(result.frequent)
        assert itemsets == sorted(itemsets, key=lambda x: (len(x), x)), name
