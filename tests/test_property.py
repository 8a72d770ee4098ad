"""Property test: every miner equals the exhaustive oracle on random input.

Reaches what the acceptance corpus does not: 5-8 sites, minsups exactly on
the ceil(s*D) boundary, sites whose universes differ, and columns of more
than one 64-bit word, counted in chunks of every size down to one itemset.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from bruteforce import enumerate_frequent, join_candidates, oracle_threshold
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
from distmine.protocol import CenterSite
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


def _center_levels(parts, minsup) -> list[dict]:
    """Run improved on ``parts``; per level, what the center was given and
    what it returned: the reports, ``aggregate``'s three returns, the poll
    answers and the GlobalResult."""
    levels = []
    aggregate, finalize = CenterSite.aggregate, CenterSite.finalize

    def aggregating(center, reports):
        out = aggregate(center, reports)
        levels.append({"reports": reports, "aggregated": out})
        return out

    def finalizing(center, responses):
        levels[-1].update(responses=responses, result=finalize(center, responses))
        return levels[-1]["result"]

    with mock.patch.object(CenterSite, "aggregate", aggregating), mock.patch.object(
        CenterSite, "finalize", finalizing
    ):
        ImprovedRun(parts, minsup).run()
    return levels


def _tuples(rows) -> list[tuple]:
    return list(map(tuple, rows.tolist()))


def _named(candidates: list[tuple], mask) -> list[tuple]:
    """The itemsets of ``candidates`` that ``mask`` marks, in order."""
    return [x for x, bit in zip(candidates, mask) if bit]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances())
def test_center_decisions_equal_reference(instance):
    # Each level's decisions, rebuilt from the reports and poll answers as
    # tuples over C_k from the oracle's own join; a center that polls more
    # than it must still mines the right itemsets, so only this sees it.
    _, parts, minsup = instance
    site_thresholds = [oracle_threshold(minsup, p.size) for p in parts]
    global_threshold = oracle_threshold(minsup, sum(p.size for p in parts))
    candidates = [(i,) for i in range(max(p.universe for p in parts))]
    for level in _center_levels(parts, minsup):
        reported = []
        for r in sorted(level["reports"], key=lambda r: r.site_id):
            assert len(r.mask) == len(candidates)
            reported.append(dict(zip(_named(candidates, r.mask), r.supports.tolist())))
        seen = [x for x in candidates if any(x in counts for counts in reported)]
        bound = {
            x: sum(counts.get(x, t - 1) for counts, t in zip(reported, site_thresholds))
            for x in seen
        }
        immediate, pruned, requests = level["aggregated"]
        assert _tuples(immediate) == [x for x in seen if all(x in c for c in reported)]
        assert _tuples(pruned) == [x for x in seen if bound[x] < global_threshold]
        polled = {
            i: [x for x in seen if x not in counts and bound[x] >= global_threshold]
            for i, counts in enumerate(reported)
        }
        assert {i: _named(candidates, req.mask) for i, req in requests.items()} == {
            i: xs for i, xs in polled.items() if xs
        }
        totals = {x: sum(c.get(x, 0) for c in reported) for x in seen if bound[x] >= global_threshold}
        for resp in level["responses"]:
            for x, count in zip(polled[resp.site_id], resp.supports.tolist()):
                totals[x] += count
        frequent = [x for x in candidates if totals.get(x, -1) >= global_threshold]
        assert _named(candidates, level["result"].mask) == frequent
        candidates = join_candidates(frequent)
