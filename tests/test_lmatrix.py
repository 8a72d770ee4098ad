import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from bruteforce import naive_support
from conftest import random_raw_db

from distmine import (
    LMatrix,
    ScanCounter,
    TransactionDb,
    generate_synthetic,
    lmatrix,
    load_fimi,
)


def build(db):
    counter = ScanCounter()
    return LMatrix.from_db(db, counter), counter


class TestBuild:
    def test_market_matrix_display(self, market_db_zero_indexed):
        m, counter = build(market_db_zero_indexed)
        assert m.dump_rows() == ["11100", "11011", "10101"]
        assert counter.raw_scans == 1

    def test_empty_db(self):
        m, _ = build(TransactionDb(transactions=(), universe=5))
        assert m.n_rows == 0
        assert m.support_batch([(i,) for i in range(5)]) == [0] * 5

    def test_single_bit(self):
        m, _ = build(TransactionDb(transactions=((0,),), universe=1))
        assert m.support((0,)) == 1
        assert m.dump_rows() == ["1"]

    @pytest.mark.parametrize("n_rows", [63, 64, 65, 128])
    def test_word_boundaries(self, n_rows):
        # every transaction holds item 0; odd rows also hold item 1
        txns = tuple((0,) if r % 2 == 0 else (0, 1) for r in range(n_rows))
        m, _ = build(TransactionDb(transactions=txns, universe=2))
        assert m.support((0,)) == n_rows
        assert m.support((1,)) == n_rows // 2
        assert m.support((0, 1)) == n_rows // 2

    @pytest.mark.parametrize("n_rows", [30_000, 120_000])
    def test_memory_is_the_matrix(self, n_rows):
        # Temporaries are bounded by the block budget: the traced peak is
        # the matrix plus at most 2 MiB.
        db = generate_synthetic(n_rows, 100, 10, seed=1)
        tracemalloc.start()
        try:
            m, _ = build(db)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - m.n_cols * ((m.n_rows + 63) >> 6) * 8 <= 2 << 20


class TestSupport:
    def test_market_values(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        A, B, C, D, E = range(5)
        assert m.support((A,)) == 3
        assert m.support((A, C)) == 2
        assert m.support((C, E)) == 1
        assert m.support((A, B, C, D, E)) == 0

    def test_batch_matches_market_singletons(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        assert m.support_batch([(i,) for i in range(5)]) == [3, 2, 2, 1, 2]

    def test_batch_pairs(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        assert m.support_batch([(0, 1), (0, 2), (0, 4)]) == [2, 2, 2]

    def test_batch_empty(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        assert m.support_batch([]) == []

    def test_rejects_empty_itemset(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        with pytest.raises(ValueError, match="empty"):
            m.support(())

    def test_rejects_out_of_range(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        with pytest.raises(ValueError, match="universe"):
            m.support((0, 5))

    def test_batch_error_names_index(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        with pytest.raises(ValueError, match="index 1"):
            m.support_batch([(0,), (9,)])

    def test_queries_leave_scan_counter_alone(self, market_db_zero_indexed):
        m, counter = build(market_db_zero_indexed)
        m.support_batch([(0,), (0, 2), (1, 2, 3)])
        assert counter.raw_scans == 1


class TestOracleEquivalence:
    def test_matches_naive_counts(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            db = random_raw_db(rng, max_txns=64, max_items=12)
            m, _ = build(db)
            for k in range(1, 5):
                if k > db.universe:
                    break
                for x in combinations(range(db.universe), k):
                    assert m.support(x) == naive_support(db.transactions, x)

    def test_anti_monotonicity(self):
        rng = np.random.default_rng(7)
        db = random_raw_db(rng, max_txns=64, max_items=10)
        m, _ = build(db)
        for x in combinations(range(db.universe), min(3, db.universe)):
            sup_x = m.support(x)
            for y in combinations(x, len(x) - 1):
                if y:
                    assert m.support(y) >= sup_x


class TestCount:
    def test_matches_support_shuffled_with_unseen_items(self):
        # items >= n_cols occur in no transaction of this matrix
        rng = np.random.default_rng(11)
        shuffle = random.Random(11).shuffle
        for _ in range(30):
            db = random_raw_db(rng, max_txns=150, max_items=9)
            m, _ = build(db)
            for k in range(1, 5):
                itemsets = list(combinations(range(db.universe + 2), k))
                shuffle(itemsets)
                expected = [
                    m.support(x) if x[-1] < db.universe else 0 for x in itemsets
                ]
                got = m.count(itemsets)
                assert got.dtype == np.int64
                assert got.tolist() == expected
                assert m.count(sorted(itemsets)).tolist() == [
                    n for _, n in sorted(zip(itemsets, expected))
                ]

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
    def test_chunk_edges_inside_the_level(self, monkeypatch, chunk_rows):
        # a budget of a few candidate rows puts chunk edges inside each level
        rng = np.random.default_rng(5)
        for _ in range(10):
            db = random_raw_db(rng, max_txns=200, max_items=8)
            m, _ = build(db)
            n_words = (db.size + 63) >> 6
            monkeypatch.setattr(lmatrix, "CHUNK_BYTES", chunk_rows * 8 * n_words)
            for k in range(1, 4):
                itemsets = list(combinations(range(db.universe + 1), k))
                expected = [m.support(x) if x[-1] < db.universe else 0 for x in itemsets]
                assert m.count(itemsets).tolist() == expected

    def test_empty_input(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        got = m.count([])
        assert got.shape == (0,) and got.dtype == np.int64

    def test_zero_column_matrix_counts_zero(self):
        m, _ = build(TransactionDb(transactions=((), ()), universe=0))
        assert m.count([(0,), (3,)]).tolist() == [0, 0]
        assert m.count([(0, 1), (0, 2), (1, 2)]).tolist() == [0, 0, 0]

    def test_market_pairs(self, market_db_zero_indexed):
        m, _ = build(market_db_zero_indexed)
        pairs = [(0, 1), (0, 2), (0, 4), (1, 2), (2, 4)]
        assert m.count(pairs).tolist() == [2, 2, 2, 1, 1]

    @pytest.mark.parametrize("bad", [[(0,), (0, 1)], [(), ()]])
    def test_rejects_mixed_or_empty_itemsets(self, market_db_zero_indexed, bad):
        m, _ = build(market_db_zero_indexed)
        with pytest.raises(ValueError):
            m.count(bad)

    def test_leaves_scan_counter_alone(self, market_db_zero_indexed):
        m, counter = build(market_db_zero_indexed)
        m.count([(0, 2), (1, 2)])
        assert counter.raw_scans == 1
