import random
from fractions import Fraction
from itertools import combinations

import pytest
from bruteforce import (
    enumerate_frequent,
    join_candidates,
    naive_support,
    oracle_threshold,
)
from conftest import MARKET_FREQUENT, corpus_db

from distmine import (
    PartitionSpec,
    load_fimi,
    parse_minsup,
    partition,
    run_cd,
    run_improved,
    run_sequential,
    sequential_apriori,
    threshold,
)
from distmine.dataset import TransactionDb
from distmine.miner import apriori_gen


class TestParseMinsup:
    def test_fraction_string(self):
        assert parse_minsup("2/3") == Fraction(2, 3)

    def test_decimal_string(self):
        assert parse_minsup("0.4") == Fraction(2, 5)

    def test_float_reads_as_decimal(self):
        assert parse_minsup(0.2) == Fraction(1, 5)

    def test_one(self):
        assert parse_minsup(1) == Fraction(1)

    @pytest.mark.parametrize("bad", ["0", "1.5", "-1/2", "abc", 0.0, 2])
    def test_out_of_range_or_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_minsup(bad)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            parse_minsup(True)


class TestThreshold:
    @pytest.mark.parametrize(
        "minsup,size,expected",
        [
            (Fraction(2, 3), 3, 2),
            (0.5, 4, 2),
            (0.5, 5, 3),
            ("0.2", 5, 1),
            ("2/3", 2, 2),
            ("2/3", 1, 1),
            (1, 7, 7),
            ("0.1", 0, 0),
        ],
    )
    def test_values(self, minsup, size, expected):
        assert threshold(minsup, size) == expected

    def test_matches_oracle_on_grid(self):
        for num in range(1, 8):
            for den in range(num, 9):
                for size in range(0, 50):
                    s = Fraction(num, den)
                    assert threshold(s, size) == oracle_threshold(s, size)


class TestAprioriGen:
    def test_singletons_join_to_all_pairs(self):
        singles = [(1,), (2,), (3,), (5,)]
        assert apriori_gen(singles) == [
            (1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5),
        ]

    def test_prune_removes_unsupported_joins(self):
        # joins give (1,2,3), (1,2,5), (1,3,5); each is missing a 2-subset
        assert apriori_gen([(1, 2), (1, 3), (1, 5)]) == []

    def test_empty(self):
        assert apriori_gen([]) == []

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            apriori_gen([(1,), (2, 3)])

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            apriori_gen([(-1, 2), (-1, 3), (2, 3)])

    def test_duplicates_collapse(self):
        assert apriori_gen([(1,), (2,), (1,)]) == [(1, 2)]

    def test_matches_join_definition(self):
        rng = random.Random(17)
        for case in range(400):
            k = 1 + case % 4
            ids = sorted(rng.sample(range(10**9), rng.randint(k, 9)))
            if case % 3 == 0:
                ids = list(range(len(ids)))
            level = list(combinations(ids, k))
            level = rng.sample(level, rng.randint(0, len(level)))
            got = apriori_gen(level)
            assert got == join_candidates(level), (case, level)
            assert type(got) is list
            assert all(type(x) is tuple and len(x) == k + 1 for x in got)
            assert all(type(i) is int for x in got for i in x)

    @pytest.mark.parametrize(
        "level",
        [
            [],
            [(7,), (3,), (1_000_000_007,), (42,)],
            [(2, 5, 9), (2, 5, 11), (2, 5, 40), (2, 5, 41)],
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (3, 4, 5)],
            [(0, 10**12), (0, 10**12 + 1), (10**12, 10**12 + 1)],
            [
                (1, 255, 256), (1, 255, 2**32), (1, 256, 2**32), (1, 256, 2**32 + 1),
                (255, 256, 2**32), (255, 2**32, 2**32 + 1), (256, 2**32, 2**32 + 1),
                (1, 2**32, 2**32 + 1), (1, 255, 2**32 + 1), (255, 256, 2**32 + 1),
            ],
        ],
        ids=["empty", "singles", "one-prefix-run", "gapped", "wide-ids", "byte-order"],
    )
    def test_matches_join_definition_on_shapes(self, level):
        assert apriori_gen(level) == join_candidates(level)

    def test_complete_against_bruteforce(self):
        # every truly frequent (k+1)-itemset must come out of the join over
        # the true frequent k-itemsets
        for seed in range(6):
            db = corpus_db(seed)
            frequent = enumerate_frequent(db, "0.3")
            by_len = {}
            for x in frequent:
                by_len.setdefault(len(x), set()).add(x)
            for k in sorted(by_len):
                if k + 1 in by_len:
                    generated = set(apriori_gen(sorted(by_len[k])))
                    assert by_len[k + 1] <= generated


class TestSequentialApriori:
    def test_market_singletons(self, market_db):
        result = sequential_apriori(market_db, "2/3")
        singles = {x for x in result.frequent if len(x) == 1}
        assert singles == {(1,), (2,), (3,), (5,)}

    def test_market_full_result(self, market_db):
        result = sequential_apriori(market_db, "2/3")
        assert result.frequent == MARKET_FREQUENT
        assert result.threshold == 2

    def test_market_minsup_one(self, market_db):
        result = sequential_apriori(market_db, 1)
        assert result.frequent == {(1,): 3}

    def test_above_max_item_frequency_is_empty(self):
        db = load_fimi("0 1\n0\n2\n")
        # max single-item frequency is 2/3; anything above yields nothing
        assert sequential_apriori(db, "0.7").frequent == {}

    def test_empty_db_yields_empty_result(self):
        db = TransactionDb(transactions=(), universe=4)
        result = sequential_apriori(db, "0.5")
        assert result.frequent == {}
        assert result.db_size == 0

    def test_bad_minsup(self, market_db):
        with pytest.raises(ValueError):
            sequential_apriori(market_db, "0")

    def test_matches_exhaustive_enumeration(self):
        for seed in range(12):
            db = corpus_db(seed)
            for minsup in ("0.2", "0.4", "0.6"):
                result = sequential_apriori(db, minsup)
                assert result.frequent == enumerate_frequent(db, minsup), (
                    f"seed={seed} minsup={minsup}"
                )

    def test_deterministic_ordering(self, market_db):
        a = sequential_apriori(market_db, "2/3")
        b = sequential_apriori(market_db, "2/3")
        assert list(a.frequent.items()) == list(b.frequent.items())
        assert a.sorted_items() == b.sorted_items()

    def test_downward_closure(self):
        db = corpus_db(2)
        result = sequential_apriori(db, "0.25")
        for x in result.frequent:
            for drop in range(len(x)):
                sub = x[:drop] + x[drop + 1 :]
                if sub:
                    assert sub in result.frequent

    def test_level_accessor(self, market_db):
        result = sequential_apriori(market_db, "2/3")
        assert set(result.level(2)) == {(1, 2), (1, 3), (1, 5)}

    def test_counts_are_true_supports(self):
        db = corpus_db(4)
        result = sequential_apriori(db, "0.3")
        for x, count in result.frequent.items():
            assert count == naive_support(db.transactions, x)


class TestStopRules:
    """The miners share one level loop but not its stop rule: sequential and
    cd stop before a level without candidates; improved always runs level 1
    and closes with an empty round when |L_k| > k but the join is empty."""

    @staticmethod
    def levels(db, minsup, spec):
        parts = partition(db, spec)
        return {
            "sequential": run_sequential(db, minsup)[1],
            "cd": run_cd(parts, minsup)[1],
            "improved": run_improved(parts, minsup)[1],
        }

    def test_universe_zero(self):
        db = TransactionDb(((), (), ()), universe=0)
        runs = self.levels(db, "0.5", PartitionSpec(n_sites=3))
        assert runs["sequential"] == runs["cd"] == []
        [only] = runs["improved"]
        assert (only.k, only.messages_sent, only.lk_size) == (1, 6, 0)

    def test_closing_round_after_empty_join(self):
        db = TransactionDb(((0, 1), (0, 1), (2, 3), (2, 3), (4, 5), (4, 5)), universe=6)
        runs = self.levels(db, "1/3", PartitionSpec(n_sites=2, strategy="round-robin"))
        for name in ("sequential", "cd"):
            assert [(m.k, m.lk_size) for m in runs[name]] == [(1, 6), (2, 3)], name
        *first, closing = runs["improved"]
        assert [(m.k, m.lk_size) for m in first] == [(1, 6), (2, 3)]
        assert closing.k == 3 and closing.lk_size == 0
        assert (closing.candidates_generated, closing.messages_sent) == (0, 4)
