import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from bruteforce import (
    enumerate_frequent,
    join_candidates,
    naive_support,
    oracle_threshold,
)
from conftest import MARKET_FREQUENT, corpus_db, mine

from distmine import (
    CountDistributionRun,
    ImprovedRun,
    MiningResult,
    PartitionSpec,
    generate_synthetic,
    load_fimi,
    parse_minsup,
    partition,
    run_sequential,
    sequential_apriori,
    threshold,
)
from distmine.dataset import TransactionDb
from distmine.miner import apriori_gen, find_rows, join_rows, row_keys


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


# Ids at the edges of int64 and of its 32-bit halves, in rising order.
EXTREMES = [-(2**63), -(2**63) + 1, -(2**32), -1, 0, 1, 2**31, 2**32, 2**63 - 1]


def sorted_rows(itemsets, k: int) -> np.ndarray:
    return np.array(sorted(itemsets), dtype=np.int64).reshape(-1, k)


class TestRowKernels:
    """``row_keys``, ``find_rows`` and ``join_rows`` on their own, with the
    negative and 64-bit ids that ``apriori_gen`` turns away."""

    def test_keys_sort_like_rows_over_int64_extremes(self):
        pairs = [(a, b) for a in EXTREMES for b in EXTREMES]
        rows = np.array(pairs, dtype=np.int64)
        order = np.argsort(row_keys(rows), kind="stable")
        assert [pairs[i] for i in order] == sorted(pairs)
        assert len(set(row_keys(rows).tolist())) == len(pairs)

    def test_single_column_keys_sort_like_ids(self):
        rows = np.array(EXTREMES[::-1], dtype=np.int64)[:, None]
        assert np.argsort(row_keys(rows)).tolist() == list(range(len(EXTREMES)))[::-1]

    def test_find_rows_locates_present_rows_only(self):
        known = sorted_rows([(a, b) for a in EXTREMES[::2] for b in EXTREMES[1::2]], 2)
        probes = np.array([(a, b) for a in EXTREMES for b in EXTREMES], dtype=np.int64)
        at, found = find_rows(row_keys(known), probes)
        present = set(map(tuple, known.tolist()))
        assert found.tolist() == [p in present for p in map(tuple, probes.tolist())]
        assert (known[at[found]] == probes[found]).all()

    @pytest.mark.parametrize("k", [1, 3])
    def test_find_rows_in_empty_known(self, k):
        probes = np.array([EXTREMES[:k], EXTREMES[-k:]], dtype=np.int64)
        at, found = find_rows(row_keys(np.empty((0, k), dtype=np.int64)), probes)
        assert (at.tolist(), found.tolist()) == ([0, 0], [False, False])
        assert (at.dtype, found.dtype) == (np.intp, bool)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_join_of_no_rows(self, k):
        joined, subsets = join_rows(np.empty((0, k), dtype=np.int64))
        assert joined.shape == subsets.shape == (0, k + 1)

    def test_join_of_single_items_is_every_pair(self):
        ids = [-(2**63), -5, 0, 2**40, 2**63 - 1]
        joined, subsets = join_rows(np.array(ids, dtype=np.int64)[:, None])
        assert list(map(tuple, joined.tolist())) == list(combinations(ids, 2))
        assert subsets.tolist() == [[j, i] for i, j in combinations(range(len(ids)), 2)]

    def test_join_matches_bruteforce_with_negative_ids(self):
        rng = random.Random(29)
        for case in range(300):
            k = 1 + case % 4
            ids = sorted(rng.sample(range(-(10**12), 10**12), rng.randint(k, 9)))
            if case % 3 == 0:
                ids = [i - 4 for i in range(len(ids))]
            level = list(combinations(ids, k))
            level = rng.sample(level, rng.randint(0, len(level)))
            rows = sorted_rows(level, k)
            joined, subsets = join_rows(rows)
            assert list(map(tuple, joined.tolist())) == join_candidates(level), (case, level)
            assert joined.dtype == np.int64 and joined.shape[1] == k + 1
            # Column j of ``subsets`` is the row of the candidate without item j.
            assert subsets.shape == joined.shape
            for j in range(k + 1):
                assert (rows[subsets[:, j]] == np.delete(joined, j, axis=1)).all(), (case, j)


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
        assert a == b

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
        rows, supports = result.levels[1]
        assert (rows.tolist(), supports.tolist()) == ([[1, 2], [1, 3], [1, 5]], [2, 2, 2])

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
            "cd": mine(CountDistributionRun(parts, minsup))[1],
            "improved": mine(ImprovedRun(parts, minsup))[1],
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


class TestResultLevels:
    """``MiningResult.levels`` keeps each non-empty level's read-only arrays,
    so the three miners give equal results whatever their stop rules."""

    CASES = {
        # improved's closing round (level 3) finds nothing; cd and sequential
        # never run it
        "closing_round": lambda: (
            TransactionDb(((0, 1), (0, 1), (2, 3), (2, 3), (4, 5), (4, 5)), universe=6),
            "1/3",
            PartitionSpec(n_sites=2, strategy="round-robin"),
        ),
        # the uniform-deep benchmark input at seed 1: 6 levels, and an empty
        # closing level 7 in improved
        "uniform_deep": lambda: (
            generate_synthetic(30_000, 100, 10, seed=1),
            "0.02",
            PartitionSpec(n_sites=4),
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_miners_agree_level_for_level(self, case):
        db, minsup, spec = self.CASES[case]()
        parts = partition(db, spec)
        sequential = run_sequential(db, minsup)[0]
        cd = CountDistributionRun(parts, minsup).run()
        improved = ImprovedRun(parts, minsup).run()
        assert improved == cd == sequential
        assert len(improved.levels) == len(cd.levels) == len(sequential.levels) > 1
        for result in (sequential, cd, improved):
            for k, (rows, supports) in enumerate(result.levels, 1):
                assert rows.shape == (len(supports), k) and len(supports) > 0
                assert rows.dtype == supports.dtype == np.int64
                assert not rows.flags.writeable and not supports.flags.writeable

    def test_equality_reads_minsup_size_and_arrays(self, market_db):
        result = sequential_apriori(market_db, "2/3")
        minsup, size, levels = result.minsup, result.db_size, result.levels
        copied = tuple((rows.copy(), supports.copy()) for rows, supports in levels)
        assert result == MiningResult(minsup, size, copied)
        # the same threshold, 2 of 3, and the same itemsets
        assert result != sequential_apriori(market_db, "1/2")
        assert result != MiningResult(minsup, size + 1, levels)
        assert result != MiningResult(minsup, size, levels[:1])
        assert result != MiningResult(minsup, size, (levels[0], (levels[1][0], levels[1][1] + 1)))
        assert result != MiningResult(minsup, size, (levels[0], (levels[1][0][::-1], levels[1][1])))
        assert result != result.frequent
