import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from conftest import MARKET_FIMI, corpus_db

from distmine import (
    FimiFormatError,
    PartitionSpec,
    TransactionDb,
    dataset,
    dump_fimi,
    generate_synthetic,
    load_fimi,
    partition,
)


class TestLoadFimi:
    def test_market_example(self):
        db = load_fimi(MARKET_FIMI)
        assert db.size == 3
        assert db.universe == 6
        assert db.transactions == ((1, 2, 3), (1, 2, 4, 5), (1, 3, 5))

    def test_empty_input(self):
        db = load_fimi("")
        assert db.size == 0
        assert db.universe == 0

    def test_dedup_and_sort(self):
        db = load_fimi("7 7 2\n")
        assert db.transactions == ((2, 7),)
        assert db.universe == 8

    def test_blank_lines_and_tabs(self):
        db = load_fimi("1 2\n\n   \n3\t4\n")
        assert db.transactions == ((1, 2), (3, 4))

    def test_file_object(self, tmp_path):
        path = tmp_path / "db.dat"
        path.write_text(MARKET_FIMI)
        with open(path) as fh:
            assert load_fimi(fh) == load_fimi(MARKET_FIMI)

    def test_malformed_token_names_line(self):
        with pytest.raises(FimiFormatError, match="line 2"):
            load_fimi("1 2\n1 x\n")

    def test_negative_item_rejected(self):
        with pytest.raises(FimiFormatError, match="line 1"):
            load_fimi("-3 2\n")

    @pytest.mark.parametrize(
        "tok, kind",
        [
            ("1_0", "malformed"),
            ("+3", "malformed"),
            ("-0", "negative"),
            ("-3", "negative"),
            ("\u0663", "malformed"),  # Arabic-Indic digit three
            ("\uff17", "malformed"),  # fullwidth digit seven
        ],
    )
    def test_only_ascii_digits_accepted(self, tok, kind):
        message = re.escape(f"line 2: {kind} item {tok!r}")
        with pytest.raises(FimiFormatError, match=message):
            load_fimi(f"1 2\n4 {tok} 5\n")

    def test_non_ascii_whitespace_still_separates(self):
        assert load_fimi("3\u00a01\n").transactions == ((1, 3),)

    def test_roundtrip_through_serialization(self):
        for text in (MARKET_FIMI, "", "0\n", "5 1 5 9\n2\n"):
            db = load_fimi(text)
            assert load_fimi(dump_fimi(db)) == db


class TestTransactionDb:
    def test_rejects_unsorted_transaction(self):
        with pytest.raises(ValueError, match="ascending"):
            TransactionDb(transactions=((2, 1),), universe=3)

    def test_rejects_duplicate_items(self):
        with pytest.raises(ValueError, match="ascending"):
            TransactionDb(transactions=((1, 1),), universe=3)

    def test_rejects_item_outside_universe(self):
        with pytest.raises(ValueError, match="universe"):
            TransactionDb(transactions=((0, 5),), universe=5)


class TestPartition:
    def test_contiguous_market_db(self):
        db = load_fimi(MARKET_FIMI)
        parts = partition(db, PartitionSpec(n_sites=2))
        assert parts[0].transactions == db.transactions[:2]
        assert parts[1].transactions == db.transactions[2:]
        assert all(p.universe == db.universe for p in parts)

    def test_round_robin_one_each(self):
        db = load_fimi(MARKET_FIMI)
        parts = partition(db, PartitionSpec(n_sites=3, strategy="round-robin"))
        assert [p.size for p in parts] == [1, 1, 1]
        assert parts[0].transactions == (db.transactions[0],)

    def test_single_site_identity(self):
        db = load_fimi(MARKET_FIMI)
        (part,) = partition(db, PartitionSpec(n_sites=1))
        assert part == db

    def test_too_many_sites(self):
        db = load_fimi(MARKET_FIMI)
        with pytest.raises(ValueError, match="partition"):
            partition(db, PartitionSpec(n_sites=4))

    def test_bad_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            PartitionSpec(n_sites=2, strategy="hash")

    @pytest.mark.parametrize("strategy", ["contiguous", "round-robin", "random"])
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
    def test_disjoint_cover(self, strategy, n_sites):
        for seed in range(4):
            db = corpus_db(seed)
            parts = partition(
                db, PartitionSpec(n_sites=n_sites, strategy=strategy, seed=seed)
            )
            assert sum(p.size for p in parts) == db.size
            merged = sorted(t for p in parts for t in p.transactions)
            assert merged == sorted(db.transactions)

    def test_contiguous_concat_reproduces_order(self):
        db = corpus_db(3)
        parts = partition(db, PartitionSpec(n_sites=4))
        concat = tuple(t for p in parts for t in p.transactions)
        assert concat == db.transactions
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_round_robin_interleave_reproduces_db(self):
        db = corpus_db(5)
        n = 3
        parts = partition(db, PartitionSpec(n_sites=n, strategy="round-robin"))
        rebuilt = [None] * db.size
        for i, p in enumerate(parts):
            for j, t in enumerate(p.transactions):
                rebuilt[i + j * n] = t
        assert tuple(rebuilt) == db.transactions

    def test_random_is_seeded(self):
        db = corpus_db(7)
        spec = PartitionSpec(n_sites=3, strategy="random", seed=11)
        again = PartitionSpec(n_sites=3, strategy="random", seed=11)
        other = PartitionSpec(n_sites=3, strategy="random", seed=12)
        assert partition(db, spec) == partition(db, again)
        assert partition(db, spec) != partition(db, other)

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
    def test_random_is_blocks_of_the_shuffled_db(self, n_sites):
        # The parts are the contiguous blocks of the database gathered in
        # the seeded permutation's order.
        for seed in range(4):
            db = corpus_db(seed)
            perm = np.random.default_rng(seed).permutation(db.size)
            spec = PartitionSpec(n_sites=n_sites, strategy="random", seed=seed)
            blocks = partition(db.take(perm), PartitionSpec(n_sites=n_sites))
            assert partition(db, spec) == blocks

    @pytest.mark.parametrize("strategy", ["random", "round-robin"])
    def test_memory_is_the_parts(self, strategy):
        # Beside the parts, a part's gather temporaries are held (about 3 MB
        # here), but no permuted copy of the whole 10.6 MB database.
        db = generate_synthetic(120_000, 100, 10, seed=1)
        tracemalloc.start()
        try:
            parts = partition(db, PartitionSpec(n_sites=4, strategy=strategy, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(p.indptr.nbytes + p.items.nbytes for p in parts) <= 4 << 20


# Databases used by the benchmark, criteria 7/8 and the sweep tests.
PINNED = [
    ((30000, 100, 10, 1), "0d0401f3f9d535244b2b8e8c6a810be6a0a9f97bd97ee98813d243e93631387a"),
    ((30000, 100, 10, 301), "fcf94a4509f84aab4e31654edbd3ada0782745236788a5d086acf36f7393a3ce"),
    ((30000, 100, 10, 401), "57d1c5687b93dc867fb6c50f421665cdf30d7bd854163a0f51b698e748ef6cdf"),
    ((100000, 100, 10, 7), "1386078a64b7f93aa86db8612286337d65ad272b1eb2c3aa002124ee3bc5bf6a"),
    ((200, 12, 3, 5), "99c7594a0b31a6b1f54ab76c7742f06f8434a4456622672e2a1a68d0a9bb7503"),
    # Long rows over many items: keys u ** (i + 1) underflow to 0, so
    # a row's cut falls among equal keys and goes to the lower ids.
    ((50, 2000, 1500, 3), "7311be7bd1e1e0f0d973b524d04aef84f68ba7eb0492d71978aaebdb53a49ca7"),
    ((20, 4000, 3900, 5), "29c4a0dbc73d7209ce8ad76feb966a55027a8677db9fdd06344c48a654bd8bdc"),
]

# Test ids that name each database's (D, I, T, seed), not its digest, kept
# short so the full test name stays within 100 characters: D30000-I100-T10-s1.
PINNED_IDS = ["D{}-I{}-T{}-s{}".format(*args) for args, _ in PINNED]


class TestGenerateSynthetic:
    @pytest.mark.parametrize(("args", "sha256"), PINNED, ids=PINNED_IDS)
    def test_pinned_bytes(self, args, sha256):
        text = dump_fimi(generate_synthetic(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(("args", "sha256"), PINNED, ids=PINNED_IDS)
    def test_pinned_bytes_one_row_per_chunk(self, monkeypatch, args, sha256):
        # The smallest budget draws one row per chunk; the bytes stay.
        monkeypatch.setattr(dataset, "CHUNK_BYTES", 1)
        text = dump_fimi(generate_synthetic(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("n_rows", [30_000, 120_000])
    def test_memory_is_the_output(self, n_rows):
        # Working buffers are bounded by the chunk budget: the traced peak
        # is the output twice (the per-chunk pieces and their concatenation)
        # plus at most 2 MiB.
        tracemalloc.start()
        try:
            db = generate_synthetic(n_rows, 100, 10, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * (db.indptr.nbytes + db.items.nbytes) <= 2 << 20

    def test_empty(self):
        db = generate_synthetic(0, 5, 2, seed=1)
        assert db.size == 0
        assert db.universe == 5

    def test_deterministic(self):
        a = generate_synthetic(1000, 50, 8, seed=42)
        b = generate_synthetic(1000, 50, 8, seed=42)
        assert a == b

    def test_mean_length_near_target(self):
        db = generate_synthetic(1000, 50, 8, seed=42)
        mean = np.mean([len(t) for t in db.transactions])
        # regression bound: target 8, observed mean stays within +/- 20%
        assert 6.4 <= mean <= 9.6

    def test_prefix_property(self):
        small = generate_synthetic(100, 20, 5, seed=9)
        large = generate_synthetic(250, 20, 5, seed=9)
        assert large.transactions[:100] == small.transactions

    def test_skewed_popularity(self):
        db = generate_synthetic(500, 30, 4, seed=3)
        counts = np.zeros(30, dtype=int)
        for t in db.transactions:
            counts[list(t)] += 1
        assert counts[0] > counts[15] > counts[29]

    @pytest.mark.parametrize(
        "args",
        [(10, 0, 1, 0), (10, 5, 0, 0), (10, 5, 6, 0), (-1, 5, 2, 0), (10, 5, 2, -1)],
    )
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            generate_synthetic(*args)
