"""The CSR transaction store against references that read one token or one
(row, item) pair at a time: the FIMI parser, the bit-matrix build, and the
parts of every partition strategy."""

import re
from unittest import mock

import numpy as np
import pytest
from bruteforce import bit_words, parse_fimi
from hypothesis import given, settings
from hypothesis import strategies as st

from distmine import (
    FimiFormatError,
    LMatrix,
    PartitionSpec,
    ScanCounter,
    TransactionDb,
    dataset,
    lmatrix,
    load_fimi,
    partition,
)
from distmine.dataset import PARTITION_STRATEGIES

SHORT = st.one_of(
    st.integers(0, 40).map(str), st.integers(0, 40).map(lambda i: f"00{i}")
)
LONG = st.sampled_from(
    ["9223372036854775807", "999999999999999999", "000000000000000000007"]
)
BAD = st.sampled_from(
    ["x", "-3", "-0", "+1", "1_0", "\u0663", "\uff17", "9223372036854775808", "1e3", "0x1"]
)
# Whitespace that separates items within a line, and line breaks. A text
# keeps to the ASCII ones or mixes in the rest, so that both the array parser
# and the token parser see whole texts.
PLAIN_SPACES = [" ", "  ", "\t"]
PLAIN_BREAKS = ["\n"]
SPACES = PLAIN_SPACES + ["\u3000", "\u00a0", "\x1f"]
BREAKS = PLAIN_BREAKS + ["\r\n", "\r", "\x1c", "\u2028", "\x0b"]


@st.composite
def fimi_texts(draw):
    """Lines of 0-6 tokens; one line in ten may hold bad tokens."""
    plain = draw(st.booleans())
    good = st.one_of(SHORT, LONG) if draw(st.booleans()) else SHORT
    spaces = st.sampled_from(PLAIN_SPACES if plain else SPACES)
    breaks = st.sampled_from(PLAIN_BREAKS if plain else BREAKS)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        risky = draw(st.integers(0, 9)) == 0
        token = st.one_of(good, good, good, BAD) if risky else good
        tokens = draw(st.lists(token, max_size=6))
        line = draw(st.sampled_from(["", " ", "\t"]))
        for tok in tokens:
            line += tok + draw(spaces)
        lines.append(line + draw(breaks))
    return "".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fimi_texts(), st.sampled_from([1, 2, 7, 1 << 14]))
def test_load_fimi_matches_reference(text, chunk):
    # Small chunks put their bounds inside the drawn texts.
    with mock.patch.object(dataset, "_FIMI_CHUNK", chunk):
        try:
            expected = parse_fimi(text)
        except ValueError as err:
            with pytest.raises(FimiFormatError, match=re.escape(str(err))):
                load_fimi(text)
            return
        db = load_fimi(text)
    assert (db.transactions, db.universe) == expected
    assert db == TransactionDb(*expected)


def random_db(rng, n_rows, n_items):
    """Rows of random subsets, empty ones included, over a universe that
    may leave its top ids unused."""
    rows = []
    for _ in range(n_rows):
        size = int(rng.integers(0, n_items + 1))
        rows.append(tuple(sorted(rng.choice(n_items, size=size, replace=False).tolist())))
    return TransactionDb(tuple(rows), n_items + int(rng.integers(0, 3)))


def assert_matrix_matches(db):
    matrix = LMatrix.from_db(db, ScanCounter())
    assert (matrix.n_rows, matrix.n_cols) == (db.size, db.universe)
    expected = bit_words(db.transactions, db.universe)
    assert matrix._words.tolist() == expected


@pytest.mark.parametrize("seed", range(20))
def test_matrix_matches_pairwise_build(seed):
    rng = np.random.default_rng(seed)
    db = random_db(rng, int(rng.integers(0, 200)), int(rng.integers(0, 12)))
    assert_matrix_matches(db)
    for strategy in PARTITION_STRATEGIES:
        for n_sites in (1, 2, 3, 7):
            if db.size < n_sites:
                continue
            parts = partition(db, PartitionSpec(n_sites, strategy, seed))
            for part in parts:
                assert_matrix_matches(part)
            assert sorted(t for p in parts for t in p.transactions) == sorted(db.transactions)


@pytest.mark.parametrize("budget", [1, 8 * 1000])
@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 1000])
def test_matrix_blocks_keep_the_words(monkeypatch, budget, n_rows):
    # A budget of 1 byte builds one 64-row word per block; 8,000 bytes cut
    # blocks of about 1,000 pairs down to a word edge.
    monkeypatch.setattr(lmatrix, "CHUNK_BYTES", budget)
    assert_matrix_matches(random_db(np.random.default_rng(n_rows), n_rows, 9))


@pytest.mark.parametrize(
    "rows, universe",
    [((), 0), (((), ()), 0), (((), (), ()), 4), (((0,), (), (3,)), 4)],
)
def test_matrix_of_empty_rows_and_columns(rows, universe):
    assert_matrix_matches(TransactionDb(rows, universe))


class TestStore:
    def test_arrays(self):
        db = TransactionDb(((1, 4), (), (0, 2, 3)), 5)
        assert db.indptr.tolist() == [0, 2, 2, 5]
        assert db.items.tolist() == [1, 4, 0, 2, 3]
        assert db.indptr.dtype == db.items.dtype == np.int64
        assert not (db.indptr.flags.writeable or db.items.flags.writeable)

    def test_immutable(self):
        db = TransactionDb(((1,),), 2)
        with pytest.raises(AttributeError):
            db.universe = 3

    def test_slice_and_take(self):
        db = TransactionDb(((1, 4), (), (0, 2, 3), (2,)), 5)
        assert db.slice(1, 3).transactions == ((), (0, 2, 3))
        assert db.slice(4, 4).size == 0
        assert db.take(np.array([3, 0, 0])).transactions == ((2,), (1, 4), (1, 4))
        with pytest.raises(ValueError, match="rows"):
            db.slice(2, 5)

    def test_view_is_cached(self):
        db = TransactionDb(((1, 4), (0,)), 5)
        assert db.transactions is db.transactions
        assert all(type(i) is int for t in db.transactions for i in t)

    def test_equal_and_hash(self):
        a = TransactionDb(((1, 4), (0,)), 5)
        b = load_fimi("4 1\n0\n")
        assert a == b and hash(a) == hash(b)
        assert a != TransactionDb(((1, 4), (0,)), 6)
        assert a != TransactionDb(((1,), (0, 4)), 5)

    @pytest.mark.parametrize(
        "rows, universe, message",
        [
            (((0, 1), (2, 2)), 3, "(2, 2) is not strictly ascending"),
            (((), (3, 1)), 4, "(3, 1) is not strictly ascending"),
            (((1,), ()), 1, "(1,) has items outside universe 1"),
            (((-1, 0),), 2, "(-1, 0) has items outside universe 2"),
            (((1, 2**63),), 3, "(1, 9223372036854775808) has items outside universe 3"),
            (((1, 2**63),), 2**64, "must not exceed"),
        ],
    )
    def test_constructor_names_first_bad_transaction(self, rows, universe, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TransactionDb(rows, universe)
