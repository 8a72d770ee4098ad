import json
import re
from fractions import Fraction

import numpy as np
import pytest
from bruteforce import enumerate_frequent
from conftest import (
    A,
    B,
    C,
    D,
    E,
    MARKET_FREQUENT,
    corpus_db,
    delivering,
    local_prune_checks,
    mine,
    remade,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from distmine import (
    CenterSite,
    CountRequest,
    CountResponse,
    GlobalResult,
    ImprovedRun,
    LocalReport,
    LocalSite,
    PartitionSpec,
    ProtocolError,
    partition,
    sequential_apriori,
)
from distmine.messages import _check_sorted, canonical_size, decode, encode
from distmine.protocol import candidate_list, local_prune

TWO_THIRDS = Fraction(2, 3)

# The market run's universe, items 0..5, and its level-1 candidate list C_1,
# one row per item: every party names level-1 itemsets by a mask over it.
U = 6
C1 = np.arange(U, dtype=np.int64)[:, None]


def itemsets(rows):
    """The rows of an int64 itemset array as a list of tuples."""
    return list(map(tuple, rows.tolist()))


def pairs(msg, candidates):
    """A counted message's (itemset, count) pairs, as tuples; its mask is
    over ``candidates``."""
    return tuple(zip(itemsets(candidates[msg.mask]), msg.supports.tolist()))


def totals(center):
    """The center's last result with the global counts it keeps, as
    (itemset, count) pairs."""
    return tuple(zip(itemsets(center.frequent), center.supports.tolist()))


def counted(site, k):
    """The level-k candidates ``site`` counts, as tuples."""
    candidates, mine = site.local_candidates(k)
    return itemsets(candidates[mine])


def heavy(site):
    """The itemsets of the last result that ``site`` reported, as tuples."""
    return itemsets(site.frequent[site.heavy])


def mask(candidates, chosen):
    """The mask over the rows ``candidates`` that marks the ``chosen``
    itemsets, given as tuples; each must be a row."""
    chosen, rows = set(chosen), itemsets(candidates)
    assert chosen <= set(rows), chosen - set(rows)
    return np.array([x in chosen for x in rows], dtype=bool)


def _rows(itemsets, k):
    """k-itemsets as an (m, k) int64 array."""
    return np.array(itemsets, dtype=np.int64).reshape(len(itemsets), k)


def _columns(entries, k):
    """The rows and supports of (itemset, count) pairs of k-itemsets."""
    return _rows([x for x, _ in entries], k), np.array([n for _, n in entries], dtype=np.int64)


# Messages written as tuples in the tests: each builds the arrays its
# constructor takes, a mask over C_1 by default.
def report(site_id, k, entries, candidates=None):
    """``entries`` are named by a mask over the rows ``candidates``, by
    default C_1 at level 1 and the entries' own itemsets after."""
    rows, supports = _columns(entries, k)
    if candidates is None:
        candidates = C1 if k == 1 else rows
    return LocalReport(mask(candidates, itemsets(rows)), supports, site_id=site_id, k=k)


def request(k, itemsets, candidates=C1):
    return CountRequest(mask(candidates, itemsets), k=k)


def response(site_id, k, counts):
    return CountResponse(np.array(counts, dtype=np.int64), site_id=site_id, k=k)


def global_result(k, frequent, continue_flag, candidates=C1):
    return GlobalResult(mask(candidates, frequent), k=k, continue_flag=continue_flag)


@pytest.fixture
def market_sites(market_db):
    assert market_db.universe == U
    parts = partition(market_db, PartitionSpec(n_sites=2))
    return [LocalSite(i, p, TWO_THIRDS, U) for i, p in enumerate(parts)]


@pytest.fixture
def market_center(market_sites):
    return CenterSite([s.size for s in market_sites], TWO_THIRDS, U)


# The market run's L_1.
MARKET_L1 = ((A,), (B,), (C,), (E,))


class TestLocalSite:
    def test_level1_candidates_are_all_items(self, market_sites):
        assert counted(market_sites[0], 1) == [(i,) for i in range(6)]

    def test_candidates_from_heavy_sets(self, market_sites):
        # C_2 joins all of L_1; the site counts the pairs of its heavy items
        site = market_sites[0]
        site.frequent = np.array([(A,), (B,), (C,), (D,), (E,)])
        site.heavy = np.array([True, True, True, False, True])
        assert len(site.local_candidates(2)[0]) == 10
        assert counted(site, 2) == [
            (A, B), (A, C), (A, E), (B, C), (B, E), (C, E),
        ]

    def test_no_heavy_sets_no_candidates(self, market_sites):
        site = market_sites[0]
        site.frequent = np.array([(A,), (B,)])
        site.heavy = np.zeros(2, dtype=bool)
        assert itemsets(site.local_candidates(2)[0]) == [(A, B)]
        assert counted(site, 2) == []

    def test_level1_reports(self, market_sites):
        # site 0 holds {ABC, ABDE} with threshold 2; site 1 holds {ACE}, threshold 1
        rep0 = market_sites[0].build_report(1)
        rep1 = market_sites[1].build_report(1)
        assert len(rep0.mask) == len(rep1.mask) == U
        assert pairs(rep0, C1) == (((A,), 2), ((B,), 2))
        assert pairs(rep1, C1) == (((A,), 1), ((C,), 1), ((E,), 1))

    def test_empty_report_still_produced(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.frequent = np.array([(A,), (B,)])
        site.heavy = np.zeros(2, dtype=bool)
        rep = site.build_report(2)
        assert rep.mask.tolist() == [False] and pairs(rep, site.candidates) == ()

    def test_count_request_roundtrip(self, market_sites):
        for site in market_sites:
            site.build_report(1)
        resp0 = market_sites[0].handle_count_request(request(k=1, itemsets=((C,), (D,))))
        assert resp0 == response(site_id=0, k=1, counts=[1, 1])
        resp1 = market_sites[1].handle_count_request(request(k=1, itemsets=((B,),)))
        assert resp1 == response(site_id=1, k=1, counts=[0])

    def test_empty_count_request(self, market_sites):
        market_sites[0].build_report(1)
        resp = market_sites[0].handle_count_request(request(k=1, itemsets=()))
        assert resp == response(site_id=0, k=1, counts=[])

    def test_items_outside_local_universe_count_zero(self, market_db):
        # The run's universe is 41 items; this site has seen items 1..5 only.
        site = LocalSite(0, market_db, TWO_THIRDS, 41)
        c1 = np.arange(41)[:, None]
        assert pairs(site.build_report(1), c1) == (((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2))
        resp = site.handle_count_request(request(k=1, itemsets=((D,), (6,), (40,)), candidates=c1))
        assert resp == response(site_id=0, k=1, counts=[1, 0, 0])

    def test_rejects_items_outside_the_run_universe(self, market_db):
        with pytest.raises(ValueError, match="site 0: items outside the run's universe of 5"):
            LocalSite(0, market_db, TWO_THIRDS, 5)

    def test_update_heavy_site0(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=MARKET_L1, continue_flag=True))
        assert heavy(site) == [(A,), (B,)]

    def test_update_heavy_site1(self, market_sites):
        site = market_sites[1]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=MARKET_L1, continue_flag=True))
        assert heavy(site) == [(A,), (C,), (E,)]

    def test_update_heavy_empty_result(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=(), continue_flag=False))
        assert heavy(site) == []

    def test_update_heavy_ignores_unreported_itemsets(self, market_sites):
        # heavy = reported here and globally frequent: C, below site 0's
        # threshold, is not heavy, and nothing is recounted for it
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=((C,),), continue_flag=True))
        assert heavy(site) == []
        assert site.scan_counter.raw_scans == 1

    def test_update_heavy_needs_no_matrix(self, market_sites):
        site = market_sites[1]
        site.build_report(1)
        site.matrix = None
        site.update_heavy(global_result(k=1, frequent=MARKET_L1, continue_flag=True))
        assert heavy(site) == [(A,), (C,), (E,)]

    def test_count_request_for_another_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        with pytest.raises(ProtocolError, match="level 2 during level 1"):
            site.handle_count_request(CountRequest(np.ones(1, dtype=bool), k=2))

    def test_global_result_for_another_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=((A,),), continue_flag=True))
        site.build_report(2)
        stale = global_result(k=1, frequent=((A,),), continue_flag=True)
        with pytest.raises(ProtocolError, match="level 1 during level 2"):
            site.update_heavy(stale)

    def test_second_global_result_for_a_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        result = global_result(k=1, frequent=((A,),), continue_flag=True)
        site.update_heavy(result)
        with pytest.raises(ProtocolError, match="second global result for level 1"):
            site.update_heavy(result)
        site.build_report(2)
        site.update_heavy(GlobalResult(np.zeros(0, dtype=bool), k=2, continue_flag=False))

    def test_count_request_for_a_closed_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=((A,),), continue_flag=True))
        with pytest.raises(ProtocolError, match="closed level 1"):
            site.handle_count_request(request(k=1, itemsets=((A,),)))

    def test_rejects_empty_partition(self):
        from distmine.dataset import TransactionDb

        with pytest.raises(ValueError, match="empty"):
            LocalSite(0, TransactionDb(transactions=(), universe=2), TWO_THIRDS, 2)


_HEADERS = {
    LocalReport: dict(site_id=0, k=1),
    CountRequest: dict(k=1),
    CountResponse: dict(site_id=0, k=1),
    GlobalResult: dict(k=1, continue_flag=True),
}


def _message(kind, itemsets):
    """A level-1 message about ``itemsets``, given as tuples, named by a
    mask over C_1, count 1 each; a CountResponse carries the counts alone.
    ``kind`` is a message type, given its arrays as lists, or a (type, True)
    pair, given them as numpy arrays."""
    kind, as_array = kind if isinstance(kind, tuple) else (kind, False)
    arrays = {"mask": mask(C1, itemsets), "supports": np.ones(len(itemsets), dtype=np.int64)}
    body = [arrays[name] if as_array else arrays[name].tolist() for name in kind.BODY]
    return kind(*body, **_HEADERS[kind])


def _given_rows(kind, itemsets):
    """A level-1 message given the rows of ``itemsets`` where its mask goes,
    and one count per row if it carries counts. ``kind`` is as for
    ``_message``."""
    kind, as_array = kind if isinstance(kind, tuple) else (kind, False)
    rows = np.array(itemsets, dtype=np.int64) if as_array else itemsets
    body = [rows, [1] * len(itemsets)] if "supports" in kind.BODY else [rows]
    return kind(*body, **_HEADERS[kind])


def _mask_message(kind, bits, k=2):
    """A level-k message whose mask is ``bits``, count 1 per set bit; a
    CountResponse, one count per set bit alone."""
    arrays = {"mask": bits, "supports": np.ones(np.count_nonzero(bits), dtype=np.int64)}
    header = dict(_HEADERS[kind], k=k)
    return kind(*[arrays[name] for name in kind.BODY], **header)


MESSAGE_TYPES = [LocalReport, CountRequest, CountResponse, GlobalResult]

# The types that carry a mask: every one but CountResponse.
MASK_TYPES = [LocalReport, CountRequest, GlobalResult]

HEADER_FIELDS = {LocalReport: 2, CountRequest: 1, CountResponse: 2, GlobalResult: 2}


def _constructors(kinds):
    """Each type given its arrays as lists (named after the type) and as
    numpy arrays (named ``<type>.from_rows``)."""
    return [pytest.param((kind, False), id=kind.__name__) for kind in kinds] + [
        pytest.param((kind, True), id=f"{kind.__name__}.from_rows") for kind in kinds
    ]

# Ids for the order check: small ones close together, ones around 2**40 and
# any int64, so that rows tie, cross zero and fill all eight bytes.
ITEM_IDS = st.one_of(
    st.integers(-3, 3), st.integers(2**40 - 2, 2**40 + 2), st.integers(-(2**63), 2**63 - 1)
)


@st.composite
def row_lists(draw):
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[ITEM_IDS] * k), max_size=6))
    if draw(st.booleans()):
        rows.sort()
    return k, rows


class TestMessages:
    # A message names its itemsets by a mask over C_k at every level, so no
    # message takes rows of item ids: whatever their length, width or order,
    # they are refused (numpy refuses a ragged list before that).
    @pytest.mark.parametrize("kind", MASK_TYPES)
    @pytest.mark.parametrize(
        "itemsets",
        [[(A, B)], [(A,), (A, B)], [(A,), (A, B, C)], [(A, B), (C, D)]],
    )
    def test_rejects_an_itemset_of_another_length(self, kind, itemsets):
        with pytest.raises(ValueError, match="1-d boolean|inhomogeneous"):
            _given_rows(kind, itemsets)

    @pytest.mark.parametrize("kind", _constructors(MASK_TYPES))
    @pytest.mark.parametrize("itemsets", [[(A, B)], [(A, B, C), (A, B, D)]])
    def test_rejects_rows_of_another_width(self, kind, itemsets):
        with pytest.raises(ValueError, match="1-d boolean"):
            _given_rows(kind, itemsets)

    @pytest.mark.parametrize("kind", _constructors(MASK_TYPES))
    @pytest.mark.parametrize(
        "itemsets",
        [[(C,), (B,)], [(A,), (A,)], [(2**40,), (-1,)], [(-1,), (-2,)]],
    )
    def test_rejects_unsorted_or_repeated_itemsets(self, kind, itemsets):
        # A mask names each row of C_1 once, in C_1's order.
        with pytest.raises(ValueError, match="1-d boolean"):
            _given_rows(kind, itemsets)

    @pytest.mark.parametrize("kind", _constructors(MESSAGE_TYPES))
    def test_canonical_size_counts_every_entry(self, kind):
        # A mask over C_1's 6 items takes one byte. A CountResponse carries
        # counts and no mask, a CountRequest and a GlobalResult a mask and no
        # counts.
        mask_bytes = 0 if kind[0] is CountResponse else 1
        count_bytes = 8 if kind[0] in (LocalReport, CountResponse) else 0
        header = 8 * HEADER_FIELDS[kind[0]]
        assert canonical_size(_message(kind, [(A,), (C,), (5,)])) == header + mask_bytes + 3 * count_bytes
        assert canonical_size(_message(kind, [])) == header + mask_bytes

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize("itemsets", [[], [(0,), (A,), (C,), (5,)]])
    def test_constructors_agree(self, kind, itemsets):
        # Lists and numpy arrays give one message.
        by_lists, by_arrays = _message(kind, itemsets), _message((kind, True), itemsets)
        assert by_lists == by_arrays
        assert canonical_size(by_lists) == canonical_size(by_arrays)
        assert by_lists.n_itemsets == by_arrays.n_itemsets == len(itemsets)
        if kind is not CountResponse:
            assert by_lists.mask.dtype == bool
            assert C1[by_lists.mask].tolist() == [list(x) for x in itemsets]
        if kind in (LocalReport, CountResponse):
            assert by_lists.supports.dtype == np.int64
            assert by_arrays.supports.tolist() == [1] * len(itemsets)
        if kind is CountRequest:
            # At level 1 an item's position in C_1 is its id.
            view = by_arrays.itemsets
            assert view == by_lists.itemsets == tuple(x for (x,) in itemsets)
            assert type(view) is tuple and all(type(i) is int for i in view)

    def test_array_constructor_keeps_read_only_views(self):
        bits = mask(C1, [(A,), (C,)])
        supports = np.array([4, 5], dtype=np.int64)
        msg = LocalReport(bits, supports, site_id=1, k=1)
        assert np.shares_memory(msg.mask, bits) and np.shares_memory(msg.supports, supports)
        assert not msg.mask.flags.writeable and not msg.supports.flags.writeable
        with pytest.raises(AttributeError, match="immutable"):
            msg.k = 3
        assert msg != LocalReport(bits, supports + 1, site_id=1, k=1)
        assert hash(msg) == hash(report(site_id=1, k=1, entries=pairs(msg, C1)))
        masked = LocalReport(bits, supports, site_id=1, k=2)
        assert masked != msg and masked == LocalReport(bits.tolist(), [4, 5], site_id=1, k=2)

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_rejects_level_zero(self, kind, n_rows):
        # No actor sends a level-0 message; the level is checked first.
        arrays = {"mask": np.ones(n_rows, dtype=bool), "supports": [3] * n_rows}
        with pytest.raises(ValueError, match="level is at least 1, got 0"):
            kind(*map(arrays.get, kind.BODY), **dict(_HEADERS[kind], k=0))

    def test_array_constructor_wants_one_count_per_itemset(self):
        bits = mask(C1, [(A,), (C,)])
        with pytest.raises(ValueError, match="one count per itemset"):
            LocalReport(bits, np.ones(3, np.int64), site_id=0, k=1)
        with pytest.raises(ValueError, match="one count per itemset"):
            LocalReport(np.array([True, False, True]), np.ones(3, np.int64), site_id=0, k=2)
        with pytest.raises(TypeError, match="body"):
            CountRequest(bits, np.ones(2, np.int64), k=1)
        with pytest.raises(TypeError, match="body"):
            CountResponse(bits, np.ones(2, np.int64), site_id=0, k=2)
        with pytest.raises(TypeError, match="body"):
            GlobalResult(bits, np.ones(2, np.int64), k=1, continue_flag=True)
        with pytest.raises(ValueError, match="one count per itemset"):
            CountResponse(np.ones((2, 1), np.int64), site_id=0, k=2)

    @pytest.mark.parametrize("kind", MASK_TYPES)
    @pytest.mark.parametrize("bits", [[1, 0], [[True]], np.ones((1, 2), dtype=bool)])
    def test_mask_is_a_boolean_vector(self, kind, bits):
        with pytest.raises(ValueError, match="1-d boolean"):
            _mask_message(kind, bits)

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize("itemsets", [[], [(A,)], [(0,), (A,), (5,)]])
    def test_encoding_round_trips_at_the_canonical_size(self, kind, itemsets):
        # A level-1 message decodes with |C_1|, the run's universe.
        msg = _message((kind, True), itemsets)
        data = encode(msg)
        assert type(data) is bytes and len(data) == canonical_size(msg)
        assert decode(kind, data, U) == msg

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize("n_candidates", [0, 1, 7, 8, 9, 13, 16, 4950])
    def test_mask_encoding_round_trips_at_the_canonical_size(self, kind, n_candidates):
        # A mask takes ceil(|C_k| / 8) bytes, none at all when C_k is empty.
        rng = np.random.default_rng(n_candidates)
        for bits in (np.zeros(n_candidates), np.ones(n_candidates), rng.random(n_candidates) < 0.3):
            msg = _mask_message(kind, bits.astype(bool), k=3)
            data = encode(msg)
            mask_bytes = -(-n_candidates // 8) if kind is not CountResponse else 0
            counts = np.count_nonzero(bits) if kind in (LocalReport, CountResponse) else 0
            assert len(data) == canonical_size(msg) == 8 * HEADER_FIELDS[kind] + mask_bytes + 8 * counts
            assert decode(kind, data, n_candidates) == msg

    def test_encoding_layout(self):
        # header fields as little-endian int64, then the mask over C_1's 6
        # items, least significant bit first, in one byte, then int64 counts
        msg = report(site_id=3, k=1, entries=(((A,), 7), ((5,), -2)))
        expected = b"".join(
            [(3).to_bytes(8, "little"), (1).to_bytes(8, "little"), bytes([0b100010])]
            + [n.to_bytes(8, "little", signed=True) for n in (7, -2)]
        )
        assert encode(msg) == expected
        result = global_result(k=1, frequent=((A,),), continue_flag=False)
        assert encode(result)[8:16] == bytes(8)
        assert decode(GlobalResult, encode(result), U).continue_flag is False

    def test_mask_encoding_layout(self):
        # At level 2 as at level 1: the header, the mask least significant bit first in
        # whole bytes, then one int64 count per set bit.
        bits = np.zeros(10, dtype=bool)
        bits[[0, 3, 9]] = True
        msg = LocalReport(bits, np.array([7, 8, -2]), site_id=3, k=2)
        expected = b"".join(
            [(3).to_bytes(8, "little"), (2).to_bytes(8, "little"), bytes([0b1001, 0b10])]
            + [n.to_bytes(8, "little", signed=True) for n in (7, 8, -2)]
        )
        assert encode(msg) == expected
        result = GlobalResult(bits, k=2, continue_flag=True)
        assert encode(result) == (2).to_bytes(8, "little") + (1).to_bytes(8, "little") + bytes([0b1001, 0b10])

    def test_decoding_a_mask_needs_c_k(self):
        bits = np.zeros(10, dtype=bool)
        bits[[0, 9]] = True
        data = encode(LocalReport(bits, np.array([7, 8]), site_id=3, k=2))
        with pytest.raises(ValueError, match=r"needs \|C_2\|"):
            decode(LocalReport, data)
        with pytest.raises(ValueError, match=r"needs \|C_1\|"):
            decode(GlobalResult, encode(global_result(k=1, frequent=(), continue_flag=True)))
        # Another |C_2| reads the bits past it, or the counts, wrong.
        with pytest.raises(ValueError, match="sets a bit past them"):
            decode(LocalReport, data, 9)
        with pytest.raises(ValueError, match=f"{len(data)} bytes hold no LocalReport"):
            decode(LocalReport, data, 24)
        with pytest.raises(ValueError, match=f"{len(data) - 1} bytes hold no LocalReport"):
            decode(LocalReport, data[:-1], 10)
        assert decode(CountResponse, encode(CountResponse([5], site_id=0, k=2))).supports.tolist() == [5]

    @pytest.mark.parametrize(
        "kind, n_bytes",
        [(CountRequest, 4), (CountRequest, 19), (CountResponse, 20), (GlobalResult, 15)],
    )
    def test_decoding_rejects_a_partial_message(self, kind, n_bytes):
        # over C_1's 6 items, a level-1 CountRequest takes 8 + 1 bytes, a
        # CountResponse 16 + 8m and a GlobalResult 16 + 1
        data = (1).to_bytes(8, "little") + bytes(24)
        with pytest.raises(ValueError, match=f"{n_bytes} bytes hold no {kind.__name__}"):
            decode(kind, data[:n_bytes], U)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(row_lists())
    def test_order_check_agrees_with_tuple_order(self, case):
        k, rows = case
        rising = all(a < b for a, b in zip(rows, rows[1:]))
        array = np.array(rows, dtype=np.int64).reshape(len(rows), k)
        try:
            _check_sorted(array, k)
        except ValueError:
            assert not rising, rows
        else:
            assert rising, rows


class TestLocalPrune:
    def test_market_site0_pairs(self):
        counts = {(A,): 2, (B,): 2, (C,): 1, (E,): 1}
        kept = local_prune([(A, B), (A, C), (A, E)], counts, site_threshold=2)
        assert kept == [(A, B)]

    def test_threshold_zero_keeps_all(self):
        kept = local_prune([(A, B), (C, E)], {}, site_threshold=0)
        assert kept == [(A, B), (C, E)]

    def test_empty_candidates(self):
        assert local_prune([], {}, site_threshold=3) == []

    def test_missing_subset_count_is_internal_error(self):
        with pytest.raises(ProtocolError, match="no local count"):
            local_prune([(A, B)], {(A,): 2}, site_threshold=1)

    def test_never_fires_on_pipeline_candidates(self, market_sites):
        # candidates joined from heavy itemsets always clear the bound, since
        # every subset is locally frequent here
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=MARKET_L1, continue_flag=True))
        cands = counted(site, 2)
        assert local_prune(cands, dict(pairs(site.reported, C1)), site.site_threshold) == cands


class TestCenterSite:
    def test_aggregate_market_level1(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        immediate, pruned, requests = market_center.aggregate(reports)
        assert itemsets(immediate) == [(A,)]
        assert itemsets(pruned) == []
        # B missing from site 1; C and E missing from site 0, one batched
        # request per site
        assert set(requests) == {0, 1}
        assert itemsets(C1[requests[0].mask]) == [(C,), (E,)]
        assert itemsets(C1[requests[1].mask]) == [(B,)]
        # A's total is the sum of its two reports, with no poll
        polled = [market_sites[i].handle_count_request(requests[i]) for i in (0, 1)]
        market_center.finalize(polled)
        assert ((A,), 3) in totals(market_center)

    def test_maxcount_bound_values(self, market_center):
        # B reported only by site 0 with count 2: bound 2 + (1-1) = 2, kept;
        # a singleton reported only by site 1 with count 1: 1 + (2-1) = 2, kept
        reports = [
            report(site_id=0, k=1, entries=(((B,), 2),)),
            report(site_id=1, k=1, entries=(((C,), 1),)),
        ]
        _, pruned, requests = market_center.aggregate(reports)
        assert itemsets(pruned) == []
        assert itemsets(C1[requests[0].mask]) == [(C,)]
        assert itemsets(C1[requests[1].mask]) == [(B,)]

    def test_maxcount_prunes_hopeless_itemsets(self):
        center = CenterSite([4, 4], Fraction(1, 2), U)
        # global threshold 4; site thresholds 2 each; an itemset reported by
        # one site with count 2 can reach at most 2 + 1 = 3
        reports = [
            report(site_id=0, k=1, entries=(((A,), 2),)),
            report(site_id=1, k=1, entries=()),
        ]
        immediate, pruned, requests = center.aggregate(reports)
        assert itemsets(immediate) == []
        assert itemsets(pruned) == [(A,)]
        assert requests == {}

    def test_finalize_market_level1(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        _, _, requests = market_center.aggregate(reports)
        responses = [
            market_sites[sid].handle_count_request(req)
            for sid, req in sorted(requests.items())
        ]
        result = market_center.finalize(responses)
        assert itemsets(C1[result.mask]) == list(MARKET_L1)
        assert totals(market_center) == (((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2))
        assert result.continue_flag is True

    def test_all_empty_reports_stop_the_run(self, market_center):
        reports = [
            report(site_id=0, k=1, entries=()),
            report(site_id=1, k=1, entries=()),
        ]
        _, _, requests = market_center.aggregate(reports)
        assert requests == {}
        result = market_center.finalize([])
        assert result.continue_flag is False
        assert not result.mask.any() and totals(market_center) == ()

    def test_small_level_stops_the_run(self, market_center):
        # |L_1| = 1 < 2 stops the loop even though L_1 is non-empty
        reports = [
            report(site_id=0, k=1, entries=(((A,), 2),)),
            report(site_id=1, k=1, entries=(((A,), 1),)),
        ]
        market_center.aggregate(reports)
        result = market_center.finalize([])
        assert totals(market_center) == (((A,), 3),)
        assert result.continue_flag is False

    def test_duplicate_report_rejected(self, market_center):
        reports = [
            report(site_id=0, k=1, entries=()),
            report(site_id=0, k=1, entries=()),
        ]
        with pytest.raises(ProtocolError, match="one report per site"):
            market_center.aggregate(reports)

    def test_missing_report_rejected(self, market_center):
        with pytest.raises(ProtocolError, match="one report per site"):
            market_center.aggregate([report(site_id=0, k=1, entries=())])

    def test_mixed_level_reports_rejected(self, market_center):
        reports = [
            report(site_id=0, k=1, entries=()),
            report(site_id=1, k=2, entries=()),
        ]
        with pytest.raises(ProtocolError, match="levels"):
            market_center.aggregate(reports)

    def test_first_reports_at_level_2_rejected(self):
        center = CenterSite([10, 10], Fraction(1, 2), U)
        reports = [report(site_id=i, k=2, entries=(((A, B), 9),)) for i in (0, 1)]
        with pytest.raises(ProtocolError, match=r"levels \[2\], expected level 1"):
            center.aggregate(reports)

    @pytest.mark.parametrize(
        "finalized, error", [(True, "expected level 2"), (False, "level 1, which is still open")]
    )
    def test_level_1_twice_rejected(self, finalized, error):
        center = CenterSite([10, 10], Fraction(1, 2), U)
        reports = [report(site_id=i, k=1, entries=(((A,), 5), ((B,), 5))) for i in (0, 1)]
        center.aggregate(reports)
        if finalized:
            assert center.finalize([]).continue_flag
        with pytest.raises(ProtocolError, match=error):
            center.aggregate(reports)

    def test_reports_after_the_last_level_rejected(self):
        # L2 = {AB} alone clears continue_flag; AC and BC are not frequent,
        # so no level-3 report may yield ABC
        center = CenterSite([10, 10], Fraction(1, 2), U)
        for k, frequent in ((1, [(A,), (B,), (C,)]), (2, [(A, B)])):
            entries = [(x, 5) for x in frequent]
            candidates = candidate_list(k, U, center.frequent)[0]
            center.aggregate([report(i, k, entries, candidates) for i in (0, 1)])
            result = center.finalize([])
        assert not result.continue_flag
        reports = [report(site_id=i, k=3, entries=(((A, B, C), 5),)) for i in (0, 1)]
        with pytest.raises(ProtocolError, match="after level 2, which stopped the run"):
            center.aggregate(reports)

    @pytest.mark.parametrize("aggregated", [False, True])
    def test_finalize_without_an_open_level_rejected(self, market_center, aggregated):
        # before any aggregate, and a second finalize of one level
        if aggregated:
            market_center.aggregate([report(site_id=i, k=1, entries=()) for i in (0, 1)])
            market_center.finalize([])
        error = f"no open level to finalize after level {int(aggregated)}"
        with pytest.raises(ProtocolError, match=error):
            market_center.finalize([])

    @pytest.mark.parametrize("count", [99, 11, 4, 1, -7])
    def test_report_count_outside_its_bounds_rejected(self, count):
        # 10-row sites at minsup 1/2: a reported count lies in [5, 10]
        center = CenterSite([10, 10], Fraction(1, 2), U)
        reports = [
            report(site_id=0, k=1, entries=(((A,), 5),)),
            report(site_id=1, k=1, entries=(((A,), count),)),
        ]
        error = rf"site 1 reported count {count} outside \[5, 10\] for itemset \(1,\) at level 1"
        with pytest.raises(ProtocolError, match=error):
            center.aggregate(reports)

    @pytest.mark.parametrize("count", [7, 5, -1])
    def test_poll_answer_outside_its_bounds_rejected(self, count):
        # A silent site's count is below its threshold 5: it lies in [0, 4]
        center = CenterSite([10, 10], Fraction(1, 2), U)
        center.aggregate(
            [report(site_id=0, k=1, entries=(((A,), 9),)), report(site_id=1, k=1, entries=())]
        )
        answer = response(site_id=1, k=1, counts=[count])
        error = rf"site 1 answered count {count} outside \[0, 4\] for itemset \(1,\) at level 1"
        with pytest.raises(ProtocolError, match=error):
            center.finalize([answer])

    def test_unrequested_response_rejected(self, market_sites, market_center):
        # site 1 is asked for B alone; a second count answers nothing asked
        reports = [s.build_report(1) for s in market_sites]
        market_center.aggregate(reports)
        rogue = response(site_id=1, k=1, counts=[0, 1])
        with pytest.raises(ProtocolError, match="site 1 answered 2 counts at level 1, asked for 1"):
            market_center.finalize([rogue])

    def test_missing_response_rejected(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        _, _, requests = market_center.aggregate(reports)
        answered = [market_sites[1].handle_count_request(requests[1])]
        with pytest.raises(ProtocolError, match="missing count responses"):
            market_center.finalize(answered)

    def test_first_and_last_items_are_polled_and_summed(self):
        # A universe of 9 items, so the mask's last bit is in its second
        # byte. Global threshold 4, site thresholds 2: item 4 is reported by
        # both sites, items 0 and 8 are polled from site 1.
        center = CenterSite([4, 4], Fraction(1, 2), 9)
        c1 = np.arange(9)[:, None]
        reports = [
            report(site_id=0, k=1, entries=(((0,), 3), ((4,), 2), ((8,), 3)), candidates=c1),
            report(site_id=1, k=1, entries=(((4,), 3),), candidates=c1),
        ]
        immediate, _, requests = center.aggregate(reports)
        assert itemsets(immediate) == [(4,)]
        assert itemsets(c1[requests[1].mask]) == [(0,), (8,)]
        answer = response(site_id=1, k=1, counts=[0, 1])
        result = center.finalize([answer])
        assert itemsets(c1[result.mask]) == [(4,), (8,)]
        assert totals(center) == (((4,), 5), ((8,), 4))

    def test_second_answer_for_an_itemset_rejected(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        _, _, requests = market_center.aggregate(reports)
        answer = market_sites[0].handle_count_request(requests[0])
        again = response(site_id=0, k=1, counts=[1])
        with pytest.raises(ProtocolError, match="site 0 answered level 1 twice"):
            market_center.finalize([answer, again])

    @pytest.mark.parametrize("site_id", [0, 1, 3, -1])
    def test_response_from_a_site_not_polled_rejected(self, site_id):
        # three sites, global threshold 4, site thresholds 2 each: A is
        # missing only from site 2, so only site 2 is polled
        center = CenterSite([4, 4, 4], Fraction(1, 3), U)
        reports = [
            report(site_id=0, k=1, entries=(((A,), 2),)),
            report(site_id=1, k=1, entries=(((A,), 2),)),
            report(site_id=2, k=1, entries=()),
        ]
        _, _, requests = center.aggregate(reports)
        assert list(requests) == [2]
        rogue = response(site_id=site_id, k=1, counts=[1])
        with pytest.raises(ProtocolError, match=f"site {site_id} answered unrequested"):
            center.finalize([rogue])

    @pytest.mark.parametrize("site_id", [2, -1])
    def test_empty_response_from_an_unknown_site_rejected(self, market_center, site_id):
        market_center.aggregate([report(site_id=i, k=1, entries=()) for i in (0, 1)])
        with pytest.raises(ProtocolError, match=f"site {site_id} answered unrequested"):
            market_center.finalize([response(site_id=site_id, k=1, counts=[])])

    @pytest.mark.parametrize("itemset", [(D,), (0,), (A,), (B,)])
    def test_response_outside_the_level_rejected(self, market_sites, market_center, itemset):
        # Site 0 is asked for C and E and also counts an itemset it was not
        # asked for: D and 0 were reported by no site, A by both and B by
        # site 0 itself. Its answer holds one count too many.
        reports = [s.build_report(1) for s in market_sites]
        _, _, requests = market_center.aggregate(reports)
        assert itemsets(C1[requests[0].mask]) == [(C,), (E,)]
        rogue = request(k=1, itemsets=sorted([(C,), (E,), itemset]))
        answered = [
            market_sites[0].handle_count_request(rogue),
            market_sites[1].handle_count_request(requests[1]),
        ]
        with pytest.raises(ProtocolError, match="site 0 answered 3 counts at level 1, asked for 2"):
            market_center.finalize(answered)

    def test_pruned_itemset_answer_rejected(self):
        center = CenterSite([4, 4], Fraction(1, 2), U)
        reports = [
            report(site_id=0, k=1, entries=(((A,), 2),)),
            report(site_id=1, k=1, entries=()),
        ]
        _, pruned, _ = center.aggregate(reports)
        assert len(pruned) == 1
        with pytest.raises(ProtocolError, match="unrequested"):
            center.finalize([response(site_id=1, k=1, counts=[2])])

    def test_partial_answer_rejected(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        _, _, requests = market_center.aggregate(reports)
        assert itemsets(C1[requests[0].mask]) == [(C,), (E,)]
        partial = response(site_id=0, k=1, counts=[1])
        answered = [partial, market_sites[1].handle_count_request(requests[1])]
        with pytest.raises(ProtocolError, match="site 0 answered 1 counts at level 1, asked for 2"):
            market_center.finalize(answered)

    def test_response_from_a_site_with_nothing_to_fill_rejected(self):
        # site 0 reports A = 9 and site 1 nothing, so only site 1 is polled;
        # taking every answer here would give A a count of 12
        center = CenterSite([10, 10], Fraction(1, 2), U)
        center.aggregate(
            [report(site_id=0, k=1, entries=(((A,), 9),)), report(site_id=1, k=1, entries=())]
        )
        answers = [
            response(site_id=0, k=1, counts=[]),
            response(site_id=0, k=1, counts=[]),
            response(site_id=1, k=1, counts=[3]),
            response(site_id=1, k=1, counts=[]),
        ]
        with pytest.raises(ProtocolError, match="site 0 answered unrequested level 1 itemsets"):
            center.finalize(answers)

    def test_second_response_from_a_polled_site_rejected(self):
        center = CenterSite([10, 10], Fraction(1, 2), U)
        center.aggregate(
            [report(site_id=0, k=1, entries=(((A,), 9),)), report(site_id=1, k=1, entries=())]
        )
        answers = [response(site_id=1, k=1, counts=[3]), response(site_id=1, k=1, counts=[])]
        with pytest.raises(ProtocolError, match="site 1 answered level 1 twice"):
            center.finalize(answers)

    def test_wrong_level_response_rejected(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        market_center.aggregate(reports)
        with pytest.raises(ProtocolError, match="level"):
            market_center.finalize([response(site_id=0, k=3, counts=[])])

    @pytest.mark.parametrize(
        "levels, rogue",
        [
            # (3,) is frequent but not heavy at site 0, which reports (1, 3)
            ([[(1,), (2,), (3,)]], (1, 3)),
            # (2, 3) is in L2 but not heavy at site 0, which reports (1, 2, 3)
            ([[(1,), (2,), (3,), (4,)], [(1, 2), (1, 3), (2, 3)]], (1, 2, 3)),
        ],
    )
    def test_report_outside_the_last_result_rejected(self, levels, rogue):
        # A site names an itemset by its bit in C_k, so it cannot name one
        # outside the join of the last result; each (k-1)-subset of a bit it
        # sets must also be heavy there. 10-row sites at minsup 1/2: both
        # sites report each level's itemsets with count 5, but the last one
        # only site 1 reports, with count 10, and site 0 answers 0 for it.
        center = CenterSite([10, 10], Fraction(1, 2), U)
        for k, frequent in enumerate(levels, start=1):
            candidates = candidate_list(k, U, center.frequent)[0]
            *shared, lone = [(x, 5) for x in frequent]
            reports = [
                report(0, k, shared, candidates),
                report(1, k, shared + [(lone[0], 10)], candidates),
            ]
            _, _, requests = center.aggregate(reports)
            assert list(requests) == [0]
            center.finalize([response(site_id=0, k=k, counts=[0])])
            assert itemsets(center.frequent) == frequent
        k = len(rogue)
        candidates = candidate_list(k, U, center.frequent)[0]
        reports = [report(i, k, ((rogue, 5),), candidates) for i in (0, 1)]
        what = f"site 0 reported a subset it did not have heavy at level {k - 1} in itemset {rogue}"
        error = re.escape(f"{what} at level {k}")
        with pytest.raises(ProtocolError, match=error):
            center.aggregate(reports)


class TestDelivery:
    """Each receiver acts on the message that ``MessageLog.send`` delivers,
    not on the object its sender passed in."""

    def test_center_checks_the_delivered_report(self, market_db):
        # site 1 holds ACE alone, so its level-1 counts lie in [1, 1]
        parts = partition(market_db, PartitionSpec(n_sites=2))

        def inflate(src, dst, msg):
            if src == "site:1" and isinstance(msg, LocalReport) and msg.k == 1:
                return remade(msg, supports=msg.supports + 9)
            return msg

        error = r"site 1 reported count 10 outside \[1, 1\] for itemset \(1,\) at level 1"
        with delivering(inflate), pytest.raises(ProtocolError, match=error):
            ImprovedRun(parts, "2/3").run()

    def test_site_checks_the_delivered_request(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))

        def relevel(src, dst, msg):
            if isinstance(msg, CountRequest):
                return remade(msg, k=msg.k + 1)
            return msg

        error = "site 0: count request for level 2 during level 1"
        with delivering(relevel), pytest.raises(ProtocolError, match=error):
            ImprovedRun(parts, "2/3").run()


class TestMutatedMasks:
    """Mask entries of the mutation catalogue, on the market run over two
    sites: each changes one level-1 or level-2 message in flight, and its
    receiver must refuse it. C_1 is the 6 items 0..5 and C_2 the 6 pairs of
    L_1 = ABCE. Site 0 (ABC, ABDE) reports A and B at level 1 and AB at
    level 2; site 1 (ACE) reports A, C and E, then AC, AE and CE; at each
    level each is polled for what the other reported."""

    @staticmethod
    def refusal(kind, route, change, market_db, k=2):
        """The ProtocolError text when the level-k ``kind`` message sent
        along ``route``, a (src, dst) pair, is replaced in flight by
        ``change(msg)``."""
        parts = partition(market_db, PartitionSpec(n_sites=2))

        def mutate(src, dst, msg):
            if isinstance(msg, kind) and msg.k == k and (src, dst) == route:
                return change(msg)
            return msg

        with delivering(mutate), pytest.raises(ProtocolError) as refused:
            ImprovedRun(parts, "2/3").run()
        return str(refused.value)

    @pytest.mark.parametrize(
        "extra, k",
        [
            pytest.param([False], 2, id="extra0"),
            pytest.param([], 2, id="extra1"),
            pytest.param([True, False], 2, id="extra2"),
            pytest.param([False], 1, id="extra0-level1"),
            pytest.param([], 1, id="extra1-level1"),
            pytest.param([True, False], 1, id="extra2-level1"),
        ],
    )
    def test_report_mask_of_another_length(self, market_db, extra, k):
        # Site 0's report, cut short or grown by unset or set bits, each set
        # bit with a count inside site 0's bounds [2, 2]. |C_1| = |C_2| = 6.
        def change(msg):
            bits = np.append(msg.mask, extra) if extra else msg.mask[:-1]
            supports = np.append(msg.supports, [2] * sum(extra))
            return remade(msg, mask=bits, supports=supports[: np.count_nonzero(bits)])

        n = 6 + (len(extra) if extra else -1)
        error = self.refusal(LocalReport, ("site:0", "center"), change, market_db, k)
        assert error == f"site 0 to the center: a LocalReport masking {n} itemsets at level {k}, where C_{k} holds 6"

    @pytest.mark.parametrize(
        "kind, dst, k",
        [
            pytest.param(CountRequest, "site:0", 2, id="CountRequest-site:0"),
            pytest.param(GlobalResult, "site:1", 2, id="GlobalResult-site:1"),
            pytest.param(CountRequest, "site:0", 1, id="CountRequest-site:0-level1"),
            pytest.param(GlobalResult, "site:1", 1, id="GlobalResult-site:1-level1"),
        ],
    )
    def test_site_refuses_a_mask_of_another_length(self, market_db, kind, dst, k):
        def change(msg):
            return remade(msg, mask=np.append(msg.mask, False))

        error = self.refusal(kind, ("center", dst), change, market_db, k)
        site = dst.removeprefix("site:")
        assert error == f"site {site}: a {kind.__name__} masking 7 itemsets at level {k}, where C_{k} holds 6"

    def test_report_of_an_itemset_with_a_subset_not_heavy_there(self, market_db):
        # Site 0 adds AC, count 2, inside its bounds [2, 2]: but C is not
        # heavy at site 0, so site 0 cannot have counted AC.
        def change(msg):
            bits = msg.mask.copy()
            bits[1] = True
            return remade(msg, mask=bits, supports=[2, 2])

        error = self.refusal(LocalReport, ("site:0", "center"), change, market_db)
        assert error == "site 0 reported a subset it did not have heavy at level 1 in itemset (1, 3) at level 2"


class TestImprovedRun:
    def test_market_result_matches_oracle(self, market_db):
        oracle = sequential_apriori(market_db, "2/3")
        for n in (1, 2, 3):
            parts = partition(market_db, PartitionSpec(n_sites=n))
            result = ImprovedRun(parts, "2/3").run()
            assert result == oracle
            assert result.frequent == MARKET_FREQUENT

    def test_market_level1_frequent_set(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        result = ImprovedRun(parts, "2/3").run()
        assert {x for x in result.frequent if len(x) == 1} == {
            (A,), (B,), (C,), (E,),
        }

    def test_single_site_never_polls(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=1))
        run = ImprovedRun(parts, "2/3")
        result = run.run()
        assert result == sequential_apriori(market_db, "2/3")
        assert all(rec.type != "CountRequest" for rec in run.log.trace)

    def test_message_bound_and_single_scan(self, market_db):
        for n in (1, 2, 3):
            parts = partition(market_db, PartitionSpec(n_sites=n))
            run = ImprovedRun(parts, "2/3")
            run.run()
            assert all(m.messages_sent <= 4 * n for m in run.metrics)
            assert all(s.scan_counter.raw_scans == 1 for s in run.sites)

    def test_final_empty_round_is_broadcast(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        run = ImprovedRun(parts, "2/3")
        run.run()
        last = run.metrics[-1]
        assert last.llk_total == 0
        assert last.lk_size == 0
        # n empty reports plus n terminating broadcasts
        assert last.messages_sent == 4

    def test_trace_is_deterministic_json(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        first = ImprovedRun(parts, "2/3")
        second = ImprovedRun(parts, "2/3")
        first.run()
        second.run()
        assert first.log.trace == second.log.trace
        assert first.metrics == second.metrics
        for rec in first.log.trace:
            obj = json.loads(rec.to_json())
            assert list(obj) == ["seq", "from", "to", "k", "type", "items", "bytes"]
            assert obj["from"] == "center" or obj["from"].startswith("site:")
            assert obj["to"] == "center" or obj["to"].startswith("site:")
        assert [rec.seq for rec in first.log.trace] == list(range(len(first.log.trace)))

    def test_canonical_byte_sizes(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        run = ImprovedRun(parts, "2/3")
        run.run()
        rec = run.log.trace[0]
        # site 0's level-1 report: 2 header fields, a mask over the 6 items
        # of C_1 in one byte, and 2 counts
        assert rec.type == "LocalReport"
        assert rec.items == 2
        assert rec.bytes == 8 * 2 + 1 + 2 * 8

    def test_trace_holds_the_colocated_exchanges(self, market_db):
        # The center rides on site 0. The metrics count every message; the
        # trace tells the site:0 <-> center exchanges from the network ones.
        parts = partition(market_db, PartitionSpec(n_sites=2))
        run = ImprovedRun(parts, "2/3")
        run.run()
        network = [rec for rec in run.log.trace if {rec.src, rec.dst} != {"site:0", "center"}]
        per_level = [
            (sum(rec.k == k for rec in network), sum(rec.bytes for rec in network if rec.k == k))
            for k in (1, 2, 3)
        ]
        # Level 1 masks C_1, the 6 items 0..5, and level 2 C_2, the 6 pairs
        # of ABCE, each in one byte, with 3 entries from site 1 and 1 from
        # the center on the network at each: site 1's report 16 + 1 + 3 * 8,
        # the request 8 + 1, the answer 16 + 8 and the result 16 + 1 bytes.
        # Site 0's exchanges with the center add 33 + 9 + 32 + 17 at level 1
        # and 25 + 9 + 40 + 17 at level 2, so each level takes 182 bytes.
        assert per_level == [(4, 91), (4, 91), (2, 32)]
        assert (len(network), sum(rec.bytes for rec in network)) == (10, 214)
        assert [m.k for m in run.metrics] == [1, 2, 3]
        assert sum(m.messages_sent for m in run.metrics) == len(run.log.trace) == 20
        assert sum(m.payload_bytes for m in run.metrics) == 428

    def test_run_twice_rejected(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        run = ImprovedRun(parts, "2/3")
        run.run()
        with pytest.raises(RuntimeError, match="once"):
            run.run()

    def test_no_partitions_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ImprovedRun([], "0.5")

    def test_matches_oracle_across_small_corpus(self):
        for seed in range(10):
            db = corpus_db(seed)
            oracle = sequential_apriori(db, "0.3")
            for n in (1, 2, 3):
                for strategy in ("contiguous", "round-robin", "random"):
                    parts = partition(
                        db, PartitionSpec(n_sites=n, strategy=strategy, seed=seed)
                    )
                    result, metrics = mine(ImprovedRun(parts, "0.3"))
                    assert result == oracle, (seed, n, strategy)
                    assert all(m.messages_sent <= 4 * n for m in metrics)

    def test_nothing_pruned_is_frequent(self):
        # the count bound is sound against the exhaustive oracle, and local
        # pruning would keep every candidate a site counts
        n_checks = 0
        for seed in range(6):
            db = corpus_db(seed)
            frequent = set(enumerate_frequent(db, "0.4"))
            parts = partition(db, PartitionSpec(n_sites=3))
            run = ImprovedRun(parts, "0.4")
            with local_prune_checks() as checks:
                run.run()
            for rows in run.maxcount_pruned:
                assert frequent.isdisjoint(itemsets(rows))
            assert all(dropped == [] for _, _, dropped in checks), (seed, checks)
            n_checks += len(checks)
        assert n_checks > 0
