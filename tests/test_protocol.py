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
from distmine.protocol import local_prune

TWO_THIRDS = Fraction(2, 3)


def itemsets(rows):
    """The rows of an int64 itemset array as a list of tuples."""
    return list(map(tuple, rows.tolist()))


def pairs(msg):
    """A counted message's (itemset, count) pairs, as tuples."""
    return tuple(zip(itemsets(msg.rows), msg.supports.tolist()))


def _rows(itemsets, k):
    """k-itemsets as an (m, k) int64 array."""
    return np.array(itemsets, dtype=np.int64).reshape(len(itemsets), k)


def _columns(entries, k):
    """The rows and supports of (itemset, count) pairs of k-itemsets."""
    return _rows([x for x, _ in entries], k), np.array([n for _, n in entries], dtype=np.int64)


# Messages written as tuples in the tests: each builds the arrays its
# constructor takes.
def report(site_id, k, entries):
    return LocalReport(*_columns(entries, k), site_id=site_id, k=k)


def request(k, itemsets):
    return CountRequest(_rows(itemsets, k), k=k)


def response(site_id, k, counts):
    return CountResponse(np.array(counts, dtype=np.int64), site_id=site_id, k=k)


def global_result(k, frequent, continue_flag):
    return GlobalResult(*_columns(frequent, k), k=k, continue_flag=continue_flag)


@pytest.fixture
def market_sites(market_db):
    parts = partition(market_db, PartitionSpec(n_sites=2))
    return [LocalSite(i, p, TWO_THIRDS) for i, p in enumerate(parts)]


@pytest.fixture
def market_center(market_sites):
    return CenterSite([s.size for s in market_sites], TWO_THIRDS)


class TestLocalSite:
    def test_level1_candidates_are_all_items(self, market_sites):
        assert itemsets(market_sites[0].local_candidates(1)) == [(i,) for i in range(6)]

    def test_candidates_from_heavy_sets(self, market_sites):
        site = market_sites[0]
        site.heavy_prev = np.array([(A,), (B,), (C,), (E,)])
        assert itemsets(site.local_candidates(2)) == [
            (A, B), (A, C), (A, E), (B, C), (B, E), (C, E),
        ]

    def test_no_heavy_sets_no_candidates(self, market_sites):
        site = market_sites[0]
        site.heavy_prev = np.empty((0, 1), dtype=np.int64)
        assert itemsets(site.local_candidates(2)) == []

    def test_level1_reports(self, market_sites):
        # site 0 holds {ABC, ABDE} with threshold 2; site 1 holds {ACE}, threshold 1
        rep0 = market_sites[0].build_report(1)
        rep1 = market_sites[1].build_report(1)
        assert pairs(rep0) == (((A,), 2), ((B,), 2))
        assert pairs(rep1) == (((A,), 1), ((C,), 1), ((E,), 1))

    def test_empty_report_still_produced(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.heavy_prev = np.empty((0, 1), dtype=np.int64)
        rep = site.build_report(2)
        assert pairs(rep) == ()

    def test_count_request_roundtrip(self, market_sites):
        resp0 = market_sites[0].handle_count_request(request(k=1, itemsets=((C,), (D,))))
        assert resp0 == response(site_id=0, k=1, counts=[1, 1])
        resp1 = market_sites[1].handle_count_request(request(k=1, itemsets=((B,),)))
        assert resp1 == response(site_id=1, k=1, counts=[0])

    def test_empty_count_request(self, market_sites):
        resp = market_sites[0].handle_count_request(request(k=1, itemsets=()))
        assert resp == response(site_id=0, k=1, counts=[])

    def test_items_outside_local_universe_count_zero(self, market_db):
        site = LocalSite(0, market_db, TWO_THIRDS)
        resp = site.handle_count_request(request(k=1, itemsets=((40,),)))
        assert resp == response(site_id=0, k=1, counts=[0])

    def test_update_heavy_site0(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        result = global_result(
            k=1,
            frequent=(((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2)),
            continue_flag=True,
        )
        site.update_heavy(result)
        assert itemsets(site.heavy_prev) == [(A,), (B,)]

    def test_update_heavy_site1(self, market_sites):
        site = market_sites[1]
        site.build_report(1)
        result = global_result(
            k=1,
            frequent=(((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2)),
            continue_flag=True,
        )
        site.update_heavy(result)
        assert itemsets(site.heavy_prev) == [(A,), (C,), (E,)]

    def test_update_heavy_empty_result(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=(), continue_flag=False))
        assert itemsets(site.heavy_prev) == []

    def test_update_heavy_ignores_unreported_itemsets(self, market_sites):
        # heavy = reported here and globally frequent: an itemset the site
        # never reported is not heavy, and nothing is recounted for it
        site = market_sites[0]
        result = global_result(k=1, frequent=(((B,), 2),), continue_flag=True)
        site.update_heavy(result)
        assert itemsets(site.heavy_prev) == []
        assert site.scan_counter.raw_scans == 1

    def test_update_heavy_needs_no_matrix(self, market_sites):
        site = market_sites[1]
        site.build_report(1)
        site.matrix = None
        site.update_heavy(
            global_result(
                k=1,
                frequent=(((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2)),
                continue_flag=True,
            )
        )
        assert itemsets(site.heavy_prev) == [(A,), (C,), (E,)]

    def test_count_request_for_another_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        with pytest.raises(ProtocolError, match="level 2 during level 1"):
            site.handle_count_request(request(k=2, itemsets=((A, C),)))

    def test_global_result_for_another_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=(((A,), 3),), continue_flag=True))
        site.build_report(2)
        stale = global_result(k=1, frequent=(((A,), 3),), continue_flag=True)
        with pytest.raises(ProtocolError, match="level 1 during level 2"):
            site.update_heavy(stale)

    def test_second_global_result_for_a_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        result = global_result(k=1, frequent=(((A,), 3),), continue_flag=True)
        site.update_heavy(result)
        with pytest.raises(ProtocolError, match="second global result for level 1"):
            site.update_heavy(result)
        site.build_report(2)
        site.update_heavy(global_result(k=2, frequent=(), continue_flag=False))

    def test_count_request_for_a_closed_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(global_result(k=1, frequent=(((A,), 3),), continue_flag=True))
        with pytest.raises(ProtocolError, match="closed level 1"):
            site.handle_count_request(request(k=1, itemsets=((A,),)))

    def test_rejects_empty_partition(self):
        from distmine.dataset import TransactionDb

        with pytest.raises(ValueError, match="empty"):
            LocalSite(0, TransactionDb(transactions=(), universe=2), TWO_THIRDS)


_HEADERS = {
    LocalReport: dict(site_id=0, k=2),
    CountRequest: dict(k=2),
    CountResponse: dict(site_id=0, k=2),
    GlobalResult: dict(k=2, continue_flag=True),
}


def _body(kind, rows, supports):
    """The arrays a ``kind`` message is built from, of the given ones."""
    return [{"rows": rows, "supports": supports}[name] for name in kind.BODY]


def _message(kind, itemsets):
    """A level-2 message about ``itemsets``, count 1 each. ``kind`` is a
    message type, given its itemsets as a list of tuples and its counts as a
    list, or a (type, True) pair, given them as int64 arrays. A list of no
    tuples has no width, so it is passed as an empty (0, 2) array. A
    CountResponse carries the counts alone."""
    kind, as_array = kind if isinstance(kind, tuple) else (kind, False)
    rows, supports = itemsets, [1] * len(itemsets)
    if as_array or not itemsets:
        rows = _rows(itemsets, len(itemsets[0]) if itemsets else 2)
    if as_array:
        supports = np.ones(len(rows), dtype=np.int64)
    return kind(*_body(kind, rows, supports), **_HEADERS[kind])


MESSAGE_TYPES = [LocalReport, CountRequest, CountResponse, GlobalResult]

# The types that carry itemsets as rows: every one but CountResponse.
ROW_TYPES = [LocalReport, CountRequest, GlobalResult]


def _constructors(kinds):
    """Each type given its arrays as lists (named after the type) and as
    int64 arrays (named ``<type>.from_rows``)."""
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
    @pytest.mark.parametrize("kind", ROW_TYPES)
    @pytest.mark.parametrize(
        "itemsets",
        [[(A,)], [(A, B), (A, B, C)], [(A,), (A, B)], [(A, B), (C, D, E)]],
    )
    def test_rejects_an_itemset_of_another_length(self, kind, itemsets):
        # numpy refuses a ragged list; the message, rows of one other length.
        with pytest.raises(ValueError, match="level-2 message|inhomogeneous"):
            _message(kind, itemsets)

    @pytest.mark.parametrize("kind", _constructors(ROW_TYPES))
    @pytest.mark.parametrize("itemsets", [[(A,)], [(A, B, C), (A, B, D)]])
    def test_rejects_rows_of_another_width(self, kind, itemsets):
        # A ragged list is no array; rows of one wrong width are refused alike.
        with pytest.raises(ValueError, match="level-2 message"):
            _message(kind, itemsets)

    @pytest.mark.parametrize("kind", _constructors(ROW_TYPES))
    @pytest.mark.parametrize(
        "itemsets",
        [[(A, C), (A, B)], [(A, B), (A, B)], [(B, 2**40), (B, -1)], [(-1, A), (-2, A)]],
    )
    def test_rejects_unsorted_or_repeated_itemsets(self, kind, itemsets):
        with pytest.raises(ValueError, match="sorted and duplicate-free"):
            _message(kind, itemsets)

    @pytest.mark.parametrize("kind", _constructors(MESSAGE_TYPES))
    def test_canonical_size_counts_every_entry(self, kind):
        # A CountResponse carries counts and no ids, a CountRequest ids and
        # no counts.
        itemsets = [(A, B), (A, 300), (B, 2**40)]
        header = {LocalReport: 2, CountRequest: 1, CountResponse: 2, GlobalResult: 2}
        id_bytes = 0 if kind[0] is CountResponse else 4
        count_bytes = 0 if kind[0] is CountRequest else 8
        expected = 8 * header[kind[0]] + sum(id_bytes * len(x) + count_bytes for x in itemsets)
        assert canonical_size(_message(kind, itemsets)) == expected
        assert canonical_size(_message(kind, [])) == 8 * header[kind[0]]

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize("itemsets", [[], [(-5, 3), (A, B), (A, 300), (B, 2**40)]])
    def test_constructors_agree(self, kind, itemsets):
        # A list of tuples and an int64 array give one message.
        by_tuples, by_rows = _message(kind, itemsets), _message((kind, True), itemsets)
        assert by_tuples == by_rows
        assert canonical_size(by_tuples) == canonical_size(by_rows)
        assert by_tuples.n_itemsets == by_rows.n_itemsets == len(itemsets)
        if kind is not CountResponse:
            assert by_rows.rows.dtype == np.int64
            assert by_rows.rows.tolist() == [list(x) for x in itemsets]
        if kind is not CountRequest:
            assert by_tuples.supports.dtype == np.int64
            assert by_rows.supports.tolist() == [1] * len(itemsets)
        else:
            view = by_rows.itemsets
            assert view == by_tuples.itemsets == tuple(itemsets)
            assert type(view) is tuple and all(type(x) is tuple for x in view)
            assert all(type(i) is int for x in view for i in x)

    def test_array_constructor_keeps_read_only_views(self):
        rows = np.array([(A, B), (A, C)], dtype=np.int64)
        supports = np.array([4, 5], dtype=np.int64)
        msg = LocalReport(rows, supports, site_id=1, k=2)
        assert np.shares_memory(msg.rows, rows) and np.shares_memory(msg.supports, supports)
        assert not msg.rows.flags.writeable and not msg.supports.flags.writeable
        with pytest.raises(AttributeError, match="immutable"):
            msg.k = 3
        assert msg != LocalReport(rows, supports + 1, site_id=1, k=2)
        assert hash(msg) == hash(report(site_id=1, k=2, entries=pairs(msg)))

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_rejects_level_zero(self, kind, n_rows):
        # No actor sends a level-0 message; the level is checked first.
        rows = np.empty((n_rows, 0), dtype=np.int64)
        with pytest.raises(ValueError, match="level is at least 1, got 0"):
            kind(*_body(kind, rows, [3] * n_rows), **dict(_HEADERS[kind], k=0))

    def test_array_constructor_wants_one_count_per_itemset(self):
        rows = np.array([(A, B), (A, C)], dtype=np.int64)
        with pytest.raises(ValueError, match="one count per itemset"):
            GlobalResult(rows, np.ones(3, np.int64), k=2, continue_flag=False)
        with pytest.raises(TypeError, match="fields"):
            CountRequest(rows, np.ones(2, np.int64), k=2)
        with pytest.raises(TypeError, match="fields"):
            CountResponse(rows, np.ones(2, np.int64), site_id=0, k=2)
        with pytest.raises(ValueError, match="one count per itemset"):
            CountResponse(np.ones((2, 1), np.int64), site_id=0, k=2)

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize("itemsets", [[], [(A, B)], [(0, 7), (A, 2**32 - 1), (B, C)]])
    def test_encoding_round_trips_at_the_canonical_size(self, kind, itemsets):
        msg = _message((kind, True), itemsets)
        data = encode(msg)
        assert type(data) is bytes and len(data) == canonical_size(msg)
        assert decode(kind, data) == msg

    def test_encoding_layout(self):
        # header fields as little-endian int64, then uint32 ids row by row,
        # then int64 counts
        msg = report(site_id=3, k=2, entries=(((A, B), 7), ((A, 2**32 - 1), -2)))
        ids, counts = [A, B, A, 2**32 - 1], [7, -2]
        expected = b"".join(
            [(3).to_bytes(8, "little"), (2).to_bytes(8, "little")]
            + [i.to_bytes(4, "little") for i in ids]
            + [n.to_bytes(8, "little", signed=True) for n in counts]
        )
        assert encode(msg) == expected
        result = global_result(k=1, frequent=(((A,), 4),), continue_flag=False)
        assert encode(result)[8:16] == bytes(8)
        assert decode(GlobalResult, encode(result)).continue_flag is False

    @pytest.mark.parametrize("item", [-1, 2**32, 2**40])
    def test_encoding_rejects_ids_outside_uint32(self, item):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*32\)"):
            encode(request(k=1, itemsets=sorted([(0,), (item,)])))

    @pytest.mark.parametrize(
        "kind, n_bytes",
        [(CountRequest, 4), (CountRequest, 19), (CountResponse, 20), (GlobalResult, 15)],
    )
    def test_decoding_rejects_a_partial_message(self, kind, n_bytes):
        # a level-1 CountRequest takes 8 + 4m bytes, a CountResponse 16 + 8m
        # and a GlobalResult 16 + 12m
        data = (1).to_bytes(8, "little") + bytes(24)
        with pytest.raises(ValueError, match=f"{n_bytes} bytes hold no {kind.__name__}"):
            decode(kind, data[:n_bytes])

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
        site.update_heavy(
            global_result(
                k=1,
                frequent=(((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2)),
                continue_flag=True,
            )
        )
        cands = itemsets(site.local_candidates(2))
        assert local_prune(cands, dict(pairs(site.reported)), site.site_threshold) == cands


class TestCenterSite:
    def test_aggregate_market_level1(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        immediate, pruned, requests = market_center.aggregate(reports)
        assert itemsets(immediate) == [(A,)]
        assert itemsets(pruned) == []
        # B missing from site 1; C and E missing from site 0, one batched
        # request per site
        assert set(requests) == {0, 1}
        assert itemsets(requests[0].rows) == [(C,), (E,)]
        assert itemsets(requests[1].rows) == [(B,)]
        # A's total is the sum of its two reports, with no poll
        polled = [market_sites[i].handle_count_request(requests[i]) for i in (0, 1)]
        assert ((A,), 3) in pairs(market_center.finalize(polled))

    def test_maxcount_bound_values(self, market_center):
        # B reported only by site 0 with count 2: bound 2 + (1-1) = 2, kept;
        # a singleton reported only by site 1 with count 1: 1 + (2-1) = 2, kept
        reports = [
            report(site_id=0, k=1, entries=(((B,), 2),)),
            report(site_id=1, k=1, entries=(((C,), 1),)),
        ]
        _, pruned, requests = market_center.aggregate(reports)
        assert itemsets(pruned) == []
        assert itemsets(requests[0].rows) == [(C,)]
        assert itemsets(requests[1].rows) == [(B,)]

    def test_maxcount_prunes_hopeless_itemsets(self):
        center = CenterSite([4, 4], Fraction(1, 2))
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
        assert pairs(result) == (((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2))
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
        assert pairs(result) == ()

    def test_small_level_stops_the_run(self, market_center):
        # |L_1| = 1 < 2 stops the loop even though L_1 is non-empty
        reports = [
            report(site_id=0, k=1, entries=(((A,), 2),)),
            report(site_id=1, k=1, entries=(((A,), 1),)),
        ]
        market_center.aggregate(reports)
        result = market_center.finalize([])
        assert pairs(result) == (((A,), 3),)
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
        center = CenterSite([10, 10], Fraction(1, 2))
        reports = [report(site_id=i, k=2, entries=(((A, B), 9),)) for i in (0, 1)]
        with pytest.raises(ProtocolError, match=r"levels \[2\], expected level 1"):
            center.aggregate(reports)

    @pytest.mark.parametrize(
        "finalized, error", [(True, "expected level 2"), (False, "level 1, which is still open")]
    )
    def test_level_1_twice_rejected(self, finalized, error):
        center = CenterSite([10, 10], Fraction(1, 2))
        reports = [report(site_id=i, k=1, entries=(((A,), 5), ((B,), 5))) for i in (0, 1)]
        center.aggregate(reports)
        if finalized:
            assert center.finalize([]).continue_flag
        with pytest.raises(ProtocolError, match=error):
            center.aggregate(reports)

    def test_reports_after_the_last_level_rejected(self):
        # L2 = {AB} alone clears continue_flag; AC and BC are not frequent,
        # so no level-3 report may yield ABC
        center = CenterSite([10, 10], Fraction(1, 2))
        for k, itemsets in ((1, [(A,), (B,), (C,)]), (2, [(A, B)])):
            entries = [(x, 5) for x in itemsets]
            center.aggregate([report(site_id=i, k=k, entries=entries) for i in (0, 1)])
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
        center = CenterSite([10, 10], Fraction(1, 2))
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
        center = CenterSite([10, 10], Fraction(1, 2))
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

    def test_any_int64_ids_are_polled_and_summed(self):
        # global threshold 4, site thresholds 2: -1 is reported by both
        # sites, the other two ids are polled from site 1
        center = CenterSite([4, 4], Fraction(1, 2))
        low, high = -(2**62), 2**40
        reports = [
            report(site_id=0, k=1, entries=(((low,), 3), ((-1,), 2), ((high,), 3))),
            report(site_id=1, k=1, entries=(((-1,), 3),)),
        ]
        immediate, _, requests = center.aggregate(reports)
        assert itemsets(immediate) == [(-1,)]
        assert itemsets(requests[1].rows) == [(low,), (high,)]
        answer = response(site_id=1, k=1, counts=[0, 1])
        result = center.finalize([answer])
        assert pairs(result) == (((-1,), 5), ((high,), 4))

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
        center = CenterSite([4, 4, 4], Fraction(1, 3))
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

    @pytest.mark.parametrize("itemset", [(D,), (0,), (40,), (-1,)])
    def test_response_outside_the_level_rejected(self, market_sites, market_center, itemset):
        # Site 0 is asked for C and E and also counts an itemset it was not
        # asked for: D and 0 were reported by no site, 40 and -1 are no item
        # here. Its answer holds one count too many.
        reports = [s.build_report(1) for s in market_sites]
        _, _, requests = market_center.aggregate(reports)
        assert itemsets(requests[0].rows) == [(C,), (E,)]
        rogue = request(k=1, itemsets=sorted([(C,), (E,), itemset]))
        answered = [
            market_sites[0].handle_count_request(rogue),
            market_sites[1].handle_count_request(requests[1]),
        ]
        with pytest.raises(ProtocolError, match="site 0 answered 3 counts at level 1, asked for 2"):
            market_center.finalize(answered)

    def test_pruned_itemset_answer_rejected(self):
        center = CenterSite([4, 4], Fraction(1, 2))
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
        assert itemsets(requests[0].rows) == [(C,), (E,)]
        partial = response(site_id=0, k=1, counts=[1])
        answered = [partial, market_sites[1].handle_count_request(requests[1])]
        with pytest.raises(ProtocolError, match="site 0 answered 1 counts at level 1, asked for 2"):
            market_center.finalize(answered)

    def test_response_from_a_site_with_nothing_to_fill_rejected(self):
        # site 0 reports A = 9 and site 1 nothing, so only site 1 is polled;
        # taking every answer here would give A a count of 12
        center = CenterSite([10, 10], Fraction(1, 2))
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
        center = CenterSite([10, 10], Fraction(1, 2))
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
            # (3,) was never frequent, yet both sites report (1, 3)
            ([[(1,), (2,)]], (1, 3)),
            # (1, 2) and (1, 3) are in L2, but (2, 3) is not
            ([[(1,), (2,), (3,), (4,)], [(1, 2), (1, 3), (1, 4)]], (1, 2, 3)),
        ],
    )
    def test_report_outside_the_last_result_rejected(self, levels, rogue):
        # 10-row sites at minsup 1/2: a count of 5 at both sites is frequent
        center = CenterSite([10, 10], Fraction(1, 2))
        for k, frequent in enumerate(levels, start=1):
            entries = [(x, 5) for x in frequent]
            center.aggregate([report(site_id=i, k=k, entries=entries) for i in (0, 1)])
            assert itemsets(center.finalize([]).rows) == frequent
        k = len(rogue)
        reports = [report(site_id=i, k=k, entries=((rogue, 5),)) for i in (0, 1)]
        what = f"site 0 reported a subset outside level {k - 1}'s result in itemset {rogue}"
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
                return remade(msg, rows=np.empty((0, msg.k + 1), dtype=np.int64), k=msg.k + 1)
            return msg

        error = "site 0: count request for level 2 during level 1"
        with delivering(relevel), pytest.raises(ProtocolError, match=error):
            ImprovedRun(parts, "2/3").run()


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
        # site 0's level-1 report: 2 header fields + 2 singleton entries
        assert rec.type == "LocalReport"
        assert rec.items == 2
        assert rec.bytes == 8 * 2 + 2 * (4 + 8)

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
        assert per_level == [(4, 152), (4, 168), (2, 32)]
        assert (len(network), sum(rec.bytes for rec in network)) == (10, 352)
        assert [m.k for m in run.metrics] == [1, 2, 3]
        assert sum(m.messages_sent for m in run.metrics) == len(run.log.trace) == 20
        assert sum(m.payload_bytes for m in run.metrics) == 704

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
