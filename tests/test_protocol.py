import json
from fractions import Fraction

import numpy as np
import pytest
from bruteforce import enumerate_frequent
from conftest import A, B, C, D, E, MARKET_FREQUENT, corpus_db, local_prune_checks

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
    local_prune,
    partition,
    run_improved,
    sequential_apriori,
)
from distmine.messages import canonical_size

TWO_THIRDS = Fraction(2, 3)


@pytest.fixture
def market_sites(market_db):
    parts = partition(market_db, PartitionSpec(n_sites=2))
    return [LocalSite(i, p, TWO_THIRDS) for i, p in enumerate(parts)]


@pytest.fixture
def market_center(market_sites):
    return CenterSite([s.size for s in market_sites], TWO_THIRDS)


class TestLocalSite:
    def test_level1_candidates_are_all_items(self, market_sites):
        assert market_sites[0].local_candidates(1) == [(i,) for i in range(6)]

    def test_candidates_from_heavy_sets(self, market_sites):
        site = market_sites[0]
        site.heavy_prev = {(A,), (B,), (C,), (E,)}
        assert site.local_candidates(2) == [
            (A, B), (A, C), (A, E), (B, C), (B, E), (C, E),
        ]

    def test_no_heavy_sets_no_candidates(self, market_sites):
        site = market_sites[0]
        site.heavy_prev = set()
        assert site.local_candidates(2) == []

    def test_level1_reports(self, market_sites):
        # site 0 holds {ABC, ABDE} with threshold 2; site 1 holds {ACE}, threshold 1
        rep0 = market_sites[0].build_report(1)
        rep1 = market_sites[1].build_report(1)
        assert rep0.entries == (((A,), 2), ((B,), 2))
        assert rep1.entries == (((A,), 1), ((C,), 1), ((E,), 1))

    def test_empty_report_still_produced(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.heavy_prev = set()
        rep = site.build_report(2)
        assert rep.entries == ()

    def test_count_request_roundtrip(self, market_sites):
        resp0 = market_sites[0].handle_count_request(CountRequest(k=1, itemsets=((C,),)))
        assert resp0.counts == (((C,), 1),)
        resp1 = market_sites[1].handle_count_request(CountRequest(k=1, itemsets=((B,),)))
        assert resp1.counts == (((B,), 0),)

    def test_empty_count_request(self, market_sites):
        resp = market_sites[0].handle_count_request(CountRequest(k=1, itemsets=()))
        assert resp.counts == ()

    def test_items_outside_local_universe_count_zero(self, market_db):
        site = LocalSite(0, market_db, TWO_THIRDS)
        resp = site.handle_count_request(CountRequest(k=1, itemsets=((40,),)))
        assert resp.counts == (((40,), 0),)

    def test_update_heavy_site0(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        result = GlobalResult(
            k=1,
            frequent=(((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2)),
            continue_flag=True,
        )
        site.update_heavy(result)
        assert site.heavy_prev == {(A,), (B,)}

    def test_update_heavy_site1(self, market_sites):
        site = market_sites[1]
        site.build_report(1)
        result = GlobalResult(
            k=1,
            frequent=(((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2)),
            continue_flag=True,
        )
        site.update_heavy(result)
        assert site.heavy_prev == {(A,), (C,), (E,)}

    def test_update_heavy_empty_result(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(GlobalResult(k=1, frequent=(), continue_flag=False))
        assert site.heavy_prev == set()

    def test_update_heavy_ignores_unreported_itemsets(self, market_sites):
        # heavy = reported here and globally frequent: an itemset the site
        # never reported is not heavy, and nothing is recounted for it
        site = market_sites[0]
        result = GlobalResult(k=1, frequent=(((B,), 2),), continue_flag=True)
        site.update_heavy(result)
        assert site.heavy_prev == set()
        assert site.scan_counter.raw_scans == 1

    def test_update_heavy_needs_no_matrix(self, market_sites):
        site = market_sites[1]
        site.build_report(1)
        site.matrix = None
        site.update_heavy(
            GlobalResult(
                k=1,
                frequent=(((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2)),
                continue_flag=True,
            )
        )
        assert site.heavy_prev == {(A,), (C,), (E,)}

    def test_count_request_for_another_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        with pytest.raises(ProtocolError, match="level 2 during level 1"):
            site.handle_count_request(CountRequest(k=2, itemsets=((A, C),)))

    def test_global_result_for_another_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(GlobalResult(k=1, frequent=(((A,), 3),), continue_flag=True))
        site.build_report(2)
        stale = GlobalResult(k=1, frequent=(((A,), 3),), continue_flag=True)
        with pytest.raises(ProtocolError, match="level 1 during level 2"):
            site.update_heavy(stale)

    def test_second_global_result_for_a_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        result = GlobalResult(k=1, frequent=(((A,), 3),), continue_flag=True)
        site.update_heavy(result)
        with pytest.raises(ProtocolError, match="second global result for level 1"):
            site.update_heavy(result)
        site.build_report(2)
        site.update_heavy(GlobalResult(k=2, frequent=(), continue_flag=False))

    def test_count_request_for_a_closed_level(self, market_sites):
        site = market_sites[0]
        site.build_report(1)
        site.update_heavy(GlobalResult(k=1, frequent=(((A,), 3),), continue_flag=True))
        with pytest.raises(ProtocolError, match="closed level 1"):
            site.handle_count_request(CountRequest(k=1, itemsets=((A,),)))

    def test_rejects_empty_partition(self):
        from distmine.dataset import TransactionDb

        with pytest.raises(ValueError, match="empty"):
            LocalSite(0, TransactionDb(transactions=(), universe=2), TWO_THIRDS)


def _message(kind, itemsets):
    """A level-2 message of type ``kind`` carrying ``itemsets``, count 1 each."""
    entries = tuple((x, 1) for x in itemsets)
    if kind is LocalReport:
        return LocalReport(site_id=0, k=2, entries=entries)
    if kind is CountRequest:
        return CountRequest(k=2, itemsets=tuple(itemsets))
    if kind is CountResponse:
        return CountResponse(site_id=0, k=2, counts=entries)
    return GlobalResult(k=2, frequent=entries, continue_flag=True)


MESSAGE_TYPES = [LocalReport, CountRequest, CountResponse, GlobalResult]


class TestMessages:
    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize(
        "itemsets",
        [[(A,)], [(A, B), (A, B, C)], [(A,), (A, B)], [(A, B), (C, D, E)]],
    )
    def test_rejects_an_itemset_of_another_length(self, kind, itemsets):
        with pytest.raises(ValueError, match="level-2 message"):
            _message(kind, itemsets)

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    @pytest.mark.parametrize("itemsets", [[(A, C), (A, B)], [(A, B), (A, B)]])
    def test_rejects_unsorted_or_repeated_itemsets(self, kind, itemsets):
        with pytest.raises(ValueError, match="sorted and duplicate-free"):
            _message(kind, itemsets)

    @pytest.mark.parametrize("kind", MESSAGE_TYPES)
    def test_canonical_size_counts_every_entry(self, kind):
        itemsets = [(A, B), (A, 300), (B, 2**40)]
        header = {LocalReport: 2, CountRequest: 1, CountResponse: 2, GlobalResult: 2}
        count_bytes = 0 if kind is CountRequest else 8
        expected = 8 * header[kind] + sum(4 * len(x) + count_bytes for x in itemsets)
        assert canonical_size(_message(kind, itemsets)) == expected
        assert canonical_size(_message(kind, [])) == 8 * header[kind]


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
            GlobalResult(
                k=1,
                frequent=(((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2)),
                continue_flag=True,
            )
        )
        cands = site.local_candidates(2)
        assert local_prune(cands, site.reported, site.site_threshold) == cands


class TestCenterSite:
    def test_aggregate_market_level1(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        immediate, pruned, requests = market_center.aggregate(reports)
        assert immediate == [((A,), 3)]
        assert pruned == []
        # B missing from site 1; C and E missing from site 0, one batched
        # request per site
        assert set(requests) == {0, 1}
        assert requests[0].itemsets == ((C,), (E,))
        assert requests[1].itemsets == ((B,),)

    def test_maxcount_bound_values(self, market_center):
        # B reported only by site 0 with count 2: bound 2 + (1-1) = 2, kept;
        # a singleton reported only by site 1 with count 1: 1 + (2-1) = 2, kept
        reports = [
            LocalReport(site_id=0, k=1, entries=(((B,), 2),)),
            LocalReport(site_id=1, k=1, entries=(((C,), 1),)),
        ]
        _, pruned, requests = market_center.aggregate(reports)
        assert pruned == []
        assert requests[0].itemsets == ((C,),)
        assert requests[1].itemsets == ((B,),)

    def test_maxcount_prunes_hopeless_itemsets(self):
        center = CenterSite([4, 4], Fraction(1, 2))
        # global threshold 4; site thresholds 2 each; an itemset reported by
        # one site with count 2 can reach at most 2 + 1 = 3
        reports = [
            LocalReport(site_id=0, k=1, entries=(((A,), 2),)),
            LocalReport(site_id=1, k=1, entries=()),
        ]
        immediate, pruned, requests = center.aggregate(reports)
        assert immediate == []
        assert pruned == [(A,)]
        assert requests == {}

    def test_finalize_market_level1(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        _, _, requests = market_center.aggregate(reports)
        responses = [
            market_sites[sid].handle_count_request(req)
            for sid, req in sorted(requests.items())
        ]
        result = market_center.finalize(responses)
        assert result.frequent == (((A,), 3), ((B,), 2), ((C,), 2), ((E,), 2))
        assert result.continue_flag is True

    def test_all_empty_reports_stop_the_run(self, market_center):
        reports = [
            LocalReport(site_id=0, k=1, entries=()),
            LocalReport(site_id=1, k=1, entries=()),
        ]
        _, _, requests = market_center.aggregate(reports)
        assert requests == {}
        result = market_center.finalize([])
        assert result.continue_flag is False
        assert result.frequent == ()

    def test_small_level_stops_the_run(self, market_center):
        # |L_1| = 1 < 2 stops the loop even though L_1 is non-empty
        reports = [
            LocalReport(site_id=0, k=1, entries=(((A,), 2),)),
            LocalReport(site_id=1, k=1, entries=(((A,), 1),)),
        ]
        market_center.aggregate(reports)
        result = market_center.finalize([])
        assert result.frequent == (((A,), 3),)
        assert result.continue_flag is False

    def test_duplicate_report_rejected(self, market_center):
        reports = [
            LocalReport(site_id=0, k=1, entries=()),
            LocalReport(site_id=0, k=1, entries=()),
        ]
        with pytest.raises(ProtocolError, match="one report per site"):
            market_center.aggregate(reports)

    def test_missing_report_rejected(self, market_center):
        with pytest.raises(ProtocolError, match="one report per site"):
            market_center.aggregate([LocalReport(site_id=0, k=1, entries=())])

    def test_mixed_level_reports_rejected(self, market_center):
        reports = [
            LocalReport(site_id=0, k=1, entries=()),
            LocalReport(site_id=1, k=2, entries=()),
        ]
        with pytest.raises(ProtocolError, match="levels"):
            market_center.aggregate(reports)

    def test_unrequested_response_rejected(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        market_center.aggregate(reports)
        rogue = CountResponse(site_id=1, k=1, counts=(((E,), 1),))
        with pytest.raises(ProtocolError, match="unrequested"):
            market_center.finalize([rogue])

    def test_missing_response_rejected(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        _, _, requests = market_center.aggregate(reports)
        answered = [market_sites[1].handle_count_request(requests[1])]
        with pytest.raises(ProtocolError, match="missing count responses"):
            market_center.finalize(answered)

    def test_wrong_level_response_rejected(self, market_sites, market_center):
        reports = [s.build_report(1) for s in market_sites]
        market_center.aggregate(reports)
        with pytest.raises(ProtocolError, match="level"):
            market_center.finalize([CountResponse(site_id=0, k=3, counts=())])


class TestImprovedRun:
    def test_market_result_matches_oracle(self, market_db):
        oracle = sequential_apriori(market_db, "2/3")
        for n in (1, 2, 3):
            parts = partition(market_db, PartitionSpec(n_sites=n))
            result, _ = run_improved(parts, "2/3")
            assert result == oracle
            assert result.frequent == MARKET_FREQUENT

    def test_market_level1_frequent_set(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        result, _ = run_improved(parts, "2/3")
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

    def test_colocated_messages_can_be_excluded(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        counted = ImprovedRun(parts, "2/3")
        counted.run()
        excluded = ImprovedRun(parts, "2/3", count_colocated_messages=False)
        excluded.run()
        assert excluded.log.messages_sent < counted.log.messages_sent
        # trace still contains the colocated exchanges
        assert len(excluded.log.trace) == len(counted.log.trace)
        colocated = sum(
            1
            for rec in counted.log.trace
            if {rec.src, rec.dst} == {"site:0", "center"}
        )
        assert (
            counted.log.messages_sent - excluded.log.messages_sent == colocated
        )

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
                    result, metrics = run_improved(parts, "0.3")
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
            for _, x in run.maxcount_pruned:
                assert x not in frequent
            assert all(dropped == [] for _, _, dropped in checks), (seed, checks)
            n_checks += len(checks)
        assert n_checks > 0
