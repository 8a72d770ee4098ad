import numpy as np
import pytest
from conftest import MARKET_FREQUENT, D, corpus_db, delivering, mine, remade

from distmine import (
    CountDistributionRun,
    PartitionSpec,
    ProtocolError,
    partition,
    sequential_apriori,
)


class TestCountDistribution:
    def test_market_result_matches_oracle(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        result = CountDistributionRun(parts, "2/3").run()
        assert result == sequential_apriori(market_db, "2/3")
        assert result.frequent == MARKET_FREQUENT

    def test_messages_per_round_is_n_times_n_minus_1(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        _, metrics = mine(CountDistributionRun(parts, "2/3"))
        assert [m.messages_sent for m in metrics] == [2, 2]

    def test_single_site_sends_nothing(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=1))
        run = CountDistributionRun(parts, "2/3")
        result = run.run()
        assert result == sequential_apriori(market_db, "2/3")
        assert run.log.trace == []
        assert all(m.messages_sent == m.payload_bytes == 0 for m in run.metrics)

    def test_candidate_metrics_reflect_shared_list(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        run = CountDistributionRun(parts, "2/3")
        run.run()
        first = run.metrics[0]
        # level 1 candidates: one per item in the universe, at every site
        assert first.candidates_generated == market_db.universe
        assert first.llk_total == 2 * market_db.universe

    def test_site_0_sums_the_reports_delivered_to_it(self, market_db):
        # D is in one transaction of three, below the threshold of 2; one
        # more count of D on its way from site 1 to site 0 makes it frequent.
        # The vector carries no ids: C_1 is every item, so D's count is at D.
        parts = partition(market_db, PartitionSpec(n_sites=3))

        def add_d(src, dst, msg):
            if (src, dst, msg.k) == ("site:1", "site:0", 1):
                return remade(msg, supports=msg.supports + (np.arange(msg.n_itemsets) == D))
            return msg

        with delivering(add_d):
            result = CountDistributionRun(parts, "2/3").run()
        assert result.frequent[(D,)] == 2

    @pytest.mark.parametrize("change", [lambda s: s[:-1], lambda s: np.append(s, 0)])
    def test_count_vector_of_another_length_rejected(self, market_db, change):
        # Every peer takes the rows from its own C_k, so each one checks the
        # length; here site 2 gets site 1's level-1 vector, |C_1| = 6.
        parts = partition(market_db, PartitionSpec(n_sites=3))

        def mutate(src, dst, msg):
            if (src, dst, msg.k) == ("site:1", "site:2", 1):
                return remade(msg, supports=change(msg.supports))
            return msg

        n = len(change(np.zeros(6)))
        error = f"site 2 got {n} counts from site 1 at level 1, where C_1 holds 6"
        with delivering(mutate), pytest.raises(ProtocolError, match=error):
            CountDistributionRun(parts, "2/3").run()

    def test_trace_actors_are_sites_only(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=3))
        run = CountDistributionRun(parts, "2/3")
        run.run()
        actors = {rec.src for rec in run.log.trace} | {
            rec.dst for rec in run.log.trace
        }
        assert actors == {"site:0", "site:1", "site:2"}

    def test_single_scan_per_site(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=3))
        run = CountDistributionRun(parts, "2/3")
        run.run()
        assert all(c.raw_scans == 1 for c in run.scan_counters)

    def test_matches_oracle_across_small_corpus(self):
        for seed in range(10):
            db = corpus_db(seed)
            oracle = sequential_apriori(db, "0.3")
            for n in (1, 2, 4):
                for strategy in ("contiguous", "round-robin", "random"):
                    parts = partition(
                        db, PartitionSpec(n_sites=n, strategy=strategy, seed=seed)
                    )
                    result, metrics = mine(CountDistributionRun(parts, "0.3"))
                    assert result == oracle, (seed, n, strategy)
                    assert all(m.messages_sent == n * (n - 1) for m in metrics)

    def test_run_twice_rejected(self, market_db):
        parts = partition(market_db, PartitionSpec(n_sites=2))
        run = CountDistributionRun(parts, "2/3")
        run.run()
        with pytest.raises(RuntimeError, match="once"):
            run.run()

    def test_rejects_empty_partition_list(self):
        with pytest.raises(ValueError, match="at least one"):
            CountDistributionRun([], "0.5")
