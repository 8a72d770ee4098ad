"""Count-distribution baseline: every site counts the same candidates and
broadcasts its full count vector to every peer each level. Every site
generates the same candidate list C_k, so the vector carries counts only, in
C_k's order, and each peer takes the rows from its own C_k (Agrawal &
Shafer, IEEE TKDE 1996).

Shares the bit-matrix counting core with the center-site protocol so any
difference in the metrics reflects the exchange scheme, not counting speed.
The count exchange costs exactly n*(n-1) messages per level.
"""

from __future__ import annotations

import numpy as np

from .dataset import TransactionDb
from .messages import CountResponse, MessageLog
from .miner import MiningResult, RoundMetrics, apriori_levels, mine_levels
from .miner import parse_minsup, threshold
from .protocol import LocalSite, ProtocolError


class CountDistributionRun:
    """One deterministic simulated count-distribution run: the shared loop
    (``miner.mine_levels`` over ``miner.apriori_levels``) with one round per
    level, in which every ``LocalSite`` counts and broadcasts its count vector."""

    def __init__(self, partitions: list[TransactionDb], minsup) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        self.minsup = parse_minsup(minsup)
        self.universe = max(p.universe for p in partitions)
        self.sites = [LocalSite(i, p, self.minsup, self.universe) for i, p in enumerate(partitions)]
        self.total_size = sum(s.size for s in self.sites)
        self.global_threshold = threshold(self.minsup, self.total_size)
        self.log = MessageLog()
        self.metrics: list[RoundMetrics] = []
        self.result: MiningResult | None = None

    def run(self) -> MiningResult:
        if self.result is not None:
            raise RuntimeError("run() may only be called once per instance")
        levels = apriori_levels(
            self.universe, self.global_threshold, self._count_level
        )
        self.result, self.metrics = mine_levels(
            levels, self.minsup, self.total_size, self.log
        )
        return self.result

    def _count_level(self, rows: np.ndarray) -> tuple[np.ndarray, int]:
        """Count the candidate rows at every site and send each site's count
        vector to every peer; returns the global counts and the n*|C| entries
        sent. A peer refuses a vector that does not hold one count per row
        of its C_k. Site 0 sums its own vector and the ones delivered to it;
        every inbox holds the same vectors, so its sum stands for all."""
        n, k, total = len(self.sites), rows.shape[1], 0
        for i, site in enumerate(self.sites):
            counts = CountResponse(site.matrix.count(rows), site_id=i, k=k)
            got = {j: self.log.send(f"site:{i}", f"site:{j}", counts) for j in range(n) if j != i}
            for j, msg in got.items():
                if msg.n_itemsets != len(rows):
                    raise ProtocolError(
                        f"site {j} got {msg.n_itemsets} counts from site {i}"
                        f" at level {k}, where C_{k} holds {len(rows)}"
                    )
            total += got.get(0, counts).supports
        return total, n * len(rows)
