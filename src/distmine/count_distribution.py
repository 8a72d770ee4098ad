"""Count-distribution baseline: every site counts the same candidates and
broadcasts its full count vector to every peer each level.

Shares the bit-matrix counting core with the center-site protocol so any
difference in the metrics reflects the exchange scheme, not counting speed.
The count exchange costs exactly n*(n-1) messages per level.
"""

from __future__ import annotations

import numpy as np

from .dataset import TransactionDb
from .lmatrix import LMatrix, ScanCounter
from .messages import LocalReport, MessageLog
from .miner import MiningResult, RoundMetrics, apriori_levels, mine_levels
from .miner import parse_minsup, threshold


class CountDistributionRun:
    """One deterministic simulated count-distribution run: the shared loop
    (``miner.mine_levels`` over ``miner.apriori_levels``) with one round per
    level, in which every site counts and broadcasts its count vector."""

    def __init__(self, partitions: list[TransactionDb], minsup) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        if any(p.size == 0 for p in partitions):
            raise ValueError("partitions must be non-empty")
        self.minsup = parse_minsup(minsup)
        self.scan_counters = [ScanCounter() for _ in partitions]
        self.matrices = [
            LMatrix.from_db(p, c) for p, c in zip(partitions, self.scan_counters)
        ]
        self.universe = max(p.universe for p in partitions)
        self.total_size = sum(p.size for p in partitions)
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
        vector to every peer; returns the global counts and the n*|C|
        entries sent. Site 0 sums its own vector and the ones delivered to
        it; every inbox holds the same reports, so its sum stands for all."""
        n, total = len(self.matrices), 0
        for i, matrix in enumerate(self.matrices):
            report = LocalReport(rows, matrix.count(rows), site_id=i, k=rows.shape[1])
            got = {j: self.log.send(f"site:{i}", f"site:{j}", report) for j in range(n) if j != i}
            total += got.get(0, report).supports
        return total, n * len(rows)
