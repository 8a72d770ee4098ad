"""Count-distribution baseline: every site counts the same candidates and
broadcasts its full count vector to every peer each level.

Shares the bit-matrix counting core with the center-site protocol so any
difference in the metrics reflects the exchange scheme, not counting speed.
The count exchange costs exactly n*(n-1) messages per level.
"""

from __future__ import annotations

from .dataset import Itemset, TransactionDb
from .lmatrix import LMatrix, ScanCounter
from .messages import LocalReport, MessageLog
from .miner import MiningResult, RoundMetrics, apriori_gen, parse_minsup, threshold


class CountDistributionRun:
    """One deterministic simulated count-distribution run."""

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
        n = len(self.matrices)
        frequent: dict[Itemset, int] = {}
        candidates: list[Itemset] = [(i,) for i in range(self.universe)]
        k = 1
        while candidates:
            msgs0, bytes0 = self.log.messages_sent, self.log.payload_bytes
            vectors = [m.count(candidates) for m in self.matrices]
            for i in range(n):
                report = LocalReport(
                    site_id=i,
                    k=k,
                    entries=tuple(zip(candidates, vectors[i].tolist())),
                )
                for j in range(n):
                    if j != i:
                        self.log.send(f"site:{i}", f"site:{j}", report)
            totals = sum(vectors).tolist()
            level = {
                x: t
                for x, t in zip(candidates, totals)
                if t >= self.global_threshold
            }
            frequent.update(level)
            self.metrics.append(
                RoundMetrics(
                    k=k,
                    candidates_generated=len(candidates),
                    candidates_after_local_prune=len(candidates),
                    messages_sent=self.log.messages_sent - msgs0,
                    payload_bytes=self.log.payload_bytes - bytes0,
                    # No local-frequency filter here; record total reported
                    # count-vector entries for volume comparison.
                    llk_total=n * len(candidates),
                    lk_size=len(level),
                )
            )
            candidates = apriori_gen(level) if level else []
            k += 1
        self.result = MiningResult(
            minsup=self.minsup, db_size=self.total_size, frequent=frequent
        )
        return self.result


def run_cd(
    partitions: list[TransactionDb], minsup
) -> tuple[MiningResult, list[RoundMetrics]]:
    """Count-distribution mining over ``partitions``; result plus per-round metrics."""
    run = CountDistributionRun(partitions, minsup)
    result = run.run()
    return result, run.metrics
