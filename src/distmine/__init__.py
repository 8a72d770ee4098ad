"""Distributed frequent-itemset mining over simulated sites.

Local partitions are compressed to bit matrices built in a single scan;
support queries intersect item columns and popcount. A center-coordinated
protocol exchanges only locally frequent candidates (O(n) messages per
level), with a count-distribution baseline and a sequential miner for
comparison.
"""

from .count_distribution import CountDistributionRun, run_cd
from .dataset import (
    FimiFormatError,
    Itemset,
    PartitionSpec,
    TransactionDb,
    dump_fimi,
    generate_synthetic,
    load_fimi,
    partition,
)
from .lmatrix import LMatrix, ScanCounter
from .messages import (
    CountRequest,
    CountResponse,
    GlobalResult,
    LocalReport,
    MessageLog,
    ProtocolMessage,
    TraceRecord,
)
from .miner import (
    MiningResult,
    RoundMetrics,
    parse_minsup,
    run_sequential,
    sequential_apriori,
    threshold,
)
from .protocol import (
    CenterSite,
    ImprovedRun,
    LocalSite,
    ProtocolError,
    run_improved,
)

__all__ = [
    "CenterSite",
    "CountDistributionRun",
    "CountRequest",
    "CountResponse",
    "FimiFormatError",
    "GlobalResult",
    "ImprovedRun",
    "Itemset",
    "LMatrix",
    "LocalReport",
    "LocalSite",
    "MessageLog",
    "MiningResult",
    "PartitionSpec",
    "ProtocolError",
    "ProtocolMessage",
    "RoundMetrics",
    "ScanCounter",
    "TraceRecord",
    "TransactionDb",
    "dump_fimi",
    "generate_synthetic",
    "load_fimi",
    "parse_minsup",
    "partition",
    "run_cd",
    "run_improved",
    "run_sequential",
    "sequential_apriori",
    "threshold",
]
