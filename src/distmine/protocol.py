"""Center-coordinated distributed mining with heavy-set candidate pruning.

Each site keeps its partition as a bit matrix and reports only locally
frequent candidates; the center combines reports, bounds the global count
of partially reported itemsets, polls the silent sites for survivors, and
broadcasts each level's globally frequent itemsets. Message traffic per
level stays within 4n for n sites: n reports, at most n batched count
requests, their responses, and n result broadcasts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dataset import Itemset, TransactionDb
from .lmatrix import LMatrix, ScanCounter
from .messages import CountRequest, CountResponse, GlobalResult, LocalReport, MessageLog
from .miner import (
    MiningResult,
    RoundMetrics,
    apriori_gen,
    itemset_key,
    mine_levels,
    parse_minsup,
    threshold,
)


class ProtocolError(RuntimeError):
    """A site or the center received an out-of-contract message."""


def local_support(matrix: LMatrix, itemset: Itemset) -> int:
    """Support on a site's matrix; items the site has never seen count 0."""
    if itemset and itemset[-1] >= matrix.n_cols:
        return 0
    return matrix.support(itemset)


def local_prune(
    candidates: list[Itemset],
    subset_counts: dict[Itemset, int],
    site_threshold: int,
) -> list[Itemset]:
    """Drop candidates whose best possible local count is below threshold.

    The bound for a k-candidate is the minimum local count over its (k-1)-
    subsets, which support can never exceed. Every subset must already be in
    ``subset_counts``; a missing one is a pipeline bug, not user error.
    ``LocalSite.build_report`` does not call it (see there for why).
    """
    if site_threshold <= 0:
        return list(candidates)
    kept = []
    for cand in candidates:
        try:
            bound = min(
                subset_counts[cand[:j] + cand[j + 1 :]] for j in range(len(cand))
            )
        except KeyError as err:
            raise ProtocolError(
                f"no local count for subset {err.args[0]!r} of candidate {cand!r}"
            ) from None
        if bound >= site_threshold:
            kept.append(cand)
    return kept


class LocalSite:
    """Per-partition state machine: builds reports, answers count requests,
    and tracks which itemsets are heavy here (locally and globally frequent)."""

    def __init__(self, site_id: int, part: TransactionDb, minsup: Fraction) -> None:
        if part.size == 0:
            raise ValueError(f"site {site_id}: empty partition")
        self.site_id = site_id
        self.scan_counter = ScanCounter()
        self.matrix = LMatrix.from_db(part, self.scan_counter)
        self.size = part.size
        self.site_threshold = threshold(minsup, part.size)
        self.universe = part.universe
        self.level = 1  # of the last report; messages must match it
        self.closed = False  # a GlobalResult has closed ``level``
        self.heavy_prev: set[Itemset] = set()
        self.reported: dict[Itemset, int] = {}
        self.last_candidates: list[Itemset] = []

    def local_candidates(self, k: int) -> list[Itemset]:
        """Level-k candidates: every single item at k=1, otherwise the
        Apriori join over the previous level's heavy itemsets."""
        if k == 1:
            return [(i,) for i in range(self.universe)]
        return apriori_gen(self.heavy_prev)

    def build_report(self, k: int) -> LocalReport:
        """Count every level-k candidate and report the locally frequent ones,
        even none, so the center can tell "nothing frequent" from "no reply".
        ``local_prune`` would drop no candidate: each (k-1)-subset is heavy
        here, so the least subset count already clears the site threshold."""
        candidates = self.local_candidates(k)
        counts = self.matrix.count(candidates).tolist()
        self.level = k
        self.closed = False
        self.last_candidates = candidates
        self.reported = {
            x: n for x, n in zip(candidates, counts) if n >= self.site_threshold
        }
        return LocalReport(
            site_id=self.site_id, k=k, entries=tuple(self.reported.items())
        )

    def _check_level(self, what: str, k: int) -> None:
        if k != self.level:
            raise ProtocolError(
                f"site {self.site_id}: {what} for level {k} during level {self.level}"
            )

    def handle_count_request(self, req: CountRequest) -> CountResponse:
        """Answer exact local counts from the matrix (no raw rescan). A level
        a GlobalResult has closed takes no more requests."""
        self._check_level("count request", req.k)
        if self.closed:
            raise ProtocolError(
                f"site {self.site_id}: count request for closed level {req.k}"
            )
        counts = tuple(zip(req.itemsets, self.matrix.count(req.itemsets).tolist()))
        return CountResponse(site_id=self.site_id, k=req.k, counts=counts)

    def update_heavy(self, result: GlobalResult) -> None:
        """Heavy here = globally frequent and reported by this site.

        A globally frequent itemset this site did not report is below its
        threshold here: either the site counted it and it fell short, or one
        of its (k-1)-subsets is not heavy here. That subset is globally
        frequent (so is every subset of a frequent itemset), so it is not
        locally frequent, and neither is the itemset. No recount is needed.
        A level takes one result; a second raises ProtocolError.
        """
        self._check_level("global result", result.k)
        if self.closed:
            raise ProtocolError(
                f"site {self.site_id}: second global result for level {result.k}"
            )
        self.closed = True
        self.heavy_prev = {x for x, _ in result.frequent if x in self.reported}


class AggregationOutcome(NamedTuple):
    immediately_frequent: list[tuple[Itemset, int]]
    pruned: list[Itemset]
    requests: dict[int, CountRequest]


class CenterSite:
    """Combines local reports into global decisions for one level at a time."""

    def __init__(self, site_sizes: list[int], minsup: Fraction) -> None:
        self.n_sites = len(site_sizes)
        self.total_size = sum(site_sizes)
        self.global_threshold = threshold(minsup, self.total_size)
        self.site_thresholds = [threshold(minsup, d) for d in site_sizes]
        self.level = 0
        # This level's immediate and polled itemsets in (length, lex) order,
        # with their running totals, and the sites each still waits on.
        self._totals: dict[Itemset, int] = {}
        self._awaiting: dict[Itemset, set[int]] = {}

    def aggregate(self, reports: list[LocalReport]) -> AggregationOutcome:
        """Process one report per site: decide fully reported itemsets on the
        spot, bound the rest, and batch one count request per silent site.

        An itemset reported by every site has its exact global count (the sum)
        and each addend cleared its local threshold, so it is frequent without
        polling. Otherwise a silent site can contribute at most its local
        threshold minus one; if even that optimistic total misses the global
        threshold the itemset is pruned, else the silent sites are polled.
        """
        if sorted(r.site_id for r in reports) != list(range(self.n_sites)):
            raise ProtocolError("expected exactly one report per site")
        levels = {r.k for r in reports}
        if len(levels) != 1:
            raise ProtocolError(f"reports span multiple levels: {sorted(levels)}")
        self.level = k = levels.pop()

        origins: dict[Itemset, dict[int, int]] = {}
        for rep in sorted(reports, key=lambda r: r.site_id):
            for x, n in rep.entries:
                origins.setdefault(x, {})[rep.site_id] = n

        immediate: list[tuple[Itemset, int]] = []
        pruned: list[Itemset] = []
        wanted: dict[int, list[Itemset]] = {}
        self._totals = {}
        self._awaiting = {}
        for x in sorted(origins, key=itemset_key):
            counts = origins[x]
            reported = sum(counts.values())
            silent = [i for i in range(self.n_sites) if i not in counts]
            max_count = reported + sum(self.site_thresholds[i] - 1 for i in silent)
            if max_count < self.global_threshold:
                pruned.append(x)
                continue
            if silent:
                self._awaiting[x] = set(silent)
                for i in silent:
                    wanted.setdefault(i, []).append(x)
            else:
                immediate.append((x, reported))
            self._totals[x] = reported

        requests = {
            i: CountRequest(k=k, itemsets=tuple(wanted[i])) for i in sorted(wanted)
        }
        return AggregationOutcome(immediate, pruned, requests)

    def finalize(self, responses: list[CountResponse]) -> GlobalResult:
        """Fold poll responses into totals and close the level.

        The frequent itemsets are the totals that reach the global threshold,
        already in (length, lex) order; fully reported ones always do, since
        the sum of the site thresholds is at least the global one. The loop
        continues only if the level produced more frequent itemsets than its
        own size k (any (k+1)-itemset needs k+1 frequent k-subsets).
        """
        for resp in responses:
            if resp.k != self.level:
                raise ProtocolError(
                    f"response for level {resp.k} during level {self.level}"
                )
            for x, n in resp.counts:
                awaiting = self._awaiting.get(x)
                if awaiting is None or resp.site_id not in awaiting:
                    raise ProtocolError(
                        f"site {resp.site_id} answered unrequested itemset {x!r}"
                    )
                awaiting.discard(resp.site_id)
                self._totals[x] += n
        still_waiting = [x for x, a in self._awaiting.items() if a]
        if still_waiting:
            raise ProtocolError(f"missing count responses for {still_waiting!r}")

        frequent = tuple(
            (x, n) for x, n in self._totals.items() if n >= self.global_threshold
        )
        self._totals = {}
        self._awaiting = {}
        return GlobalResult(
            k=self.level,
            frequent=frequent,
            continue_flag=len(frequent) > self.level,
        )


class ImprovedRun:
    """One deterministic simulated run of the distributed protocol.

    Rounds are barrier-synchronized and all actors run in-process; state
    moves only through protocol messages. ``run`` hands the shared loop
    (``miner.mine_levels``) one round per level. After ``run()`` the
    instance exposes per-round metrics, the full message trace, the sites
    (for scan counters), and the itemsets the max-count bound pruned.
    """

    def __init__(
        self,
        partitions: list[TransactionDb],
        minsup,
        *,
        count_colocated_messages: bool = True,
    ) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        self.minsup = parse_minsup(minsup)
        self.sites = [
            LocalSite(i, part, self.minsup) for i, part in enumerate(partitions)
        ]
        self.center = CenterSite([s.size for s in self.sites], self.minsup)
        self.log = MessageLog(count_colocated=count_colocated_messages)
        self.metrics: list[RoundMetrics] = []
        self.maxcount_pruned: list[tuple[int, Itemset]] = []
        self.result: MiningResult | None = None

    def run(self) -> MiningResult:
        if self.result is not None:
            raise RuntimeError("run() may only be called once per instance")
        self.result, self.metrics = mine_levels(
            self._rounds(), self.minsup, self.center.total_size, self.log
        )
        return self.result

    def _rounds(self):
        """One protocol round per level, for ``mine_levels``: reports,
        aggregation, polls, finalize and the result broadcast. Level 1
        always runs; the rounds stop when the center clears ``continue_flag``."""
        while True:
            k = self.center.level + 1
            candidates: set[Itemset] = set()
            reports = []
            for site in self.sites:
                rep = site.build_report(k)
                candidates.update(site.last_candidates)
                self.log.send(f"site:{site.site_id}", "center", rep)
                reports.append(rep)

            immediate, pruned, requests = self.center.aggregate(reports)
            self.maxcount_pruned.extend((k, x) for x in pruned)

            responses = []
            for site_id in sorted(requests):
                req = requests[site_id]
                self.log.send("center", f"site:{site_id}", req)
                resp = self.sites[site_id].handle_count_request(req)
                self.log.send(f"site:{site_id}", "center", resp)
                responses.append(resp)

            outcome = self.center.finalize(responses)
            for site in self.sites:
                self.log.send("center", f"site:{site.site_id}", outcome)
                site.update_heavy(outcome)

            entries = sum(len(rep.entries) for rep in reports)
            yield outcome.frequent, len(candidates), entries
            if not outcome.continue_flag:
                return


def run_improved(
    partitions: list[TransactionDb],
    minsup,
    *,
    count_colocated_messages: bool = True,
) -> tuple[MiningResult, list[RoundMetrics]]:
    """Mine the union of ``partitions``; returns the result and per-round metrics.

    The result is exactly equal to sequential mining over the concatenated
    partitions.
    """
    run = ImprovedRun(
        partitions, minsup, count_colocated_messages=count_colocated_messages
    )
    result = run.run()
    return result, run.metrics
