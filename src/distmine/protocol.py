"""Center-coordinated distributed mining with heavy-set candidate pruning.

Each site keeps its partition as a bit matrix and reports only locally
frequent candidates; the center combines reports, bounds the global count
of partially reported itemsets, polls the silent sites for survivors, and
broadcasts each level's globally frequent itemsets. Message traffic per
level stays within 4n for n sites: n reports, at most n batched count
requests, their responses, and n result broadcasts. Sites and center hold a
level's itemsets as int64 row arrays, as the messages carry them, so no
step loops over itemsets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dataset import Itemset, TransactionDb
from .lmatrix import LMatrix, ScanCounter
from .messages import CountRequest, CountResponse, GlobalResult, LocalReport, MessageLog
from .miner import (
    MiningResult,
    RoundMetrics,
    find_rows,
    join_rows,
    mine_levels,
    parse_minsup,
    row_keys,
    threshold,
)


class ProtocolError(RuntimeError):
    """A site or the center received an out-of-contract message."""


def local_support(matrix: LMatrix, itemset: Itemset) -> int:
    """Support on a site's matrix; items the site has never seen count 0.
    Kept for bench/tracer.py; sites count with ``LMatrix.count``."""
    return int(matrix.count([itemset])[0])


def local_prune(
    candidates: list[Itemset],
    subset_counts: dict[Itemset, int],
    site_threshold: int,
) -> list[Itemset]:
    """Drop candidates whose best possible local count is below threshold.

    The bound for a k-candidate is the minimum local count over its (k-1)-
    subsets, which support can never exceed. Every subset must already be in
    ``subset_counts``; a missing one is a pipeline bug, not user error.
    Kept for bench/tracer.py: ``LocalSite.build_report`` does not call it
    (see there for why).
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


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order that sorts ``rows`` lexicographically and, in that
    order, a mask of the first row of each run of equal rows."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return order, first


class LocalSite:
    """Per-partition state machine: builds reports, answers count requests,
    and tracks which itemsets are heavy here (locally and globally frequent).

    Candidates and heavy itemsets are int64 arrays with one itemset per row,
    in lexicographic order, like the messages; each step is a few numpy
    calls over a whole level. ``reported`` is the last report sent."""

    def __init__(self, site_id: int, part: TransactionDb, minsup: Fraction) -> None:
        if part.size == 0:
            raise ValueError(f"site {site_id}: empty partition")
        self.site_id = site_id
        self.scan_counter = ScanCounter()
        self.matrix = LMatrix.from_db(part, self.scan_counter)
        self.size = part.size
        self.site_threshold = threshold(minsup, part.size)
        self.universe = part.universe
        self.closed = False  # a GlobalResult has closed the reported level
        nothing = np.empty((0, 1), dtype=np.int64)
        self.heavy_prev = self.last_candidates = nothing
        self.reported = LocalReport(nothing, nothing[:, 0], site_id=site_id, k=1)

    def local_candidates(self, k: int) -> np.ndarray:
        """Level-k candidates: every single item at k=1, otherwise the
        Apriori join over the previous level's heavy itemsets."""
        if k == 1:
            return np.arange(self.universe, dtype=np.int64)[:, None]
        return join_rows(self.heavy_prev)

    def build_report(self, k: int) -> LocalReport:
        """Count every level-k candidate and report the locally frequent ones,
        even none, so the center can tell "nothing frequent" from "no reply".
        ``local_prune`` would drop no candidate: each (k-1)-subset is heavy
        here, so the least subset count already clears the site threshold."""
        candidates = self.local_candidates(k)
        counts = self.matrix.count(candidates)
        frequent = counts >= self.site_threshold
        self.closed = False
        self.last_candidates = candidates
        self.reported = LocalReport(
            candidates[frequent], counts[frequent], site_id=self.site_id, k=k
        )
        return self.reported

    def _check_level(self, what: str, k: int) -> None:
        if k != self.reported.k:
            raise ProtocolError(
                f"site {self.site_id}: {what} for level {k} during level {self.reported.k}"
            )

    def handle_count_request(self, req: CountRequest) -> CountResponse:
        """Answer exact local counts from the matrix (no raw rescan). A level
        a GlobalResult has closed takes no more requests."""
        self._check_level("count request", req.k)
        if self.closed:
            raise ProtocolError(
                f"site {self.site_id}: count request for closed level {req.k}"
            )
        return CountResponse(
            req.rows, self.matrix.count(req.rows), site_id=self.site_id, k=req.k
        )

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
        reported = find_rows(row_keys(self.reported.rows), result.rows)[1]
        self.heavy_prev = result.rows[reported]


class AggregationOutcome(NamedTuple):
    """One level's aggregation: the itemsets decided frequent without a poll
    and those the max-count bound pruned, as rows, and one count request per
    polled site."""

    immediately_frequent: np.ndarray
    pruned: np.ndarray
    requests: dict[int, CountRequest]


class CenterSite:
    """Combines local reports into global decisions for one level at a time.

    A level's itemsets are int64 rows, as in the messages: the reports are
    grouped by row with one sort, and every decision is a mask over the
    groups."""

    def __init__(self, site_sizes: list[int], minsup: Fraction) -> None:
        self.n_sites = len(site_sizes)
        self.total_size = sum(site_sizes)
        self.global_threshold = threshold(minsup, self.total_size)
        self.site_thresholds = [threshold(minsup, d) for d in site_sizes]
        self.level = 0
        self._open(
            np.empty((0, self.level), dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty((0, self.n_sites), dtype=bool),
        )

    def _open(self, rows: np.ndarray, totals: np.ndarray, awaiting: np.ndarray) -> None:
        """This level's immediate and polled itemsets as sorted rows (and
        their keys), their running totals, and the sites each still waits on."""
        self._rows, self._keys = rows, row_keys(rows)
        self._totals, self._awaiting = totals, awaiting

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

        reports = sorted(reports, key=lambda r: r.site_id)
        rows = np.concatenate([r.rows for r in reports])
        order, first = _runs(rows)
        site = np.repeat(np.arange(self.n_sites), [len(r.rows) for r in reports])
        present = np.zeros((np.count_nonzero(first), self.n_sites), dtype=bool)
        present[np.cumsum(first) - 1, site[order]] = True
        supports = np.concatenate([r.supports for r in reports])[order]
        reported = np.add.reduceat(supports, np.flatnonzero(first))
        silent = ~present
        max_count = reported + silent @ (np.array(self.site_thresholds) - 1)
        kept = max_count >= self.global_threshold
        itemsets = rows[order[first]]
        self._open(itemsets[kept], reported[kept], silent[kept])

        requests = {
            i: CountRequest(self._rows[wanted], k=k)
            for i, wanted in enumerate(self._awaiting.T)
            if wanted.any()
        }
        polled = self._awaiting.any(axis=1)
        return AggregationOutcome(self._rows[~polled], itemsets[~kept], requests)

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
            at, asked = find_rows(self._keys, resp.rows)
            if 0 <= resp.site_id < self.n_sites:
                asked[asked] = self._awaiting[at[asked], resp.site_id]
            else:
                asked[:] = False
            if not asked.all():
                x = tuple(resp.rows[asked.argmin()].tolist())
                raise ProtocolError(
                    f"site {resp.site_id} answered unrequested itemset {x!r}"
                )
            self._awaiting[at, resp.site_id] = False
            self._totals[at] += resp.supports
        waiting = self._awaiting.any(axis=1)
        if waiting.any():
            still_waiting = list(map(tuple, self._rows[waiting].tolist()))
            raise ProtocolError(f"missing count responses for {still_waiting!r}")

        frequent = self._totals >= self.global_threshold
        result = GlobalResult(
            self._rows[frequent],
            self._totals[frequent],
            k=self.level,
            continue_flag=int(np.count_nonzero(frequent)) > self.level,
        )
        self._open(self._rows[:0], self._totals[:0], self._awaiting[:0])
        return result


class ImprovedRun:
    """One deterministic simulated run of the distributed protocol.

    Rounds are barrier-synchronized and all actors run in-process; state
    moves only through protocol messages. ``run`` hands the shared loop
    (``miner.mine_levels``) one round per level. After ``run()`` the
    instance exposes per-round metrics, the full message trace, the sites
    (for scan counters), and the rows the max-count bound pruned per level.
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
        self.maxcount_pruned: list[np.ndarray] = []
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
            reports = []
            for site in self.sites:
                rep = site.build_report(k)
                self.log.send(f"site:{site.site_id}", "center", rep)
                reports.append(rep)
            candidates = np.concatenate([site.last_candidates for site in self.sites])

            _, pruned, requests = self.center.aggregate(reports)
            self.maxcount_pruned.append(pruned)

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

            distinct = int(np.count_nonzero(_runs(candidates)[1]))
            yield outcome.rows, outcome.supports, distinct, sum(len(r.rows) for r in reports)
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
