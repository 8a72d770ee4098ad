"""Center-coordinated distributed mining with heavy-set candidate pruning.

Each site keeps its partition as a bit matrix and reports only locally
frequent candidates; the center combines reports, bounds the global count
of partially reported itemsets, polls the silent sites for survivors, and
broadcasts each level's globally frequent itemsets. Message traffic per
level stays within 4n for n sites: n reports, at most n batched count
requests, their responses, and n result broadcasts.

Every party is given the run's universe U, as the center is given the site
sizes, and computes the same candidate list C_k: every item 0..U-1 at
level 1, then the join of the last result. So a report, a request and a
result name their itemsets by a bit mask over C_k at every level, and a
site's own candidates are the rows of C_k all of whose (k-1)-subsets are
heavy there. A response carries only counts, in the order of its request,
and a result carries no counts: the center keeps them and writes the mining
result. Sites and center hold a level's itemsets as int64 row arrays and
masks over them, so no step loops over itemsets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .dataset import Itemset, TransactionDb
from .lmatrix import LMatrix, ScanCounter
from .messages import CountRequest, CountResponse, GlobalResult, LocalReport, MessageLog
from .miner import MiningResult, RoundMetrics, join_rows, mine_levels, parse_minsup, threshold


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


def _refuse(msg: LocalReport | CountResponse, rows: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise ProtocolError naming the site, the level and the first of the
    itemsets ``rows`` that ``bad`` marks; ``msg`` carries their counts, one
    per row, and ``{}`` in ``what`` takes the marked one."""
    if bad.any():
        i = int(bad.argmax())
        x, count = tuple(rows[i].tolist()), msg.supports[i]
        raise ProtocolError(f"site {msg.site_id} {what.format(count)} {x!r} at level {msg.k}")


def candidate_list(k: int, universe: int, frequent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C_k and, for each of its rows, where its (k-1)-subsets are in
    ``frequent``, the rows of the last result: every item below
    ``universe`` at k=1, which has no subsets to look up, and
    ``join_rows(frequent)`` after."""
    if k == 1:
        return np.arange(universe, dtype=np.int64)[:, None], np.empty((universe, 0), dtype=np.intp)
    return join_rows(frequent)


def _check_mask(route: str, msg, candidates: np.ndarray) -> None:
    """A level-k mask has one bit per row of C_k, ``candidates``; ``route``
    names where ``msg`` went in the error."""
    if len(msg.mask) != len(candidates):
        raise ProtocolError(
            f"{route}: a {type(msg).__name__} masking {len(msg.mask)} itemsets"
            f" at level {msg.k}, where C_{msg.k} holds {len(candidates)}"
        )


class LocalSite:
    """Per-partition state machine: builds reports, answers count requests,
    and tracks which itemsets are heavy here (locally and globally frequent).

    Itemsets are int64 arrays with one itemset per row, in lexicographic
    order, and each step is a few numpy calls over a whole level. The site
    keeps ``frequent``, the rows of the last GlobalResult, with ``heavy``,
    the mask of those it reported; ``candidates``, the open level's
    candidate list C_k (``candidate_list`` over the run's ``universe``), with
    ``counted``, the mask of those it counted; and ``reported``, the last
    report sent, whose mask is over ``candidates``."""

    def __init__(self, site_id: int, part: TransactionDb, minsup: Fraction, universe: int) -> None:
        if part.size == 0:
            raise ValueError(f"site {site_id}: empty partition")
        if part.universe > universe:
            raise ValueError(f"site {site_id}: items outside the run's universe of {universe}")
        self.site_id = site_id
        self.scan_counter = ScanCounter()
        self.matrix = LMatrix.from_db(part, self.scan_counter)
        self.size = part.size
        self.site_threshold = threshold(minsup, part.size)
        self.universe = universe
        self.closed = False  # a GlobalResult has closed the reported level
        self.frequent = self.candidates = np.empty((0, 1), dtype=np.int64)
        self.heavy = self.counted = np.empty(0, dtype=bool)
        self.reported = LocalReport(self.counted, np.empty(0, dtype=np.int64), site_id=site_id, k=1)

    def local_candidates(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The level-k candidate list C_k and the mask of those this site
        counts: the rows all of whose (k-1)-subsets are heavy here, so every
        item at k=1. From level 2 on those are the join of the heavy
        itemsets: each is the join of its two subsets that share a prefix."""
        candidates, subsets = candidate_list(k, self.universe, self.frequent)
        return candidates, self.heavy[subsets].all(axis=1)

    def build_report(self, k: int) -> LocalReport:
        """Count every level-k candidate of this site and report the locally
        frequent ones, even none, so the center can tell "nothing frequent"
        from "no reply". ``local_prune`` would drop no candidate: each
        (k-1)-subset is heavy here, so the least subset count already clears
        the site threshold."""
        self.candidates, self.counted = self.local_candidates(k)
        counts = np.zeros(len(self.candidates), dtype=np.int64)
        counts[self.counted] = self.matrix.count(self.candidates[self.counted])
        # The threshold is at least 1, so only counted rows qualify.
        named = counts >= self.site_threshold
        self.closed = False
        self.reported = LocalReport(named, counts[named], site_id=self.site_id, k=k)
        return self.reported

    def _check_level(self, what: str, k: int) -> None:
        if k != self.reported.k:
            raise ProtocolError(
                f"site {self.site_id}: {what} for level {k} during level {self.reported.k}"
            )

    def handle_count_request(self, req: CountRequest) -> CountResponse:
        """Answer exact local counts from the matrix (no raw rescan), one per
        requested itemset in the request's order. A level a GlobalResult has
        closed takes no more requests."""
        self._check_level("count request", req.k)
        if self.closed:
            raise ProtocolError(
                f"site {self.site_id}: count request for closed level {req.k}"
            )
        _check_mask(f"site {self.site_id}", req, self.candidates)
        counts = self.matrix.count(self.candidates[req.mask])
        return CountResponse(counts, site_id=self.site_id, k=req.k)

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
        _check_mask(f"site {self.site_id}", result, self.candidates)
        self.closed = True
        self.frequent = self.candidates[result.mask]
        self.heavy = self.reported.mask[result.mask]


class CenterSite:
    """Combines local reports into global decisions, numbering the levels
    itself. An open level is its candidate list C_k (``candidate_list`` over
    the run's ``universe``), a (C_k x sites) count matrix, -1 where a count
    is not known, so a count is bounds-checked before it is stored, and the
    mask over C_k of the rows the max-count bound kept; every message masks
    C_k too. The request to site i is its kept rows still at -1, and its
    answer, counts only, fills them in that order.
    ``frequent`` holds the rows of the last GlobalResult, ``supports`` their
    global counts and ``heavy`` which sites reported each: every
    (k-1)-subset of a row site i reports at level k must be heavy at i."""

    def __init__(self, site_sizes: list[int], minsup: Fraction, universe: int) -> None:
        self.n_sites = len(site_sizes)
        self.universe = universe
        self.site_sizes = np.array(site_sizes)
        self.total_size = sum(site_sizes)
        self.global_threshold = threshold(minsup, self.total_size)
        self.site_thresholds = np.array([threshold(minsup, d) for d in site_sizes])
        self.level = 0  # the last level aggregated
        self.open = self.stopped = False
        self.frequent = np.empty((0, 0), dtype=np.int64)  # no result yet
        self.supports = np.empty(0, dtype=np.int64)
        self.heavy = np.empty((0, self.n_sites), dtype=bool)

    def aggregate(self, reports: list[LocalReport]) -> tuple:
        """Process one report per site: decide fully reported itemsets on the
        spot, bound the rest, and batch one count request per silent site.
        Returns the rows decided frequent without a poll, the rows the
        max-count bound pruned, and the request to each polled site.

        An itemset reported by every site has its exact global count (the sum)
        and each addend cleared its local threshold, so it is frequent without
        polling. Otherwise a silent site can contribute at most its local
        threshold minus one; if even that optimistic total misses the global
        threshold the itemset is pruned, else the silent sites are polled.
        """
        if self.open or self.stopped:
            why = "is still open" if self.open else "stopped the run"
            raise ProtocolError(f"reports after level {self.level}, which {why}")
        if sorted(r.site_id for r in reports) != list(range(self.n_sites)):
            raise ProtocolError("expected exactly one report per site")
        k = self.level + 1
        if any(r.k != k for r in reports):
            levels = sorted({r.k for r in reports})
            raise ProtocolError(f"reports for levels {levels}, expected level {k}")
        reports = sorted(reports, key=lambda r: r.site_id)
        candidates, subsets = candidate_list(k, self.universe, self.frequent)
        for r in reports:
            _check_mask(f"site {r.site_id} to the center", r, candidates)
        counts = np.full((len(candidates), self.n_sites), -1, dtype=np.int64)
        for r in reports:
            i = np.flatnonzero(r.mask)
            low, high = self.site_thresholds[r.site_id], self.site_sizes[r.site_id]
            bad = (r.supports < low) | (r.supports > high)
            _refuse(r, candidates[i], bad, f"reported count {{}} outside [{low}, {high}] for itemset")
            bad = ~self.heavy[subsets[i], r.site_id].all(axis=1)
            what = f"reported a subset it did not have heavy at level {k - 1} in itemset"
            _refuse(r, candidates[i], bad, what)
            counts[i, r.site_id] = r.supports

        # Only itemsets some site reported are decided.
        reported = counts >= 0
        decided = np.flatnonzero(reported.any(axis=1))
        seen = counts[decided]
        max_count = np.where(seen < 0, self.site_thresholds - 1, seen).sum(axis=1)
        bounded = max_count >= self.global_threshold
        kept = np.zeros(len(candidates), dtype=bool)
        kept[decided[bounded]] = True
        self._candidates, self._counts, self._kept = candidates, counts, kept
        self.level, self.open = k, True

        polled = (~reported[:, i] & kept for i in range(self.n_sites))
        requests = {i: CountRequest(w, k=k) for i, w in enumerate(polled) if w.any()}
        return candidates[kept & reported.all(axis=1)], candidates[decided[~bounded]], requests

    def finalize(self, responses: list[CountResponse]) -> GlobalResult:
        """Write poll answers into their cells and close the level. Exactly
        the polled sites answer, once each, with one count per requested
        itemset.

        The frequent itemsets are the totals that reach the global threshold,
        already in (length, lex) order; fully reported ones always do, since
        the sum of the site thresholds is at least the global one. The loop
        continues only if the level produced more frequent itemsets than its
        own size k (any (k+1)-itemset needs k+1 frequent k-subsets). The
        result carries no counts; the center keeps them.
        """
        if not self.open:
            raise ProtocolError(f"no open level to finalize after level {self.level}")
        candidates, counts, kept, k = self._candidates, self._counts, self._kept, self.level
        asked, answered = (counts < 0) & kept[:, None], set()
        for resp in responses:
            i = resp.site_id
            if resp.k != k or not (0 <= i < self.n_sites and asked[:, i].any()):
                raise ProtocolError(f"site {i} answered unrequested level {resp.k} itemsets")
            if i in answered:
                raise ProtocolError(f"site {i} answered level {k} twice")
            answered.add(i)
            at = np.flatnonzero(asked[:, i])
            if resp.n_itemsets != len(at):
                raise ProtocolError(
                    f"site {i} answered {resp.n_itemsets} counts at level {k}, asked for {len(at)}"
                )
            high = self.site_thresholds[i] - 1
            bad = (resp.supports < 0) | (resp.supports > high)
            what = f"answered count {{}} outside [0, {high}] for itemset"
            _refuse(resp, candidates[at], bad, what)
            counts[at, i] = resp.supports
        waiting = kept & (counts < 0).any(axis=1)
        if waiting.any():
            still_waiting = list(map(tuple, candidates[waiting].tolist()))
            raise ProtocolError(f"missing count responses for {still_waiting!r}")

        totals = counts[kept].sum(axis=1)
        frequent = kept.copy()
        frequent[kept] = totals >= self.global_threshold
        self.frequent, self.supports = candidates[frequent], totals[frequent[kept]]
        self.heavy = ~asked[frequent]
        self.open, self.stopped = False, int(np.count_nonzero(frequent)) <= k
        return GlobalResult(frequent, k=k, continue_flag=not self.stopped)


class ImprovedRun:
    """One deterministic simulated run of the distributed protocol.

    Rounds are barrier-synchronized and all actors run in-process; state
    moves only through protocol messages. ``run`` hands the shared loop
    (``miner.mine_levels``) one round per level. After ``run()`` the
    instance exposes per-round metrics, the full message trace, the sites
    (for scan counters), and the rows the max-count bound pruned per level.
    """

    def __init__(self, partitions: list[TransactionDb], minsup) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        self.minsup = parse_minsup(minsup)
        universe = max(p.universe for p in partitions)
        self.sites = [
            LocalSite(i, part, self.minsup, universe) for i, part in enumerate(partitions)
        ]
        self.center = CenterSite([s.size for s in self.sites], self.minsup, universe)
        self.log = MessageLog()
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
        """One protocol round per level, for ``mine_levels``, in which each
        receiver acts on the message ``MessageLog.send`` delivers. Level 1
        always runs; the rounds stop when the center clears ``continue_flag``.
        The result's counts are the center's."""
        send = self.log.send
        for k in itertools.count(1):
            reports = [send(f"site:{s.site_id}", "center", s.build_report(k)) for s in self.sites]
            _, pruned, requests = self.center.aggregate(reports)
            self.maxcount_pruned.append(pruned)

            responses = [
                send(f"site:{i}", "center", self.sites[i].handle_count_request(
                    send("center", f"site:{i}", requests[i])))
                for i in sorted(requests)
            ]
            outcome = self.center.finalize(responses)
            for site in self.sites:
                site.update_heavy(send("center", f"site:{site.site_id}", outcome))

            # The distinct candidates of C_k counted anywhere.
            distinct = int(np.count_nonzero(np.logical_or.reduce([s.counted for s in self.sites])))
            entries = sum(r.n_itemsets for r in reports)
            yield self.center.frequent, self.center.supports, distinct, entries
            if not outcome.continue_flag:
                return
