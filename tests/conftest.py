from contextlib import contextmanager

import numpy as np
import pytest

from distmine import LocalSite, TransactionDb, generate_synthetic, load_fimi
from distmine.messages import MessageLog
from distmine.protocol import local_prune

# The running supermarket example: transactions ABC / ABDE / ACE with items
# labeled A..E = 1..5 (item 0 unused).
MARKET_FIMI = "1 2 3\n1 2 4 5\n1 3 5\n"
A, B, C, D, E = 1, 2, 3, 4, 5

MARKET_FREQUENT = {
    (A,): 3,
    (B,): 2,
    (C,): 2,
    (E,): 2,
    (A, B): 2,
    (A, C): 2,
    (A, E): 2,
}


@pytest.fixture
def market_db() -> TransactionDb:
    return load_fimi(MARKET_FIMI)


@pytest.fixture
def market_db_zero_indexed() -> TransactionDb:
    """Same database with A..E = 0..4, so the matrix has exactly 5 columns."""
    return load_fimi("0 1 2\n0 1 3 4\n0 2 4\n")


def mine(run) -> tuple:
    """Run a distributed miner (an ``ImprovedRun`` or a
    ``CountDistributionRun``); its result and per-round metrics."""
    return run.run(), run.metrics


def corpus_db(seed: int) -> TransactionDb:
    """Deterministic small database #seed (8..40 transactions, 4..10 items)."""
    n_txns = 8 + (seed * 7) % 33
    n_items = 4 + (seed * 5) % 7
    avg_len = 2 + seed % 3
    return generate_synthetic(n_txns, n_items, avg_len, seed=1000 + seed)


def random_raw_db(rng: np.random.Generator, max_txns: int, max_items: int) -> TransactionDb:
    """Hand-rolled random database, independent of generate_synthetic."""
    n_items = int(rng.integers(1, max_items + 1))
    n_txns = int(rng.integers(1, max_txns + 1))
    transactions = []
    for _ in range(n_txns):
        length = int(rng.integers(1, n_items + 1))
        items = rng.choice(n_items, size=length, replace=False)
        transactions.append(tuple(sorted(int(i) for i in items)))
    return TransactionDb(transactions=tuple(transactions), universe=n_items)


@contextmanager
def local_prune_checks():
    """While the block runs, each ``LocalSite.build_report`` at k > 1 also
    runs ``local_prune`` on the site's candidates with the previous level's
    reported counts. Yields a list that collects (k, site_id, dropped), the
    candidates the prune would have dropped, per call."""
    checks = []
    build = LocalSite.build_report

    def checked(site, k):
        rows = site.candidates[site.reported.mask]
        bounds = dict(zip(map(tuple, rows.tolist()), site.reported.supports.tolist()))
        report = build(site, k)
        if k > 1:
            candidates = list(map(tuple, site.candidates[site.counted].tolist()))
            kept = local_prune(candidates, bounds, site.site_threshold)
            checks.append((k, site.site_id, sorted(set(candidates) - set(kept))))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LocalSite, "build_report", checked)
        yield checks


@contextmanager
def delivering(mutate):
    """While the block runs, ``MessageLog.send`` records each message as
    before and delivers ``mutate(src, dst, msg)`` in its place, so a test can
    see or change every message in flight."""
    send = MessageLog.send

    def delivered(log, src, dst, msg):
        send(log, src, dst, msg)
        return mutate(src, dst, msg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MessageLog, "send", delivered)
        yield


def remade(msg, **changes):
    """A message of ``msg``'s type with fresh copies of its arrays and the
    fields named in ``changes`` replaced."""
    fields = {name: getattr(msg, name) for name in msg._names()}
    fields.update(changes)
    body = [np.array(fields[name]) for name in msg.BODY]
    return type(msg)(*body, **{name: fields[name] for name in msg.HEADER})
