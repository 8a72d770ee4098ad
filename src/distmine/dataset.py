"""Transaction databases: FIMI-format ingestion, synthetic generation, partitioning.

A transaction database is stored in CSR (compressed sparse row) form: two
int64 arrays, ``items`` holding every transaction's item ids back to back and
``indptr`` the row offsets, so transaction r is
``items[indptr[r]:indptr[r + 1]]``. Items within a transaction are strictly
ascending and duplicate-free, so a transaction doubles as an itemset. Parsing,
generation, partitioning and the bit-matrix build work on the two arrays;
``TransactionDb.transactions`` is a tuple view made on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

Itemset = tuple[int, ...]

PARTITION_STRATEGIES = ("contiguous", "round-robin", "random")

INT64_MAX = (1 << 63) - 1

# Bytes each working buffer of a chunked kernel may hold: the generator's
# draw, a block of the bit-matrix build and a chunk of ``LMatrix.count``.
CHUNK_BYTES = 1 << 18


class FimiFormatError(ValueError):
    """Raised when FIMI input contains a token that is not a non-negative integer."""


def _offsets(lengths: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


class TransactionDb:
    """Transactions over items 0 .. universe-1, in CSR form.

    ``indptr`` (``size + 1`` row offsets from 0) and ``items`` are read-only
    int64 arrays; transaction r is ``items[indptr[r]:indptr[r + 1]]``,
    strictly ascending, every id below ``universe``. The constructor takes
    the transactions as sequences of ints and checks them once, raising
    ValueError on the first one that breaks these rules. Databases made from
    data already in this form (parsed, generated, sliced or gathered from a
    checked database) skip the check. Instances are immutable and safe to
    share.
    """

    def __init__(self, transactions: Iterable[Itemset], universe: int) -> None:
        if universe < 0:
            raise ValueError("universe must be non-negative")
        rows = tuple(transactions)
        for t in rows:
            if any(a >= b for a, b in zip(t, t[1:])):
                raise ValueError(f"transaction {t!r} is not strictly ascending")
            if t and (t[0] < 0 or t[-1] >= universe):
                raise ValueError(f"transaction {t!r} has items outside universe {universe}")
        indptr = _offsets(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)))
        try:
            items = np.fromiter(
                itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
            )
        except OverflowError:
            raise ValueError(f"item ids must not exceed {INT64_MAX}") from None
        self._set(indptr, items, universe)

    @classmethod
    def _trusted(
        cls, indptr: np.ndarray, items: np.ndarray, universe: int
    ) -> "TransactionDb":
        """A database over arrays known to be in CSR form; nothing is checked."""
        db = cls.__new__(cls)
        db._set(indptr, items, universe)
        return db

    def _set(self, indptr: np.ndarray, items: np.ndarray, universe: int) -> None:
        indptr.flags.writeable = False
        items.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "universe", universe)

    def __setattr__(self, name, value):
        raise AttributeError(f"TransactionDb is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionDb):
            return NotImplemented
        return (
            self.universe == other.universe
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.items, other.items)
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.indptr.tobytes(), self.items.tobytes()))

    def __repr__(self) -> str:
        return (
            f"TransactionDb(size={self.size}, universe={self.universe}, "
            f"pairs={len(self.items)})"
        )

    @property
    def size(self) -> int:
        """Number of transactions."""
        return len(self.indptr) - 1

    @functools.cached_property
    def transactions(self) -> tuple[Itemset, ...]:
        """The transactions as tuples of Python ints, built on first use."""
        flat = self.items.tolist()
        bounds = self.indptr.tolist()
        return tuple(tuple(flat[s:e]) for s, e in zip(bounds, bounds[1:]))

    def slice(self, start: int, stop: int) -> "TransactionDb":
        """Transactions ``start .. stop-1`` (0 <= start <= stop <= size),
        sharing this database's item array."""
        if not 0 <= start <= stop <= self.size:
            raise ValueError(f"rows {start}..{stop} outside 0..{self.size}")
        lo, hi = self.indptr[start], self.indptr[stop]
        return TransactionDb._trusted(
            self.indptr[start : stop + 1] - lo, self.items[lo:hi], self.universe
        )

    def take(self, rows: np.ndarray) -> "TransactionDb":
        """The transactions at the row indices ``rows``, in that order."""
        lengths = np.diff(self.indptr)[rows]
        indptr = _offsets(lengths)
        # Item j of the result sits at its row's start in self.items plus
        # its offset within the row.
        shift = np.repeat(self.indptr[rows] - indptr[:-1], lengths)
        shift += np.arange(indptr[-1])
        items = self.items[shift]
        return TransactionDb._trusted(indptr, items, self.universe)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a database across sites.

    ``seed`` is consulted only by the "random" strategy.
    """

    n_sites: int
    strategy: str = "contiguous"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if self.strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {self.strategy!r}; expected one of {PARTITION_STRATEGIES}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False
_FIMI_CHUNK = 1 << 14  # characters of FIMI text parsed at once
# Bytes the array parser takes: tab, line feed, space and the digits.
_SCREENED = np.zeros(256, dtype=bool)
_SCREENED[[9, 10, 32, *range(ord("0"), ord("9") + 1)]] = True
# Every id of up to 18 digits fits int64; longer tokens go the token way.
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _rows_of(line: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, items) of the non-blank lines from at least one token, in
    ascending line order: each line's items sorted and duplicate-free."""
    same_line = line[1:] == line[:-1]
    if not ((values[1:] > values[:-1]) | ~same_line).all():
        order = np.lexsort((values, line))
        values = values[order]
        keep = np.ones(len(values), dtype=bool)
        keep[1:] = (values[1:] != values[:-1]) | ~same_line
        values, line = values[keep], line[keep]
        same_line = line[1:] == line[:-1]
    # A line's tokens are one run; a run ends where the line id changes.
    return np.diff(np.flatnonzero(~same_line), prepend=-1, append=len(line) - 1), values


def _parse_digits(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse ``\\n``-separated lines of ASCII digits, spaces and tabs with
    array operations; None if the text holds anything else or an id of more
    than 18 digits."""
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if not _SCREENED[buf].all():
        return None
    digit = np.zeros(len(buf) + 2, dtype=bool)
    digit[1:-1] = buf >= ord("0")
    # Token bounds in ``buf``: a digit after a non-digit starts one, a
    # non-digit after a digit ends one.
    starts = np.flatnonzero(digit[1:] > digit[:-1])
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    digit = digit[1:-1]
    if not len(starts):
        return _EMPTY, _EMPTY
    widths = ends - starts
    if widths.max() > len(_POW10):
        return None
    # A digit is worth 10 ** (number of digits after it in its token).
    place = np.repeat(ends, widths) - np.flatnonzero(digit) - 1
    terms = (buf[digit] - ord("0")).astype(np.int64) * _POW10[place]
    values = np.add.reduceat(terms, _offsets(widths)[:-1])
    # A token's line is the number of line feeds before its start.
    line = np.cumsum(buf == ord("\n"))[starts]
    return _rows_of(line, values)


def _parse_tokens(lines: Iterable[str], first_lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse lines token by token, raising FimiFormatError on the first bad one."""
    lengths: list[int] = []
    flat: list[int] = []
    for lineno, line in enumerate(lines, start=first_lineno):
        tokens = line.split()
        if not tokens:
            continue
        # int() also takes signs, underscores and non-ASCII digits; only a
        # line that holds one of those needs the per-token check.
        if not line.isascii() or "-" in line or "+" in line or "_" in line:
            for tok in tokens:
                if not (tok.isascii() and tok.isdigit()):
                    digits = tok[1:]
                    negative = tok[0] == "-" and digits.isascii() and digits.isdigit()
                    kind = "negative" if negative else "malformed"
                    raise FimiFormatError(f"line {lineno}: {kind} item {tok!r}")
        items = set()
        for tok in tokens:
            try:
                items.add(int(tok, 10))
            except ValueError:
                raise FimiFormatError(f"line {lineno}: malformed item {tok!r}") from None
        t = sorted(items)
        if t[-1] > INT64_MAX:
            raise FimiFormatError(
                f"line {lineno}: item {t[-1]} is above the largest id {INT64_MAX}"
            )
        lengths.append(len(t))
        flat.extend(t)
    return np.array(lengths, dtype=np.int64), np.array(flat, dtype=np.int64)


def load_fimi(source: str | IO[str] | Iterable[str]) -> TransactionDb:
    """Parse FIMI .dat text: one transaction per non-empty line.

    Items on a line are whitespace-separated runs of ASCII decimal digits,
    at most ``INT64_MAX``; duplicates within a line are dropped and items
    sorted ascending. Blank lines are skipped, so ``size`` may be smaller
    than the raw line count. The universe is inferred as 1 + the largest
    item id seen (0 if empty). Text is parsed in chunks of whole lines
    straight into the CSR arrays while the chunks hold only ASCII digits,
    spaces, tabs and ``\n``; the rest of the text from the first chunk that
    does not, or an iterable of lines, is parsed token by token.

    Raises FimiFormatError naming the offending 1-based line number.
    """
    lengths, items = [_EMPTY], [_EMPTY]
    lineno = 1
    if isinstance(source, str) or hasattr(source, "read"):
        text = source if isinstance(source, str) else source.read()
        # Chunks of whole lines go to the array parser while they pass its
        # screen; there ``\n`` is the only line break, so the lines before
        # the first chunk that fails are counted by ``\n``.
        pos = 0
        while pos < len(text):
            cut = text.find("\n", pos + _FIMI_CHUNK)
            end = len(text) if cut < 0 else cut + 1
            parsed = _parse_digits(text[pos:end])
            if parsed is None:
                break
            lengths.append(parsed[0])
            items.append(parsed[1])
            lineno += text.count("\n", pos, end)
            pos = end
        lines: Iterable[str] = text[pos:].splitlines()
    else:
        lines = source
    # What the array parser did not take goes token by token.
    parsed = _parse_tokens(lines, lineno)
    lengths.append(parsed[0])
    items.append(parsed[1])
    flat = np.concatenate(items)
    universe = int(flat.max()) + 1 if len(flat) else 0
    return TransactionDb._trusted(_offsets(np.concatenate(lengths)), flat, universe)


def dump_fimi(db: TransactionDb) -> str:
    """Render a database back to FIMI text (one line per transaction)."""
    return "".join(" ".join(str(i) for i in t) + "\n" for t in db.transactions)


def partition(db: TransactionDb, spec: PartitionSpec) -> list[TransactionDb]:
    """Split ``db`` horizontally into ``spec.n_sites`` disjoint, covering parts.

    contiguous: equal-size blocks, the first ``size % n`` blocks one larger.
    round-robin: transaction t goes to site ``t % n``.
    random: contiguous blocks of a seeded shuffle of the transaction order.

    Parts are row slices or gathers of the CSR arrays (a random part gathers
    its block of the shuffle; no whole shuffled copy is made) and inherit the
    parent universe. Raises ValueError when the database has fewer transactions
    than sites.
    """
    n = spec.n_sites
    if db.size < n:
        raise ValueError(f"cannot partition {db.size} transactions across {n} sites")

    if spec.strategy == "round-robin":
        return [db.take(np.arange(i, db.size, n)) for i in range(n)]
    base, extra = divmod(db.size, n)
    bounds = _offsets([base + (1 if i < extra else 0) for i in range(n)]).tolist()
    if spec.strategy == "random":
        order = np.random.default_rng(spec.seed).permutation(db.size)
        return [db.take(order[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    return [db.slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def generate_synthetic(
    n_transactions: int, n_items: int, avg_len: int, seed: int
) -> TransactionDb:
    """Generate a random database with rank-biased item popularity.

    Transaction lengths are Poisson(avg_len) clamped to [1, n_items]; items
    are drawn without replacement with weight 1/(rank+1), so low item ids are
    common and frequent patterns exist. Deterministic for a given seed, and
    the first k transactions of an n-transaction database equal the
    k-transaction database for the same seed (each row consumes a fixed
    amount of the random stream). Rows are drawn in chunks whose
    ``(rows, n_items + 1)`` float64 draw fits ``CHUNK_BYTES``, into buffers
    allocated once per call; only the output grows with the database.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if not 1 <= avg_len <= n_items:
        raise ValueError("avg_len must be in [1, n_items]")
    if n_transactions < 0:
        raise ValueError("n_transactions must be >= 0")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    rng = np.random.default_rng(seed)
    # Fixed-consumption length draw: one uniform per row through the inverse
    # CDF, i.e. the smallest k with P(X <= k) >= u, from a table over 0..n_items.
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_items + 1)])
    log_pmf = np.arange(n_items + 1) * math.log(avg_len) - avg_len - log_fact
    cdf = np.cumsum(np.exp(log_pmf))
    exponents = np.arange(1, n_items + 1, dtype=np.float64)
    ranks = np.arange(n_items)
    chunk = max(1, min(CHUNK_BYTES // (8 * (n_items + 1)), n_transactions))
    # The draws, keys, sorted keys and winner mask of a chunk.
    buffers = (
        np.empty((chunk, n_items + 1)),
        np.empty((chunk, n_items)),
        np.empty((chunk, n_items)),
        np.empty((chunk, n_items), dtype=bool),
    )
    lengths, items = [_EMPTY], [_EMPTY]
    for start in range(0, n_transactions, chunk):
        rows = min(chunk, n_transactions - start)
        u, keys, sorted_keys, picked = (b[:rows] for b in buffers)
        # Consecutive draws continue one stream, so chunking keeps the bytes.
        rng.random(out=u)
        length = np.searchsorted(cdf, u[:, 0])
        np.clip(length, 1, n_items, out=length)
        # Weighted sampling without replacement: key_i = u_i ** (1/w_i) with
        # w_i = 1/(i+1); the row's ``length`` largest keys win
        # (Efraimidis-Spirakis). A mask of the winners lists them in
        # ascending id order.
        np.power(u[:, 1:], exponents, out=keys)
        np.copyto(sorted_keys, keys)
        sorted_keys.sort(axis=1)
        kth = sorted_keys[np.arange(rows), n_items - length]
        np.greater_equal(keys, kth[:, None], out=picked)
        # A tie across the cut (keys that underflow to 0) goes to the lower
        # ids, as in a stable sort of the keys in descending order.
        tied = np.flatnonzero(np.count_nonzero(picked, axis=1) != length)
        if len(tied):
            order = np.argsort(-keys[tied], axis=1, kind="stable")
            fix = np.zeros((len(tied), n_items), dtype=bool)
            np.put_along_axis(fix, order, ranks < length[tied, None], axis=1)
            picked[tied] = fix
        lengths.append(length)
        items.append(np.flatnonzero(picked) % n_items)
    return TransactionDb._trusted(
        _offsets(np.concatenate(lengths)), np.concatenate(items), n_items
    )
