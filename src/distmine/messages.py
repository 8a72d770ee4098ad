"""Typed site/center messages, their canonical encoding, and trace recording.

Every exchange between actors is a self-contained, serializable value, and
every one goes through ``MessageLog.send``, which returns the message the
receiver acts on; a real transport replaces that one method and leaves the
algorithms untouched. A message is columnar and is about m level-k itemsets.
A LocalReport or GlobalResult carries them as the rows of a read-only (m, k)
int64 array ``rows`` in strictly rising lexicographic order, with their
counts as the read-only int64 vector ``supports``; a CountRequest carries
the rows alone; a CountResponse carries the counts alone, in the order of
the request it answers, since the center already holds those rows. A message
is built from its arrays and its header fields, as in
``LocalReport(rows, supports, site_id=0, k=2)`` or
``CountResponse(supports, site_id=0, k=2)``. ``encode`` writes a message in
the canonical encoding (8 bytes per header field, 4 per item id, 8 per
count) and ``decode`` reads it back, so byte metrics are real, measured
bytes and implementation-independent.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dataset import Itemset


def _check_sorted(rows: np.ndarray, k: int) -> None:
    """Every itemset of a level-k message has k items, and the rows are in
    strictly rising lexicographic order; with one length, that is the
    (length, lex) order."""
    if rows.ndim != 2 or rows.shape[1] != k:
        raise ValueError(f"a level-{k} message carries only {k}-itemsets")
    # A row follows its neighbour iff it is greater in the first column where
    # they differ; in a repeat that is column 0, where they are equal.
    first = (rows[1:] != rows[:-1]).argmax(axis=1, keepdims=True)
    if not np.take_along_axis(rows[1:] > rows[:-1], first, 1).all():
        raise ValueError("message itemsets must be (length, lex) sorted and duplicate-free")


def read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class _Columnar:
    """The body every message shares: the header fields named in ``HEADER``
    (``k`` among them) and the arrays named in ``BODY``, ``rows``,
    ``supports`` or both. Messages are immutable and compare by value."""

    HEADER: tuple[str, ...]
    BODY = ("rows", "supports")

    def __init__(self, *body, **header) -> None:
        """The message with the ``HEADER`` fields given by keyword and the
        ``BODY`` arrays in order. The arrays are not copied: the message
        holds read-only views of them."""
        if sorted(header) != sorted(self.HEADER) or len(body) != len(self.BODY):
            raise TypeError(f"{type(self).__name__} has the fields {self._names()}")
        k = header["k"]
        if k < 1:
            raise ValueError(f"a message's level is at least 1, got {k}")
        fields = dict(zip(self.BODY, (np.asarray(a, dtype=np.int64) for a in body)))
        if "rows" in fields:
            _check_sorted(fields["rows"], k)
        if "supports" in fields:
            m = len(fields.get("rows", fields["supports"]))
            if fields["supports"].shape != (m,):
                raise ValueError("a message carries one count per itemset")
        self.__dict__.update(header, **{f: read_only(a) for f, a in fields.items()})

    @property
    def n_itemsets(self) -> int:
        """The number of itemsets the message is about."""
        return len(getattr(self, self.BODY[0]))

    def _names(self) -> tuple[str, ...]:
        return self.HEADER + self.BODY

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self._names())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self._fields(), other._fields()))

    def __hash__(self) -> int:
        return hash(tuple(np.asarray(f).tobytes() for f in self._fields()))

    def __repr__(self) -> str:
        header = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.HEADER)
        return f"{type(self).__name__}({header}, itemsets={self.n_itemsets})"


class LocalReport(_Columnar):
    """A site's locally frequent candidates for level k, with local counts."""

    HEADER = ("site_id", "k")


class CountRequest(_Columnar):
    """Center asks a site for the local counts of the given itemsets."""

    HEADER = ("k",)
    BODY = ("rows",)

    @functools.cached_property
    def itemsets(self) -> tuple[Itemset, ...]:
        """The itemsets as tuples, made on first use; kept for bench/tracer.py."""
        return tuple(map(tuple, self.rows.tolist()))


class CountResponse(_Columnar):
    """A site's answer to a CountRequest: one count per requested itemset,
    in the request's order."""

    HEADER = ("site_id", "k")
    BODY = ("supports",)


class GlobalResult(_Columnar):
    """Globally frequent level-k itemsets with global counts; continue_flag
    False tells sites the level-wise loop is over."""

    HEADER = ("k", "continue_flag")


ProtocolMessage = Union[LocalReport, CountRequest, CountResponse, GlobalResult]


def _item_bytes(cls: type, k: int) -> int:
    """Bytes one itemset takes in a level-k message of type ``cls``: its k
    item ids, if the type carries rows, and its count, if it carries counts."""
    return 4 * k * ("rows" in cls.BODY) + 8 * ("supports" in cls.BODY)


def canonical_size(msg: ProtocolMessage) -> int:
    """Canonical payload size in bytes: 8 per header field, then 4 per item
    id and 8 per count the message carries; ``len(encode(msg))``."""
    return 8 * len(msg.HEADER) + _item_bytes(type(msg), msg.k) * msg.n_itemsets


def encode(msg: ProtocolMessage) -> bytes:
    """The canonical encoding of ``msg``: its header fields as little-endian
    int64, then its item ids as little-endian uint32, row by row, then its
    counts as little-endian int64. An id outside [0, 2**32) raises
    ValueError."""
    parts = [np.array([getattr(msg, f) for f in msg.HEADER], dtype="<i8")]
    if "rows" in msg.BODY:
        rows = msg.rows
        if rows.size and (rows.min() < 0 or rows.max() >= 1 << 32):
            raise ValueError("item ids outside [0, 2**32) have no canonical encoding")
        parts.append(rows.astype("<u4"))
    if "supports" in msg.BODY:
        parts.append(msg.supports.astype("<i8"))
    return b"".join(part.tobytes() for part in parts)


def decode(cls: type, data: bytes) -> ProtocolMessage:
    """The message of type ``cls`` that ``encode`` wrote as ``data``; data
    of a length that holds no whole number of itemsets raises ValueError."""
    head, partial = 8 * len(cls.HEADER), ValueError(f"{len(data)} bytes hold no {cls.__name__}")
    if len(data) < head:
        raise partial
    header = dict(zip(cls.HEADER, np.frombuffer(data, dtype="<i8", count=len(cls.HEADER)).tolist()))
    if "continue_flag" in header:
        header["continue_flag"] = bool(header["continue_flag"])
    k = header["k"]
    if k < 1 or (len(data) - head) % _item_bytes(cls, k):
        raise partial
    m = (len(data) - head) // _item_bytes(cls, k)
    body, offset = [], head
    if "rows" in cls.BODY:
        ids = np.frombuffer(data, dtype="<u4", count=m * k, offset=offset)
        body.append(ids.astype(np.int64).reshape(m, k))
        offset += 4 * m * k
    if "supports" in cls.BODY:
        body.append(np.frombuffer(data, dtype="<i8", count=m, offset=offset).astype(np.int64))
    return cls(*body, **header)


@dataclass(frozen=True)
class TraceRecord:
    """One sent message, as recorded in the optional run trace."""

    seq: int
    src: str
    dst: str
    k: int
    type: str
    items: int
    bytes: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "from": self.src,
                "to": self.dst,
                "k": self.k,
                "type": self.type,
                "items": self.items,
                "bytes": self.bytes,
            },
            separators=(",", ":"),
        )


# The center rides on site 0, so their exchanges never cross the network.
COLOCATED_PAIR = frozenset(("site:0", "center"))


class MessageLog:
    """Records every message and accumulates message/byte counters.

    When ``count_colocated`` is False, exchanges between the co-located
    site 0 and center still appear in the trace but are excluded from the
    counters.
    """

    def __init__(self, count_colocated: bool = True) -> None:
        self.trace: list[TraceRecord] = []
        self.messages_sent = 0
        self.payload_bytes = 0
        self.count_colocated = count_colocated

    def send(self, src: str, dst: str, msg: ProtocolMessage) -> ProtocolMessage:
        """Record ``msg`` from ``src`` to ``dst`` and deliver it: the return
        value is the message ``dst`` receives, in process ``msg`` itself."""
        size = canonical_size(msg)
        self.trace.append(
            TraceRecord(
                seq=len(self.trace),
                src=src,
                dst=dst,
                k=msg.k,
                type=type(msg).__name__,
                items=msg.n_itemsets,
                bytes=size,
            )
        )
        if self.count_colocated or frozenset((src, dst)) != COLOCATED_PAIR:
            self.messages_sent += 1
            self.payload_bytes += size
        return msg
