"""Typed site/center messages, canonical payload sizing, and trace recording.

Every exchange between actors is a self-contained, serializable value, and
every one goes through ``MessageLog.send``, which returns the message the
receiver acts on; a real transport replaces that one method and leaves the
algorithms untouched. A message is columnar: its level-k itemsets are the
rows of a read-only (m, k) int64 array ``rows`` in strictly rising
lexicographic order and, except in a CountRequest, their counts are the
read-only int64 vector ``supports``. A message is built from those arrays
and its header fields, as in ``LocalReport(rows, supports, site_id=0, k=2)``.
Payload bytes follow a fixed canonical encoding (8 bytes per header field, 4
per item id, 8 per count) so byte metrics are implementation-independent.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dataset import Itemset


def _check_sorted(rows: np.ndarray, k: int) -> None:
    """A message's level k is at least 1, every itemset of a level-k message
    has k items, and the rows are in strictly rising lexicographic order;
    with one length, that is the (length, lex) order."""
    if k < 1:
        raise ValueError(f"a message's level is at least 1, got {k}")
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
    (``k`` among them), ``rows`` and, if ``COUNTED``, ``supports``.
    Messages are immutable and compare by value."""

    HEADER: tuple[str, ...]
    COUNTED = True

    def __init__(self, rows, supports=None, **header) -> None:
        """The message with the ``HEADER`` fields given by keyword, its
        itemsets as the rows of ``rows`` and, unless it is a CountRequest,
        their counts ``supports``. The arrays are not copied: the message
        holds read-only views of them."""
        if sorted(header) != sorted(self.HEADER) or (supports is None) == self.COUNTED:
            raise TypeError(f"{type(self).__name__} has the fields {self._names()}")
        rows = np.asarray(rows, dtype=np.int64)
        _check_sorted(rows, header["k"])
        fields = dict(header, rows=read_only(rows))
        if self.COUNTED:
            supports = np.asarray(supports, dtype=np.int64)
            if supports.shape != (len(rows),):
                raise ValueError("a message carries one count per itemset")
            fields["supports"] = read_only(supports)
        self.__dict__.update(fields)

    def _names(self) -> tuple[str, ...]:
        return self.HEADER + (("rows", "supports") if self.COUNTED else ("rows",))

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
        return f"{type(self).__name__}({header}, itemsets={len(self.rows)})"


class LocalReport(_Columnar):
    """A site's locally frequent candidates for level k, with local counts."""

    HEADER = ("site_id", "k")


class CountRequest(_Columnar):
    """Center asks a site for the local counts of the given itemsets."""

    HEADER = ("k",)
    COUNTED = False

    @functools.cached_property
    def itemsets(self) -> tuple[Itemset, ...]:
        """The itemsets as tuples, made on first use; kept for bench/tracer.py."""
        return tuple(map(tuple, self.rows.tolist()))


class CountResponse(_Columnar):
    """A site's answer to a CountRequest, itemset for itemset."""

    HEADER = ("site_id", "k")


class GlobalResult(_Columnar):
    """Globally frequent level-k itemsets with global counts; continue_flag
    False tells sites the level-wise loop is over."""

    HEADER = ("k", "continue_flag")


ProtocolMessage = Union[LocalReport, CountRequest, CountResponse, GlobalResult]


def canonical_size(msg: ProtocolMessage) -> int:
    """Canonical payload size in bytes: the header, then k item ids per
    itemset and, except in a CountRequest, one count."""
    per_itemset = 4 * msg.k + 8 * msg.COUNTED
    return 8 * len(msg.HEADER) + per_itemset * len(msg.rows)


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
                items=len(msg.rows),
                bytes=size,
            )
        )
        if self.count_colocated or frozenset((src, dst)) != COLOCATED_PAIR:
            self.messages_sent += 1
            self.payload_bytes += size
        return msg
