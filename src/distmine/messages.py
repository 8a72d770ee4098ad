"""Typed site/center messages, canonical payload sizing, and trace recording.

Every exchange between actors is a self-contained, serializable value, so
the in-process simulation could be replaced by real transport without
touching the algorithms. Payload bytes follow a fixed canonical encoding
(8 bytes per header field, 4 per item id, 8 per count) so byte metrics are
implementation-independent.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Union

from .dataset import Itemset

CountEntry = tuple[Itemset, int]


def _check_sorted(itemsets, k: int) -> None:
    """Every itemset of a level-k message has k items, in strictly rising
    order; with one length, tuple order is the (length, lex) order."""
    if any(map(k.__ne__, map(len, itemsets))):
        raise ValueError(f"a level-{k} message carries only {k}-itemsets")
    if any(map(operator.ge, itemsets, itemsets[1:])):
        raise ValueError("message itemsets must be (length, lex) sorted and duplicate-free")


@dataclass(frozen=True)
class LocalReport:
    """A site's locally frequent candidates for level k, with local counts."""

    site_id: int
    k: int
    entries: tuple[CountEntry, ...]

    def __post_init__(self) -> None:
        _check_sorted([x for x, _ in self.entries], self.k)


@dataclass(frozen=True)
class CountRequest:
    """Center asks a site for the local counts of the given itemsets."""

    k: int
    itemsets: tuple[Itemset, ...]

    def __post_init__(self) -> None:
        _check_sorted(self.itemsets, self.k)


@dataclass(frozen=True)
class CountResponse:
    """A site's answer to a CountRequest, itemset for itemset."""

    site_id: int
    k: int
    counts: tuple[CountEntry, ...]

    def __post_init__(self) -> None:
        _check_sorted([x for x, _ in self.counts], self.k)


@dataclass(frozen=True)
class GlobalResult:
    """Globally frequent level-k itemsets with global counts; continue_flag
    False tells sites the level-wise loop is over."""

    k: int
    frequent: tuple[CountEntry, ...]
    continue_flag: bool

    def __post_init__(self) -> None:
        _check_sorted([x for x, _ in self.frequent], self.k)


ProtocolMessage = Union[LocalReport, CountRequest, CountResponse, GlobalResult]

_HEADER_FIELDS = {LocalReport: 2, CountRequest: 1, CountResponse: 2, GlobalResult: 2}


def _entries_of(msg: ProtocolMessage) -> tuple:
    if isinstance(msg, LocalReport):
        return msg.entries
    if isinstance(msg, CountRequest):
        return msg.itemsets
    if isinstance(msg, CountResponse):
        return msg.counts
    return msg.frequent


def payload_itemsets(msg: ProtocolMessage) -> int:
    """Number of itemsets carried by a message."""
    return len(_entries_of(msg))


def canonical_size(msg: ProtocolMessage) -> int:
    """Canonical payload size in bytes: the header, then k item ids per
    itemset and, except in a CountRequest, one count."""
    per_itemset = 4 * msg.k if isinstance(msg, CountRequest) else 4 * msg.k + 8
    return 8 * _HEADER_FIELDS[type(msg)] + per_itemset * payload_itemsets(msg)


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

    def send(self, src: str, dst: str, msg: ProtocolMessage) -> None:
        size = canonical_size(msg)
        self.trace.append(
            TraceRecord(
                seq=len(self.trace),
                src=src,
                dst=dst,
                k=msg.k,
                type=type(msg).__name__,
                items=payload_itemsets(msg),
                bytes=size,
            )
        )
        if not self.count_colocated and frozenset((src, dst)) == COLOCATED_PAIR:
            return
        self.messages_sent += 1
        self.payload_bytes += size
