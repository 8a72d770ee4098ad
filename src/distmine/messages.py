"""Typed site/center messages, their canonical encoding, and trace recording.

Every exchange between actors is a self-contained, serializable value, and
every one goes through ``MessageLog.send``, which returns the message the
receiver acts on; a real transport replaces that one method and leaves the
algorithms untouched. A message is columnar and is about m level-k itemsets.

Every party computes the level's candidate list C_k from what it already
holds: every item of the run's universe at level 1, then the join of the
last result. So a message names its itemsets by a read-only boolean
``mask`` over C_k, at every level: a LocalReport is the mask and one count
per set bit, as the read-only int64 vector ``supports``, a CountRequest and
a GlobalResult the mask alone (the center keeps the global counts). A
CountResponse carries the counts alone, in the order of the request it
answers, since the center already holds those itemsets. A message is built
from its arrays and its header fields, as in
``LocalReport(mask, supports, site_id=0, k=2)`` or
``CountResponse(supports, site_id=0, k=2)``. ``encode`` writes a message in
the canonical encoding (8 bytes per header field, one bit per C_k row
rounded up to a byte, 8 per count) and ``decode`` reads it back, so byte
metrics are real, measured bytes and implementation-independent.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Union

import numpy as np


def _check_sorted(rows: np.ndarray, k: int) -> None:
    """Every row of ``rows`` has k items, and the rows are in strictly
    rising lexicographic order; with one length, that is the (length, lex)
    order. Kept for bench/tracer.py; no message carries rows."""
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
    (``k`` among them) and the arrays named in ``BODY``, in encoding order.
    Messages are immutable and compare by value."""

    HEADER: tuple[str, ...]
    BODY = ("mask", "supports")

    def __init__(self, *body, **header) -> None:
        """The message with the ``HEADER`` fields given by keyword and its
        body arrays in order. The arrays are not copied: the message holds
        read-only views of them."""
        if sorted(header) != sorted(self.HEADER):
            raise TypeError(f"{type(self).__name__} has the header fields {self.HEADER}")
        if header["k"] < 1:
            raise ValueError(f"a message's level is at least 1, got {header['k']}")
        if len(body) != len(self.BODY):
            raise TypeError(f"a {type(self).__name__} has the body {self.BODY}")
        fields = dict(zip(self.BODY, body))
        if "mask" in fields:
            fields["mask"] = np.asarray(fields["mask"])
            if fields["mask"].dtype != bool or fields["mask"].ndim != 1:
                raise ValueError("a mask is a 1-d boolean array")
        if "supports" in fields:
            fields["supports"] = np.asarray(fields["supports"], dtype=np.int64)
        self.__dict__.update(header, **{f: read_only(a) for f, a in fields.items()})
        if "supports" in fields and self.supports.shape != (self.n_itemsets,):
            raise ValueError("a message carries one count per itemset")

    @property
    def n_itemsets(self) -> int:
        """The number of itemsets the message is about: the set bits of its
        mask, or its counts, whichever comes first."""
        first = getattr(self, self.BODY[0])
        return int(np.count_nonzero(first)) if first.dtype == bool else len(first)

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
    BODY = ("mask",)

    @functools.cached_property
    def itemsets(self) -> tuple:
        """The positions in C_k of the requested itemsets, made on first
        use. Kept for bench/tracer.py, which reads only their number."""
        return tuple(np.flatnonzero(self.mask).tolist())


class CountResponse(_Columnar):
    """A site's answer to a CountRequest: one count per requested itemset,
    in the request's order."""

    HEADER = ("site_id", "k")
    BODY = ("supports",)


class GlobalResult(_Columnar):
    """Globally frequent level-k itemsets; continue_flag False tells sites
    the level-wise loop is over."""

    HEADER = ("k", "continue_flag")
    BODY = ("mask",)


ProtocolMessage = Union[LocalReport, CountRequest, CountResponse, GlobalResult]


def _mask_bytes(n_candidates: int) -> int:
    """Bytes of a mask over ``n_candidates`` itemsets: one bit each."""
    return -(-n_candidates // 8)


def canonical_size(msg: ProtocolMessage) -> int:
    """Canonical payload size in bytes, ``len(encode(msg))``: 8 per header
    field, then a bit per C_k row rounded up to a whole byte and 8 per
    count, each for what the message carries."""
    size = 8 * len(msg.HEADER)
    if "mask" in msg.BODY:
        size += _mask_bytes(len(msg.mask))
    if "supports" in msg.BODY:
        size += 8 * len(msg.supports)
    return size


def encode(msg: ProtocolMessage) -> bytes:
    """The canonical encoding of ``msg``: its header fields as little-endian
    int64, then its mask, least significant bit first, in ceil(|C_k| / 8)
    bytes whose unused high bits are 0, then its counts as little-endian
    int64. No field holds a length: each follows from the header, the mask
    and |C_k|."""
    parts = [np.array([getattr(msg, f) for f in msg.HEADER], dtype="<i8")]
    if "mask" in msg.BODY:
        parts.append(np.packbits(msg.mask, bitorder="little"))
    if "supports" in msg.BODY:
        parts.append(msg.supports.astype("<i8"))
    return b"".join(part.tobytes() for part in parts)


def decode(cls: type, data: bytes, n_candidates: int | None = None) -> ProtocolMessage:
    """The message of type ``cls`` that ``encode`` wrote as ``data``. A
    message that carries a mask needs ``n_candidates``, the |C_k| its
    receiver computed. Data of a length that holds no whole message, or a
    mask with a bit set past |C_k|, raises ValueError."""
    head, partial = 8 * len(cls.HEADER), ValueError(f"{len(data)} bytes hold no {cls.__name__}")
    if len(data) < head:
        raise partial
    header = dict(zip(cls.HEADER, np.frombuffer(data, dtype="<i8", count=len(cls.HEADER)).tolist()))
    if "continue_flag" in header:
        header["continue_flag"] = bool(header["continue_flag"])
    k = header["k"]
    if k < 1:
        raise partial
    body, offset, m = [], head, (len(data) - head) // 8
    if "mask" in cls.BODY:
        if n_candidates is None:
            raise ValueError(f"decoding a level-{k} {cls.__name__} needs |C_{k}|")
        n_bytes = _mask_bytes(n_candidates)
        if len(data) < offset + n_bytes:
            raise partial
        bits = np.frombuffer(data, dtype=np.uint8, count=n_bytes, offset=offset)
        bits = np.unpackbits(bits, bitorder="little")
        if bits[n_candidates:].any():
            raise ValueError(f"a mask over {n_candidates} itemsets sets a bit past them")
        body.append(bits[:n_candidates].astype(bool))
        offset += n_bytes
        m = int(np.count_nonzero(body[0]))
    if len(data) - offset != 8 * m * ("supports" in cls.BODY):
        raise partial
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


class MessageLog:
    """The trace of every message sent, site 0 <-> center exchanges
    included; it is the only record of traffic."""

    def __init__(self) -> None:
        self.trace: list[TraceRecord] = []

    def send(self, src: str, dst: str, msg: ProtocolMessage) -> ProtocolMessage:
        """Record ``msg`` from ``src`` to ``dst`` and deliver it: the return
        value is the message ``dst`` receives, in process ``msg`` itself."""
        self.trace.append(
            TraceRecord(
                seq=len(self.trace),
                src=src,
                dst=dst,
                k=msg.k,
                type=type(msg).__name__,
                items=msg.n_itemsets,
                bytes=canonical_size(msg),
            )
        )
        return msg
