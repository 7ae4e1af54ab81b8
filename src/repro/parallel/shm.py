"""Shared-memory payload transport: arenas and the array/CSR codec.

Workers exchange collective payloads through POSIX shared memory: each
worker owns one fixed-size **arena** segment (created by the driver,
write-only to its owner) plus, for oversized payloads, per-payload
**ephemeral** segments.  A payload travels as a small picklable
*descriptor* over the metadata queues while the bulk bytes go through
``/dev/shm``:

``('none',)``
    an empty contribution;
``('inl', obj)``
    small payloads ride inline in the queue message (pickle) -- scalars,
    loss terms, small weight partials;
``('arr', shape, dtype, seg, offset)``
    a dense block at ``offset`` of the sender's arena (``seg is None``)
    or of the named ephemeral segment;
``('csr', shape, indptr_desc, indices_desc, data_desc)``
    a :class:`~repro.sparse.csr.CSRMatrix` as its three arrays;
``('seq', [desc, ...])``
    a list of payloads, each encoded once: an item that is the same
    object as an earlier one travels as ``('ref', index)`` and decodes
    to the same object again.

Receivers copy payloads out of the sender's segment immediately (the
sender reclaims arena space once every receiver acknowledges), so decoded
arrays are private to the receiving worker.

The driver's command dispatch uses the same codec: :func:`park_fields`
moves a command's bulk ``ndarray`` / ``CSRMatrix`` fields into a
driver-owned arena and leaves :class:`Parked` descriptors in their
place, so the command queues carry descriptors, not megabytes of pickle;
workers :func:`fetch_fields` them back out.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["Arena", "encode_payload", "decode_payload", "payload_bytes",
           "INLINE_MAX", "Parked", "park_fields", "fetch_fields"]

#: Payloads at or below this many bytes travel inline in the queue
#: message instead of through shared memory (and need no ack).
INLINE_MAX = 16384

_ALIGN = 64


class Arena:
    """Bump allocator over one shared-memory segment.

    Only the owning worker writes; peers attach read-only and copy out.
    The owner rewinds the bump pointer when its last outstanding ticket
    is collected (the ack protocol in :mod:`repro.parallel.channel`
    guarantees every receiver has copied by then).
    """

    def __init__(self, shm: shared_memory.SharedMemory):
        self.shm = shm
        self.size = shm.size
        self.ptr = 0
        # Occupancy gauges the kernel profiler reads: the deepest bump
        # the arena ever reached and how many payloads spilled to
        # ephemeral segments because the arena was full.  Plain int
        # bookkeeping -- cheap enough to maintain unconditionally.
        self.high_water = 0
        self.spills = 0

    def alloc(self, nbytes: int) -> Optional[int]:
        """Offset of a fresh ``nbytes`` block, or ``None`` when full."""
        start = (self.ptr + _ALIGN - 1) // _ALIGN * _ALIGN
        if start + nbytes > self.size:
            self.spills += 1
            return None
        self.ptr = start + nbytes
        if self.ptr > self.high_water:
            self.high_water = self.ptr
        return start

    def reset(self) -> None:
        self.ptr = 0

    def close(self) -> None:
        self.shm.close()


def _encode_array(arena: Arena, arr: np.ndarray, ephemerals: List,
                  inline_max: int) -> Tuple:
    arr = np.asarray(arr)
    if arr.nbytes <= inline_max:
        # Always a private copy: multiprocessing.Queue pickles in a feeder
        # thread *after* put() returns, and the caller may overwrite the
        # source buffer (epoch workspaces) as soon as the exchange ends.
        return ("inl", arr.copy())
    offset = arena.alloc(arr.nbytes)
    if offset is not None:
        dst = np.ndarray(arr.shape, arr.dtype, buffer=arena.shm.buf,
                         offset=offset)
        np.copyto(dst, arr)
        return ("arr", arr.shape, arr.dtype.str, None, offset)
    # Arena full: spill to a per-payload ephemeral segment, unlinked by
    # the sender once every receiver has acknowledged its copy.
    seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    ephemerals.append(seg)
    dst = np.ndarray(arr.shape, arr.dtype, buffer=seg.buf)
    np.copyto(dst, arr)
    return ("arr", arr.shape, arr.dtype.str, seg.name, 0)


def encode_payload(arena: Arena, obj: Any, ephemerals: List,
                   inline_max: int = INLINE_MAX) -> Tuple:
    """Encode a payload into a picklable descriptor (bulk bytes in shm).

    ``ephemerals`` collects overflow segments the caller must unlink
    after the exchange's acknowledgements arrive.
    """
    if obj is None:
        return ("none",)
    if isinstance(obj, CSRMatrix):
        return (
            "csr",
            obj.shape,
            _encode_array(arena, obj.indptr, ephemerals, inline_max),
            _encode_array(arena, obj.indices, ephemerals, inline_max),
            _encode_array(arena, obj.data, ephemerals, inline_max),
        )
    if isinstance(obj, np.ndarray):
        return _encode_array(arena, obj, ephemerals, inline_max)
    if isinstance(obj, list):
        first: Dict[int, int] = {}
        descs = []
        for k, item in enumerate(obj):
            j = first.setdefault(id(item), k)
            descs.append(("ref", j) if j < k else encode_payload(
                arena, item, ephemerals, inline_max))
        return ("seq", descs)
    raise TypeError(
        f"cannot ship payload of type {type(obj).__name__} through "
        "shared memory (expected ndarray, CSRMatrix, a list, or None)"
    )


def payload_bytes(obj: Any) -> int:
    """Array bytes the codec moves for ``obj`` (0 for anything it would
    not take: the traffic counters and the inline limit both use it)."""
    if isinstance(obj, CSRMatrix):
        return obj.indptr.nbytes + obj.indices.nbytes + obj.data.nbytes
    if isinstance(obj, list):
        return sum(map(payload_bytes, {id(x): x for x in obj}.values()))
    return obj.nbytes if isinstance(obj, np.ndarray) else 0


def desc_needs_ack(desc: Tuple) -> bool:
    """Does this descriptor reference sender-owned shared memory?"""
    kind = desc[0]
    if kind == "arr":
        return True
    if kind == "csr":
        return any(sub[0] == "arr" for sub in desc[2:5])
    if kind == "seq":
        return any(map(desc_needs_ack, desc[1]))
    return False


def _decode_array(desc: Tuple, peer_buf) -> np.ndarray:
    kind = desc[0]
    if kind == "inl":
        return desc[1]
    _, shape, dtype, seg, offset = desc
    if seg is None:
        src = np.ndarray(shape, np.dtype(dtype), buffer=peer_buf,
                         offset=offset)
        return src.copy()
    eph = shared_memory.SharedMemory(name=seg)
    try:
        src = np.ndarray(shape, np.dtype(dtype), buffer=eph.buf)
        return src.copy()
    finally:
        eph.close()


def decode_payload(desc: Tuple, peer_buf) -> Any:
    """Decode a descriptor into a private object (copies out of shm).

    ``peer_buf`` is the sending worker's arena buffer (for ``seg is
    None`` references); ephemeral segments are attached by name.
    """
    kind = desc[0]
    if kind == "none":
        return None
    if kind == "seq":
        out: list = []
        for sub in desc[1]:
            out.append(out[sub[1]] if sub[0] == "ref"
                       else decode_payload(sub, peer_buf))
        return out
    if kind == "csr":
        _, shape, d_indptr, d_indices, d_data = desc
        return CSRMatrix(
            _decode_array(d_indptr, peer_buf),
            _decode_array(d_indices, peer_buf),
            _decode_array(d_data, peer_buf),
            tuple(shape),
            validate=False,
        )
    return _decode_array(desc, peer_buf)


class Parked:
    """A command field moved to shared memory: its descriptor."""

    __slots__ = ("desc",)

    def __init__(self, desc: Tuple):
        self.desc = desc


def _map_fields(payload: Any, fn) -> Any:
    """Apply ``fn`` to a command payload's top-level fields (the payload
    itself when it is not a tuple of fields)."""
    if isinstance(payload, tuple):
        return tuple(fn(field) for field in payload)
    return fn(payload)


def park_fields(arena: Arena, payload: Any, ephemerals: List) -> Any:
    """Replace the top-level array / CSR fields of a command payload
    that exceed :data:`INLINE_MAX` by :class:`Parked` descriptors, their
    bytes written to ``arena`` (or, when it is full, to segments
    appended to ``ephemerals``).  Everything else passes through."""

    def park(field: Any) -> Any:
        if payload_bytes(field) <= INLINE_MAX:
            return field
        return Parked(encode_payload(arena, field, ephemerals))

    return _map_fields(payload, park)


def fetch_fields(payload: Any, arena_buf) -> Any:
    """Inverse of :func:`park_fields` on the receiving side: private
    copies of the parked fields, read out of ``arena_buf``."""
    return _map_fields(
        payload,
        lambda field: (decode_payload(field.desc, arena_buf)
                       if isinstance(field, Parked) else field),
    )
