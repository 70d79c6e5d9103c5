"""Scalar message representation and the wire-size model.

A scalar program's message is a ``(dst_vertex, payload)`` pair whose
payload is ``(kind, *ints)`` (see
:class:`~repro.distributed.engine_array.MessageContext`).

:func:`payload_size_bytes` is the byte estimate behind the
communication-cost accounting (8 bytes per integer field, UTF-8 length for
strings, plus an 8-byte vertex address) — a deliberately simple serialised
size model matching how the paper counts "labels passing through the
graph".  Each :class:`~repro.distributed.message_array.MessageSchema`
derives its fixed per-message size from it.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["Message", "payload_size_bytes", "message_size_bytes"]

# A message is (dst_vertex, payload-tuple).
Message = Tuple[int, tuple]

_ADDRESS_BYTES = 8


def payload_size_bytes(payload: tuple) -> int:
    """Estimated wire size of a payload tuple."""
    size = 0
    for field in payload:
        if isinstance(field, str):
            size += len(field.encode("utf-8"))
        elif isinstance(field, (tuple, list, frozenset, set)):
            size += payload_size_bytes(tuple(field))
        else:
            size += 8
    return size


def message_size_bytes(message: Message) -> int:
    """Estimated wire size of a full message (address + payload)."""
    return _ADDRESS_BYTES + payload_size_bytes(message[1])
