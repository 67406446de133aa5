"""JSON message frames shared by the GHCB, the IDCBs and audit records.

Every message that crosses a shared page is serialized with one shared
``JSONEncoder(sort_keys=True)``: ``json.dumps(obj, sort_keys=True)``
builds a fresh encoder per call, and reusing one gives byte-identical
output.

:class:`FrameMemo` lets a message slot skip decoding a frame it wrote
itself.  The slot remembers the last frame it encoded and the payload
behind it.  A reader still reads (and pays for) every byte in the page;
only when those bytes equal the remembered frame does it return a copy
of the remembered payload instead of calling ``json.loads``.  The memo
is a cache of ``json.loads(frame)`` keyed by the frame's exact bytes, so
it is right no matter who last wrote the page: a byte flipped by the
hypervisor, a fault injector or an attacker makes the bytes differ, and
the reader decodes what is really there.
"""

from __future__ import annotations

import json

#: The one encoder for page messages and audit records.
_ENCODER = json.JSONEncoder(sort_keys=True)

#: Value types whose JSON round trip is the identity.
_SCALAR_TYPES = frozenset({str, int, bool, type(None)})


def encode(payload) -> bytes:
    """UTF-8 JSON, sorted keys: ``json.dumps(payload, sort_keys=True)``."""
    return _ENCODER.encode(payload).encode("utf-8")


def round_trip_copy(payload) -> dict | None:
    """``json.loads(encode(payload))`` when that is a copy of ``payload``.

    That holds for a flat dict with ``str`` keys and values of exact type
    ``str``/``int``/``bool``/``None``: the copy has the keys in sorted
    order, as ``json.loads`` returns them.  Strings must be ASCII --
    ``json.loads`` merges an escaped surrogate pair into one code point.
    Anything else (nested containers, int keys, tuples, floats,
    subclasses) returns ``None`` and is always decoded for real.
    """
    if type(payload) is not dict:
        return None
    for key, value in payload.items():
        kind = type(value)
        if type(key) is not str or not key.isascii() or \
                kind not in _SCALAR_TYPES or \
                (kind is str and not value.isascii()):
            return None
    return dict(sorted(payload.items()))


class FrameMemo:
    """The last frame one message slot encoded, and the payload behind it."""

    __slots__ = ("_frame", "_payload")

    def __init__(self):
        self._frame: bytes | None = None
        self._payload: dict | None = None

    def remember(self, frame: bytes, payload: dict | None) -> None:
        """Record ``frame`` as decoding to ``payload``.

        ``payload`` must be :func:`round_trip_copy` of what was encoded,
        or ``None`` to forget (the frame is then always decoded).
        """
        self._frame = frame if payload is not None else None
        self._payload = payload

    def decode(self, frame: bytes) -> dict:
        """``json.loads`` of ``frame``, skipped when it is the remembered one.

        The result is always a fresh dict the caller may mutate.
        """
        if frame == self._frame:
            return dict(self._payload)
        return json.loads(frame.decode("utf-8"))
