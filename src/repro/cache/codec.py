"""The one codec for durable payloads: pickle, sha256, deflate.

Every payload that outlives its process — a result-cache object
(:mod:`repro.cache.store`) or a journaled ``UNIT_DONE`` blob
(:mod:`repro.journal.run`) — is written by :func:`encode` and read back
by :func:`decode`, and nothing else in the package pickles one.  Worker
pipe frames are not durable and stay plain pickle
(:mod:`repro.resilience.pool`).

``encode`` pickles the payload (pickle round-trips floats and nested
containers bit-exactly, which every warm-run digest depends on), takes
the sha256 of that pickle, and deflates it.  The digest names the
*pickle*, not the deflated bytes, so it is independent of the
compression level and of zlib's version.  An :class:`Encoded` comes
back unchanged, so a result is encoded once for the cache and journal.

``decode`` is the trust boundary.  It inflates under a fixed size cap
(:data:`MAX_INFLATED`: a crafted or rotted blob cannot exhaust memory),
checks the digest when the caller kept one, and unpickles.  Any failure
— not deflate, truncated, trailing bytes, past the cap, wrong digest,
unpicklable — raises the one :class:`CodecError`, so callers have one
degrade path: the journal demotes the unit to not-done, the cache
quarantines the object and misses.

The module lives in ``cache/``, outside the code salt: changing the
encoding moves no run id and invalidates no cached row by itself.  The
format is named by :data:`SUFFIX` (cache objects) and the journal's
``LOG_FORMAT``; changing it must change those, so old data is refused,
never misread.
"""

from __future__ import annotations

import hashlib
import pickle
import zlib
from typing import Any, NamedTuple, Optional

__all__ = [
    "CodecError", "Encoded", "MAX_INFLATED", "SUFFIX", "decode", "encode",
]

#: File suffix of an encoded cache object ("pickle, zlib").
SUFFIX = ".pkz"

#: Largest pickle :func:`decode` inflates; a blob that inflates past it
#: is refused.  Unit payloads are kilobytes: the cap only has to stop a
#: crafted or rotted blob from inflating without bound.
MAX_INFLATED = 64 << 20


class CodecError(ValueError):
    """A blob :func:`decode` cannot turn back into its payload."""


class Encoded(NamedTuple):
    """A payload as it is stored: the deflated pickle and the sha256
    hex of the pickle."""

    blob: bytes
    digest: str


def encode(payload: Any) -> Encoded:
    """``payload`` encoded; an :class:`Encoded` is returned as is."""
    if type(payload) is Encoded:
        return payload
    raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return Encoded(zlib.compress(raw), hashlib.sha256(raw).hexdigest())


def decode(blob: bytes, digest: Optional[str] = None) -> Any:
    """The payload :func:`encode` turned into ``blob``.

    ``blob`` may be any bytes-like object (the journal hands in views
    of its log).  With ``digest``, the inflated pickle must hash to it.

    Raises:
        CodecError: for every way ``blob`` can fail to decode.
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(blob, MAX_INFLATED)
    except zlib.error as error:
        raise CodecError(f"not a deflated payload ({error})") from None
    if not inflater.eof:
        if len(raw) >= MAX_INFLATED:
            raise CodecError(f"payload inflates past {MAX_INFLATED} bytes")
        raise CodecError("truncated deflate stream")
    if inflater.unused_data:
        raise CodecError("trailing bytes after the deflate stream")
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        raise CodecError("payload does not match its digest")
    try:
        return pickle.loads(raw)
    except Exception as error:  # noqa: BLE001 — any unpickle error
        raise CodecError(
            f"undecodable pickle ({type(error).__name__}: {error})"
        ) from None
