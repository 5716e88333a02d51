"""The one codec for durable payloads: canonical JSON, sha256, deflate.

Every payload that outlives its process — a result-cache object
(:mod:`repro.cache.store`) or a journaled ``UNIT_DONE`` blob
(:mod:`repro.journal.run`) — is written by :func:`encode` and read back
by :func:`decode`, and nothing else in the package stores one.  Worker
pipe frames are not durable and stay plain pickle
(:mod:`repro.resilience.pool`).

A payload is *data*, from a closed set: ``str``, ``int``, ``float``
(NaN, ±inf and −0.0 included), ``bool``, ``None``, ``list``, ``str``-
keyed ``dict``, and a closed registry of four result dataclasses
(``PerformanceReport``, ``ExperimentResult``, ``SafetyRecord``,
``NodeResult``).  A dataclass is written as an object whose first key
is :data:`TAG` (the class name), followed by its fields in declaration
order; a ``Tuple``-annotated field is written as a list and comes back
as a tuple.

``encode`` refuses what it cannot bring back exactly — a non-``str``
dict key, a tuple outside a tuple field (or anything else inside one),
a dict that already holds :data:`TAG`, any other type — and never
coerces.  It writes compact JSON with the C encoder (``repr`` floats
round-trip bit for bit; NaN and ±inf as ``NaN`` / ``Infinity``, which
only this codec reads) and keeps dict insertion order, so a decoded
payload iterates in the order the live one did.  The bytes are the sha256's input and are deflated
against :func:`dictionary`, a preset zlib dictionary built from the
registry's tags and field names on first use.  The digest names the
JSON, not the deflated bytes, so it is independent of the compression
level and of zlib's version.  An :class:`Encoded` comes back unchanged,
so a result is encoded once for the cache and journal.

``decode`` is the trust boundary, and it runs no code a blob chooses:
it inflates under a fixed size cap (:data:`MAX_INFLATED`), against the
dictionary (zlib checks its id), checks the digest when the caller
kept one, parses JSON and builds only registered dataclasses.  Any
failure — not deflate, wrong or missing dictionary, truncated, trailing
bytes, past the cap, wrong digest, not UTF-8, not JSON, nested too
deep, an unknown tag (named), fields other than the class's (the
first stray one named) — raises the one :class:`CodecError`, so
callers have one degrade path:
the journal demotes the unit to not-done, the cache quarantines the
object and misses.  :func:`decode_stored` also hands back the blob's
:class:`Encoded`, so a cache hit is journaled without encoding it again.

The module lives in ``cache/``, outside the code salt: changing the
encoding moves no run id and invalidates no cached row by itself.  The
format is named by :data:`SUFFIX` (cache objects) and the journal's
``LOG_FORMAT``; changing it must change those, so old data is refused,
never misread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
import zlib
from typing import Any, Dict, FrozenSet, NamedTuple, Optional, Tuple

__all__ = [
    "CodecError", "Encoded", "MAX_INFLATED", "SUFFIX", "TAG",
    "decode", "decode_stored", "dictionary", "encode",
]

#: File suffix of an encoded cache object ("JSON, zlib").
SUFFIX = ".jz"

#: The key naming a registered dataclass inside its JSON object.
TAG = "$type"

#: Largest JSON text :func:`decode` inflates; a blob that inflates past
#: it is refused.  Unit payloads are kilobytes: the cap only has to
#: stop a crafted or rotted blob from inflating without bound.
MAX_INFLATED = 64 << 20


class CodecError(ValueError):
    """A payload :func:`encode` refuses, or a blob :func:`decode`
    cannot turn back into its payload."""


class Encoded(NamedTuple):
    """A payload as it is stored: the deflated JSON and the sha256 hex
    of the JSON."""

    blob: bytes
    digest: str


class _Registry(NamedTuple):
    """The closed set of dataclasses a payload may hold."""

    classes: Dict[str, type]            # tag -> class
    fields: Dict[type, Tuple[str, ...]]  # class -> field names, in order
    tuples: Dict[type, FrozenSet[str]]   # class -> Tuple-annotated fields
    zdict: bytes


def _registry_classes() -> Tuple[type, ...]:
    # Imported on first use: the result modules import the cache.
    from repro.experiments.common import ExperimentResult
    from repro.fleet.node import NodeResult
    from repro.sweep.safety import SafetyRecord
    from repro.workloads.base import PerformanceReport

    # zlib favours the end of a preset dictionary, so the most frequent
    # payload kind (sweep cells and fleet chunks are NodeResults) is last.
    return (PerformanceReport, ExperimentResult, SafetyRecord, NodeResult)


def _build_registry(classes: Tuple[type, ...]) -> _Registry:
    fields: Dict[type, Tuple[str, ...]] = {}
    tuples: Dict[type, FrozenSet[str]] = {}
    openings = []
    for cls in classes:
        hints = typing.get_type_hints(cls)
        fields[cls] = names = tuple(f.name for f in dataclasses.fields(cls))
        tuples[cls] = frozenset(
            name for name in names if typing.get_origin(hints[name]) is tuple
        )
        # The class's JSON object opening as encode writes it: the
        # dictionary's strings are the registry's tags and field names.
        openings.append(
            f'{{"{TAG}":"{cls.__name__}",'
            + ",".join(f'"{name}":' for name in names) + "}"
        )
    return _Registry(
        classes={cls.__name__: cls for cls in classes},
        fields=fields,
        tuples=tuples,
        zdict="".join(openings).encode("utf-8"),
    )


_REGISTRY: Optional[_Registry] = None


def _registry() -> _Registry:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry(_registry_classes())
    return _REGISTRY


def dictionary() -> bytes:
    """The preset deflate dictionary every blob is deflated against,
    built on first use from the registry: each class's JSON object
    opening — tag, then every field name — in registry order."""
    return _registry().zdict


# -- encode -------------------------------------------------------------------

_SCALARS = frozenset((str, int, float, bool, type(None)))


def _refuse(value: Any, registry: _Registry) -> None:
    """Raise :class:`CodecError` if ``value`` leaves the closed set."""
    kind = type(value)
    if kind is list:
        items: Any = value
    elif kind is dict:
        if TAG in value:
            raise CodecError(f"cannot encode a dict holding the key {TAG!r}")
        for key in value:
            if type(key) is not str:
                raise CodecError(
                    f"cannot encode a dict key of type {type(key).__name__}"
                )
        items = value.values()
    elif kind in registry.fields:
        items = []
        tuples = registry.tuples[kind]
        for name in registry.fields[kind]:
            item = getattr(value, name)
            if name not in tuples:
                items.append(item)
            elif type(item) is tuple:
                items.extend(item)
            else:
                raise CodecError(
                    f"cannot encode {kind.__name__}.{name}: not a tuple"
                )
    elif kind in _SCALARS:
        return
    else:
        raise CodecError(f"cannot encode a value of type {kind.__qualname__}")
    for item in items:
        if type(item) not in _SCALARS:
            _refuse(item, registry)


def _tagged(value: Any) -> Dict[str, Any]:
    """A registered dataclass as its JSON object (``default`` hook)."""
    obj = {TAG: type(value).__name__}
    for name in _registry().fields[type(value)]:
        obj[name] = getattr(value, name)
    return obj


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_tagged)


def encode(payload: Any) -> Encoded:
    """``payload`` encoded; an :class:`Encoded` is returned as is.

    Raises:
        CodecError: ``payload`` holds something outside the closed set.
    """
    if type(payload) is Encoded:
        return payload
    registry = _registry()
    try:
        _refuse(payload, registry)
    except RecursionError:
        raise CodecError("payload nests too deeply") from None
    raw = _ENCODER.encode(payload).encode("utf-8")
    compressor = zlib.compressobj(zdict=registry.zdict)
    blob = compressor.compress(raw) + compressor.flush()
    return Encoded(blob, hashlib.sha256(raw).hexdigest())


# -- decode -------------------------------------------------------------------


def _untagged(obj: Dict[str, Any]) -> Any:
    """A decoded JSON object, or the dataclass it tags
    (``object_hook``)."""
    if TAG not in obj:
        return obj
    tag = obj.pop(TAG)
    registry = _registry()
    cls = registry.classes.get(tag) if type(tag) is str else None
    if cls is None:
        raise CodecError(f"unknown tag {tag!r}")
    names = registry.fields[cls]
    if tuple(obj) != names:  # as encode wrote them
        stray = [name for name in obj if name not in names]
        raise CodecError(
            f"fields do not match {tag}"
            + (f": no field {stray[0]!r}" if stray else "")
        )
    for name in registry.tuples[cls]:
        if type(obj[name]) is not list:
            raise CodecError(f"{tag}.{name} is not a list")
        obj[name] = tuple(obj[name])
    # Filled as unpickling did, without calling the class: the fields
    # were checked above, and decode runs no class code.
    value = cls.__new__(cls)
    value.__dict__.update(obj)
    return value


_DECODER = json.JSONDecoder(object_hook=_untagged)


def _inflate(blob: bytes) -> bytes:
    inflater = zlib.decompressobj(zdict=_registry().zdict)
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
    return raw


def _parse(raw: bytes) -> Any:
    try:
        return _DECODER.decode(raw.decode("utf-8"))
    except CodecError:
        raise
    except RecursionError:
        raise CodecError("payload nests too deeply") from None
    except ValueError as error:
        # Not UTF-8, not JSON, or an int past the digit limit.
        raise CodecError(
            f"undecodable payload ({type(error).__name__}: {error})"
        ) from None


def decode(blob: bytes, digest: Optional[str] = None) -> Any:
    """The payload :func:`encode` turned into ``blob``.

    ``blob`` may be any bytes-like object (the journal hands in views
    of its log).  With ``digest``, the inflated JSON must hash to it.

    Raises:
        CodecError: for every way ``blob`` can fail to decode.
    """
    raw = _inflate(blob)
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        raise CodecError("payload does not match its digest")
    return _parse(raw)


def decode_stored(blob: bytes) -> Tuple[Any, Encoded]:
    """The payload in ``blob`` and its :class:`Encoded` form, which a
    caller can store again without re-encoding the payload.

    Raises:
        CodecError: as :func:`decode`.
    """
    raw = _inflate(blob)
    return _parse(raw), Encoded(bytes(blob), hashlib.sha256(raw).hexdigest())
