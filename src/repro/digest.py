"""The one content digest, in a standard-library leaf inside the code
salt: the control plane imports it without loading the simulation."""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["content_digest"]


def content_digest(value: Any) -> str:
    """sha256 hex of ``value`` as sorted-key JSON.  Each caller hands in
    its own canonical form (floats already exact, e.g. through
    :func:`repro.core.events.canonical_scalar` or ``repr``)."""
    payload = json.dumps(value, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
