"""Persistent profiles: the ``profiles`` namespace of :mod:`repro.store`.

Profiling is the expensive step every experiment shares: re-interpreting
the 14-program suite takes tens of seconds, and the CLI, the pytest
tier, and the benchmark harness each used to pay it from scratch.  One
serialized :class:`Profile` is stored per (program source, input text)
pair, keyed by a content hash over both texts, the interpreter
semantics version (:data:`repro.interp.INTERP_VERSION`) and the
serialization format version, so a source or input edit invalidates
exactly the entries it affects.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro import store
from repro.interp import INTERP_VERSION
from repro.profiles.profile import Profile
from repro.profiles.serialize import (
    PROFILE_FORMAT_VERSION,
    profile_from_dict,
    profile_to_dict,
)

NAMESPACE = "profiles"


def profile_cache_key(source: str, input_text: str) -> str:
    """Content hash identifying one (program, input) profile."""
    return store.key(
        f"interp={INTERP_VERSION};format={PROFILE_FORMAT_VERSION}",
        source,
        input_text,
    )


def load_cached_profile(key: str) -> Optional[Profile]:
    """The cached profile for ``key``, or None on a miss."""
    payload = store.get(NAMESPACE, key)
    return None if payload is None else profile_from_dict(json.loads(payload))


def store_profile(key: str, profile: Profile) -> None:
    """Store ``profile`` under ``key``."""
    payload = json.dumps(profile_to_dict(profile), separators=(",", ":"))
    store.put(NAMESPACE, key, payload.encode("utf-8"))


def cached_profile_for_source(
    source: str, input_text: str, compute: "Callable[[], Profile]"
) -> Profile:
    """Profile for an arbitrary (source, input) pair, via the store.

    ``compute`` interprets the program and returns its :class:`Profile`;
    it only runs on a miss (or with the cache off), and its result is
    stored for the next consumer.  This is the same content-hash keying
    the suite pipeline uses, so example programs (the strchr harness,
    figure 10's held-out compress run) share the store with suite
    profiling.
    """
    key = profile_cache_key(source, input_text)
    cached = load_cached_profile(key)
    if cached is not None:
        return cached
    profile = compute()
    store_profile(key, profile)
    return profile
