"""Persistent corpus of failing/interesting fuzz cases.

The corpus is the ``fuzz`` namespace of :mod:`repro.store`, but its
files stay plain so people can read them, CI can upload them, and
``repro fuzz replay`` can take a path.  Each case is stored under the
SHA-256 hex digest of its source text, so recomputing the key is the
integrity check of a ``.c`` file: one whose content no longer hashes to
its name reads as a counted miss and is quarantined.

Layout::

    <store root>/fuzz/
        <key>.c         # the case source (the key is sha256(source))
        <key>.json      # metadata: seed, oracles, origin, versions
        <key>.min.c     # optional: the delta-debugged reduction

Writes are atomic, so parallel fuzz workers can save cases
concurrently; two workers finding the same source race benignly to
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro import store


def corpus_dir() -> str:
    """The corpus directory (not necessarily created yet)."""
    return store.namespace_dir(store.CORPUS)


def case_key(source: str) -> str:
    """Content hash identifying one case (sha256 of the source)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def save_case(source: str, metadata: Optional[dict] = None) -> str:
    """Store one case; returns its content-address key.

    ``metadata`` is JSON-serializable extra context (seed, failing
    oracles, origin); the source hash and byte count are added.
    """
    key = case_key(source)
    record = dict(metadata or {})
    record.setdefault("key", key)
    record.setdefault("bytes", len(source.encode("utf-8")))
    record.setdefault("lines", source.count("\n"))
    store.write(store.CORPUS, f"{key}.c", source.encode("utf-8"))
    store.write(
        store.CORPUS,
        f"{key}.json",
        (json.dumps(record, sort_keys=True, indent=2) + "\n").encode("utf-8"),
    )
    return key


def save_reduction(key: str, reduced_source: str) -> str:
    """Store the shrunk form of an existing case; returns its path."""
    return store.write(
        store.CORPUS, f"{key}.min.c", reduced_source.encode("utf-8")
    )


def load_case(key: str) -> Optional[str]:
    """The source of case ``key``, or None when it is absent or its
    content no longer hashes to its key."""
    data = store.read(
        store.CORPUS,
        f"{key}.c",
        lambda data: data if hashlib.sha256(data).hexdigest() == key else None,
    )
    return None if data is None else data.decode("utf-8")


def resolve_case(reference: str) -> tuple[str, str]:
    """Resolve a case reference to ``(key, source)``.

    ``reference`` may be a full key, a unique key prefix, or a path to
    a ``.c`` file (inside or outside the corpus).  Raises ``KeyError``
    for unknown, ambiguous or corrupt references, ``OSError`` for
    unreadable paths.
    """
    if reference.endswith(".c") or os.path.sep in reference:
        with open(reference, encoding="utf-8") as handle:
            source = handle.read()
        return case_key(source), source
    matches = [key for key in _case_keys() if key.startswith(reference)]
    if len(matches) > 1:
        raise KeyError(
            f"ambiguous case reference {reference!r}: "
            f"{', '.join(key[:16] for key in matches)}"
        )
    source = load_case(matches[0]) if matches else None
    if source is None:
        raise KeyError(
            f"no corpus case matches {reference!r} in {corpus_dir()}"
        )
    return matches[0], source


def load_metadata(key: str) -> Optional[dict]:
    """The metadata record of one case, or None if absent/unreadable."""
    data = store.read(store.CORPUS, f"{key}.json")
    try:
        payload = json.loads(data) if data is not None else None
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _case_keys() -> list[str]:
    directory = corpus_dir()
    if not os.path.isdir(directory):
        return []
    return [
        name[: -len(".c")]
        for name in sorted(os.listdir(directory))
        if name.endswith(".c") and not name.endswith(".min.c")
    ]


def list_cases() -> list[dict]:
    """All corpus cases, sorted by key, with their metadata."""
    cases = []
    for key in _case_keys():
        record = load_metadata(key) or {"key": key}
        record["has_reduction"] = os.path.exists(
            os.path.join(corpus_dir(), f"{key}.min.c")
        )
        cases.append(record)
    return cases
