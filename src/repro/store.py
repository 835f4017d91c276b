"""One content-addressed on-disk store for every persisted artifact.

Profiling, analysis, codegen and attribution results are pure functions
of their inputs, so every process (parallel workers, later CLI runs,
the pytest tier, the daemon) can share them through one store that
maps ``(namespace, key)`` to bytes, where the key is a SHA-256 over a
namespace's version string, the package version and the key parts.

Layout::

    <root>/
        profiles/<key>       # one serialized Profile per (source, input)
        analysis/<key>       # intra estimates / Markov invocations
        codegen/<key>        # marshal of a compiled program module
        attribution/<key>    # one ProgramExplanation payload
        fuzz/<key>.c         # fuzz corpus: plain, human-readable files
        quarantine/          # corrupt entries, moved aside on read

``<root>`` is ``REPRO_CACHE_DIR`` (default ``$XDG_CACHE_HOME/repro/
profiles`` or ``~/.cache/repro/profiles``); ``REPRO_CACHE=0`` turns
every cache namespace off.  The fuzz corpus is a record, not a cache:
it is always written, as plain ``.c``/``.json`` files whose integrity
check is their own content key.

Each cache entry starts with a one-line header carrying the payload's
length and SHA-256, so a truncated, zero-filled or bit-flipped entry
(a write torn by a crash, a bad disk) is detected on read.  Such an
entry becomes a counted miss (``store.corrupt{ns=...}``) and is moved
to ``quarantine/``; it is never an exception and never a wrong answer.
Writes are atomic (tempfile + ``os.replace``, no ``fsync``), so
parallel writers race benignly to identical bytes.

Every read and write lands in one counter family,
``store.{hits,misses,stores,corrupt,bytes_read,bytes_written}{ns=...}``,
and one ``store.get``/``store.put`` span.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Callable, Optional

import repro
from repro.obs import incr, span

#: The cache namespaces, in ``repro cache info`` order.
CACHES = ("profiles", "analysis", "codegen", "attribution")
#: The fuzz corpus namespace (always on; plain files).
CORPUS = "fuzz"
NAMESPACES = CACHES + (CORPUS,)
QUARANTINE = "quarantine"

_MAGIC = b"repro-store/1"
_FALSEY = {"0", "no", "off", "false", ""}


def enabled() -> bool:
    """Whether the cache namespaces are on (``REPRO_CACHE`` knob)."""
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in _FALSEY


def root() -> str:
    """The store root (not necessarily created yet)."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "profiles")


def namespace_dir(namespace: str) -> str:
    """The directory holding one namespace's entries."""
    return os.path.join(root(), namespace)


def key(version: str, *parts: str) -> str:
    """Content key over the package version, a namespace's version
    string and the key parts (length-prefixed, so moving text across a
    part boundary changes the key)."""
    hasher = hashlib.sha256()
    for part in (f"package={repro.__version__}", version, *parts):
        encoded = part.encode("utf-8")
        hasher.update(b"%d:" % len(encoded))
        hasher.update(encoded)
    return hasher.hexdigest()


def _frame(payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return b"%s %d %s\n" % (_MAGIC, len(payload), digest) + payload


def _unframe(blob: bytes) -> Optional[bytes]:
    header, _, payload = blob.partition(b"\n")
    fields = header.split(b" ")
    if (
        len(fields) != 3
        or fields[0] != _MAGIC
        or fields[1] != b"%d" % len(payload)
        or fields[2] != hashlib.sha256(payload).hexdigest().encode("ascii")
    ):
        return None
    return payload


def get(namespace: str, key: str) -> Optional[bytes]:
    """The payload stored under ``key``, or None on a miss (absent,
    corrupt, or the cache switched off)."""
    if not enabled():
        return None
    return read(namespace, key, _unframe)


def put(namespace: str, key: str, payload: bytes) -> None:
    """Store ``payload`` under ``key`` (a no-op with the cache off)."""
    if enabled():
        write(namespace, key, _frame(payload))


def read(
    namespace: str,
    name: str,
    check: Callable[[bytes], Optional[bytes]] = lambda data: data,
) -> Optional[bytes]:
    """Read one file of ``namespace``; ``check`` returns the payload,
    or None when the bytes are corrupt, which quarantines the file."""
    path = os.path.join(namespace_dir(namespace), name)
    with span("store.get", ns=namespace):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            incr(f"store.misses{{ns={namespace}}}")
            return None
        payload = check(data)
        if payload is None:
            incr(f"store.corrupt{{ns={namespace}}}")
            incr(f"store.misses{{ns={namespace}}}")
            quarantine_dir = os.path.join(root(), QUARANTINE)
            os.makedirs(quarantine_dir, exist_ok=True)
            try:
                os.replace(
                    path, os.path.join(quarantine_dir, f"{namespace}.{name}")
                )
            except OSError:
                pass
            return None
        incr(f"store.hits{{ns={namespace}}}")
        incr(f"store.bytes_read{{ns={namespace}}}", len(data))
        return payload


def write(namespace: str, name: str, data: bytes) -> str:
    """Atomically write one file of ``namespace``; returns its path."""
    directory = namespace_dir(namespace)
    path = os.path.join(directory, name)
    with span("store.put", ns=namespace):
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            prefix=f".{name[:16]}-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        incr(f"store.stores{{ns={namespace}}}")
        incr(f"store.bytes_written{{ns={namespace}}}", len(data))
    return path


def info(namespace: str) -> dict[str, object]:
    """Summary of one namespace (or the quarantine): directory, whether
    it is on, entry count, total bytes, oldest/newest mtime."""
    directory = os.path.join(root(), namespace)
    entries = 0
    total_bytes = 0
    mtimes = []
    names = os.listdir(directory) if os.path.isdir(directory) else []
    for name in names:
        if name.startswith("."):
            continue  # a temp file of an in-flight write
        try:
            status = os.stat(os.path.join(directory, name))
        except OSError:
            continue
        entries += 1
        total_bytes += status.st_size
        mtimes.append(status.st_mtime)
    return {
        "directory": directory,
        "enabled": enabled() or namespace not in CACHES,
        "entries": entries,
        "bytes": total_bytes,
        "oldest_mtime": min(mtimes, default=None),
        "newest_mtime": max(mtimes, default=None),
    }


def clear(namespace: str) -> int:
    """Delete every file of one namespace (or the quarantine), leftover
    temp files included; returns how many entries were removed."""
    directory = os.path.join(root(), namespace)
    if not os.path.isdir(directory):
        return 0
    removed = 0
    for name in os.listdir(directory):
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            continue
        removed += not name.startswith(".")
    return removed
