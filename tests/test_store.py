"""Tests for the content-addressed store (repro.store): keys, entries,
info/clear, counters, and corruption handling for every namespace."""

from __future__ import annotations

import os

import pytest

from repro import store
from repro.analysis.session import AnalysisSession
from repro.attribution.explain import explain_program
from repro.cli import main
from repro.compile import compile_program
from repro.fuzz.corpus import load_case, resolve_case, save_case
from repro.interp.machine import run_program
from repro.obs import counter_value, forced_tracing, span_names, trace_roots
from repro.profiles.cache import cached_profile_for_source
from repro.program import Program

SOURCE = """\
int square(int x) { return x * x; }

int main(void)
{
    int i;
    int total = 0;
    for (i = 0; i < 4; i++) {
        if (i > 1) { total = total + square(i); }
    }
    return total & 7;
}
"""


def _program() -> Program:
    return Program.from_source(SOURCE, "<store-test>")


#: One real producer per namespace: it computes (or loads) an artifact
#: through the layer that owns the namespace, storing it on a miss.
PRODUCERS = {
    "profiles": lambda: cached_profile_for_source(
        SOURCE, "", lambda: run_program(_program()).profile
    ),
    "analysis": lambda: AnalysisSession(_program()).intra_estimates("markov"),
    "codegen": lambda: compile_program(_program()),
    "attribution": lambda: explain_program("compress"),
    "fuzz": lambda: save_case(SOURCE, {"seed": 0, "origin": "test"}),
}


def _load(namespace: str, name: str):
    if namespace == store.CORPUS:
        return load_case(name[: -len(".c")])
    return store.get(namespace, name)


def _entry(namespace: str) -> str:
    """The one entry ``namespace`` holds (the corpus case source)."""
    names = sorted(os.listdir(store.namespace_dir(namespace)))
    if namespace == store.CORPUS:
        names = [name for name in names if name.endswith(".c")]
    assert len(names) == 1, names
    return names[0]


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _zero_fill(data: bytes) -> bytes:
    return bytes(len(data))


def _bit_flip(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]


@pytest.mark.parametrize("corrupt", [_truncate, _zero_fill, _bit_flip])
@pytest.mark.parametrize("namespace", store.NAMESPACES)
def test_corrupt_entry_is_a_counted_quarantined_miss(
    namespace, corrupt, store_root
):
    PRODUCERS[namespace]()
    name = _entry(namespace)
    path = os.path.join(store.namespace_dir(namespace), name)
    with open(path, "rb") as handle:
        original = handle.read()
    with open(path, "wb") as handle:
        handle.write(corrupt(original))
    corrupt_before = counter_value(f"store.corrupt{{ns={namespace}}}")
    misses_before = counter_value(f"store.misses{{ns={namespace}}}")

    assert _load(namespace, name) is None
    assert counter_value(f"store.corrupt{{ns={namespace}}}") == (
        corrupt_before + 1
    )
    assert counter_value(f"store.misses{{ns={namespace}}}") == (
        misses_before + 1
    )
    assert not os.path.exists(path)
    assert os.listdir(store_root / store.QUARANTINE) == [
        f"{namespace}.{name}"
    ]

    # Recomputing stores exactly the bytes the corrupt entry replaced.
    PRODUCERS[namespace]()
    with open(path, "rb") as handle:
        assert handle.read() == original
    assert _load(namespace, name) is not None


def test_corrupt_corpus_case_does_not_resolve(store_root):
    key = save_case(SOURCE)
    path = os.path.join(store.namespace_dir(store.CORPUS), f"{key}.c")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("/* edited */\n")
    with pytest.raises(KeyError):
        resolve_case(key)


def test_cache_clear_empties_the_quarantine(store_root, capsys):
    store.put("analysis", "a" * 64, b"{}")
    path = os.path.join(store.namespace_dir("analysis"), "a" * 64)
    with open(path, "wb") as handle:
        handle.write(b"garbage")
    assert store.get("analysis", "a" * 64) is None
    assert store.info(store.QUARANTINE)["entries"] == 1
    assert main(["cache", "clear"]) == 0
    assert "quarantine: removed 1 entries" in capsys.readouterr().out
    assert os.listdir(store_root / store.QUARANTINE) == []


def test_put_get_round_trip_and_counters(store_root):
    before = {
        name: counter_value(f"store.{name}{{ns=analysis}}")
        for name in ("hits", "misses", "stores", "bytes_read", "bytes_written")
    }
    assert store.get("analysis", "k" * 64) is None
    store.put("analysis", "k" * 64, b"payload")
    assert store.get("analysis", "k" * 64) == b"payload"
    delta = {
        name: counter_value(f"store.{name}{{ns=analysis}}") - value
        for name, value in before.items()
    }
    size = os.path.getsize(
        os.path.join(store.namespace_dir("analysis"), "k" * 64)
    )
    assert delta == {
        "hits": 1,
        "misses": 1,
        "stores": 1,
        "bytes_read": size,
        "bytes_written": size,
    }


def test_one_span_per_load_and_store(store_root):
    with forced_tracing(True):
        store.put("profiles", "k" * 64, b"x")
        store.get("profiles", "k" * 64)
        names = span_names(trace_roots())
    assert {"store.put", "store.get"} <= names


def test_disabled_store_neither_reads_nor_writes(store_root, monkeypatch):
    store.put("profiles", "k" * 64, b"x")
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert store.get("profiles", "k" * 64) is None
    store.put("profiles", "j" * 64, b"y")
    assert os.listdir(store_root / "profiles") == ["k" * 64]
    assert store.info("profiles")["enabled"] is False
    # The corpus is a record, not a cache: always on.
    assert store.info(store.CORPUS)["enabled"] is True
    save_case(SOURCE)
    assert store.info(store.CORPUS)["entries"] == 2


def test_key_is_length_prefixed_and_versioned():
    assert store.key("v=1", "ab", "c") != store.key("v=1", "a", "bc")
    assert store.key("v=1", "src") != store.key("v=2", "src")
    assert store.key("v=1", "src") == store.key("v=1", "src")
    assert len(store.key("v=1")) == 64


def test_info_and_clear_skip_and_sweep_temp_files(store_root):
    store.put("codegen", "k" * 64, b"code")
    directory = store_root / "codegen"
    (directory / ".kkkk-leftover.tmp").write_bytes(b"torn")
    info = store.info("codegen")
    assert info["entries"] == 1
    assert info["directory"] == str(directory)
    assert info["oldest_mtime"] is not None
    assert store.clear("codegen") == 1
    assert os.listdir(directory) == []
    assert store.info("codegen")["oldest_mtime"] is None


def test_namespaces_live_under_the_root(store_root):
    assert store.root() == str(store_root)
    for namespace in store.NAMESPACES:
        assert store.namespace_dir(namespace) == str(store_root / namespace)
