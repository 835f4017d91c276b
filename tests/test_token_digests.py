"""The lexer's token stream, pinned by digest for every registry program.

``token_digests.json`` maps each base and suite-XL program to the
sha256 of its preprocessed token stream, one
``(kind, text, value, line, column)`` row per token.  Any change to what
the lexer produces — a kind, a spelling, a decoded literal value, or a
position — changes a digest.

Regenerate after an *intentional* change to tokenization with::

    PYTHONPATH=src python tests/test_token_digests.py --regenerate
"""

import hashlib
import json
import os
import sys

import pytest

DIGESTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "token_digests.json"
)


def token_digest(name: str) -> str:
    """sha256 over one registry program's preprocessed token stream."""
    from repro.frontend import preprocess, tokenize
    from repro.suite import program_source

    digest = hashlib.sha256()
    for token in tokenize(preprocess(program_source(name), name), name):
        row = (
            token.kind.name,
            token.text,
            token.value,
            token.location.line,
            token.location.column,
        )
        digest.update(repr(row).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _program_names() -> list[str]:
    from repro.suite import known_program_names

    return known_program_names("all")


def _load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_digests_cover_every_registry_program():
    assert sorted(_load_digests()) == sorted(_program_names())


@pytest.mark.parametrize("name", _program_names())
def test_token_stream_matches_pinned_digest(name):
    assert token_digest(name) == _load_digests()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_token_digests.py --regenerate")
    digests = {name: token_digest(name) for name in _program_names()}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
