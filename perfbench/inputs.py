"""Seeded workload inputs: request streams of repeats and of edits.

Everything a workload feeds the program is built here from the
workload seed and the repository's own suite sources, so the same
seed always yields byte-identical inputs.  Nothing in this module
times anything.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

#: First literal value an edit writes; each request adds its index, so
#: no two edited sources of one stream are equal.
EDIT_BASE_VALUE = 100000


@dataclass(frozen=True)
class Source:
    """One translation unit sent to the program."""

    name: str
    text: str

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def base_sources() -> list[Source]:
    """The 14 base suite programs, in Table 1 order."""
    from repro.suite import program_names, program_source

    return [Source(f"{name}.c", program_source(name)) for name in program_names()]


def client_shares(clients: int) -> list[list[Source]]:
    """The base sources dealt to ``clients`` shares in order of size, so
    every share carries about the same amount of work."""
    by_size = sorted(base_sources(), key=lambda source: len(source.text))
    return [by_size[share::clients] for share in range(clients)]


def repeat_stream(seed: object, rounds: int, clients: int) -> list[Source]:
    """``serve-warm`` traffic: exact repeats of the base sources, each
    sent ``rounds`` times.

    Request ``i`` comes from share ``i % clients`` of
    :func:`client_shares`, and each share's requests are a seeded
    shuffle of its sources repeated ``rounds`` times.  A generator
    whose client ``c`` sends requests ``c, c + clients, ...`` therefore
    never has two equal requests in flight, so the daemon never
    coalesces them and its pool-hit count equals the request count.
    The mix is the same for every seed; only the order changes.
    """
    rng = random.Random(f"serve-warm/{seed}/{rounds}")
    sequences = []
    for share in client_shares(clients):
        sequence = share * rounds
        rng.shuffle(sequence)
        sequences.append(sequence)
    length = min(len(sequence) for sequence in sequences)
    return [sequences[index % clients][index // clients] for index in range(length * clients)]


# ----------------------------------------------------------------------
# One-literal edits.

_COMMENT_OR_LITERAL = re.compile(
    r"/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'",
    re.S,
)
_DECIMAL = re.compile(r"(?<![\w.])[1-9]\d*(?![\w.])|(?<![\w.])0(?![\w.xX])")
_CASE_BEFORE = re.compile(r"\bcase\s*$")


def _blanked(text: str) -> str:
    """``text`` with comments and string/char literals replaced by
    spaces (newlines kept), so offsets still index the original."""

    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return _COMMENT_OR_LITERAL.sub(blank, text)


def function_body_literals(text: str) -> list[tuple[int, int]]:
    """``(start, end)`` offsets of decimal integer literals that sit in
    a function body, outside ``case`` labels and preprocessor lines.

    A body is a brace block opened at file scope right after a ``)``
    (a function definition); file-scope initializers and struct bodies
    are skipped.
    """
    blank = _blanked(text)
    spans: list[tuple[int, int]] = []
    depth = 0
    body_start = -1
    index = 0
    length = len(blank)
    while index < length:
        char = blank[index]
        if char == "#" and (index == 0 or blank[index - 1] == "\n"):
            newline = blank.find("\n", index)
            index = length if newline < 0 else newline
            continue
        if char == "{":
            if depth == 0 and blank[:index].rstrip().endswith(")"):
                body_start = index
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0 and body_start >= 0:
                spans.extend(_literals_between(blank, body_start, index))
                body_start = -1
        index += 1
    return spans


def _literals_between(blank: str, start: int, end: int) -> list[tuple[int, int]]:
    found = []
    for match in _DECIMAL.finditer(blank, start, end):
        line_start = blank.rfind("\n", 0, match.start()) + 1
        if blank[line_start:match.start()].lstrip().startswith("#"):
            continue
        if _CASE_BEFORE.search(blank, line_start, match.start()):
            continue
        found.append((match.start(), match.end()))
    return found


def apply_edit(text: str, span: tuple[int, int], value: int) -> str:
    """``text`` with the literal at ``span`` replaced by ``value``."""
    start, end = span
    return text[:start] + str(value) + text[end:]


def edit_stream(seed: int, rounds: int, first: int = 0) -> list[Source]:
    """``serve-edit`` traffic: ``rounds`` one-literal edits of each base
    source, in seeded order.  Request ``i`` rewrites one seeded literal
    of one function body to ``EDIT_BASE_VALUE + first + i``, so every
    source in the stream (and in a later stream starting at ``first``
    past this one) is distinct from every other and from the warm
    originals."""
    rng = random.Random(f"serve-edit/{seed}/{first}")
    sources = base_sources()
    candidates = {source.name: function_body_literals(source.text) for source in sources}
    order = sources * rounds
    rng.shuffle(order)
    stream = []
    for offset, source in enumerate(order):
        spans = candidates[source.name]
        value = EDIT_BASE_VALUE + first + offset
        stream.append(Source(source.name, apply_edit(source.text, spans[rng.randrange(len(spans))], value)))
    return stream
