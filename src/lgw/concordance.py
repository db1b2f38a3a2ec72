"""Concordances: occurrences with one line of left/right context.

File format (``.cnc``, UTF-8, LF): a header line

    #concordance v1 <grammar> <text_id> <left_width> <right_width>

then one TSV line per occurrence, ``start<TAB>end<TAB>left<TAB>match<TAB>right``
with backslash, TAB, LF and CR escaped as ``\\\\``, ``\\t``, ``\\n``, ``\\r``.
``build_concordance`` sorts lines by (start, end, match); empty grammar
or text id is written as ``-``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MalformedConcordanceLine, SpanOutOfBounds

_NEWLINE_RE = re.compile(r"\r\n|\r|\n")
_ESCAPE_RE = re.compile(r"\\(.)", re.S)
_UNESCAPE = {"t": "\t", "n": "\n", "r": "\r"}


@dataclass(frozen=True)
class ConcordanceLine:
    start: int
    end: int
    left: str
    match: str
    right: str


@dataclass
class Concordance:
    lines: list
    source_grammar: str = ""
    source_text_id: str = ""
    left_width: int = 40
    right_width: int = 60


def build_concordance(
    occs, text: str, left: int = 40, right: int = 60, *, grammar=None, text_id=""
) -> Concordance:
    """One line per distinct (start, end, merged) occurrence, with up to
    ``left`` and ``right`` characters of context clipped at the text
    bounds and newlines normalized to spaces."""
    if grammar is None:
        grammar = occs[0].grammar if occs else ""
    seen = set()
    lines = []
    for o in occs:
        if o.start < 0 or o.end > len(text) or o.start >= o.end:
            raise SpanOutOfBounds(f"occurrence span ({o.start}, {o.end}) out of bounds")
        key = (o.start, o.end, o.merged)
        if key in seen:
            continue
        seen.add(key)
        before = _NEWLINE_RE.sub(" ", text[max(0, o.start - left) : o.start])
        after = _NEWLINE_RE.sub(" ", text[o.end : o.end + right])
        lines.append(ConcordanceLine(o.start, o.end, before, o.merged, after))
    lines.sort(key=lambda l: (l.start, l.end, l.match))
    return Concordance(
        lines,
        source_grammar=grammar,
        source_text_id=text_id,
        left_width=left,
        right_width=right,
    )


def _esc(s: str) -> str:
    return (
        s.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _unesc(s: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _UNESCAPE.get(m.group(1), m.group(1)), s)


def _header_field(s: str) -> str:
    if any(c.isspace() for c in s):
        raise ValueError(f"whitespace not allowed in header field {s!r}")
    return s or "-"


def write_concordance(c: Concordance) -> str:
    out = [
        f"#concordance v1 {_header_field(c.source_grammar)} "
        f"{_header_field(c.source_text_id)} {c.left_width} {c.right_width}"
    ]
    for l in c.lines:
        out.append(
            f"{l.start}\t{l.end}\t{_esc(l.left)}\t{_esc(l.match)}\t{_esc(l.right)}"
        )
    return "\n".join(out) + "\n"


def parse_concordance(s: str) -> Concordance:
    # split on LF only: splitlines() would also break on form feeds and
    # similar characters, which are legal (escaped-free) inside fields
    lines = [l.rstrip("\r") for l in s.split("\n")]
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedConcordanceLine(1, "missing header")
    m = re.fullmatch(r"#concordance v1 (\S+) (\S+) ([0-9]+) ([0-9]+)", lines[0])
    if not m:
        raise MalformedConcordanceLine(1, f"bad header {lines[0]!r}")
    grammar = "" if m.group(1) == "-" else m.group(1)
    text_id = "" if m.group(2) == "-" else m.group(2)
    conc_lines = []
    for line_no, raw in enumerate(lines[1:], 2):
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 5:
            raise MalformedConcordanceLine(
                line_no, f"expected 5 TAB-separated fields, got {len(fields)}"
            )
        a, b = fields[0], fields[1]
        # int() would also take "+1", " 12", "1_0" and non-ASCII digits
        if not (a.isdigit() and b.isdigit() and a.isascii() and b.isascii()):
            raise MalformedConcordanceLine(line_no, "span is not two ASCII digit runs")
        start, end = int(a), int(b)
        if not 0 <= start < end:
            raise MalformedConcordanceLine(
                line_no, f"span ({start}, {end}) is not 0 <= start < end"
            )
        conc_lines.append(
            ConcordanceLine(
                start, end, _unesc(fields[2]), _unesc(fields[3]), _unesc(fields[4])
            )
        )
    return Concordance(
        conc_lines,
        source_grammar=grammar,
        source_text_id=text_id,
        left_width=int(m.group(3)),
        right_width=int(m.group(4)),
    )
