"""Concordances: occurrences with one line of left/right context.

File format (``.cnc``, UTF-8, LF): an optional first line
``# generated <time>`` (what ``lgw apply --stamp`` writes), a header line

    #concordance v1 <grammar> <text_id> <left_width> <right_width>

then one TSV line per occurrence, ``start<TAB>end<TAB>left<TAB>match<TAB>right``
with backslash, TAB, LF and CR escaped as ``\\\\``, ``\\t``, ``\\n``, ``\\r``.
``build_concordance`` sorts lines by (start, end, match); empty grammar
or text id is written as ``-``.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import NamedTuple

from .errors import MalformedConcordanceLine, SpanOutOfBounds

_NEWLINE_RE = re.compile(r"\r\n|\r|\n")
_ESCAPE_RE = re.compile(r"\\(.)", re.S)
_UNESCAPE = {"t": "\t", "n": "\n", "r": "\r"}


class ConcordanceLine(NamedTuple):
    """One occurrence: its span in the text, ``match`` (the matched text
    with the grammar's outputs spliced in) and up to the concordance's
    widths of context on each side.  Lines compare and hash by their five
    fields."""

    start: int
    end: int
    left: str
    match: str
    right: str


# (start, end, match): the order of build_concordance and the identity
# of an occurrence in concorddiff
line_key = itemgetter(0, 1, 3)


class Concordance(NamedTuple):
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
    lines.sort(key=line_key)
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
    """The concordance in the text of a ``.cnc`` file.  One first line
    ``# generated ...`` is skipped; a line that does not parse raises
    ``MalformedConcordanceLine`` with its line number in the file.
    Escapes are undone only in a line that holds a backslash."""
    # split on LF only: splitlines() would also break on form feeds and
    # similar characters, which are legal (escaped-free) inside fields
    lines = s.split("\n")
    if "\r" in s:
        lines = [l.rstrip("\r") for l in lines]
    if lines[-1] == "":
        lines.pop()
    head = 1 if lines and lines[0].startswith("# generated ") else 0
    if len(lines) == head:
        raise MalformedConcordanceLine(head + 1, "missing header")
    m = re.fullmatch(
        r"#concordance v1 (\S+) (\S+) (0|[1-9][0-9]*) (0|[1-9][0-9]*)", lines[head]
    )
    if not m:
        raise MalformedConcordanceLine(head + 1, f"bad header {lines[head]!r}")
    grammar = "" if m.group(1) == "-" else m.group(1)
    text_id = "" if m.group(2) == "-" else m.group(2)
    conc_lines = []
    for line_no, raw in enumerate(lines[head + 1 :], head + 2):
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 5:
            raise MalformedConcordanceLine(
                line_no, f"expected 5 TAB-separated fields, got {len(fields)}"
            )
        a, b, left, match, right = fields
        # int() would also take "+1", " 12", "1_0", "01" and non-ASCII digits
        if not (a.isdigit() and b.isdigit() and a.isascii() and b.isascii()):
            raise MalformedConcordanceLine(line_no, "span is not two ASCII digit runs")
        if a[0] == "0" != a or b[0] == "0" != b:
            raise MalformedConcordanceLine(line_no, "span has a leading zero")
        start, end = _digits_value(a, line_no), _digits_value(b, line_no)
        if not 0 <= start < end:
            raise MalformedConcordanceLine(
                line_no, f"span ({start}, {end}) is not 0 <= start < end"
            )
        if "\\" in raw:
            left, match, right = _unesc(left), _unesc(match), _unesc(right)
        conc_lines.append(ConcordanceLine(start, end, left, match, right))
    return Concordance(
        conc_lines,
        source_grammar=grammar,
        source_text_id=text_id,
        left_width=_digits_value(m.group(3), head + 1),
        right_width=_digits_value(m.group(4), head + 1),
    )


def _digits_value(digits: str, line_no: int) -> int:
    # int() refuses more digits than sys.get_int_max_str_digits()
    try:
        return int(digits)
    except ValueError:
        raise MalformedConcordanceLine(
            line_no, f"{len(digits)}-digit number is too long"
        ) from None
