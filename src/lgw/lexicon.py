"""DELAF-style lexicons.

One entry per line, ``surface,lemma.POS+Code+Code...``.  An empty lemma
means the lemma equals the surface form.  Comma, period and backslash
inside surface or lemma are escaped with a backslash.  ``#`` at column 0
starts a comment line.

A lexicon file can keep its matcher indexes in a sidecar,
``__lgwcache__/<file name>.idx`` beside it (``read_sidecar`` and
``write_sidecar``), so that a later load of the same bytes skips the parse.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import sidecar
from .errors import MalformedLine, numbered_lines
from .matcher._engine import tokenize_raw

_ESCAPE_RE = re.compile(r"\\(.)", re.S)
# surface, comma, lemma, period, tag; a backslash escapes the next character
_ESCAPED_LINE_RE = re.compile(r"((?:\\.?|[^\\,])*)(,?)((?:\\.?|[^\\.])*)(\.?)(.*)", re.S)


class LexEntry(NamedTuple):
    """One lexicon line, a named tuple: equal to the 4-tuple of its fields."""

    surface: str
    lemma: str
    pos: str
    codes: frozenset = frozenset()

    @property
    def symbols(self) -> frozenset:
        """POS and semantic codes as one set, for mask matching."""
        return self.codes | {self.pos}


class Lexicon:
    """Distinct entries as rows ``(surface, lemma, pos, codes)``, first seen
    first, and the matcher's symbol and head indexes, built together by
    ``_build``.  ``entries`` is built when first read, unless given.  A
    lexicon rebuilt from a sidecar has no rows until something asks for
    them; they are then parsed from ``_text``."""

    def __init__(self, entries=None, name="", _built=None, _text=None):
        self.name = name
        self._entries = entries
        self._built = _built or _build(e for es in entries.values() for e in es)
        self._text = _text

    @property
    def _rows(self) -> dict:
        if self._built[0] is None:
            self._built = (dict.fromkeys(_read_rows(self._text)), *self._built[1:])
        return self._built[0]

    @property
    def entries(self) -> dict:
        """surface -> tuple of LexEntry, both in first-seen order."""
        if self._entries is None:
            groups: dict = {}
            for r in self._rows:
                groups.setdefault(r[0], []).append(r if type(r) is LexEntry else LexEntry._make(r))
            self._entries = {s: tuple(es) for s, es in groups.items()}
        return self._entries

    def __len__(self):
        return len(self._rows)

    def symbol_index(self) -> dict:
        """surface -> tuple of symbol sets, the matcher's probe structure."""
        return self._built[1]

    def head_index(self) -> tuple:
        """(first token -> most tokens of an entry starting with it, most
        tokens of any entry): the matcher's probe window."""
        return self._built[2]


def _build(rows) -> tuple:
    """(distinct rows, symbol index, head index) of the 4-tuples ``rows`` in
    one pass, keeping the first object of each row and every surface's
    symbol sets in first-seen order: the dedupe and index of parse and merge."""
    seen, symidx, multi, heads = {}, {}, {}, {}
    shared = {}  # (pos, codes) -> codes | {pos}, once per distinct tag
    for row in rows:
        if row in seen:
            continue
        seen[row] = None
        surface = row[0]
        syms = shared.get(row[2:])
        if syms is None:
            syms = shared[row[2:]] = row[3] | {row[2]}
        if surface in symidx:  # rare: lists, so that no tuple grows entry by entry
            multi.setdefault(surface, list(symidx[surface])).append(syms)
            continue
        symidx[surface] = (syms,)
        # letter runs joined by single spaces are tokenized by split()
        words = surface.split(" ")
        if "" in words or not "".join(words).isalpha():
            words = [t[0] for t in tokenize_raw(surface)]
        if words and len(words) > heads.get(words[0], 0):
            heads[words[0]] = len(words)
    for surface, sets in multi.items():
        symidx[surface] = tuple(sets)
    return seen, symidx, (heads, max(heads.values(), default=0))


def _unescape(s: str) -> str:
    return _ESCAPE_RE.sub(lambda m: m.group(1), s)


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace(",", "\\,").replace(".", "\\.")


def _parse_tag(gram: str, line_no: int) -> tuple:
    segs = gram.strip().split("+")
    if not segs[0]:
        raise MalformedLine(line_no, "empty POS code")
    if any(not s for s in segs[1:]):
        raise MalformedLine(line_no, "empty semantic code")
    return segs[0], frozenset(segs[1:])


def _read_rows(text: str):
    """The row ``(surface, lemma, pos, codes)`` of every entry line."""
    tags: dict = {}  # raw text after the period -> (pos, codes)
    for line_no, raw in numbered_lines(text):
        if not raw.strip() or raw.startswith("#"):
            continue
        if "\\" in raw:
            surface, comma, lemma, period, gram = _ESCAPED_LINE_RE.fullmatch(raw).groups()
            surface, lemma = _unescape(surface), _unescape(lemma)
        else:
            surface, comma, rest = raw.partition(",")
            lemma, period, gram = rest.partition(".")
        if not comma:
            raise MalformedLine(line_no, "missing ',' separator")
        if not surface:
            raise MalformedLine(line_no, "empty surface form")
        if not period:
            raise MalformedLine(line_no, "missing '.' separator")
        tag = tags.get(gram)
        if tag is None:
            tag = tags[gram] = _parse_tag(gram, line_no)
        pos, codes = tag
        yield surface, lemma or surface, pos, codes


def parse_lexicon(text: str, name: str = "") -> Lexicon:
    return Lexicon(name=name, _built=_build(_read_rows(text)))


def render_lexicon(lex: Lexicon) -> str:
    lines = []
    for es in lex.entries.values():
        for e in es:
            lemma = "" if e.lemma == e.surface else _escape(e.lemma)
            codes = "".join("+" + c for c in sorted(e.codes))
            lines.append(f"{_escape(e.surface)},{lemma}.{e.pos}{codes}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_lexicons(lexicons, name: str = "") -> Lexicon:
    """The distinct entries of ``lexicons``, first seen first.  A single
    lexicon's rows and indexes are kept as they are."""
    lexicons = list(lexicons)
    if len(lexicons) == 1:
        (lex,) = lexicons
        return Lexicon(name=name, _built=lex._built, _text=lex._text)
    return Lexicon(name=name, _built=_build(r for lex in lexicons for r in lex._rows))


# The sidecar (see lgw.sidecar): its key, then marshal data of five
# columns: the distinct symbol-set tuples; the surfaces in index order; for
# each surface the number of its tuple, as bytes when 256 numbers suffice;
# the head widths dict.fromkeys(<alphabetic surfaces>, 1) does not give; and
# the widest head.  Bump SIDECAR_FORMAT whenever these columns, or what
# parse_lexicon makes of a text, change.
SIDECAR_FORMAT = 2


def _sidecar_key(data: bytes) -> bytes:
    return sidecar.key(b"lexicon index", SIDECAR_FORMAT, data)


def read_sidecar(path, data: bytes, text: str, name: str = ""):
    """The lexicon of the file at ``path``, which holds ``data`` decoded as
    ``text``, rebuilt from its sidecar; None when there is no sidecar for
    these bytes or it cannot be read."""
    columns = sidecar.read(path, "idx", _sidecar_key(data))
    if columns is None:
        return None
    try:
        sets, surfaces, ids, wider, longest = columns
        symidx = dict(zip(surfaces, map(sets.__getitem__, ids), strict=True))
        heads = dict.fromkeys(filter(str.isalpha, surfaces), 1)
        heads.update(wider)
    except (ValueError, TypeError, IndexError, AttributeError):
        return None  # not written by write_sidecar
    return Lexicon(name=name, _built=(None, symidx, (heads, longest)), _text=text)


def write_sidecar(path, data: bytes, lex: Lexicon) -> None:
    """Keep ``lex``, parsed from the file at ``path`` holding ``data``, in
    that file's sidecar."""
    symidx = lex.symbol_index()
    heads, longest = lex.head_index()
    sets: dict = {}
    ids = [sets.setdefault(v, len(sets)) for v in symidx.values()]
    ones = dict.fromkeys(filter(str.isalpha, symidx), 1)
    wider = {w: n for w, n in heads.items() if ones.get(w) != n}
    columns = (tuple(sets), tuple(symidx), bytes(ids) if len(sets) <= 256 else tuple(ids),
               wider, longest)
    sidecar.write(path, "idx", _sidecar_key(data), columns)
