"""DELAF-style lexicons.

One entry per line, ``surface,lemma.POS+Code+Code...``.  An empty lemma
means the lemma equals the surface form.  Comma, period and backslash
inside surface or lemma are escaped with a backslash.  ``#`` at column 0
starts a comment line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import MalformedLine
from .matcher._engine import _lex_symbol_sets, _match_mask, tokenize_raw

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
    ``_build``.  ``entries`` is built when first read, unless given."""

    def __init__(self, entries=None, name="", _built=None):
        self.name = name
        self._entries = entries
        self._built = _built or _build(e for es in entries.values() for e in es)

    @property
    def entries(self) -> dict:
        """surface -> tuple of LexEntry, both in first-seen order."""
        if self._entries is None:
            groups: dict = {}
            for r in self._built[0]:
                groups.setdefault(r[0], []).append(r if type(r) is LexEntry else LexEntry._make(r))
            self._entries = {s: tuple(es) for s, es in groups.items()}
        return self._entries

    def __len__(self):
        return len(self._built[0])

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
    for line_no, raw in enumerate(text.splitlines(), 1):
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
    built = [lex._built for lex in lexicons]
    if len(built) == 1:
        return Lexicon(name=name, _built=built[0])
    return Lexicon(name=name, _built=_build(r for b in built for r in b[0]))


def lookup(lex: Lexicon, surface: str) -> set:
    """All entries for the surface, plus lowercase entries for
    first-letter-capitalized surfaces (sentence-initial capitalization
    must not hide lexicon hits)."""
    found = set(lex.entries.get(surface, ()))
    if surface[:1].isupper():
        found.update(lex.entries.get(surface.lower(), ()))
    return found


def token_has_mask(lex: Lexicon, surface: str, mask) -> bool:
    """Does this surface, taken as one token, satisfy a lexical mask?

    The matcher kernel's ``_match_mask`` decides, with the surface's
    entries (and, for a capitalized surface, its lowercase form's) as the
    token's one lexicon entry.
    """
    symindex = lex.symbol_index()
    atom = ("mask", mask.required, mask.builtin or "", None)
    entries = {0: ((1, surface, _lex_symbol_sets(symindex, surface)),)}
    toks = ((surface, 0, len(surface), 0),)
    return _match_mask(atom, toks, surface, symindex, lex.head_index(), entries, 0, 1) is not None
