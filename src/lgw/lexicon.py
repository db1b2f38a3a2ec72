"""DELAF-style lexicons.

One entry per line, ``surface,lemma.POS+Code+Code...``.  An empty lemma
means the lemma equals the surface form.  Comma, period and backslash
inside surface or lemma are escaped with a backslash.  ``#`` at column 0
starts a comment line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import MalformedLine
from .matcher._engine import _is_pre, _lex_symbol_sets, tokenize_raw

_ESCAPE_RE = re.compile(r"\\(.)", re.S)


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


@dataclass
class Lexicon:
    entries: dict  # surface -> tuple of LexEntry
    name: str = ""
    _index: tuple = field(default=None, repr=False, compare=False)

    def __len__(self):
        return sum(len(v) for v in self.entries.values())

    def symbol_index(self) -> dict:
        """surface -> tuple of symbol sets, the matcher's probe structure.
        Builds ``head_index()`` in the same pass."""
        if self._index is None:
            symidx, heads = {}, {}
            shared = {}  # (pos, codes) -> codes | {pos}, once per distinct tag
            for s, es in self.entries.items():
                sets = []
                for e in es:
                    syms = shared.get(e[2:])
                    if syms is None:
                        syms = shared[e[2:]] = e.codes | {e.pos}
                    sets.append(syms)
                symidx[s] = tuple(sets)
                if s.isalpha():
                    head, width = s, 1
                else:
                    # letter runs joined by single spaces are tokenized by split()
                    words = s.split(" ")
                    if not all(w.isalpha() for w in words):
                        words = [t[0] for t in tokenize_raw(s)]
                        if not words:
                            continue
                    head, width = words[0], len(words)
                if width > heads.get(head, 0):
                    heads[head] = width
            self._index = symidx, (heads, max(heads.values(), default=0))
        return self._index[0]

    def head_index(self) -> tuple:
        """(first token -> most tokens of an entry starting with it, most
        tokens of any entry): the matcher's probe window."""
        self.symbol_index()
        return self._index[1]


def _from_entries(entries, name: str) -> Lexicon:
    """The lexicon of ``entries`` without duplicates, keeping the first
    object of each and grouping by surface in first-seen order: the one
    dedupe rule of parse and merge."""
    groups: dict = {}
    for e in dict.fromkeys(entries):
        groups.setdefault(e.surface, []).append(e)
    return Lexicon({s: tuple(es) for s, es in groups.items()}, name=name)


def _unescape(s: str) -> str:
    return _ESCAPE_RE.sub(lambda m: m.group(1), s)


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace(",", "\\,").replace(".", "\\.")


def _partition_escaped(s: str, sep: str) -> tuple:
    """``str.partition`` that skips backslash-escaped characters."""
    i = 0
    while i < len(s):
        c = s[i]
        if c == "\\":
            i += 2
        elif c == sep:
            return s[:i], sep, s[i + 1 :]
        else:
            i += 1
    return s, "", ""


def _parse_tag(gram: str, line_no: int) -> tuple:
    segs = gram.strip().split("+")
    if not segs[0]:
        raise MalformedLine(line_no, "empty POS code")
    if any(not s for s in segs[1:]):
        raise MalformedLine(line_no, "empty semantic code")
    return segs[0], frozenset(segs[1:])


def parse_lexicon(text: str, name: str = "") -> Lexicon:
    entries = []
    tags: dict = {}  # raw text after the period -> (pos, codes)
    for line_no, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        if "\\" in raw:
            surface, comma, rest = _partition_escaped(raw, ",")
            lemma, period, gram = _partition_escaped(rest, ".")
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
        entries.append(LexEntry(surface, lemma or surface, *tag))
    return _from_entries(entries, name)


def render_lexicon(lex: Lexicon) -> str:
    lines = []
    for es in lex.entries.values():
        for e in es:
            lemma = "" if e.lemma == e.surface else _escape(e.lemma)
            codes = "".join("+" + c for c in sorted(e.codes))
            lines.append(f"{_escape(e.surface)},{lemma}.{e.pos}{codes}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_lexicons(lexicons, name: str = "") -> Lexicon:
    return _from_entries(
        (e for lex in lexicons for es in lex.entries.values() for e in es), name
    )


def lookup(lex: Lexicon, surface: str) -> set:
    """All entries for the surface, plus lowercase entries for
    first-letter-capitalized surfaces (sentence-initial capitalization
    must not hide lexicon hits)."""
    found = set(lex.entries.get(surface, ()))
    if surface[:1].isupper():
        found.update(lex.entries.get(surface.lower(), ()))
    return found


def token_has_mask(lex: Lexicon, surface: str, mask) -> bool:
    """Does this single token satisfy a lexical mask?

    Built-in predicates: PRE is true when the first character is uppercase
    (or some entry carries the stored code PRE); MOT is true for alphabetic
    tokens.  Dictionary masks require some entry whose POS+codes cover all
    of the mask's symbols.  The matcher kernel's predicates decide.
    """
    if mask.builtin == "PRE":
        return _is_pre(lex.symbol_index(), surface)
    if mask.builtin == "MOT":
        return surface.isalpha()
    return any(
        syms >= mask.required for syms in _lex_symbol_sets(lex.symbol_index(), surface)
    )
