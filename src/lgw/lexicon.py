"""DELAF-style lexicons.

One entry per line, ``surface,lemma.POS+Code+Code...``.  An empty lemma
means the lemma equals the surface form.  Comma, period and backslash
inside surface or lemma are escaped with a backslash.  ``#`` at column 0
starts a comment line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedLine

CASE_EXACT_THEN_LOWERCASE = "exact-then-lowercase"


@dataclass(frozen=True)
class LexEntry:
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
    case_policy: str = CASE_EXACT_THEN_LOWERCASE
    _symidx: dict = field(default=None, repr=False, compare=False)
    _heads: tuple = field(default=None, repr=False, compare=False)

    def __len__(self):
        return sum(len(v) for v in self.entries.values())

    def symbol_index(self) -> dict:
        """surface -> tuple of symbol sets, the matcher's probe structure.
        Builds ``head_index()`` along with it."""
        if self._symidx is None:
            self._symidx = {
                s: tuple(e.symbols for e in es) for s, es in self.entries.items()
            }
            self._heads = _head_index(self._symidx)
        return self._symidx

    def head_index(self) -> tuple:
        """(first token -> most non-space tokens of an entry starting with
        it, most non-space tokens of any entry): the matcher's probe window."""
        self.symbol_index()
        return self._heads


def _head_index(surfaces) -> tuple:
    # imported here because lgw.matcher imports this module
    from .matcher._engine import SPACE, tokenize_raw

    heads = {}
    for s in surfaces:
        if s.isalpha():
            head, width = s, 1
        else:
            # letter runs joined by single spaces are tokenized by split()
            words = s.split(" ")
            if not all(w.isalpha() for w in words):
                words = [t[0] for t in tokenize_raw(s) if t[3] != SPACE]
                if not words:
                    continue
            head, width = words[0], len(words)
        if width > heads.get(head, 0):
            heads[head] = width
    return heads, max(heads.values(), default=0)


def _find_unescaped(s: str, sep: str, start: int = 0) -> int:
    i = start
    while i < len(s):
        c = s[i]
        if c == "\\":
            i += 2
            continue
        if c == sep:
            return i
        i += 1
    return -1


def _unescape(s: str) -> str:
    out = []
    i = 0
    while i < len(s):
        if s[i] == "\\" and i + 1 < len(s):
            out.append(s[i + 1])
            i += 2
        else:
            out.append(s[i])
            i += 1
    return "".join(out)


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace(",", "\\,").replace(".", "\\.")


def parse_lexicon(text: str, name: str = "") -> Lexicon:
    entries: dict = {}
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        comma = _find_unescaped(raw, ",")
        if comma < 0:
            raise MalformedLine(line_no, "missing ',' separator")
        surface = _unescape(raw[:comma])
        if not surface:
            raise MalformedLine(line_no, "empty surface form")
        rest = raw[comma + 1 :]
        period = _find_unescaped(rest, ".")
        if period < 0:
            raise MalformedLine(line_no, "missing '.' separator")
        lemma = _unescape(rest[:period]) or surface
        gram = rest[period + 1 :].strip()
        segs = gram.split("+")
        if not segs[0]:
            raise MalformedLine(line_no, "empty POS code")
        if any(not s for s in segs[1:]):
            raise MalformedLine(line_no, "empty semantic code")
        entry = LexEntry(surface, lemma, segs[0], frozenset(segs[1:]))
        if entry in seen:
            continue
        seen.add(entry)
        entries.setdefault(surface, [])
        entries[surface].append(entry)
    return Lexicon({s: tuple(es) for s, es in entries.items()}, name=name)


def render_lexicon(lex: Lexicon) -> str:
    lines = []
    for es in lex.entries.values():
        for e in es:
            lemma = "" if e.lemma == e.surface else _escape(e.lemma)
            codes = "".join("+" + c for c in sorted(e.codes))
            lines.append(f"{_escape(e.surface)},{lemma}.{e.pos}{codes}")
    return "\n".join(lines) + ("\n" if lines else "")


def merge_lexicons(lexicons, name: str = "") -> Lexicon:
    entries: dict = {}
    seen = set()
    for lex in lexicons:
        for surface, es in lex.entries.items():
            for e in es:
                if e in seen:
                    continue
                seen.add(e)
                entries.setdefault(surface, []).append(e)
    return Lexicon({s: tuple(es) for s, es in entries.items()}, name=name)


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
    of the mask's symbols.
    """
    if mask.builtin == "PRE":
        if surface[:1].isupper():
            return True
        return any("PRE" in e.symbols for e in lookup(lex, surface))
    if mask.builtin == "MOT":
        return surface.isalpha()
    required = mask.required
    return any(e.symbols >= required for e in lookup(lex, surface))
