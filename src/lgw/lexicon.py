"""DELAF-style lexicons.

One entry per line, ``surface,lemma.POS+Code+Code...``.  An empty lemma
means the lemma equals the surface form.  Comma, period and backslash
inside surface or lemma are escaped with a backslash.  ``#`` at column 0
starts a comment line.

Grammars see a lexicon only through masks such as ``<N+PR>``, so a
``Lexicon`` is the matcher's two indexes and nothing else: each surface's
distinct symbol sets (POS plus codes) and the head index.  The lemma of a
line is checked but not kept, and lines that differ only in their lemma
give one symbol set.

A corpus file's text lexicon is the part of a lexicon that the matcher
can look up on its text (``text_lexicon``); ``lgw apply`` keeps it in
the file's sidecar (``lgw.sidecar``), so that a later apply with the same
lexicon files does not parse them.
"""

from __future__ import annotations

import re

from .errors import MalformedLine, numbered_lines
from .grammar import _unescape
from .matcher._engine import probe_keys, tokenize_raw

# surface, comma, lemma, period, tag; a backslash escapes the next character
_ESCAPED_LINE_RE = re.compile(r"((?:\\.?|[^\\,])*)(,?)((?:\\.?|[^\\.])*)(\.?)(.*)", re.S)


class Lexicon:
    """The matcher's indexes of a lexicon: surface -> its distinct symbol
    sets, first seen first, and the head index."""

    def __init__(self, symbols: dict, heads: tuple, name: str = ""):
        self.name = name
        self._symbols = symbols
        self._heads = heads

    # perfbench/trace.py is the only reader; ROADMAP open item 2
    # deletes it
    @property
    def entries(self) -> dict:
        return self._symbols

    # perfbench/trace.py is the only caller; ROADMAP open item 2
    # deletes it
    def __len__(self):
        return sum(map(len, self._symbols.values()))

    def symbol_index(self) -> dict:
        """surface -> tuple of symbol sets, the matcher's probe structure."""
        return self._symbols

    def head_index(self) -> tuple:
        """(first token -> most tokens of an entry starting with it, most
        tokens of any entry): the matcher's probe window."""
        return self._heads


def _build(pairs) -> tuple:
    """(symbol index, head index) of the ``(surface, symbols)`` pairs in one
    pass, keeping each surface's distinct symbol sets in first-seen order."""
    symidx, multi, heads = {}, {}, {}
    for surface, syms in pairs:
        if surface in symidx:  # rare: a dict per surface, so that no tuple grows set by set
            multi.setdefault(surface, dict.fromkeys(symidx[surface]))[syms] = None
            continue
        symidx[surface] = (syms,)
        # letter runs joined by single spaces are tokenized by split()
        words = surface.split(" ")
        if "" in words or not "".join(words).isalpha():
            words = tokenize_raw(surface)[0]
        if words and len(words) > heads.get(words[0], 0):
            heads[words[0]] = len(words)
    for surface, sets in multi.items():
        symidx[surface] = tuple(sets)
    return symidx, (heads, max(heads.values(), default=0))


def _parse_tag(gram: str, line_no: int) -> frozenset:
    """The symbol set, POS plus codes, of the text after a line's period."""
    segs = gram.strip().split("+")
    if not segs[0]:
        raise MalformedLine(line_no, "empty POS code")
    if any(not s for s in segs[1:]):
        raise MalformedLine(line_no, "empty semantic code")
    return frozenset(segs)


def _read_lines(text: str):
    """``(surface, symbols)`` of every entry line.  The lemma is checked
    but not kept."""
    tags: dict = {}  # raw text after the period -> symbol set
    for line_no, raw in numbered_lines(text):
        if not raw.strip() or raw.startswith("#"):
            continue
        if "\\" in raw:
            surface, comma, _, period, gram = _ESCAPED_LINE_RE.fullmatch(raw).groups()
            surface = _unescape(surface)
        else:
            surface, comma, rest = raw.partition(",")
            _, period, gram = rest.partition(".")
        if not comma:
            raise MalformedLine(line_no, "missing ',' separator")
        if not surface:
            raise MalformedLine(line_no, "empty surface form")
        if not period:
            raise MalformedLine(line_no, "missing '.' separator")
        syms = tags.get(gram)
        if syms is None:
            syms = tags[gram] = _parse_tag(gram, line_no)
        yield surface, syms


def parse_lexicon(text: str, name: str = "") -> Lexicon:
    # a leading byte order mark is not part of the first surface
    return Lexicon(*_build(_read_lines(text.removeprefix("\ufeff"))), name)


def merge_lexicons(lexicons, name: str = "") -> Lexicon:
    """The indexes of ``lexicons`` merged: every surface, first seen first,
    with the symbol sets it has in any of them, first seen first, and the
    widest head of every first token.  A single lexicon's indexes are kept
    as they are."""
    lexicons = list(lexicons)
    if len(lexicons) == 1:
        (lex,) = lexicons
        return Lexicon(lex._symbols, lex._heads, name)
    symidx, heads = {}, {}
    for lex in lexicons:
        for surface, sets in lex._symbols.items():
            have = symidx.setdefault(surface, sets)
            if have is not sets:
                symidx[surface] = tuple(dict.fromkeys(have + sets))
        for word, n in lex._heads[0].items():
            if n > heads.get(word, 0):
                heads[word] = n
    return Lexicon(symidx, (heads, max((lex._heads[1] for lex in lexicons), default=0)), name)


def text_lexicon(lex: Lexicon, toks: list, text: str) -> Lexicon:
    """The part of ``lex`` that the matcher can look up on ``toks``, token
    columns of ``text``: the entries and head widths under the keys it can probe
    there (``_engine.probe_keys``), and the same longest entry.  The
    matcher finds the same entries on that text with it as with ``lex``."""
    symidx = lex.symbol_index()
    heads, longest = lex.head_index()
    symbols, widths = {}, {}
    for key in probe_keys(toks, text, (heads, longest)):
        if key in symidx:
            symbols[key] = symidx[key]
        if key in heads:
            widths[key] = heads[key]
    return Lexicon(symbols, (widths, longest), lex.name)
