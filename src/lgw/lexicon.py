"""DELAF-style lexicons.

One entry per line, ``surface,lemma.POS+Code+Code...``.  An empty lemma
means the lemma equals the surface form.  Comma, period and backslash
inside surface or lemma are escaped with a backslash.  ``#`` at column 0
starts a comment line.

Grammars see a lexicon only through masks such as ``<N+PR>``, so a
``Lexicon`` is the matcher's two indexes and nothing else: each surface's
distinct symbol sets (POS plus codes) and the prefix index, where the
matcher stops looking for longer entries.  The lemma of a line is
checked but not kept, and lines that differ only in their lemma give one
symbol set.

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
    sets, first seen first, and the prefix index."""

    def __init__(self, symbols: dict, prefixes: tuple, name: str = ""):
        self.name = name
        self._symbols = symbols
        self._prefixes = prefixes

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

    def prefix_index(self) -> tuple:
        """(every proper token prefix of every multi-token surface, most
        tokens of any entry): where the matcher's probes stop."""
        return self._prefixes


def _build(pairs) -> tuple:
    """(symbol index, prefix index) of the ``(surface, symbols)`` pairs in one
    pass, keeping each surface's distinct symbol sets in first-seen order."""
    symidx, multi, prefixes, longest = {}, {}, set(), 0
    for surface, syms in pairs:
        if surface in symidx:  # rare: a dict per surface, so that no tuple grows set by set
            multi.setdefault(surface, dict.fromkeys(symidx[surface]))[syms] = None
            continue
        symidx[surface] = (syms,)
        if surface.isalpha():  # one word, the most common entry: no prefix
            longest = longest or 1
            continue
        # letter runs joined by single spaces are tokenized by split()
        words = surface.split(" ")
        if "" in words or not "".join(words).isalpha():
            words, starts = tokenize_raw(surface)
            for word, start in zip(words[:-1], starts):
                prefixes.add(surface[: start + len(word)])
        else:  # the words are one space apart
            end = -1
            for word in words[:-1]:
                end += len(word) + 1
                prefixes.add(surface[:end])
        if len(words) > longest:
            longest = len(words)
    for surface, sets in multi.items():
        symidx[surface] = tuple(sets)
    return symidx, (prefixes, longest)


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
    union of their prefixes.  A single lexicon's indexes are kept as they
    are."""
    lexicons = list(lexicons)
    if len(lexicons) == 1:
        (lex,) = lexicons
        return Lexicon(lex._symbols, lex._prefixes, name)
    symidx = {}
    for lex in lexicons:
        for surface, sets in lex._symbols.items():
            have = symidx.setdefault(surface, sets)
            if have is not sets:
                symidx[surface] = tuple(dict.fromkeys(have + sets))
    prefixes = set().union(*(lex._prefixes[0] for lex in lexicons))
    return Lexicon(symidx, (prefixes, max((lex._prefixes[1] for lex in lexicons), default=0)), name)


def text_lexicon(lex: Lexicon, toks: list, text: str) -> Lexicon:
    """The part of ``lex`` that the matcher can look up on ``toks``, token
    columns of ``text``: the entries and prefixes under the keys it can
    probe there (``_engine.probe_keys``), and the same longest entry.  The
    matcher finds the same entries on that text with it as with ``lex``."""
    symidx = lex.symbol_index()
    prefixes, longest = lex.prefix_index()
    symbols, kept = {}, set()
    for key in probe_keys(toks, text, (prefixes, longest)):
        if key in symidx:
            symbols[key] = symidx[key]
        if key in prefixes:
            kept.add(key)
    return Lexicon(symbols, (kept, longest), lex.name)
