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

A lexicon file can keep its matcher indexes in a sidecar,
``__lgwcache__/<file name>.idx`` beside it (``read_sidecar`` and
``write_sidecar``), so that a later load of the same bytes skips the parse.
A corpus file can keep its text lexicon, the part of a lexicon that the
matcher can look up on its text (``text_lexicon``), in a sidecar beside
it (``read_text_sidecar`` and ``write_text_sidecar``), so that a later
apply with the same lexicon files loads neither them nor their sidecars.
"""

from __future__ import annotations

import os
import re

from . import sidecar
from .errors import MalformedLine, numbered_lines
from .matcher._engine import probe_keys, tokenize_raw

_ESCAPE_RE = re.compile(r"\\(.)", re.S)
# surface, comma, lemma, period, tag; a backslash escapes the next character
_ESCAPED_LINE_RE = re.compile(r"((?:\\.?|[^\\,])*)(,?)((?:\\.?|[^\\.])*)(\.?)(.*)", re.S)


class Lexicon:
    """The matcher's indexes of a lexicon: surface -> its distinct symbol
    sets, first seen first, and the head index."""

    def __init__(self, symbols: dict, heads: tuple, name: str = ""):
        self.name = name
        self._symbols = symbols
        self._heads = heads

    # perfbench/trace.py is the only reader; the benchmark PR of ROADMAP
    # open item 1 deletes it
    @property
    def entries(self) -> dict:
        return self._symbols

    # perfbench/trace.py is the only caller; the benchmark PR of ROADMAP
    # open item 1 deletes it
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


def _unescape(s: str) -> str:
    return _ESCAPE_RE.sub(lambda m: m.group(1), s)


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


# The sidecar (see lgw.sidecar): its key, then marshal data of five
# columns: the distinct symbol-set tuples; the surfaces in index order; for
# each surface the number of its tuple, as bytes when 256 numbers suffice;
# the head widths dict.fromkeys(<alphabetic surfaces>, 1) does not give; and
# the widest head.  Bump SIDECAR_FORMAT whenever these columns, or what
# parse_lexicon makes of a text, change.
SIDECAR_FORMAT = 4

# A text lexicon's sidecar holds the same columns after a key of its own.
# Bump TEXT_LEXICON_FORMAT whenever what text_lexicon keeps changes.
TEXT_LEXICON_FORMAT = 1


def _sidecar_key(data: bytes) -> bytes:
    return sidecar.key(b"lexicon index", SIDECAR_FORMAT, sidecar.digest(data))


def _read_columns(path, suffix: str, key: bytes, name: str):
    columns = sidecar.read(path, suffix, key)
    if columns is None:
        return None
    try:
        sets, surfaces, ids, wider, longest = columns
        symidx = dict(zip(surfaces, map(sets.__getitem__, ids), strict=True))
        heads = dict.fromkeys(filter(str.isalpha, surfaces), 1)
        heads.update(wider)
    except (ValueError, TypeError, IndexError, AttributeError):
        return None  # not written by _write_columns
    return Lexicon(symidx, (heads, longest), name)


def _write_columns(path, suffix: str, key: bytes, lex: Lexicon) -> None:
    symidx = lex.symbol_index()
    heads, longest = lex.head_index()
    sets: dict = {}
    ids = [sets.setdefault(v, len(sets)) for v in symidx.values()]
    ones = dict.fromkeys(filter(str.isalpha, symidx), 1)
    wider = {w: n for w, n in heads.items() if ones.get(w) != n}
    columns = (tuple(sets), tuple(symidx), bytes(ids) if len(sets) <= 256 else tuple(ids),
               wider, longest)
    sidecar.write(path, suffix, key, columns)


def read_sidecar(path, data: bytes, name: str = ""):
    """The lexicon of the file at ``path``, which holds ``data``, rebuilt
    from its sidecar; None when there is no sidecar for these bytes or it
    cannot be read."""
    return _read_columns(path, "idx", _sidecar_key(data), name)


def write_sidecar(path, data: bytes, lex: Lexicon) -> None:
    """Keep ``lex``, parsed from the file at ``path`` holding ``data``, in
    that file's sidecar."""
    _write_columns(path, "idx", _sidecar_key(data), lex)


def lexicon_set(paths, data) -> tuple:
    """What names the lexicon files at ``paths``, holding ``data``, to a
    text lexicon sidecar: its suffix, one per list of paths, so that
    applies alternating lexicon sets all hit, and the digests of the
    files' bytes in order, which its key holds."""
    where = b"\0".join(os.fsencode(os.path.abspath(p)) for p in paths)
    return f"{sidecar.digest(where)[:8].hex()}.lex", b"".join(map(sidecar.digest, data))


def _text_sidecar(lexicons: tuple, digest: bytes) -> tuple:
    """(suffix, key) of the text lexicon sidecar, for the ``lexicon_set``
    ``lexicons``, of a corpus file whose text has the ``sidecar.digest``
    ``digest``: the text itself is not digested again."""
    suffix, digests = lexicons
    content = b"index %d\n%s%s" % (SIDECAR_FORMAT, digests, digest)
    return suffix, sidecar.key(b"text lexicon", TEXT_LEXICON_FORMAT, sidecar.digest(content))


def read_text_sidecar(path, lexicons: tuple, digest: bytes):
    """The text lexicon for the ``lexicon_set`` ``lexicons`` of the corpus
    file at ``path``, whose text has the digest ``digest``, from its
    sidecar; None when there is none for this text and these lexicons or
    it cannot be read."""
    return _read_columns(path, *_text_sidecar(lexicons, digest), "")


def write_text_sidecar(path, lexicons: tuple, digest: bytes, lex: Lexicon) -> None:
    """Keep ``lex``, the text lexicon for the ``lexicon_set`` ``lexicons``
    of the corpus file at ``path`` whose text has the digest ``digest``,
    in its sidecar."""
    _write_columns(path, *_text_sidecar(lexicons, digest), lex)
