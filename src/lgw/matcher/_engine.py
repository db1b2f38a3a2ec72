"""Matching kernel: tokenization, sentence boundaries and grammar application.

This module is deliberately self-contained and works on primitive dicts
and tuples only, so the same source compiles unchanged as a C extension
(see ``setup.py``); the package falls back to this interpreter when the
extension is unavailable.

Token tuples are ``(surface, start, end, kind)`` with kind 0=word,
1=number, 2=punct, 3=space.  Compiled grammars (built by
``lgw.matcher.compile_grammar_set``) are plain dicts::

    {"main": name,
     "graphs": {name: {"initial": id, "final": id,
                       "succ": {id: (id, ...)},
                       "boxes": {id: (output_or_None, rest, exact, folded)},
                       "first": first_set}}}

A box's alternatives are split for first-token dispatch: ``exact`` maps
the first piece of each case-sensitive literal-first alternative to those
alternatives, ``folded`` does the same for case-folded literals (keyed by
the lowercased piece), and ``rest`` holds every other alternative.  An
alternative is a tuple of atoms:

* ``("lit", pieces, ci)`` -- pieces are the literal's non-space token
  surfaces (lowercased when ci is true);
* ``("mask", required_frozenset_or_None, builtin, compiled_filter_or_None)``;
* ``("eps",)``;
* ``("call", graph_name)``.

A graph's ``first`` is ``None`` when a match may begin with any token,
else ``(exact_pieces, folded_pieces, mask_flags)``: a match can only begin
with a token equal to an exact piece, whose lowercase form is a folded
piece, or that passes one of the flagged masks ("PRE", "MOT", or "dict"
for dictionary masks).

The lexicon arrives as two structures from ``Lexicon``: the symbol index
(surface -> tuple of symbol sets) and the head index ``(heads, longest)``,
where ``heads`` maps the first token of every entry to the largest number
of non-space tokens of an entry starting with it and ``longest`` is that
number over all entries.
"""

WORD = 0
NUMBER = 1
PUNCT = 2
SPACE = 3


def tokenize_raw(text):
    """Maximal letter runs are words, digit runs numbers, whitespace runs
    spaces; every other character is its own punct token."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            toks.append((text[i:j], i, j, SPACE))
            i = j
        elif c.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            toks.append((text[i:j], i, j, WORD))
            i = j
        elif c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append((text[i:j], i, j, NUMBER))
            i = j
        else:
            toks.append((c, i, i + 1, PUNCT))
            i += 1
    return toks


def sentence_boundaries(toks, abbreviations):
    """Indices of '.' tokens that end a sentence: followed by whitespace and
    an uppercase word, unless the preceding word is a known abbreviation or
    a single uppercase letter."""
    bset = set()
    n = len(toks)
    for idx in range(n):
        tok = toks[idx]
        if tok[3] != PUNCT or tok[0] != ".":
            continue
        if idx + 2 >= n or toks[idx + 1][3] != SPACE:
            continue
        nxt = toks[idx + 2]
        if nxt[3] != WORD or not nxt[0][:1].isupper():
            continue
        if idx > 0:
            prev = toks[idx - 1]
            if prev[3] == WORD and (
                prev[0] in abbreviations
                or (len(prev[0]) == 1 and prev[0].isupper())
            ):
                continue
        bset.add(idx)
    return bset


def _lex_symbol_sets(symindex, surface):
    syms = symindex.get(surface, ())
    if surface[:1].isupper():
        low = symindex.get(surface.lower())
        if low:
            syms = syms + low
    return syms


def _skip_spaces(toks, i):
    n = len(toks)
    while i < n and toks[i][3] == SPACE:
        i += 1
    return i


def _is_pre(symindex, surface):
    if surface[:1].isupper():
        return True
    for syms in symindex.get(surface, ()):
        if "PRE" in syms:
            return True
    return False


def _probe_width(heads, surface):
    """How many non-space tokens a lexicon entry starting at a token with
    this surface can span (0: no entry starts there)."""
    index, longest = heads
    width = index.get(surface, 0)
    if surface[:1].isupper():
        low = surface.lower()
        # The lowercase probe looks up lower() of the whole multi-token
        # surface.  Its first token is this token's lower() unless lowering
        # splits the token ("İ" -> "i" + U+0307) or a final sigma turns
        # medial because of what follows ("ΟΔΟΣ'Α" -> "οδοσ'α"); then any
        # entry may match, up to the longest.
        if low.isalpha() and "ς" not in low:
            width = max(width, index.get(low, 0))
        else:
            width = longest
    return width


def _match_mask(atom, toks, text, symindex, heads, i):
    """Match one mask atom at token i; return (next_i, last_tok) or None."""
    required = atom[1]
    builtin = atom[2]
    filt = atom[3]
    n = len(toks)
    if i >= n:
        return None
    if builtin:
        surface = toks[i][0]
        if builtin == "PRE":
            ok = _is_pre(symindex, surface)
        else:  # MOT
            ok = surface.isalpha()
        if ok and filt is not None and filt.fullmatch(surface) is None:
            ok = False
        return (i + 1, i) if ok else None
    # dictionary mask: probe the longest multi-token surface first
    width = _probe_width(heads, toks[i][0])
    span = []
    j = i
    while len(span) < width and j < n:
        if toks[j][3] != SPACE:
            span.append(j)
        j += 1
    for k in range(len(span) - 1, -1, -1):
        last = span[k]
        surface = text[toks[i][1] : toks[last][2]]
        hit = False
        for syms in _lex_symbol_sets(symindex, surface):
            if syms >= required:
                hit = True
                break
        if hit and (filt is None or filt.fullmatch(surface) is not None):
            return (last + 1, last)
    return None


def _match_atoms(graphs, atoms, i, last_tok, visited, toks, text, symindex, heads):
    """Match an atom sequence from token i.

    Yields (next_i, last_tok, first_tok, events): first_tok is the first
    token this sequence consumed (None when it consumed nothing), events
    are (char_pos, output) pairs from nested subgraph calls.
    """
    states = [(i, last_tok, None, ())]
    for atom in atoms:
        kind = atom[0]
        new_states = []
        for (ci, clast, cfirst, cev) in states:
            if kind == "eps":
                new_states.append((ci, clast, cfirst, cev))
            elif kind == "lit":
                pieces = atom[1]
                lower = atom[2]
                j = ci
                ok = True
                first = None
                for piece in pieces:
                    j = _skip_spaces(toks, j)
                    if j >= len(toks):
                        ok = False
                        break
                    surf = toks[j][0]
                    if lower:
                        surf = surf.lower()
                    if surf != piece:
                        ok = False
                        break
                    if first is None:
                        first = j
                    j += 1
                if ok and first is not None:
                    new_states.append(
                        (j, j - 1, cfirst if cfirst is not None else first, cev)
                    )
            elif kind == "mask":
                j = _skip_spaces(toks, ci)
                res = _match_mask(atom, toks, text, symindex, heads, j)
                if res is not None:
                    nxt, last = res
                    new_states.append(
                        (nxt, last, cfirst if cfirst is not None else j, cev)
                    )
            else:  # call
                sub = atom[1]
                g = graphs[sub]
                for (j, slast, sev) in _walk(
                    graphs, sub, g["initial"], ci, clast, visited, toks, text,
                    symindex, heads,
                ):
                    sfirst = cfirst
                    if sfirst is None and slast != clast:
                        # subgraph consumed something; its first token is the
                        # first non-space token at or after ci
                        sfirst = _skip_spaces(toks, ci)
                    new_states.append((j, slast, sfirst, cev + sev))
        states = new_states
        if not states:
            return
    for st in states:
        yield st


def _walk(graphs, gname, box_id, i, last_tok, visited, toks, text, symindex, heads):
    """All ways to reach gname's final from box_id, matching box_id's input
    first.  Yields (next_i, last_tok, events)."""
    g = graphs[gname]
    if box_id == g["final"]:
        yield (i, last_tok, ())
        return
    key = (gname, box_id, i)
    if key in visited:
        return
    out, alts, exact, folded = g["boxes"][box_id]
    if exact or folded:
        # a literal-first alternative can only match if its first piece is
        # the first non-space token
        j = _skip_spaces(toks, i)
        if j < len(toks):
            tok = toks[j][0]
            alts = alts + exact.get(tok, ()) + folded.get(tok.lower(), ())
    succs = g["succ"].get(box_id, ())
    nvis = visited | {key}
    for alt in alts:
        for (j, alast, afirst, aev) in _match_atoms(
            graphs, alt, i, last_tok, nvis, toks, text, symindex, heads
        ):
            if out is not None:
                if afirst is not None:
                    pos = toks[afirst][1]
                elif last_tok is not None:
                    pos = toks[last_tok][2]
                elif i < len(toks):
                    pos = toks[i][1]
                else:
                    pos = len(text)
                events = ((pos, out),) + aev
            else:
                events = aev
            vis2 = nvis if j == i else frozenset()
            for succ in succs:
                for (k, wlast, wev) in _walk(
                    graphs, gname, succ, j, alast, vis2, toks, text, symindex, heads
                ):
                    yield (k, wlast, events + wev)


def _splice(text, start, end, events):
    surface = text[start:end]
    if not events:
        return surface
    parts = []
    cur = 0
    for pos, s in sorted(events, key=lambda e: e[0]):
        rel = pos - start
        parts.append(surface[cur:rel])
        parts.append(s)
        cur = rel
    parts.append(surface[cur:])
    return "".join(parts)


def _may_start(first, surface, symindex, heads):
    """Can a match of a graph with this FIRST set begin at this token?"""
    exact, folded, flags = first
    if surface in exact or surface.lower() in folded:
        return True
    if "MOT" in flags and surface.isalpha():
        return True
    if "PRE" in flags and _is_pre(symindex, surface):
        return True
    return "dict" in flags and _probe_width(heads, surface) > 0


def find_matches(cgs, text, toks, symindex, heads, boundaries):
    """All matches of the main graph, as sorted (start, end, merged) tuples.

    A match anchored at a start token is any initial-to-final path of the
    main graph whose atoms consume a contiguous token sequence (space
    tokens are transparent between atoms); matches spanning a sentence
    boundary are dropped.  Start tokens outside the main graph's FIRST set
    are skipped.
    """
    graphs = cgs["graphs"]
    main = cgs["main"]
    n = len(toks)
    bprefix = [0] * (n + 1)
    for q in range(n):
        bprefix[q + 1] = bprefix[q] + (1 if q in boundaries else 0)
    results = set()
    initial = graphs[main]["initial"]
    first = graphs[main]["first"]
    for s in range(n):
        if toks[s][3] == SPACE:
            continue
        if first is not None and not _may_start(first, toks[s][0], symindex, heads):
            continue
        for (_, last, events) in _walk(
            graphs, main, initial, s, None, frozenset(), toks, text, symindex, heads
        ):
            if last is None:
                continue
            if bprefix[last] - bprefix[s] > 0:
                continue
            start = toks[s][1]
            end = toks[last][2]
            results.add((start, end, _splice(text, start, end, events)))
    return sorted(results)
