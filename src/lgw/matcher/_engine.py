"""Matching kernel: tokenization, sentence boundaries and grammar application.

This module is self-contained and works on primitive dicts and tuples
only.  It reports where each box output goes, as a text offset, and
builds no output strings: ``lgw.matcher`` splices the outputs into the
matched text.

Token tuples are ``(surface, start, end, kind)`` with kind 0=word,
1=number, 2=punct; whitespace is the gap between two tokens, not a
token.  A compiled grammar set (built by
``lgw.matcher.compile_grammar_set``) numbers every (graph, box) once::

    {"main": name,
     "table": [(output_or_None, final, successors), ...],
     "initial": {name: (number, bit)},
     "first": first_set_of_main}

``table[number]`` holds a box's output, the number of its graph's final
box and its successors in edge order, each ``(number, bit, rest, exact,
folded)`` with ``bit == 1 << number`` and the alternatives of the box it
leads to.  ``initial`` gives each graph's initial box, for the calls.

A box's alternatives are split for first-token dispatch: ``exact`` maps
the first piece of each case-sensitive literal-first alternative to those
alternatives, ``folded`` does the same for case-folded literals (keyed by
the lowercased piece), and ``rest`` holds every other alternative.  An
alternative is a tuple of atoms:

* ``("lit", pieces, ci)`` -- pieces are the literal's token surfaces
  (lowercased when ci is true);
* ``("mask", required_frozenset, builtin, compiled_filter_or_None)``;
* ``("eps",)``;
* ``("call", graph_name)``.

Box numbers keep a walk state small: the boxes entered since the last
consumed token are one int with a bit per box number, and the subgraph
calls to return to are one index into a table of return frames that
each start token builds afresh.

``first``, the main graph's FIRST set, is ``(exact_pieces, folded_pieces,
masks)``: a match can only begin with a token equal to an exact piece,
whose lowercase form is a folded piece, or that one of ``masks``
matches.  ``masks`` holds the mask atoms a match can begin with, filters
included, and the start filter asks ``_match_mask`` of each, so a
leading mask's filter is tested at the start too.

The lexicon arrives as two structures from ``Lexicon``: the symbol index
(surface -> tuple of symbol sets) and the head index ``(heads,
longest)``, where ``heads`` maps the first token of every entry to the
largest number of tokens of an entry starting with it and ``longest`` is
that number over all entries.  ``find_matches`` looks up the lexicon
entries that start at a token at most once per call, with
``_entries_at``: the first time ``_match_mask`` needs them, at a start
token or at a token the walk reached.  It keeps the list of an admitted
start token or of a token a dictionary mask reached, and every
dictionary mask at that token, on every path from every start, reads
that one list.  ``probe_keys`` lists every key those lookups can read on
a text, so a lexicon cut down to them matches that text alike.
"""

from operator import itemgetter

WORD = 0
NUMBER = 1
PUNCT = 2


def tokenize_raw(text):
    """Maximal letter runs are words and digit runs numbers; every other
    character but whitespace is its own punct token.  Whitespace makes no
    token."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
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
    """Indices of '.' tokens that end a sentence: followed, after a gap, by
    an uppercase word, unless the word that touches the '.' from before is
    a known abbreviation or a single uppercase letter."""
    bset = set()
    for idx in range(len(toks) - 1):
        tok = toks[idx]
        if tok[3] != PUNCT or tok[0] != ".":
            continue
        nxt = toks[idx + 1]
        if nxt[1] == tok[2] or nxt[3] != WORD or not nxt[0][:1].isupper():
            continue
        if idx > 0:
            prev = toks[idx - 1]
            if prev[2] == tok[1] and prev[3] == WORD and (
                prev[0] in abbreviations
                or (len(prev[0]) == 1 and prev[0].isupper())
            ):
                continue
        bset.add(idx)
    return bset


def _lookup_keys(surface):
    """The keys a lexicon lookup of ``surface`` reads: the surface and, for
    a capitalized one, its lower()."""
    return (surface, surface.lower()) if surface[:1].isupper() else (surface,)


def _lex_symbol_sets(symindex, surface):
    """The symbol sets of ``surface`` and, for a capitalized one, of its
    lower(): the lookups of ``_lookup_keys``, inlined."""
    syms = symindex.get(surface, ())
    if surface[:1].isupper():
        low = symindex.get(surface.lower())
        if low:
            syms = syms + low
    return syms


def _is_pre(symindex, surface):
    if surface[:1].isupper():
        return True
    for syms in symindex.get(surface, ()):
        if "PRE" in syms:
            return True
    return False


def _probe_width(heads, surface):
    """How many tokens a lexicon entry starting at a token with this
    surface can span (0: no entry starts there)."""
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


def _window(toks, heads, i):
    """The probe window of token i: the ends of the token spans starting
    there that a lexicon entry may cover, longest first.  A span ending at
    ``end`` is ``text[toks[i][1] : toks[end - 1][2]]``."""
    return range(min(i + _probe_width(heads, toks[i][0]), len(toks)), i, -1)


def _entries_at(toks, text, symindex, heads, i):
    """``((end, surface, symbol_sets), ...)`` for every lexicon entry that
    starts at token i (i < len(toks)), longest first; ``end`` is the index
    after the entry's last token."""
    start = toks[i][1]
    found = []
    for end in _window(toks, heads, i):
        surface = text[start : toks[end - 1][2]]
        sets = _lex_symbol_sets(symindex, surface)
        if sets:
            found.append((end, surface, sets))
    return tuple(found)


def probe_keys(toks, text, heads):
    """Yield every key that ``_probe_width``, ``_entries_at`` and
    ``_is_pre`` can look up, in either lexicon index, at a token of
    ``toks``: the lookup keys of each token's surface and of each span of
    its window, in text order (a key may come more than once).  A lexicon
    cut down to these keys gives the same answers on this text.  A window
    one token wide is the token's own surface, so only the surfaces whose
    window is wider are probed token by token."""
    wide = set()
    for surface in dict.fromkeys(tok[0] for tok in toks):
        yield from _lookup_keys(surface)
        if _probe_width(heads, surface) > 1:
            wide.add(surface)
    if wide:
        for i, tok in enumerate(toks):
            if tok[0] in wide:
                for end in _window(toks, heads, i):
                    yield from _lookup_keys(text[tok[1] : toks[end - 1][2]])


def _match_mask(atom, toks, text, symindex, heads, entries, i, limit):
    """Match one mask atom at token i (i < limit), the one rule of what a
    mask matches; return the index after the last token it consumed, or
    None.  A built-in mask takes the token if its predicate and filter
    accept it.  A dictionary mask takes the longest of the token's lexicon
    entries (``entries[i]``, filled the first time) that ends at or before
    ``limit``, covers its required symbols and passes its filter."""
    required = atom[1]
    builtin = atom[2]
    filt = atom[3]
    if builtin:
        surface = toks[i][0]
        if builtin == "PRE":
            ok = _is_pre(symindex, surface)
        else:  # MOT
            ok = surface.isalpha()
        if ok and filt is not None and filt.fullmatch(surface) is None:
            ok = False
        return i + 1 if ok else None
    found = entries.get(i)
    if found is None:
        found = entries[i] = _entries_at(toks, text, symindex, heads, i)
    for end, surface, sets in found:
        if end > limit:
            continue
        for syms in sets:
            if syms >= required:
                if filt is None or filt.fullmatch(surface) is not None:
                    return end
                break
    return None


def _may_start(first, toks, text, symindex, heads, i, entries):
    """Can a match of a graph with this FIRST set begin at token i?  Each
    leading mask is asked of ``_match_mask`` with no sentence limit, so the
    admitted starts are a superset of the real ones.  A rejected token
    keeps no list in ``entries``."""
    exact, folded, masks = first
    surface = toks[i][0]
    if surface in exact or surface.lower() in folded:
        return True
    n = len(toks)
    for atom in masks:
        if _match_mask(atom, toks, text, symindex, heads, entries, i, n) is not None:
            return True
    entries.pop(i, None)
    return False


_offset = itemgetter(0)  # an event's text offset, the splice order


def find_matches(cgs, text, toks, symindex, heads, boundaries):
    """All matches of the main graph, as sorted ``(start, end, events)``
    tuples.  ``events`` are the ``(char_pos, output)`` pairs of the path's
    box outputs in splice order: by offset, and in path order at one
    offset.  Two paths with the same span and events are one match.

    A match anchored at a start token is any initial-to-final path of the
    main graph whose atoms consume a contiguous token sequence that ends
    at or before the first sentence boundary at or after the start.
    A start token that ``_may_start`` rejects for the main graph's FIRST
    set is skipped; so is, at once, a surface in ``rejected``: one
    rejected without reading past it.  ``entries`` maps a token to its
    ``_entries_at`` list; it holds only admitted start tokens and tokens a
    dictionary mask reached, so a rejected start's list is dropped at
    once.

    The walk is one loop over an explicit stack, over the box table of
    ``cgs`` as ``compile_grammar_set`` numbered it.  A stack state is one
    alternative of one box (by number), resumed at atom ``k`` and token
    ``i``; the last consumed token is ``i - 1``.  The state also carries
    the (char_pos, output) events so far, the token where the box was
    entered, the slot in the events for the box's output (which precedes
    the outputs of the calls inside its alternative), the boxes entered
    since the last consumed token, as an int with bit ``1 << number`` set
    for each (a box is not re-entered at the same token on one path), and
    the return frame of the innermost subgraph call.  A return frame
    ``(box, alternative, atom, entry, slot, visited, parent frame)`` is
    interned in a per-start table, so a state names it, and the whole
    call stack, by its index.  A box entry already reached from the same
    start with equal events, visited boxes and return frame has the same
    continuations, so it is skipped.
    """
    table = cgs["table"]
    initial = cgs["initial"]
    root, root_bit = initial[cgs["main"]]
    first = cgs["first"]
    n = len(toks)
    results = set()
    entries = {}
    rejected = set()
    limit = n  # tokens at or after limit lie past the sentence boundary
    for s in range(n - 1, -1, -1):
        if s in boundaries:
            limit = s + 1
        surface = toks[s][0]
        if surface in rejected:
            continue
        if not _may_start(first, toks, text, symindex, heads, s, entries):
            if _probe_width(heads, surface) <= 1:  # no later token was read
                rejected.add(surface)
            continue
        seen = set()
        frames = []  # return frame index -> frame
        frame_ids = {}  # frame -> its index
        stack = [(root, (), 0, s, (), s, 0, root_bit, None)]
        push = stack.append
        while stack:
            node, alt, k, i, events, entry, slot, vis, ret = stack.pop()
            succs = ()
            while k < len(alt):
                atom = alt[k]
                kind = atom[0]
                if kind == "lit":
                    for piece in atom[1]:
                        if i == limit:
                            break
                        surf = toks[i][0]
                        if (surf.lower() if atom[2] else surf) != piece:
                            break
                        i += 1
                    else:
                        k += 1
                        continue
                    break
                if kind == "mask":
                    if i == limit:
                        break
                    i = _match_mask(atom, toks, text, symindex, heads, entries, i, limit)
                    if i is None:
                        break
                elif kind == "call":
                    # enter the callee's initial box; its successors follow
                    callee, bit = initial[atom[1]]
                    if i != entry:
                        vis = 0
                    if vis & bit:
                        break
                    frame = (node, alt, k + 1, entry, slot, vis, ret)
                    ret = frame_ids.setdefault(frame, len(frames))
                    if ret == len(frames):
                        frames.append(frame)
                    node = callee
                    vis |= bit
                    _, final, succs = table[node]
                    break
                k += 1
            else:
                out, final, succs = table[node]
                if out is not None:
                    # before the first token the alternative consumed, else
                    # right after the last token consumed before the box
                    if i != entry or entry == s:
                        pos = toks[entry][1]
                    else:
                        pos = toks[entry - 1][2]
                    events = events[:slot] + ((pos, out),) + events[slot:]
                if i != entry:
                    vis = 0
            for b, bit, alts, exact, folded in succs:
                if b == final:
                    if ret is not None:
                        rnode, ralt, rk, rentry, rslot, rvis, rret = frames[ret]
                        push((rnode, ralt, rk, i, events, rentry, rslot, rvis, rret))
                    elif i > s:
                        # in splice order: by offset, stable
                        ordered = tuple(sorted(events, key=_offset))
                        results.add((toks[s][1], toks[i - 1][2], ordered))
                    continue
                if vis & bit:
                    continue
                size = len(seen)
                seen.add((b, i, events, vis, ret))
                if len(seen) == size:
                    continue
                bvis = vis | bit
                at = len(events)
                for a in alts:
                    push((b, a, 0, i, events, i, at, bvis, ret))
                # a literal-first alternative can only match if its first
                # piece is the next token
                if (exact or folded) and i < limit:
                    tok = toks[i][0]
                    for a in exact.get(tok, ()):
                        push((b, a, 0, i, events, i, at, bvis, ret))
                    for a in folded.get(tok.lower(), ()):
                        push((b, a, 0, i, events, i, at, bvis, ret))
    return sorted(results)
