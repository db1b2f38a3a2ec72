"""Matching kernel: tokenization, sentence boundaries and grammar application.

This module is self-contained and works on primitive dicts, tuples,
lists and arrays only.  It reports where each box output goes, as a text
offset, and builds no output strings: ``lgw.matcher`` splices the
outputs into the matched text.

A text's tokens are two columns, ``(surfaces, starts)``: a list of the
token surfaces, in which equal surfaces are one str, and an
``array(OFFSETS)`` of their start offsets in the text.  Token k ends at
``starts[k] + len(surfaces[k])``.  Whitespace is the gap between two
tokens, not a token.  A token's kind is read off its surface's first
character: a word begins with a letter, a number with a digit, and any
other token is one punct character.  A compiled grammar set (built by
``lgw.matcher.compile_grammar_set``) numbers every (graph, box) once::

    {"main": name,
     "table": [(output_or_None, final, successors), ...],
     "initial": {name: (number, bit)},
     "first": first_set_of_main}

``table[number]`` holds a box's output, the number of its graph's final
box and its successors in edge order, each ``(number, bit, rest, exact,
folded, masked)`` with the boxes that entering it marks as entered and the
alternatives of the box it leads to.  ``bit`` is ``1 << number``, except
on an entry into a copy of an inlined callee's boxes, where the call box
and the copy's initial box are marked too (see ``compile_grammar_set``).
``initial`` gives each graph's initial box, for the calls that keep
their return frames.

A box's alternatives are split for first-token dispatch: ``exact`` maps
the first piece of each case-sensitive literal-first alternative to those
alternatives, ``folded`` does the same for case-folded literals (keyed by
the lowercased piece), ``masked`` pairs each mask that begins an
alternative with those alternatives, ``((mask, alternatives), ...)``, and
``rest`` holds every other alternative.  An alternative is a tuple of
atoms:

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
(surface -> tuple of symbol sets) and the prefix index ``(prefixes,
longest)``, where ``prefixes`` holds every proper token prefix of every
multi-token entry (the entry's text up to the end of each of its tokens
but the last) and ``longest`` is the most tokens of any entry.
``find_matches`` looks up the lexicon entries that start at a token at
most once per call, with ``_entries_at``: the first time ``_match_mask``
needs them, at a start token or at a token the walk reached.  It walks
the spans from that token one token longer at a time, as a dictionary
automaton walks a word, and stops after the first span no entry extends
(``_extends``).  It keeps the list of an admitted start token or of a
token a dictionary mask reached, and every dictionary mask at that
token, on every path from every start, reads that one list.
``probe_keys`` lists every key those lookups can read on a text, so a
lexicon cut down to them matches that text alike.
"""

import re
from array import array
from operator import itemgetter

OFFSETS = "Q"  # the typecode of the starts column
_CHUNK = re.compile(r"\S+")  # \s is what str.isspace and str.split take for whitespace


def _chunk_tokens(chunk):
    """The token surfaces of ``chunk``, a run of text without whitespace.
    Maximal letter runs are words and digit runs numbers; every other
    character is its own punct token.  So a chunk of letters is one word,
    and only another chunk is read character by character."""
    if chunk.isalpha():
        return (chunk,)
    tokens = []
    i, n = 0, len(chunk)
    while i < n:
        c = chunk[i]
        j = i + 1
        if c.isalpha():
            while j < n and chunk[j].isalpha():
                j += 1
        elif c.isdigit():
            while j < n and chunk[j].isdigit():
                j += 1
        tokens.append(chunk[i:j])
        i = j
    return tokens


def token_surfaces(text):
    """The surfaces of ``tokenize_raw(text)`` without their offsets, for a
    short text such as a grammar literal: a list of str."""
    chunks = text.split()
    if all(map(str.isalpha, chunks)):  # each chunk is one word
        return chunks
    return [surface for chunk in chunks for surface in _chunk_tokens(chunk)]


def tokenize_raw(text):
    """The ``(surfaces, starts)`` token columns of ``text``: the tokens of
    each whitespace-split chunk (``_chunk_tokens``), in order.  Whitespace
    makes no token.  The chunks are found one at a time."""
    surfaces, starts = [], array(OFFSETS)
    distinct = {}
    for m in _CHUNK.finditer(text):
        i = m.start()
        for surface in _chunk_tokens(m[0]):
            surfaces.append(distinct.setdefault(surface, surface))
            starts.append(i)
            i += len(surface)
    return surfaces, starts


def sentence_boundaries(toks, abbreviations):
    """Indices of '.' tokens that end a sentence: followed, after a gap, by
    an uppercase word, unless the word that touches the '.' from before is
    a known abbreviation or a single uppercase letter."""
    surfaces, starts = toks
    bset = set()
    idx = -1
    last = len(surfaces) - 1
    while True:
        try:
            idx = surfaces.index(".", idx + 1, last)
        except ValueError:
            return bset
        nxt = surfaces[idx + 1]
        # a word: its first character is a letter
        if starts[idx + 1] == starts[idx] + 1 or not (nxt[0].isalpha() and nxt[0].isupper()):
            continue
        if idx > 0:
            prev = surfaces[idx - 1]
            if starts[idx - 1] + len(prev) == starts[idx] and prev[0].isalpha() and (
                prev in abbreviations or (len(prev) == 1 and prev.isupper())
            ):
                continue
        bset.add(idx)


def _lookup_keys(surface):
    """The keys a lexicon lookup and ``_extends`` of ``surface`` read: the
    surface and, for a capitalized one, its lower() and, where that holds
    a "ς", its lower() before a cased letter."""
    if not surface[:1].isupper():
        return (surface,)
    low = surface.lower()
    if "ς" in low:
        return (surface, low, (surface + "A").lower()[:-1])
    return (surface, low)


def _lex_symbol_sets(symindex, surface):
    """The symbol sets of ``surface`` and, for a capitalized one, of its
    lower(): the first two keys of ``_lookup_keys``, inlined."""
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


def _extends(prefixes, span):
    """Can an entry be longer than ``span``, a span of tokens from a token:
    is it, or for a capitalized span its lower(), in ``prefixes``?  lower()
    keeps every token end ("İ" -> "i" + U+0307 only adds one), so the
    lower() of an entry's shorter spans are its prefixes, unless a final
    sigma turns medial when more follows ("ΟΔΟΣ" -> "οδος" but "ΟΔΟΣ'Α"
    -> "οδοσ'α"): that happens only where a cased letter follows, so the
    span's lower() is also tested as if one did."""
    if span in prefixes:
        return True
    if span[:1].isupper():
        low = span.lower()
        return low in prefixes or ("ς" in low and (span + "A").lower()[:-1] in prefixes)
    return False


def _entries_at(toks, text, symindex, prefix_index, i):
    """``((end, surface, symbol_sets), ...)`` for every lexicon entry that
    starts at token i, longest first; ``end`` is the index after the
    entry's last token.  The spans from token i are looked up shortest
    first, up to the longest entry, until one does not extend."""
    surfaces, starts = toks
    prefixes, longest = prefix_index
    start = starts[i]
    found = []
    for end in range(i + 1, min(i + longest, len(surfaces)) + 1):
        surface = text[start : starts[end - 1] + len(surfaces[end - 1])]
        sets = _lex_symbol_sets(symindex, surface)
        if sets:
            found.append((end, surface, sets))
        if not _extends(prefixes, surface):
            break
    return tuple(reversed(found))


def probe_keys(toks, text, prefix_index):
    """Yield every key that ``_extends``, ``_entries_at`` and ``_is_pre``
    can look up, in either lexicon index, at a token of ``toks``: the
    lookup keys of each span they walk, in text order (a key may come
    more than once).  A lexicon cut down to these keys gives the same
    answers on this text.  Only the tokens whose surface extends are
    walked past it."""
    surfaces, starts = toks
    prefixes, longest = prefix_index
    extending = set()
    for surface in dict.fromkeys(surfaces):
        yield from _lookup_keys(surface)
        if _extends(prefixes, surface):
            extending.add(surface)
    if extending:
        for i, surface in enumerate(surfaces):
            if surface in extending:
                start = starts[i]
                for end in range(i + 2, min(i + longest, len(surfaces)) + 1):
                    span = text[start : starts[end - 1] + len(surfaces[end - 1])]
                    yield from _lookup_keys(span)
                    if not _extends(prefixes, span):
                        break


def _match_mask(atom, toks, text, symindex, prefix_index, entries, i, limit):
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
        surface = toks[0][i]
        if builtin == "PRE":
            ok = _is_pre(symindex, surface)
        else:  # MOT
            ok = surface.isalpha()
        if ok and filt is not None and filt.fullmatch(surface) is None:
            ok = False
        return i + 1 if ok else None
    found = entries.get(i)
    if found is None:
        found = entries[i] = _entries_at(toks, text, symindex, prefix_index, i)
    for end, surface, sets in found:
        if end > limit:
            continue
        for syms in sets:
            if syms >= required:
                if filt is None or filt.fullmatch(surface) is not None:
                    return end
                break
    return None


def _may_start(first, toks, text, symindex, prefix_index, i, entries):
    """Can a match of a graph with this FIRST set begin at token i?  Each
    leading mask is asked of ``_match_mask`` with no sentence limit, so the
    admitted starts are a superset of the real ones.  A rejected token
    keeps no list in ``entries``."""
    exact, folded, masks = first
    surface = toks[0][i]
    if surface in exact or surface.lower() in folded:
        return True
    n = len(toks[0])
    for atom in masks:
        if _match_mask(atom, toks, text, symindex, prefix_index, entries, i, n) is not None:
            return True
    entries.pop(i, None)
    return False


_offset = itemgetter(0)  # an event's text offset, the splice order


def find_matches(cgs, text, toks, symindex, prefix_index, boundaries, longest=False):
    """All matches of the main graph, as sorted ``(start, end, events)``
    tuples; with ``longest``, only those of each start's largest end.
    ``events`` are the ``(char_pos, output)`` pairs of the path's box
    outputs in splice order: by offset, and in path order at one offset.
    Two paths with the same span and events are one match.

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
    for each (a successor entry sets its ``bit``, a call its callee's
    initial box; a box is not re-entered at the same token on one path), and
    the return frame of the innermost subgraph call.  A return frame
    ``(box, alternative, atom, entry, slot, visited, parent frame)`` is
    interned in a per-start table, so a state names it, and the whole
    call stack, by its index.

    Entering a box decides the first atom of its literal-first and
    mask-first alternatives: it pushes only the alternatives whose first
    piece is the next token, and each mask-first group, past its mask, at
    the token the mask returns.  A built-in mask reads only the surface,
    so its verdict is kept per (mask, surface) in ``decided``.  An entry
    that pushes nothing is dropped; a box entry already reached from the
    same start with equal events, visited boxes and return frame has the
    same continuations, so its pushes are taken back.  Each start keeps
    the end token and unsorted events of its paths in ``found`` (with
    ``longest``, of those that end at its largest end token alone) and
    sorts them into matches when its walk ends.
    """
    table = cgs["table"]
    initial = cgs["initial"]
    root, root_bit = initial[cgs["main"]]
    first = cgs["first"]
    surfaces, starts = toks
    prefixes = prefix_index[0]
    n = len(surfaces)
    results = set()
    entries = {}
    decided = {}  # (built-in mask, surface) -> does the mask take the token
    found = set()  # (end token, events) of the paths from one start
    rejected = set()
    limit = n  # tokens at or after limit lie past the sentence boundary
    for s in range(n - 1, -1, -1):
        if s in boundaries:
            limit = s + 1
        surface = surfaces[s]
        if surface in rejected:
            continue
        if not _may_start(first, toks, text, symindex, prefix_index, s, entries):
            if not _extends(prefixes, surface):  # no later token was read
                rejected.add(surface)
            continue
        seen = set()
        frames = []  # return frame index -> frame
        frame_ids = {}  # frame -> its index
        top = s + 1  # the shortest end kept; with longest, the largest end so far
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
                        surf = surfaces[i]
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
                    i = _match_mask(atom, toks, text, symindex, prefix_index, entries, i, limit)
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
                        pos = starts[entry]
                    else:
                        pos = starts[entry - 1] + len(surfaces[entry - 1])
                    events = events[:slot] + ((pos, out),) + events[slot:]
                if i != entry:
                    vis = 0
            for b, bit, rest, exact, folded, masked in succs:
                if b == final:
                    if ret is not None:
                        rnode, ralt, rk, rentry, rslot, rvis, rret = frames[ret]
                        push((rnode, ralt, rk, i, events, rentry, rslot, rvis, rret))
                    elif i >= top:
                        if longest and i > top:
                            top = i
                            found.clear()
                        found.add((i, events))
                    continue
                if vis & bit:
                    continue
                bvis = vis | bit
                at = len(events)
                mark = len(stack)
                for a in rest:
                    push((b, a, 0, i, events, i, at, bvis, ret))
                if i < limit:
                    surf = surfaces[i]
                    for a in exact.get(surf, ()):
                        push((b, a, 0, i, events, i, at, bvis, ret))
                    if folded:
                        for a in folded.get(surf.lower(), ()):
                            push((b, a, 0, i, events, i, at, bvis, ret))
                    for atom, group in masked:
                        if atom[2]:
                            key = (atom, surf)
                            ok = decided.get(key)
                            if ok is None:
                                ok = decided[key] = _match_mask(
                                    atom, toks, text, symindex, prefix_index, entries, i, limit
                                ) is not None
                            j = i + 1 if ok else None
                        else:
                            j = _match_mask(atom, toks, text, symindex, prefix_index, entries, i, limit)
                        if j is not None:
                            for a in group:
                                push((b, a, 1, j, events, i, at, bvis, ret))
                if len(stack) == mark:  # nothing to enter
                    continue
                size = len(seen)
                seen.add((b, i, events, vis, ret))
                if len(seen) == size:
                    del stack[mark:]
        for i, events in found:
            # in splice order: by offset, stable
            results.add((starts[s], starts[i - 1] + len(surfaces[i - 1]),
                         tuple(sorted(events, key=_offset))))
        found.clear()
    return sorted(results)
