"""Apply grammar sets to text, producing occurrences with MERGE output.

The matching kernel lives in ``_engine``; it reports where each output
goes, and this module splices the outputs into the matched text.

A corpus file can keep its kernel tokens in a sidecar,
``__lgwcache__/<file name>.tok`` beside it (``corpus_tokens``), so that a
later apply of the same text skips tokenizing it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

from .. import sidecar
from ..data import default_abbreviations
from ..grammar import GrammarSet, compile_filter

from . import _engine

# the kernel as apply_grammar calls it (perfbench/trace.py swaps in a
# timed proxy); the compiler uses _engine directly
_impl = _engine
USING_COMPILED_ENGINE = False  # recorded by perfbench/run.py

ALL_MATCHES = "all"
LONGEST_ONLY = "longest"


@dataclass(frozen=True)
class Occurrence:
    start: int  # character offsets of the matched text, text[start:end]
    end: int
    merged: str  # text[start:end] with the outputs of ``events`` spliced in
    grammar: str  # the name of the main graph that matched
    # (text offset, output) pairs in splice order; empty when built by hand
    events: tuple = ()


class Tokenized(NamedTuple):
    """A text and its kernel tokens, the ``(surfaces, starts, ends)``
    columns of ``_engine.tokenize_raw``, which ``apply_grammar`` takes in
    place of the text alone and then does not tokenize again."""

    text: str
    tokens: tuple


# The token sidecar (see lgw.sidecar): its key, then the marshal data of
# four columns: the distinct surfaces, first seen first; for each token
# the number of its surface, and its start and its end, each column as
# the bytes of an array(_engine.OFFSETS).  Bump TOKENS_FORMAT whenever
# these columns, or what tokenize_raw makes of a text, change.
TOKENS_FORMAT = 2


def _read_tokens(path, key: bytes):
    """The token columns in the sidecar with ``key`` of the file at
    ``path``; None when there is none or it was not written by
    ``corpus_tokens``.  The values are trusted, as the key holds the
    digest of the text they were computed from."""
    columns = sidecar.read(path, "tok", key)
    if type(columns) is not tuple or len(columns) != 4:
        return None
    distinct, *data = columns
    if type(distinct) is not tuple or {*map(type, distinct)} - {str}:
        return None
    numbers, starts, ends = arrays = [array(_engine.OFFSETS) for _ in data]
    try:
        for column, raw in zip(arrays, data):
            column.frombytes(raw)
        surfaces = [distinct[i] for i in numbers]  # faster than map(distinct.__getitem__)
    except (TypeError, ValueError, IndexError):
        return None  # not bytes, not whole numbers, or past the distinct surfaces
    if not len(surfaces) == len(starts) == len(ends):
        return None
    return surfaces, starts, ends


def corpus_tokens(path, text: str, digest: bytes) -> tuple:
    """The kernel token columns of ``text``, read from the file at
    ``path``, whose UTF-8 bytes have the ``sidecar.digest`` ``digest``:
    loaded from the file's token sidecar when that was written for this
    text, else tokenized, and the sidecar written for the next apply."""
    key = sidecar.key(b"tokens", TOKENS_FORMAT, digest)
    toks = _read_tokens(path, key)
    if toks is None:
        toks = _impl.tokenize_raw(text)
        surfaces, starts, ends = toks
        distinct = {}
        numbers = array(_engine.OFFSETS, [distinct.setdefault(s, len(distinct)) for s in surfaces])
        columns = (tuple(distinct), numbers.tobytes(), starts.tobytes(), ends.tobytes())
        sidecar.write(path, "tok", key, columns)
    return toks


def _compile_atom(atom):
    """The kernel's atom of ``atom``; None for a blank literal, which the
    parser refuses and a GrammarSet built by hand may hold."""
    kind, literal, mask, graph_name, filt = atom
    if kind == "literal":
        surfaces = _engine.token_surfaces(literal)
        if not surfaces:
            return None
        if any(map(str.isupper, literal)):
            return ("lit", tuple(surfaces), False)
        return ("lit", tuple(map(str.lower, surfaces)), True)
    if kind == "epsilon":
        return ("eps",)
    if kind == "call":
        return ("call", graph_name)
    filt = compile_filter(filt.pattern) if filt is not None else None
    return ("mask", mask.required, mask.builtin or "", filt)


def _compile_box(output, alts):
    """(output, rest, exact, folded): literal-first alternatives indexed by
    their first piece, the others kept in file order.  An alternative
    holding a blank literal (a None atom) never matches and is dropped."""
    rest, exact, folded = [], {}, {}
    for alt in alts:
        if None in alt:
            continue
        if alt and alt[0][0] == "lit":
            _, pieces, ci = alt[0]
            index = folded if ci else exact
            index.setdefault(pieces[0], []).append(alt)
        else:
            rest.append(alt)
    return (output, tuple(rest), exact, folded)


def _first_sets(table, initial):
    """name -> (first, nullable) of every graph of a compiled box table.

    ``first`` is the kernel's FIRST set (see ``_engine``); ``nullable`` is
    true when the walk, entering the graph at its initial box's
    successors, can reach its final box consuming nothing.  Both are the
    least fixpoint of their equations, found by a worklist: a graph is
    scanned with the current values of the graphs it calls, and the
    callers of a graph whose value grows are scanned again.  No scan
    recurses, so call depth and call cycles need no special case.
    """
    value = {name: ((frozenset(),) * 3, False) for name in initial}
    callers = {name: set() for name in initial}
    queue = list(initial)
    while queue:
        name = queue.pop()
        _, final, succs = table[initial[name][0]]
        exact, folded, masks = set(), set(), set()
        nullable = False
        seen = set()
        stack = list(succs)
        while stack:
            box, _, rest, box_exact, box_folded = stack.pop()
            if box in seen:
                continue
            seen.add(box)
            if box == final:
                nullable = True
                continue
            exact.update(box_exact)
            folded.update(box_folded)
            passable = False
            for alt in rest:
                for atom in alt:
                    if atom[0] == "eps":
                        continue
                    if atom[0] == "lit":
                        (folded if atom[2] else exact).add(atom[1][0])
                        break
                    if atom[0] == "mask":
                        masks.add(atom)
                        break
                    callers[atom[1]].add(name)
                    (sub_exact, sub_folded, sub_masks), sub_nullable = value[atom[1]]
                    exact.update(sub_exact)
                    folded.update(sub_folded)
                    masks.update(sub_masks)
                    if not sub_nullable:
                        break
                else:
                    passable = True
            if passable:
                stack.extend(table[box][2])
        new = ((frozenset(exact), frozenset(folded), frozenset(masks)), nullable)
        if new != value[name]:
            value[name] = new
            queue.extend(callers[name])
    return value


def compile_grammar_set(gs: GrammarSet) -> dict:
    """Lower a GrammarSet to the numbered box table the kernel walks (see
    ``_engine``), with each box's literal dispatch and the main graph's
    FIRST set of leading literals and mask atoms (``_first_sets``)."""
    table, initial = [], {}
    for name, g in gs.graphs.items():
        boxes = {
            b.id: _compile_box(b.output, [tuple(map(_compile_atom, alt)) for alt in b.alternatives])
            for b in g.boxes
        }
        # an edge may lead back into the initial box: it holds one empty
        # alternative, so entering it consumes nothing
        boxes[g.initial] = _compile_box(None, ((),))
        boxes.setdefault(g.final, boxes[g.initial])  # never entered
        number = {b: len(table) + j for j, b in enumerate(boxes)}
        final = number[g.final]
        succ = g.successors()
        for b, (output, *_) in boxes.items():
            succs = tuple(
                (number[t], 1 << number[t], *boxes[t][1:]) for t in succ.get(b, ())
            )
            table.append((output, final, succs))
        initial[name] = (number[g.initial], 1 << number[g.initial])
    first, _ = _first_sets(table, initial)[gs.main]
    return {"main": gs.main, "table": table, "initial": initial, "first": first}


def apply_grammar(
    gs: GrammarSet,
    text: str | Tokenized,
    lex,
    mode: str = LONGEST_ONLY,
    abbreviations=None,
) -> list:
    """Every initial-to-final path match of the main graph in ``text``, a
    str or a ``Tokenized`` text, as Occurrences, one per (start, end,
    merged), sorted by that key.  LongestOnly keeps, per start offset, only
    the longest occurrences, and splices the outputs of those alone.
    Paths whose outputs splice to the same text give one Occurrence, with
    the first of their events in sorted order."""
    if mode not in (ALL_MATCHES, LONGEST_ONLY):
        raise ValueError(f"unknown mode {mode!r}")
    cgs = compile_grammar_set(gs)
    if isinstance(text, Tokenized):
        text, toks = text
    else:
        toks = _impl.tokenize_raw(text)
    abbrevs = frozenset(
        abbreviations if abbreviations is not None else default_abbreviations()
    )
    bounds = _impl.sentence_boundaries(toks, abbrevs)
    raw = _impl.find_matches(
        cgs, text, toks, lex.symbol_index(), lex.head_index(), bounds
    )
    if mode == LONGEST_ONLY:
        ends = _longest_ends(m[:2] for m in raw)
        raw = [m for m in raw if m[1] == ends[m[0]]]
    # different events may splice to the same text: the first one stays
    occs = {}
    for start, end, events in raw:
        key = (start, end, _splice(text, start, end, events))
        if key not in occs:
            occs[key] = Occurrence(start, end, key[2], gs.main, events)
    return [occs[key] for key in sorted(occs)]


def _splice(text, start, end, events):
    """text[start:end] with each event's output inserted at its offset."""
    parts = []
    cur = start
    for pos, out in events:
        parts.append(text[cur:pos])
        parts.append(out)
        cur = pos
    parts.append(text[cur:end])
    return "".join(parts)


def _longest_ends(spans):
    """The largest end of each start offset among (start, end) pairs: the
    one longest rule of LongestOnly."""
    best = {}
    for start, end in spans:
        if end > best.get(start, -1):
            best[start] = end
    return best


def filter_longest(occs: list) -> list:
    """Keep, for each start offset, only the occurrences with maximal end,
    sorted by (start, end, merged).  Idempotent."""
    ends = _longest_ends((o.start, o.end) for o in occs)
    kept = [o for o in occs if o.end == ends[o.start]]
    return sorted(kept, key=lambda o: (o.start, o.end, o.merged))
