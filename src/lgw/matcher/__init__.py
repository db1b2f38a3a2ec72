"""Apply grammar sets to text, producing occurrences with MERGE output.

The matching kernel lives in ``_engine``; it reports where each output
goes, and this module splices the outputs into the matched text.

A corpus file can keep its kernel tokens in a sidecar,
``__lgwcache__/<file name>.tok`` beside it (``corpus_tokens``), so that a
later apply of the same text skips tokenizing it.
"""

from __future__ import annotations

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
    """A text and its kernel tokens, which ``apply_grammar`` takes in place
    of the text alone and then does not tokenize again."""

    text: str
    tokens: list


# The token sidecar (see lgw.sidecar): its key, then the marshal data of
# the list of token tuples.  Bump TOKENS_FORMAT whenever the token tuple,
# or what tokenize_raw makes of a text, changes.
TOKENS_FORMAT = 1


def corpus_tokens(path, text: str) -> list:
    """The kernel tokens of ``text``, read from the file at ``path``: loaded
    from the file's token sidecar when that was written for this text, else
    tokenized, and the sidecar written for the next apply."""
    key = sidecar.key(b"tokens", TOKENS_FORMAT, text.encode("utf-8"))
    toks = sidecar.read(path, "tok", key)
    # a list of 4-tuples; the fields are trusted, as the key holds the
    # digest of the text they were computed from
    if type(toks) is not list or {*map(type, toks)} - {tuple} or {*map(len, toks)} - {4}:
        toks = _impl.tokenize_raw(text)
        sidecar.write(path, "tok", key, toks)
    return toks


def _compile_atom(atom):
    if atom.kind == "literal":
        ci = not any(c.isupper() for c in atom.literal)
        pieces = tuple(t[0].lower() if ci else t[0] for t in _engine.tokenize_raw(atom.literal))
        return ("lit", pieces, ci)
    if atom.kind == "epsilon":
        return ("eps",)
    if atom.kind == "call":
        return ("call", atom.graph_name)
    filt = compile_filter(atom.filter.pattern) if atom.filter is not None else None
    return ("mask", atom.mask.required, atom.mask.builtin or "", filt)


def _compile_box(output, alts):
    """(output, rest, exact, folded): literal-first alternatives indexed by
    their first piece, the others kept in file order.  An alternative
    holding a blank literal (the parser refuses one; a GrammarSet built by
    hand may not) never matches and is dropped."""
    rest, exact, folded = [], {}, {}
    for alt in alts:
        if any(atom[0] == "lit" and not atom[1] for atom in alt):
            continue
        if alt and alt[0][0] == "lit":
            index = folded if alt[0][2] else exact
            piece = alt[0][1][0]
            index[piece] = index.get(piece, ()) + (alt,)
        else:
            rest.append(alt)
    return (output, tuple(rest), exact, folded)


def _first_sets(graphs):
    """name -> (first, nullable) of every compiled graph.

    ``first`` is the kernel's FIRST set (see ``_engine``); ``nullable`` is
    true when initial reaches final consuming nothing.  Both are the least
    fixpoint of their equations, found by a worklist: a graph is scanned
    with the current values of the graphs it calls, and the callers of a
    graph whose value grows are scanned again.  No scan recurses, so call
    depth and call cycles need no special case.
    """
    value = {name: ((frozenset(),) * 3, False) for name in graphs}
    callers = {name: set() for name in graphs}
    queue = list(graphs)
    while queue:
        name = queue.pop()
        g = graphs[name]
        exact, folded, masks = set(), set(), set()
        nullable = False
        seen = set()
        stack = [g["initial"]]
        while stack:
            box_id = stack.pop()
            if box_id in seen:
                continue
            seen.add(box_id)
            if box_id == g["final"]:
                nullable = True
                continue
            _, rest, box_exact, box_folded = g["boxes"][box_id]
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
                stack.extend(g["succ"].get(box_id, ()))
        new = ((frozenset(exact), frozenset(folded), frozenset(masks)), nullable)
        if new != value[name]:
            value[name] = new
            queue.extend(callers[name])
    return value


def compile_grammar_set(gs: GrammarSet) -> dict:
    """Lower a GrammarSet to the primitive dict form the kernel interprets,
    with each box's literal dispatch and the main graph's FIRST set of
    leading literals and mask atoms (``_first_sets``)."""
    graphs = {}
    for name, g in gs.graphs.items():
        boxes = {
            b.id: _compile_box(
                b.output,
                tuple(tuple(_compile_atom(a) for a in alt) for alt in b.alternatives),
            )
            for b in g.boxes
        }
        boxes[g.initial] = _compile_box(None, ((),))
        if g.final not in boxes:
            boxes[g.final] = _compile_box(None, ((),))
        graphs[name] = {
            "initial": g.initial,
            "final": g.final,
            "succ": {k: tuple(v) for k, v in g.successors().items()},
            "boxes": boxes,
        }
    first, _ = _first_sets(graphs)[gs.main]
    return {"main": gs.main, "graphs": graphs, "first": first}


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
