"""Apply grammar sets to text, producing occurrences with MERGE output.

The matching kernel lives in ``_engine``; it reports where each output
goes, and this module splices the outputs into the matched text.

``lgw apply`` keeps a corpus's kernel tokens and sentence boundaries
in the corpus's sidecar (``lgw.sidecar``), so that a later apply of the
same text skips finding them.
"""

from __future__ import annotations

import graphlib
from typing import NamedTuple

from ..data import default_abbreviations
from ..grammar import GrammarSet, compile_filter

from . import _engine

# the kernel as apply_grammar and lgw apply's tokenizing call it
# (perfbench/trace.py swaps in a timed proxy); the compiler uses _engine
# directly
_impl = _engine
USING_COMPILED_ENGINE = False  # recorded by perfbench/run.py

ALL_MATCHES = "all"
LONGEST_ONLY = "longest"


class Occurrence(NamedTuple):
    """One match."""

    start: int  # character offsets of the matched text, text[start:end]
    end: int
    merged: str  # text[start:end] with the outputs of ``events`` spliced in
    grammar: str  # the name of the main graph that matched
    # (text offset, output) pairs in splice order; empty when built by hand
    events: tuple = ()


class Tokenized(NamedTuple):
    """A text and its kernel tokens, the ``(surfaces, starts)`` columns
    of ``_engine.tokenize_raw``, which ``apply_grammar`` takes in place of
    the text alone and then does not tokenize again; with ``boundaries``,
    the set that ``_engine.sentence_boundaries`` gives for those tokens and
    the default abbreviations, it does not find those again either."""

    text: str
    tokens: tuple
    boundaries: set = None


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
    """(output, rest, exact, folded, masked): literal-first alternatives
    indexed by their first piece, mask-first ones grouped by their first
    mask as ``((mask, alternatives), ...)``, the others kept in file order.
    An alternative holding a blank literal (a None atom) never matches and
    is dropped."""
    rest, exact, folded, masked = [], {}, {}, {}
    for alt in alts:
        if None in alt:
            continue
        kind = alt[0][0] if alt else None
        if kind == "lit":
            _, pieces, ci = alt[0]
            index = folded if ci else exact
            index.setdefault(pieces[0], []).append(alt)
        elif kind == "mask":
            masked.setdefault(alt[0], []).append(alt)
        else:
            rest.append(alt)
    return (output, tuple(rest), exact, folded, tuple(masked.items()))


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
            box, _, rest, box_exact, box_folded, box_masked = stack.pop()
            if box in seen:
                continue
            seen.add(box)
            if box == final:
                nullable = True
                continue
            exact.update(box_exact)
            folded.update(box_folded)
            masks.update(mask for mask, _ in box_masked)
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


GROWTH = 4  # copies of inlined callees make a table at most this many times as long


def compile_grammar_set(gs: GrammarSet) -> dict:
    """Lower a GrammarSet to the numbered box table the kernel walks (see
    ``_engine``), with each box's literal and mask dispatch and the main graph's
    FIRST set of leading literals and mask atoms (``_first_sets``).

    A graph's boxes take consecutive numbers, its final box the last one.
    Then the pure call boxes that the main graph reaches are inlined
    (``_inline``), unless the calls of the set form a cycle."""
    table, initial = [], {}
    spans = {}  # name -> (number of its first box, number of its final box)
    calls = {}  # number -> the graphs its box's alternatives call
    pure = {}  # number -> the callees of a box with no output whose alternatives are one call each
    graph_calls = {}
    for name, g in gs.graphs.items():
        boxes = {
            b.id: _compile_box(b.output, [tuple(map(_compile_atom, alt)) for alt in b.alternatives])
            for b in g.boxes
        }
        # an edge may lead back into the initial box: it holds one empty
        # alternative, so entering it consumes nothing
        boxes[g.initial] = _compile_box(None, ((),))
        boxes.setdefault(g.final, boxes[g.initial])  # never entered
        lo = len(table)
        order = [b for b in boxes if b != g.final] + [g.final]
        number = {b: lo + j for j, b in enumerate(order)}
        final = number[g.final]
        succ = g.successors()
        for b in order:
            succs = tuple(
                (number[t], 1 << number[t], *boxes[t][1:]) for t in succ.get(b, ())
            )
            table.append((boxes[b][0], final, succs))
        initial[name] = (number[g.initial], 1 << number[g.initial])
        spans[name] = (lo, final)
        graph_calls[name] = set()
        for b in g.boxes:
            names = {atom.graph_name for alt in b.alternatives for atom in alt if atom.kind == "call"}
            if names and b.id not in (g.initial, g.final):  # which are never walked
                calls[number[b.id]] = names
                graph_calls[name] |= names
                if b.output is None and all(len(alt) == 1 and alt[0].kind == "call"
                                            for alt in b.alternatives):
                    pure[number[b.id]] = [alt[0].graph_name for alt in b.alternatives]
    value = _first_sets(table, initial)
    if pure:
        try:
            graphlib.TopologicalSorter(graph_calls).prepare()
        except graphlib.CycleError:
            pure = {}  # a copy of a recursive callee would hold copies of itself
    if pure:
        # a call whose callee may consume nothing needs its return frame,
        # which restores the caller's boxes entered at the call's token
        whole = {name for name, (lo, final) in spans.items()
                 if not value[name][1] and initial[name][0] != final}
        pure = {x: names for x, names in pure.items() if whole.issuperset(names)}
        _inline(table, initial, spans, calls, pure, initial[gs.main][0])
    return {"main": gs.main, "table": table, "initial": initial, "first": value[gs.main][0]}


def _inline(table, initial, spans, calls, pure, root):
    """Rewrite, in place, the successors of every box of ``table`` the walk
    can reach from box ``root``, so that it enters a callee's boxes
    directly wherever a call needs no return frame.

    ``pure`` maps each pure call box to its callees: it has no output, each
    of its alternatives is one call of a graph that cannot match consuming
    nothing, and it is neither initial nor final.  A successor entry into
    one, X, becomes the entries of each callee's initial successors, into
    a copy of the callee's boxes made once for X and that alternative.  A
    copy box keeps its box's output and alternatives, takes X's graph's
    final box, and has X's successors in place of its edges into the
    callee's final box.  An entry into a copy carries the bits of its box,
    of X and of the copy's initial box (which an edge back into the
    callee's initial box enters): the boxes that entering X and the call
    mark as entered.  An entry that would enter one of those boxes a
    second time is dropped.  Pure call boxes inside a copy are inlined in
    turn, on an explicit stack.

    Copies stop where the table would grow past ``GROWTH`` times its
    length; the calls left keep their return frames."""
    plain = [succs for _, _, succs in table]  # each box's entries before the rewrite
    bound = GROWTH * len(table)
    copies = {}  # pure call box -> the initial boxes of its callees' copies, or None

    def copy(x, name):
        lo, gf = spans[name]
        shift = len(table) - lo
        final = table[x][1]
        for o in range(lo, gf):
            succs = []
            for entry in plain[o]:
                t = entry[0]
                if t == gf:
                    succs += plain[x]
                else:
                    succs.append((t + shift, 1 << (t + shift)) + entry[2:])
            succs = tuple(succs)
            table.append((table[o][0], final, succs))
            plain.append(succs)
            if o in calls:
                calls[o + shift] = calls[o]
            if o in pure:
                pure[o + shift] = pure[o]
        return initial[name][0] + shift

    def inlined(x):
        if x not in copies:
            names = pure[x]
            if len(table) + sum(spans[n][1] - spans[n][0] for n in names) <= bound:
                copies[x] = [copy(x, name) for name in names]
            else:
                copies[x] = None
        return copies[x]

    todo, done = [root], set()
    while todo:
        r = todo.pop()
        if r in done:
            continue
        done.add(r)
        output, final, succs = table[r]
        if any(entry[0] in pure for entry in succs):
            out, stack = [], list(reversed(succs))
            while stack:
                entry = stack.pop()
                heads = entry[0] in pure and inlined(entry[0])
                if not heads:
                    out.append(entry)
                    continue
                for c in reversed(heads):
                    bits = entry[1] | 1 << c
                    stack.extend((h[0], h[1] | bits) + h[2:] for h in reversed(plain[c])
                                 if not h[1] & bits)
            succs = tuple(out)
            table[r] = output, final, succs
        todo += [entry[0] for entry in succs if entry[0] != final]
        if r in calls:
            todo += [initial[name][0] for name in calls[r]]


def apply_grammar(
    gs: GrammarSet,
    text: str | Tokenized,
    lex,
    mode: str = LONGEST_ONLY,
    abbreviations=None,
) -> list:
    """Every initial-to-final path match of the main graph in ``text``, a
    str or a ``Tokenized`` text, as Occurrences, one per (start, end,
    merged), sorted by that key.  No match crosses a sentence boundary
    (``_engine.sentence_boundaries`` with ``abbreviations``, by default
    the shipped list); a ``Tokenized`` text's ``boundaries``, when set, are
    used for the default list.  LongestOnly keeps, per start offset, only
    the longest occurrences, and splices the outputs of those alone.
    Paths whose outputs splice to the same text give one Occurrence, with
    the first of their events in sorted order."""
    if mode not in (ALL_MATCHES, LONGEST_ONLY):
        raise ValueError(f"unknown mode {mode!r}")
    cgs = compile_grammar_set(gs)
    if isinstance(text, Tokenized):
        text, toks, bounds = text
    else:
        toks, bounds = _impl.tokenize_raw(text), None
    if bounds is None or abbreviations is not None:
        abbrevs = frozenset(
            abbreviations if abbreviations is not None else default_abbreviations()
        )
        bounds = _impl.sentence_boundaries(toks, abbrevs)
    raw = _impl.find_matches(
        cgs, text, toks, lex.symbol_index(), lex.prefix_index(), bounds, mode == LONGEST_ONLY
    )
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


def filter_longest(occs: list) -> list:
    """Keep, for each start offset, only the occurrences with maximal end,
    sorted by (start, end, merged).  Idempotent.  ``apply_grammar`` applies
    the same rule inside the walk in LongestOnly mode."""
    ends = {}
    for o in occs:
        if o.end > ends.get(o.start, -1):
            ends[o.start] = o.end
    kept = [o for o in occs if o.end == ends[o.start]]
    return sorted(kept, key=lambda o: (o.start, o.end, o.merged))
