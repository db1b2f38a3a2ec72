"""Apply grammar sets to text, producing occurrences with MERGE output.

The matching kernel lives in ``_engine``; when the Cython-compiled
``_engine_c`` extension was built it is used instead (set ``LGW_PURE=1``
to force the pure-Python kernel).  ``benchmarks/bench_matcher.py``
compares the two.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..grammar import GrammarSet, compile_filter
from ..lexicon import Lexicon

from . import _engine as _pure

_impl = _pure
if os.environ.get("LGW_PURE") != "1":
    try:
        from . import _engine_c as _compiled  # type: ignore[attr-defined]
    except ImportError:
        _compiled = None
    if _compiled is not None and str(getattr(_compiled, "__file__", "")).endswith(
        (".so", ".pyd")
    ):
        _impl = _compiled

USING_COMPILED_ENGINE = _impl is not _pure

ALL_MATCHES = "all"
LONGEST_ONLY = "longest"

_KIND_NAMES = ("word", "number", "punct", "space")


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int
    kind: str  # "word" | "number" | "punct" | "space"


@dataclass(frozen=True)
class Occurrence:
    start: int
    end: int
    surface: str
    merged: str
    grammar: str


def tokenize(text: str) -> list:
    return [Token(s, a, b, _KIND_NAMES[k]) for s, a, b, k in _impl.tokenize_raw(text)]


def _compile_atom(atom):
    if atom.kind == "literal":
        ci = not any(c.isupper() for c in atom.literal)
        pieces = tuple(
            t[0].lower() if ci else t[0]
            for t in _pure.tokenize_raw(atom.literal)
            if t[3] != _pure.SPACE
        )
        return ("lit", pieces, ci)
    if atom.kind == "epsilon":
        return ("eps",)
    if atom.kind == "call":
        return ("call", atom.graph_name)
    filt = compile_filter(atom.filter.pattern) if atom.filter is not None else None
    return ("mask", atom.mask.required, atom.mask.builtin or "", filt)


def _compile_box(output, alts):
    """(output, rest, exact, folded): literal-first alternatives indexed by
    their first piece, the others kept in file order."""
    rest, exact, folded = [], {}, {}
    for alt in alts:
        if alt and alt[0][0] == "lit" and alt[0][1]:
            index = folded if alt[0][2] else exact
            piece = alt[0][1][0]
            index[piece] = index.get(piece, ()) + (alt,)
        else:
            rest.append(alt)
    return (output, tuple(rest), exact, folded)


_PENDING = object()


def _first_set(graphs, name, memo):
    """(first, nullable) of a compiled graph, memoized in ``memo``.

    ``first`` is the kernel's FIRST set (see ``_engine``); ``nullable`` is
    true when initial reaches final consuming nothing.  A subgraph call
    back into a graph still being computed (a cycle through a nullable
    prefix) makes the caller's FIRST "any token".
    """
    got = memo.get(name)
    if got is _PENDING:
        return None, True
    if got is not None:
        return got
    memo[name] = _PENDING
    g = graphs[name]
    exact, folded, flags = set(), set(), set()
    any_token = nullable = False
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
                    if atom[1]:  # a literal without pieces never matches
                        (folded if atom[2] else exact).add(atom[1][0])
                    break
                if atom[0] == "mask":
                    flags.add(atom[2] or "dict")
                    break
                sub, sub_nullable = _first_set(graphs, atom[1], memo)
                if sub is None:
                    any_token = True
                else:
                    exact.update(sub[0])
                    folded.update(sub[1])
                    flags.update(sub[2])
                if not sub_nullable:
                    break
            else:
                passable = True
        if passable:
            stack.extend(g["succ"].get(box_id, ()))
    first = None if any_token else (frozenset(exact), frozenset(folded), frozenset(flags))
    memo[name] = (first, nullable)
    return memo[name]


def compile_grammar_set(gs: GrammarSet) -> dict:
    """Lower a GrammarSet to the primitive dict form the kernel interprets,
    with each box's literal dispatch and each graph's FIRST set."""
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
    memo = {}
    for name in graphs:
        graphs[name]["first"] = _first_set(graphs, name, memo)[0]
    return {"main": gs.main, "graphs": graphs}


def _default_abbreviations():
    from ..data import default_abbreviations

    return default_abbreviations()


def apply_grammar(
    gs: GrammarSet,
    text: str,
    lex: Lexicon,
    mode: str = LONGEST_ONLY,
    abbreviations=None,
) -> list:
    """Every initial-to-final path match of the main graph as Occurrences,
    sorted by (start, end).  LongestOnly keeps, per start offset, only the
    longest occurrence."""
    if mode not in (ALL_MATCHES, LONGEST_ONLY):
        raise ValueError(f"unknown mode {mode!r}")
    cgs = compile_grammar_set(gs)
    toks = _impl.tokenize_raw(text)
    abbrevs = frozenset(
        abbreviations if abbreviations is not None else _default_abbreviations()
    )
    bounds = _impl.sentence_boundaries(toks, abbrevs)
    raw = _impl.find_matches(
        cgs, text, toks, lex.symbol_index(), lex.head_index(), bounds
    )
    occs = [
        Occurrence(start, end, text[start:end], merged, gs.main)
        for start, end, merged in raw
    ]
    if mode == LONGEST_ONLY:
        occs = filter_longest(occs)
    return occs


def filter_longest(occs: list) -> list:
    """Keep, for each start offset, only the occurrences with maximal end.
    Idempotent; input must be sorted by (start, end)."""
    best = {}
    for o in occs:
        cur = best.get(o.start)
        if cur is None or o.end > cur:
            best[o.start] = o.end
    kept = [o for o in occs if o.end == best[o.start]]
    return sorted(kept, key=lambda o: (o.start, o.end, o.merged))
