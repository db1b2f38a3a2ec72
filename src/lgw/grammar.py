"""Local grammar graphs: parsing, rendering and validation.

A graph file (``.lg``, UTF-8, LF) looks like::

    graph Nome
    box caixa1 out="<NOME>" "Sr." ; <PRE><<..>> ; :Subgrafo ; <E>
    init inicio
    final fim
    edge inicio caixa1

Atoms inside a box alternative: ``"literal"``, ``<POS+Code+...>``,
``<MASK><<pattern>>``, ``<E>`` and ``:SubgraphName``.  ``#`` at the start
of a line begins a comment.  The ``init`` and ``final`` boxes are virtual:
they carry no input and need no ``box`` line.
"""

from __future__ import annotations

import graphlib
import re
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    DuplicateBoxId,
    EdgeToUnknownBox,
    GraphSyntaxError,
    LgwError,
    MissingInitialOrFinal,
    RecursiveCall,
    UnresolvedSubgraph,
    located,
    numbered_lines,
)

# POS tags recognized as the leading segment of a mask; anything else in
# first position is treated as a semantic code, so <Hum+N> and <N+Hum>
# select the same entries.
POS_TAGS = frozenset(
    {"N", "V", "A", "ADJ", "ADV", "PREP", "DET", "PRON", "CONJ", "INTJ", "NUM"}
)

BUILTIN_MASKS = frozenset({"PRE", "MOT"})

_ID = re.compile(r"[A-Za-z0-9_]+")
# a quoted string: its value, in which a backslash escapes the next character
_STRING = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_QUOTED = re.compile(_STRING, re.S)
_ESCAPED = re.compile(r"\\(.)", re.S)
# One match per atom of a box line, after any whitespace (\s is what
# str.isspace accepts); its last group tells which atom it is.
_ATOM = re.compile(
    r"""\s*(?:
        %s (?:\s*(;))?                  # 1 a literal, 2 the ';' after it
      | (;)                             # 3 a ';'
      | <([^>]*)> (?:<<(.*?)>>|(<<))?   # 4 a mask's body, 5 its filter, 6 a "<<" no ">>" closes
      | :(%s)                           # 7 a subgraph name
      | (\S)                            # 8 a character that begins no atom, or an unterminated one
    )""" % (_STRING, _ID.pattern),
    re.S | re.X,
)
# the message of an atom that group 8 begins
_UNTERMINATED = {
    '"': "unterminated string literal",
    "<": "unterminated mask",
    ":": "missing subgraph name after ':'",
}
# a filter atom: ".", a class or any other character, and an optional quantifier
_FILTER_ATOM = re.compile(r"(\.|\[[^\[\]]*\]|[^*+{}\[\]])([*+]|\{[0-9]+(?:,[0-9]+)?\})?")


class MorphFilter(NamedTuple):
    """Restricted regular expression over a token's characters, anchored at
    both ends.  A trailing unquantified literal or ``.`` atom gets an
    implicit ``.*`` appended, so ``..`` means "at least two characters";
    write ``.{2,2}`` for "exactly two"."""

    pattern: str


@lru_cache(maxsize=512)
def compile_filter(pattern: str):
    if not pattern:
        raise ValueError("empty morphological filter")
    out = []
    i = 0
    while i < len(pattern):
        m = _FILTER_ATOM.match(pattern, i)
        if m is None:
            raise ValueError(f"unexpected {pattern[i]!r} at position {i} in filter {pattern!r}")
        atom, quantifier = m.groups()
        out.append(atom if atom == "." or atom[0] == "[" else re.escape(atom))
        out.append(quantifier or "")
        i = m.end()
    if quantifier is None and atom[0] != "[":
        out.append(".*")
    try:
        return re.compile("".join(out))
    except (re.error, OverflowError) as exc:
        raise ValueError(f"bad filter {pattern!r}: {exc}") from None


class LexicalMask(NamedTuple):
    pos: str = None
    codes: frozenset = frozenset()
    builtin: str = None  # "PRE" | "MOT" | None

    @property
    def required(self) -> frozenset:
        req = set(self.codes)
        if self.pos:
            req.add(self.pos)
        return frozenset(req)


class InputAtom(NamedTuple):
    """One atom of a box alternative.  ``kind`` tells which other field it
    uses: a ``"literal"`` its ``literal``, the text to match; a ``"mask"``
    its ``mask`` and its ``filter`` (a MorphFilter or None); a ``"call"``
    its ``graph_name``; an ``"epsilon"``, which consumes no token, none.
    Build one with ``lit``, ``masked``, ``call`` or ``eps``.  Like any
    tuple, an atom equals a plain tuple of the same five values."""

    kind: str  # "literal" | "mask" | "epsilon" | "call"
    literal: str = None
    mask: LexicalMask = None
    graph_name: str = None
    filter: MorphFilter = None

    @staticmethod
    def lit(s: str) -> "InputAtom":
        return InputAtom("literal", s)

    @staticmethod
    def eps() -> "InputAtom":
        return _EPSILON

    @staticmethod
    def call(name: str) -> "InputAtom":
        return InputAtom("call", graph_name=name)

    @staticmethod
    def masked(mask: LexicalMask, filt: MorphFilter = None) -> "InputAtom":
        return InputAtom("mask", mask=mask, filter=filt)


_EPSILON = InputAtom("epsilon")


class GraphBox(NamedTuple):
    id: str
    alternatives: tuple  # tuple of tuples of InputAtom
    output: str = None


class Graph(NamedTuple):
    name: str
    boxes: tuple  # tuple of GraphBox, file order preserved
    edges: frozenset  # of (from_id, to_id)
    initial: str
    final: str

    def box_map(self) -> dict:
        return {b.id: b for b in self.boxes}

    def successors(self) -> dict:
        succ: dict = {}
        for a, b in sorted(self.edges):
            succ.setdefault(a, []).append(b)
        return succ


class GrammarSet(NamedTuple):
    graphs: dict  # name -> Graph
    main: str


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    code: str
    detail: str


def parse_mask_body(body: str, line_no: int) -> LexicalMask:
    segs = body.split("+")
    if any(not s for s in segs):
        raise GraphSyntaxError(line_no, f"empty segment in mask <{body}>")
    if len(segs) == 1 and segs[0] in BUILTIN_MASKS:
        return LexicalMask(builtin=segs[0])
    if segs[0] in POS_TAGS:
        return LexicalMask(pos=segs[0], codes=frozenset(segs[1:]))
    return LexicalMask(codes=frozenset(segs))


def _unescape(value: str) -> str:
    """``value`` with each backslash escape replaced by the character it escapes."""
    return _ESCAPED.sub(lambda e: e.group(1), value) if "\\" in value else value


def _read_quoted(s: str, i: int, line_no: int):
    """(value, next index) of the quoted string at s[i]."""
    m = _QUOTED.match(s, i)
    if m is None:
        raise GraphSyntaxError(line_no, "unterminated string literal")
    return _unescape(m.group(1)), m.end()


def _quote(s: str) -> str:
    """The inverse of _read_quoted."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _mask_atom(m, line_no: int) -> InputAtom:
    """The atom of an ``_ATOM`` match of a mask."""
    if m.lastindex == 6:
        raise GraphSyntaxError(line_no, "unterminated morphological filter")
    body, filt = m.group(4, 5)
    if body == "E":
        if filt is not None:
            raise GraphSyntaxError(line_no, "<E> cannot carry a filter")
        return _EPSILON
    mask = parse_mask_body(body, line_no)
    if filt is not None:
        try:
            compile_filter(filt)
        except ValueError as exc:
            raise GraphSyntaxError(line_no, str(exc)) from None
        filt = MorphFilter(filt)
    return InputAtom.masked(mask, filt)


def _parse_alternatives(s: str, line_no: int) -> list:
    """The alternatives of the atoms ``s`` of a box line, as lists of
    InputAtoms: each ';' begins one.  The first atom that cannot be read
    raises its error."""
    alt = []
    alts = [alt]
    for m in _ATOM.finditer(s):
        group = m.lastindex
        if group <= 2:
            value = _unescape(m.group(1))
            if not value:
                raise GraphSyntaxError(line_no, "empty literal")
            if value.isspace():
                raise GraphSyntaxError(line_no, "literal without a token")
            alt.append(InputAtom("literal", value))
            if group == 2:
                alt = []
                alts.append(alt)
        elif group == 3:
            alt = []
            alts.append(alt)
        elif group <= 6:
            alt.append(_mask_atom(m, line_no))
        elif group == 7:
            alt.append(InputAtom.call(m.group(7)))
        else:
            c = m.group(8)
            raise GraphSyntaxError(line_no, _UNTERMINATED.get(c) or f"unexpected character {c!r}")
    return alts


def _parse_box_line(rest: str, line_no: int) -> GraphBox:
    m = _ID.match(rest)
    if m is None:
        raise GraphSyntaxError(line_no, "missing box id")
    rest = rest[m.end() :].lstrip()
    output = None
    if rest.startswith('out="'):
        output, j = _read_quoted(rest, len("out="), line_no)
        rest = rest[j:]
    alts = _parse_alternatives(rest, line_no)
    for alt in alts:
        if not alt:
            raise GraphSyntaxError(line_no, "empty alternative")
        if len(alt) > 1 and _EPSILON in alt:
            raise GraphSyntaxError(line_no, "<E> must be alone in its alternative")
    return GraphBox(m.group(), tuple(map(tuple, alts)), output)


def parse_graph(text: str) -> Graph:
    name = None
    boxes = []
    box_ids = set()
    edges = set()
    initial = None
    final = None
    for line_no, raw in numbered_lines(text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "graph":
            if not _ID.fullmatch(rest):
                raise GraphSyntaxError(line_no, f"bad graph name {rest!r}")
            name = rest
        elif head == "box":
            box = _parse_box_line(rest, line_no)
            if box.id in box_ids:
                raise DuplicateBoxId(line_no, f"duplicate box id {box.id!r}")
            box_ids.add(box.id)
            boxes.append(box)
        elif head == "init":
            if not _ID.fullmatch(rest):
                raise GraphSyntaxError(line_no, f"bad init id {rest!r}")
            initial = rest
        elif head == "final":
            if not _ID.fullmatch(rest):
                raise GraphSyntaxError(line_no, f"bad final id {rest!r}")
            final = rest
        elif head == "edge":
            parts = rest.split()
            if len(parts) != 2:
                raise GraphSyntaxError(line_no, "edge needs exactly two box ids")
            edges.add((parts[0], parts[1]))
        else:
            raise GraphSyntaxError(line_no, f"unknown directive {head!r}")
    if name is None:
        raise GraphSyntaxError(0, "missing 'graph' directive")
    if initial is None or final is None:
        raise MissingInitialOrFinal(f"graph {name}: missing init or final")
    for special, what in ((initial, "initial"), (final, "final")):
        if special in box_ids:
            raise GraphSyntaxError(0, f"{what} box {special!r} must not carry input")
    known = box_ids | {initial, final}
    for a, b in sorted(edges):
        for end in (a, b):
            if end not in known:
                raise EdgeToUnknownBox(0, f"edge references unknown box {end!r}")
    return Graph(name, tuple(boxes), frozenset(edges), initial, final)


def _render_atom(a: InputAtom) -> str:
    if a.kind == "literal":
        return _quote(a.literal)
    if a.kind == "epsilon":
        return "<E>"
    if a.kind == "call":
        return ":" + a.graph_name
    mask = a.mask
    if mask.builtin:
        body = mask.builtin
    else:
        segs = ([mask.pos] if mask.pos else []) + sorted(mask.codes)
        body = "+".join(segs)
    s = f"<{body}>"
    if a.filter is not None:
        s += f"<<{a.filter.pattern}>>"
    return s


def render_graph(g: Graph) -> str:
    lines = [f"graph {g.name}"]
    for box in g.boxes:
        parts = ["box", box.id]
        if box.output is not None:
            parts.append("out=" + _quote(box.output))
        parts.append(" ; ".join(" ".join(_render_atom(a) for a in alt) for alt in box.alternatives))
        lines.append(" ".join(parts))
    lines.append(f"init {g.initial}")
    lines.append(f"final {g.final}")
    for a, b in sorted(g.edges):
        lines.append(f"edge {a} {b}")
    return "\n".join(lines) + "\n"


def load_grammar_set(files, main: str = None) -> GrammarSet:
    """Parse every (name, text) pair, resolve subgraph calls and verify the
    call graph is acyclic (recursion would break the finite-state model).
    A parse error is prefixed with its file's name, an unresolved call with
    that of the graph holding it and a recursive call with that of the
    cycle's first graph; two files may not define the same graph.
    ``main`` defaults to the first file's graph."""
    graphs = {}
    sources = {}
    for source, text in files:
        with located(source):
            g = parse_graph(text)
        if g.name in graphs:
            raise LgwError(f"graph {g.name!r} is defined in both {sources[g.name]} and {source}")
        graphs[g.name] = g
        sources[g.name] = source
    if not main:
        main = next(iter(graphs), None)
    if main not in graphs:
        raise UnresolvedSubgraph(main)
    calls: dict = {name: set() for name in graphs}
    for name, g in graphs.items():
        for box in g.boxes:
            for alt in box.alternatives:
                for atom in alt:
                    if atom.kind == "call":
                        if atom.graph_name not in graphs:
                            with located(sources[name]):
                                raise UnresolvedSubgraph(atom.graph_name)
                        calls[name].add(atom.graph_name)
    # each callee comes after its caller, so a cycle is listed in call
    # order; names and callees are added sorted to name the same cycle
    # every time
    sorter = graphlib.TopologicalSorter()
    for name in sorted(calls):
        sorter.add(name)
        for callee in sorted(calls[name]):
            sorter.add(callee, name)
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
        with located(sources[cycle[0]]):
            raise RecursiveCall(cycle) from None
    return GrammarSet(graphs, main)


def _closure(start, nexts) -> set:
    """Every node reachable from start (itself included) through nexts."""
    seen = set()
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        if cur not in seen:
            seen.add(cur)
            frontier.extend(nexts(cur))
    return seen


def validate(g: Graph) -> list:
    """Structural diagnostics; an empty list means the graph is usable."""
    diags = []
    succ = g.successors()
    pred: dict = {}
    for a, b in g.edges:
        pred.setdefault(b, []).append(a)
    reachable = _closure(g.initial, lambda b: succ.get(b, ()))
    coreach = _closure(g.final, lambda b: pred.get(b, ()))
    # boxes passable without a token: an <E> alternative
    passable = {g.initial} | {
        b.id
        for b in g.boxes
        if any(len(alt) == 1 and alt[0].kind == "epsilon" for alt in b.alternatives)
    }
    empty = _closure(g.initial, lambda b: succ.get(b, ()) if b in passable else ())
    for box in g.boxes:
        if box.id not in reachable:
            diags.append(Diagnostic("warning", "Unreachable", f"box {box.id!r} is unreachable from init"))
        elif box.id not in coreach:
            diags.append(Diagnostic("warning", "NotCoReachable", f"box {box.id!r} cannot reach final"))
    if succ.get(g.final):
        diags.append(Diagnostic("error", "FinalHasSuccessor", f"final box {g.final!r} has outgoing edges"))
    if g.final not in reachable:
        diags.append(Diagnostic("error", "FinalUnreachable", f"final box {g.final!r} is unreachable"))
    if g.final in empty:
        diags.append(Diagnostic("error", "EmptyMatch", "grammar can match the empty token sequence"))
    return diags


def validate_set(gs: GrammarSet) -> list:
    diags = []
    for name in sorted(gs.graphs):
        for d in validate(gs.graphs[name]):
            diags.append(Diagnostic(d.severity, d.code, f"{name}: {d.detail}"))
    return diags
