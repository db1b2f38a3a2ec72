"""Independent brute-force reference implementations used by the tests.

Nothing here shares code with the package's matcher or diff classifier:
the matcher oracle enumerates every initial-to-final path of a (cycle-free)
grammar and tries it at every start token with its own token scanner, and
``oracle_grammar`` unrolls a cyclic grammar into a cycle-free one with the
same matches on one sentence; the
diff oracle classifies lines by direct interval comparison; the lexicon
parser and the annotation subset are the original straightforward versions
of the package's faster ones.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from lgw.concordance import Concordance, ConcordanceLine
from lgw.errors import MalformedLine
from lgw.grammar import Graph, GraphBox, GrammarSet, InputAtom


def _char_kind(c):
    if c.isspace():
        return "space"
    if c.isalpha():
        return "word"
    if c.isdigit():
        return "number"
    return "punct"


def brute_tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        kind = _char_kind(text[i])
        j = i + 1
        if kind == "punct":
            pass  # punctuation stays one char per token
        else:
            while j < len(text) and _char_kind(text[j]) == kind:
                j += 1
        toks.append((text[i:j], i, j, kind))
        i = j
    return toks


def enumerate_paths(gs: GrammarSet):
    """Every flat atom path of the main graph, subgraph calls expanded.

    Path items: ("lit", text), ("pre", mask_required, builtin, filter),
    ("out", string, trailing: bool).  Only works for cycle-free graphs.
    """
    expanded = {}

    def expand(name):
        if name in expanded:
            return expanded[name]
        g = gs.graphs[name]
        succ = g.successors()
        box_map = g.box_map()
        memo = {}

        def from_box(bid):
            if bid == g.final:
                return [[]]
            if bid in memo:
                return memo[bid]
            tails = []
            for s in succ.get(bid, []):
                tails.extend(from_box(s))
            here = []
            box = box_map[bid]
            # a box with no path on to final adds no path: its alternatives,
            # whose calls may spell out very many, are not expanded
            for alt in box.alternatives if tails else ():
                alt_paths = [[]]
                for atom in alt:
                    if atom.kind == "call":
                        subs = expand(atom.graph_name)
                        alt_paths = [p + q for p in alt_paths for q in subs]
                    elif atom.kind == "epsilon":
                        pass
                    elif atom.kind == "literal":
                        alt_paths = [p + [("lit", atom.literal)] for p in alt_paths]
                    else:
                        item = (
                            "mask",
                            atom.mask.required,
                            atom.mask.builtin,
                            atom.filter.pattern if atom.filter else None,
                        )
                        alt_paths = [p + [item] for p in alt_paths]
                if box.output is not None:
                    # trailing when this path through the alternative, its
                    # calls included, consumes no token
                    alt_paths = [
                        [("out", box.output, all(item[0] == "out" for item in p))] + p
                        for p in alt_paths
                    ]
                here.extend(alt_paths)
            result = [h + t for h in here for t in tails]
            memo[bid] = result
            return result

        paths = []
        for s in succ.get(g.initial, []):
            paths.extend(from_box(s))
        expanded[name] = paths
        return paths

    return expand(gs.main)


def _lex_entries(lex, surface):
    found = list(lex.entries.get(surface, ()))
    if surface[:1].isupper():
        found += list(lex.entries.get(surface.lower(), ()))
    return found


def _match_path(path, text, toks, lex, start):
    """Try one flat path anchored at token index `start`; returns
    (end_char, merged) or None."""
    i = start
    pending = []  # outputs waiting for the next consumed token
    pieces = []  # merged output under construction
    last_end = None
    first = True

    def consume_at(j):
        nonlocal first, last_end
        tok = toks[j]
        if first and j != start:
            return False
        if not first:
            pieces.append(text[last_end : tok[1]])
        for p in pending:
            pieces.append(p)
        pending.clear()
        first = False
        return True

    for item in path:
        if item[0] == "out":
            if item[2] and not first:  # trailing output: attach right here
                pieces.append(item[1])
            else:
                pending.append(item[1])
            continue
        # skip spaces
        while i < len(toks) and toks[i][3] == "space":
            i += 1
        if item[0] == "lit":
            lit_toks = [t for t in brute_tokenize(item[1]) if t[3] != "space"]
            ci = not any(c.isupper() for c in item[1])
            for lt in lit_toks:
                while i < len(toks) and toks[i][3] == "space":
                    i += 1
                if i >= len(toks):
                    return None
                got, want = toks[i][0], lt[0]
                if ci:
                    got = got.lower()
                    want = want.lower()
                if got != want:
                    return None
                if not consume_at(i):
                    return None
                pieces.append(toks[i][0])
                last_end = toks[i][2]
                i += 1
        else:  # mask
            required, builtin, filt_pat = item[1], item[2], item[3]
            if i >= len(toks):
                return None
            if builtin:
                surf = toks[i][0]
                if builtin == "PRE":
                    ok = surf[:1].isupper() or any(
                        "PRE" in e.symbols for e in _lex_entries(lex, surf)
                    )
                else:
                    ok = surf.isalpha()
                if ok and filt_pat is not None:
                    from lgw.grammar import compile_filter

                    ok = compile_filter(filt_pat).fullmatch(surf) is not None
                if not ok:
                    return None
                if not consume_at(i):
                    return None
                pieces.append(toks[i][0])
                last_end = toks[i][2]
                i += 1
            else:
                nonspace = [
                    j for j in range(i, len(toks)) if toks[j][3] != "space"
                ]
                hit = None
                for k in range(len(nonspace) - 1, -1, -1):
                    last = nonspace[k]
                    surf = text[toks[i][1] : toks[last][2]]
                    if any(e.symbols >= required for e in _lex_entries(lex, surf)):
                        from lgw.grammar import compile_filter

                        if filt_pat is None or compile_filter(filt_pat).fullmatch(surf):
                            hit = last
                            break
                if hit is None:
                    return None
                if not consume_at(i):
                    return None
                pieces.append(text[toks[i][1] : toks[hit][2]])
                last_end = toks[hit][2]
                i = hit + 1
    if first:
        return None
    for p in pending:
        pieces.append(p)
    return last_end, "".join(pieces)


def brute_matches(gs: GrammarSet, text: str, lex) -> set:
    """All (start, end, merged) matches, by exhaustive path enumeration.
    Sentence boundaries are not applied; use boundary-free texts."""
    toks = brute_tokenize(text)
    paths = enumerate_paths(gs)
    results = set()
    for s, tok in enumerate(toks):
        if tok[3] == "space":
            continue
        for path in paths:
            got = _match_path(path, text, toks, lex, s)
            if got is not None:
                end, merged = got
                results.add((tok[1], end, merged))
    return results


# ---------------------------------------------------------------------------
# cyclic grammars: a cycle-free grammar with the same matches on one sentence

_PATH_LIMIT = 20_000  # oracle paths per sentence; beyond this it gives up


def _nonspace(text):
    return [t for t in brute_tokenize(text) if t[3] != "space"]


def _callees(g):
    return {a.graph_name for b in g.boxes for alt in b.alternatives for a in alt
            if a.kind == "call"}


def _graphs_reached(gs, name):
    """The graphs ``name`` reaches through calls, itself included, each
    after the graphs it calls unless the calls are recursive."""
    order, seen = [], set()

    def visit(n):
        seen.add(n)
        for callee in sorted(_callees(gs.graphs[n])):
            if callee not in seen:
                visit(callee)
        order.append(n)

    visit(name)
    return order


def _run_bound(gs, name, toks, lex):
    """Most consecutive non-space tokens a match of graph ``name`` can
    consume: a longest run of tokens each accepted by some atom reachable
    from it.  A dictionary mask may span tokens it accepts only together,
    so it makes every token count."""
    atoms = [a for n in _graphs_reached(gs, name) for b in gs.graphs[n].boxes
             for alt in b.alternatives for a in alt]
    if any(a.kind == "mask" and not a.mask.builtin for a in atoms):
        return len(toks)
    pieces = {t[0].lower() for a in atoms if a.kind == "literal" for t in _nonspace(a.literal)}
    builtins = {a.mask.builtin for a in atoms if a.kind == "mask"}

    def accepted(tok):
        w = tok[0]
        if w.lower() in pieces or ("MOT" in builtins and w.isalpha()):
            return True
        return "PRE" in builtins and (w[:1].isupper() or any(
            "PRE" in e.symbols for e in _lex_entries(lex, w)))

    best = run = 0
    for tok in toks:
        run = run + 1 if accepted(tok) else 0
        best = max(best, run)
    return best


def _versions(alt, kinds):
    """``(consumes, alternative)`` for each way the alternative can go.  One
    with a literal or a mask always consumes and is kept as it is.  In any
    other, each call goes to the ``~0`` variant of its graph (which
    consumes nothing) or the ``~1`` variant (which consumes), where that
    variant has a path; ``kinds[name]`` says which do."""
    if any(a.kind in ("literal", "mask") for a in alt):
        return [(True, alt)]
    versions = [(False, ())]
    for a in alt:
        if a.kind != "call":
            versions = [(c, v + (a,)) for c, v in versions]
            continue
        ways = [w for w in (False, True) if kinds[a.graph_name][w]]
        versions = [(c or w, v + (InputAtom.call(f"{a.graph_name}~{int(w)}"),))
                    for c, v in versions for w in ways]
    return versions


def _unroll(g, depth, kinds, consumes=None, name=None):
    """Cycle-free copy of ``g`` with the paths of ``g`` that enter no box
    twice between two consumed tokens and pass at most ``depth`` boxes
    that consume; with ``consumes`` false or true, only those that consume
    nothing or something.

    A node is (box, consuming boxes so far, boxes entered since the last
    one), so each box splits into its alternatives that consume and those
    that do not (``_versions``).  Every step adds a consuming box or a box
    not yet in the set, so no node is reached twice on one path."""
    outputs = {b.id: b.output for b in g.boxes}
    split = {b.id: ([], []) for b in g.boxes}
    for b in g.boxes:
        for alt in b.alternatives:
            for c, version in _versions(alt, kinds):
                split[b.id][c].append(version)
    # the matcher's initial box has one empty alternative and no output
    outputs[g.initial], split[g.initial] = None, ([()], [])
    succ = g.successors()
    start = (g.initial, 0, frozenset({g.initial}))

    def node_id(node):
        b, k, vis = node
        return g.initial if node == start else f"{b}/{k}/{'.'.join(sorted(vis))}"

    boxes, edges = {}, set()
    todo, seen = [start], {start}
    while todo:
        b, k, vis = here = todo.pop()
        for s in succ.get(b, ()):
            if s == g.final:
                if consumes is None or consumes == (k > 0):
                    edges.add((node_id(here), g.final))
                continue
            if s in vis:
                continue
            for c in (False, True):
                if not split[s][c] or (c and consumes is False) or k + c > depth:
                    continue
                node = (s, k + c, frozenset() if c else vis | {s})
                edges.add((node_id(here), node_id(node)))
                if node not in seen:
                    seen.add(node)
                    todo.append(node)
                    boxes[node] = GraphBox(node_id(node), tuple(split[s][c]), outputs[s])
    return Graph(name or g.name, tuple(boxes.values()), frozenset(edges), g.initial, g.final)


def _count_paths(gs):
    memo = {}

    def graph_paths(name):
        if name not in memo:
            memo[name] = 0
            g = gs.graphs[name]
            box_map, succ = g.box_map(), g.successors()
            from_box = {}

            def paths(b):
                if b == g.final:
                    return 1
                if b not in from_box:
                    here = 1 if b == g.initial else sum(
                        math.prod(graph_paths(a.graph_name) if a.kind == "call" else 1
                                  for a in alt)
                        for alt in box_map[b].alternatives)
                    from_box[b] = here * sum(paths(s) for s in succ.get(b, ()))
                return from_box[b]

            memo[name] = paths(g.initial)
        return memo[name]

    return graph_paths(gs.main)


def oracle_grammar(gs, sentence, lex):
    """A cycle-free grammar with the same matches as ``gs`` on this
    sentence, or None when its calls are recursive or the oracle would
    enumerate too many paths.

    Alternatives holding a literal whose words do not occur in the
    sentence cannot match and are dropped.  Each graph is unrolled
    (``_unroll``) to the longest run of tokens it could consume, as itself
    and as its variants ``~0`` and ``~1`` for calls that must consume
    nothing or something; callees come first, so a caller knows which
    variants have a path."""
    toks = _nonspace(sentence)
    present = {t[0].lower() for t in toks}

    def possible(alt):
        return all(t[0].lower() in present for a in alt if a.kind == "literal"
                   for t in _nonspace(a.literal))

    pruned = GrammarSet({
        name: Graph(g.name, tuple(
            GraphBox(b.id, tuple(alt for alt in b.alternatives if possible(alt)), b.output)
            for b in g.boxes), g.edges, g.initial, g.final)
        for name, g in gs.graphs.items()
    }, gs.main)
    graphs, kinds = {}, {}
    for name in _graphs_reached(pruned, gs.main):
        g = pruned.graphs[name]
        if not _callees(g) <= kinds.keys():
            return None
        depth = _run_bound(pruned, name, toks, lex)
        graphs[name] = _unroll(g, depth, kinds)
        for c in (False, True):
            graphs[f"{name}~{int(c)}"] = _unroll(g, depth, kinds, c, f"{name}~{int(c)}")
        kinds[name] = tuple(_count_paths(GrammarSet(graphs, f"{name}~{c}")) > 0 for c in (0, 1))
    out = GrammarSet(graphs, gs.main)
    if _count_paths(out) > _PATH_LIMIT:
        return None
    return out


# ---------------------------------------------------------------------------
# diff classification oracle


def oracle_classes(x_triples, y_triples):
    """Per-line diff classes by direct interval comparison.

    Triples are (start, end, match); returns (classes_x, classes_y) with
    values 'common' | 'conflict' | 'partial' | 'unique'.
    """

    def classify(own, other):
        other_set = set(other)
        other_spans = {(s, e) for s, e, _ in other}
        out = []
        for (s, e, m) in own:
            if (s, e, m) in other_set:
                out.append("common")
            elif (s, e) in other_spans:
                out.append("conflict")
            elif any(s < oe and os_ < e for os_, oe, _ in other):
                out.append("partial")
            else:
                out.append("unique")
        return out

    return classify(x_triples, y_triples), classify(y_triples, x_triples)


def oracle_align(x_triples, y_triples):
    """The full diff sequence by all-pairs comparison.

    Triples are (start, end, match) in file order, duplicates allowed;
    returns [(side, start, end, match, class)] with the ``DiffClass``
    values as class.  Lines are grouped by connected component of the
    X-Y overlap graph; components come in order of their smallest
    (start, end, side), ties in input order; within a component the
    X and Y lines, each sorted by (start, end, match), alternate X first.
    """

    def overlaps(a, b):
        return a[0] < b[1] and b[0] < a[1]

    def classify(own, other, unique):
        out = []
        for s, e, m in own:
            if (s, e, m) in set(other):
                out.append("common")
            elif (s, e) in {(os_, oe) for os_, oe, _ in other}:
                out.append("output_conflict")
            elif any(overlaps((s, e), o) for o in other):
                out.append("partial_overlap")
            else:
                out.append(unique)
        return out

    nodes = [("x", t, c) for t, c in zip(x_triples, classify(x_triples, y_triples, "unique_x"))]
    nodes += [("y", t, c) for t, c in zip(y_triples, classify(y_triples, x_triples, "unique_y"))]
    parent = list(range(len(nodes)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, (side_i, ti, _) in enumerate(nodes):
        for j, (side_j, tj, _) in enumerate(nodes):
            if side_i == "x" and side_j == "y" and overlaps(ti, tj):
                parent[find(i)] = find(j)

    groups = {}
    for k in range(len(nodes)):
        groups.setdefault(find(k), []).append(nodes[k])
    result = []
    for members in sorted(
        groups.values(), key=lambda ms: min((t[0], t[1], side) for side, t, _ in ms)
    ):
        xs = sorted((m for m in members if m[0] == "x"), key=lambda m: m[1])
        ys = sorted((m for m in members if m[0] == "y"), key=lambda m: m[1])
        for k in range(max(len(xs), len(ys))):
            for side_lines in (xs, ys):
                if k < len(side_lines):
                    side, (s, e, m), c = side_lines[k]
                    result.append((side, s, e, m, c))
    return result


# ---------------------------------------------------------------------------
# lexicon parser and annotation-subset references


def _oracle_find_unescaped(s, sep, start=0):
    i = start
    while i < len(s):
        c = s[i]
        if c == "\\":
            i += 2
            continue
        if c == sep:
            return i
        i += 1
    return -1


_ORACLE_ESCAPE_RE = re.compile(r"\\(.)", re.S)


def _oracle_unescape(s):
    return _ORACLE_ESCAPE_RE.sub(lambda m: m.group(1), s)


class OracleEntry(NamedTuple):
    """One distinct lexicon line."""

    surface: str
    lemma: str
    pos: str
    codes: frozenset

    @property
    def symbols(self):
        return self.codes | {self.pos}


class OracleLexicon(NamedTuple):
    """What ``brute_matches`` reads of a lexicon: ``entries``, surface ->
    its entries, first seen first."""

    entries: dict
    name: str = ""


def oracle_parse_lexicon(text, name=""):
    """The original line-by-line parser: every line through the
    per-character separator scan, every tag split again, every entry
    deduplicated through one global set."""
    entries = {}
    seen = set()
    # a line ends at "\n", "\r\n" or "\r" and nowhere else
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        comma = _oracle_find_unescaped(raw, ",")
        if comma < 0:
            raise MalformedLine(line_no, "missing ',' separator")
        surface = _oracle_unescape(raw[:comma])
        if not surface:
            raise MalformedLine(line_no, "empty surface form")
        rest = raw[comma + 1 :]
        period = _oracle_find_unescaped(rest, ".")
        if period < 0:
            raise MalformedLine(line_no, "missing '.' separator")
        lemma = _oracle_unescape(rest[:period]) or surface
        gram = rest[period + 1 :].strip()
        segs = gram.split("+")
        if not segs[0]:
            raise MalformedLine(line_no, "empty POS code")
        if any(not s for s in segs[1:]):
            raise MalformedLine(line_no, "empty semantic code")
        entry = OracleEntry(surface, lemma, segs[0], frozenset(segs[1:]))
        if entry in seen:
            continue
        seen.add(entry)
        entries.setdefault(surface, [])
        entries[surface].append(entry)
    return OracleLexicon({s: tuple(es) for s, es in entries.items()}, name)


def oracle_lexicon_index(entries):
    """(symbol index, head index) of an entries dict (surface -> entries),
    rebuilt from the entries: each distinct symbol set of a surface once,
    first seen first, and each surface's tokens counted by
    ``brute_tokenize`` instead of the kernel's tokenizer."""
    symidx = {s: tuple(dict.fromkeys(e.symbols for e in es)) for s, es in entries.items() if es}
    heads = {}
    for surface in symidx:
        words = [t[0] for t in brute_tokenize(surface) if t[3] != "space"]
        if words:
            heads[words[0]] = max(heads.get(words[0], 0), len(words))
    return symidx, (heads, max(heads.values(), default=0))


def oracle_non_overlapping(occs):
    """Greedy maximal non-overlapping subset, longer occurrences first,
    each candidate checked against every occurrence chosen so far."""
    chosen = []
    for o in sorted(occs, key=lambda o: (o.start - o.end, o.start, o.merged)):
        if all(o.end <= c.start or c.end <= o.start for c in chosen):
            chosen.append(o)
    return sorted(chosen, key=lambda o: o.start)


# ---------------------------------------------------------------------------
# helpers for building small fixtures


def make_concordance(triples, grammar="G", text_id="t") -> Concordance:
    lines = sorted(
        {(s, e, m) for s, e, m in triples},
    )
    return Concordance(
        [ConcordanceLine(s, e, "", m, "") for s, e, m in lines],
        source_grammar=grammar,
        source_text_id=text_id,
    )


def random_literal_grammar(rng, name, vocab, max_boxes=4, tag=True) -> Graph:
    """A small cycle-free grammar over word literals: a consuming chain with
    random extra forward edges and alternatives."""
    n_boxes = rng.randint(1, max_boxes)
    boxes = []
    for b in range(n_boxes):
        n_alts = rng.randint(1, 2)
        alts = []
        for _ in range(n_alts):
            n_atoms = rng.randint(1, 2)
            alts.append(
                tuple(InputAtom.lit(rng.choice(vocab)) for _ in range(n_atoms))
            )
        output = None
        if tag and b == 0:
            output = "<NOME>"
        boxes.append(GraphBox(f"b{b}", tuple(alts), output))
    edges = {("i", "b0"), (f"b{n_boxes - 1}", "f")}
    for b in range(n_boxes - 1):
        edges.add((f"b{b}", f"b{b + 1}"))
    # random forward skips (keeps the graph acyclic)
    for a in range(n_boxes):
        for b in range(a + 1, n_boxes):
            if rng.random() < 0.25:
                edges.add((f"b{a}", f"b{b}"))
        if a > 0 and rng.random() < 0.2:
            edges.add((f"b{a}", "f"))
    if tag and rng.random() < 0.7:
        boxes.append(GraphBox("close", ((InputAtom.eps(),),), "</NOME>"))
        edges = {(a, b) for a, b in edges if b != "f"} | {
            (a, "close") for a, b in edges if b == "f"
        } | {("close", "f")}
    return Graph(name, tuple(boxes), frozenset(edges), "i", "f")


def oracle_compile_filter(pattern: str):
    """The original character-by-character filter translator."""
    if not pattern:
        raise ValueError("empty morphological filter")
    out = []
    i = 0
    n = len(pattern)
    trailing_plain = False
    while i < n:
        c = pattern[i]
        if c in "*+{}]":
            raise ValueError(f"unexpected {c!r} at position {i} in filter {pattern!r}")
        if c == ".":
            out.append(".")
            plain = True
            i += 1
        elif c == "[":
            j = pattern.find("]", i + 1)
            if j < 0:
                raise ValueError(f"unterminated character class in filter {pattern!r}")
            if "[" in pattern[i + 1 : j]:
                raise ValueError(f"nested character class in filter {pattern!r}")
            out.append(pattern[i : j + 1])
            plain = False
            i = j + 1
        else:
            out.append(re.escape(c))
            plain = True
            i += 1
        quantified = False
        if i < n and pattern[i] in "*+":
            out.append(pattern[i])
            i += 1
            quantified = True
        elif i < n and pattern[i] == "{":
            j = pattern.find("}", i)
            if j < 0 or not re.fullmatch(r"\{\d+(,\d+)?\}", pattern[i : j + 1]):
                raise ValueError(f"bad quantifier in filter {pattern!r}")
            out.append(pattern[i : j + 1])
            i = j + 1
            quantified = True
        trailing_plain = plain and not quantified
    if trailing_plain:
        out.append(".*")
    return re.compile("".join(out))
