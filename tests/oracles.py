"""Independent brute-force reference implementations used by the tests.

Nothing here shares code with the package's matcher or diff classifier:
the matcher oracle enumerates every initial-to-final path of a (cycle-free)
grammar and tries it at every start token with its own token scanner; the
diff oracle classifies lines by direct interval comparison.
"""

from __future__ import annotations

from lgw.concordance import Concordance, ConcordanceLine
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
            for alt in box.alternatives:
                alt_paths = [[]]
                consuming = any(a.kind != "epsilon" for a in alt)
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
                    alt_paths = [
                        [("out", box.output, not consuming)] + p for p in alt_paths
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
