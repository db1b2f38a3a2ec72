"""Output checks that do not use the code under test.

The benchmark parses every output file itself (``.cnc``, the diff HTML,
the ``<EM>`` XML, the lexicon) and compares it with references built from
the generator's gold spans and with the brute-force oracles in
``tests/oracles.py``.  The only lgw code used here is the ``.lg`` parser,
to hand the grammars to the path-enumerating oracle, as the tests do.

Each check returns (failure messages, a value it measured); no messages
is a pass.
"""

from __future__ import annotations

import html
import json
import math
import random
import re
from pathlib import Path

import oracles
from lgw.grammar import Graph, GraphBox, GrammarSet, load_grammar_set, parse_graph

# ---------------------------------------------------------------------------
# file readers

_EM_RE = re.compile(r'<EM CATEG="([^"<>]*)" TIPO="([^"<>]*)">(.*?)</EM>', re.S)
_UNESC = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}


def parse_em(xml):
    """(plain text, [(start, end, categ, tipo)]) with offsets in the plain text."""
    plain = []
    anns = []
    pos = 0
    cur = 0
    for m in _EM_RE.finditer(xml):
        plain.append(xml[cur : m.start()])
        pos += m.start() - cur
        anns.append((pos, pos + len(m.group(3)), m.group(1), m.group(2)))
        plain.append(m.group(3))
        pos += len(m.group(3))
        cur = m.end()
    plain.append(xml[cur:])
    return "".join(plain), anns


def strict_f(sys_spans, gold_spans):
    """Strict-span (tp, n_sys, n_gold, F%) over two span sets."""
    tp = len(sys_spans & gold_spans)
    p = 100.0 * tp / len(sys_spans) if sys_spans else 0.0
    r = 100.0 * tp / len(gold_spans) if gold_spans else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return tp, len(sys_spans), len(gold_spans), f


def _unesc(s):
    return re.sub(r"\\(.)", lambda m: _UNESC.get(m.group(1), m.group(1)), s)


def read_cnc(path):
    """[(start, end, match)] of a concordance file."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    out = []
    for raw in lines[1:]:
        if raw:
            f = raw.split("\t")
            out.append((int(f[0]), int(f[1]), _unesc(f[3])))
    return out


# the comparison report's colour legend: background = side, text = class
_SIDE = {"#FFD7D7": "x", "#D7FFD7": "y"}
_CLASS = {"#0000CC": "common", "#CC0000": "partial", "#007700": "unique",
          "#770077": "conflict"}
_ROW_RE = re.compile(
    r'<tr style="background:(#[0-9A-F]{6});color:(#[0-9A-F]{6})">'
    r'<td>(\d+)-(\d+)</td><td class="l">.*?</td><td>(.*?)</td><td>.*?</td></tr>'
)


def read_diff_html(path):
    """{side: sorted [(start, end, match, class)]} from the HTML report."""
    got = {"x": [], "y": []}
    for m in _ROW_RE.finditer(Path(path).read_text(encoding="utf-8")):
        got[_SIDE[m.group(1)]].append(
            (int(m.group(3)), int(m.group(4)), html.unescape(m.group(5)),
             _CLASS[m.group(2)])
        )
    return {k: sorted(v) for k, v in got.items()}


class _Entry:
    __slots__ = ("symbols",)

    def __init__(self, symbols):
        self.symbols = symbols


class _Lexicon:
    """The ``entries`` view the oracle reads: surface -> entries with
    ``symbols`` (POS plus codes)."""

    def __init__(self, paths):
        self.entries = {}
        for p in paths:
            for line in Path(p).read_text(encoding="utf-8").splitlines():
                if not line.strip() or line.startswith("#"):
                    continue
                m = re.match(r"((?:\\.|[^,\\])*),((?:\\.|[^.\\])*)\.(.*)$", line)
                surface = re.sub(r"\\(.)", r"\1", m.group(1))
                syms = frozenset(m.group(3).strip().split("+"))
                self.entries.setdefault(surface, []).append(_Entry(syms))


# ---------------------------------------------------------------------------
# evaluation


def check_eval(inp, work):
    """Recompute strict-span F from the system XML and the generator's gold
    spans; compare it with what ``lgw eval`` reported.  Returns (failures, F)."""
    out = work / "out"
    plain, anns = parse_em((out / "sys.xml").read_text(encoding="utf-8"))
    fails = []
    if plain != inp.corpus:
        fails.append("sys.xml does not reproduce the corpus text")
    sys_spans = {(s, e) for s, e, c, t in anns if c == inp.categ}
    tp, n_sys, n_gold, f = strict_f(sys_spans, set(inp.spans))
    rep = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    if (rep["tp"], rep["n_sys"], rep["n_gold"]) != (tp, n_sys, n_gold):
        fails.append(f"eval counts {rep['tp']},{rep['n_sys']},{rep['n_gold']} "
                     f"!= {tp},{n_sys},{n_gold}")
    if abs(rep["f_measure"] - f) > 0.0051:
        fails.append(f"eval F {rep['f_measure']} != {f:.4f}")
    return fails, f


# ---------------------------------------------------------------------------
# diff classes


def check_diff(argv):
    """Diff classes in the HTML report and the counts in the relation JSON
    against ``oracle_classes`` on the two concordances."""
    cx, cy = read_cnc(argv[1]), read_cnc(argv[2])
    out = Path(argv[argv.index("--out") + 1])
    tx, ty = sorted(set(cx)), sorted(set(cy))
    want_x, want_y = oracles.oracle_classes(tx, ty)
    want = {"x": sorted(t + (c,) for t, c in zip(tx, want_x)),
            "y": sorted(t + (c,) for t, c in zip(ty, want_y))}
    fails = []
    got = read_diff_html(out / argv[argv.index("--html") + 1])
    for side in "xy":
        if got[side] != want[side]:
            bad = len(set(got[side]) ^ set(want[side]))
            fails.append(f"diff {Path(argv[1]).stem}/{Path(argv[2]).stem} side {side}: "
                         f"{bad} line(s) differ from the interval oracle")
    counts = json.loads((out / argv[argv.index("--json") + 1]).read_text())["counts"]
    expect = {
        "common": want_x.count("common"),
        "conflict": want_x.count("conflict") + want_y.count("conflict"),
        "partial": want_x.count("partial") + want_y.count("partial"),
        "unique_x": want_x.count("unique"),
        "unique_y": want_y.count("unique"),
    }
    if counts != expect:
        fails.append(f"relation counts {counts} != {expect}")
    return fails, None


# ---------------------------------------------------------------------------
# matches against the path-enumerating oracle

_PATH_LIMIT = 20_000  # oracle paths per sentence; beyond this it is skipped


def _nonspace(text):
    return [t for t in oracles.brute_tokenize(text) if t[3] != "space"]


def _abbreviations(root):
    text = (root / "src/lgw/data/abbreviations.txt").read_text(encoding="utf-8")
    return {l.strip() for l in text.splitlines() if l.strip() and not l.startswith("#")}


def _internal_boundary(sentence, abbrevs):
    """A '.' followed by a space and a capitalized word, not after an
    abbreviation or a single capital: the matcher's sentence-end rule."""
    toks = oracles.brute_tokenize(sentence)
    for i in range(1, len(toks) - 2):
        if toks[i][0] == "." and toks[i + 1][3] == "space" and toks[i + 2][3] == "word" \
                and toks[i + 2][0][:1].isupper():
            prev = toks[i - 1]
            if not (prev[3] == "word" and (prev[0] in abbrevs or
                                           (len(prev[0]) == 1 and prev[0].isupper()))):
                return True
    return False


def _graphs_reached(gs, name, seen=None):
    seen = set() if seen is None else seen
    if name not in seen:
        seen.add(name)
        for b in gs.graphs[name].boxes:
            for alt in b.alternatives:
                for a in alt:
                    if a.kind == "call":
                        _graphs_reached(gs, a.graph_name, seen)
    return seen


def _is_cyclic(g):
    succ = g.successors()
    state = {}

    def visit(b):
        state[b] = 1
        for s in succ.get(b, ()):
            if state.get(s) == 1 or (s not in state and visit(s)):
                return True
        state[b] = 2
        return False

    return any(b not in state and visit(b) for b in list(succ))


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
            "PRE" in e.symbols for e in oracles._lex_entries(lex, w)))

    best = run = 0
    for tok in toks:
        run = run + 1 if accepted(tok) else 0
        best = max(best, run)
    return best


def _consumes(box):
    return all(any(a.kind != "epsilon" for a in alt) for alt in box.alternatives)


def _unroll(g, depth):
    """Cycle-free copy of ``g`` that keeps every path with at most
    ``depth`` token-consuming boxes; None if an epsilon cycle remains."""
    box_map = g.box_map()
    succ = g.successors()
    boxes, edges = {}, set()
    start = (g.initial, 0)
    todo, seen = [start], {start}

    def node_id(b, k):
        return b if b in (g.initial, g.final) else f"{b}_{k}"

    while todo:
        b, k = todo.pop()
        for s in succ.get(b, ()):
            if s == g.final:
                edges.add((node_id(b, k), g.final))
                continue
            k2 = k + _consumes(box_map[s])
            if k2 > depth:
                continue
            edges.add((node_id(b, k), node_id(s, k2)))
            if (s, k2) not in seen:
                seen.add((s, k2))
                todo.append((s, k2))
                box = box_map[s]
                boxes[node_id(s, k2)] = GraphBox(node_id(s, k2), box.alternatives, box.output)
    out = Graph(g.name, tuple(boxes.values()), frozenset(edges), g.initial, g.final)
    return None if _is_cyclic(out) else out


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
    sentence, or None when the oracle would enumerate too many paths.

    Alternatives holding a literal whose words do not occur in the
    sentence cannot match and are dropped; each cyclic graph is unrolled
    to the longest run of tokens it could consume."""
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
    graphs = dict(pruned.graphs)
    for name, g in pruned.graphs.items():
        if _is_cyclic(g):
            graphs[name] = _unroll(g, _run_bound(pruned, name, toks, lex))
            if graphs[name] is None:
                return None
    out = GrammarSet(graphs, gs.main)
    if _count_paths(out) > _PATH_LIMIT:
        return None
    return out


def longest(matches):
    best = {}
    for s, e, _ in matches:
        best[s] = max(best.get(s, e), e)
    return {m for m in matches if m[1] == best[m[0]]}


def _apply_setup(argv):
    """(grammar set, lexicon paths, mode) of an ``lgw apply`` argv."""
    grammars = [argv[i + 1] for i, a in enumerate(argv) if a == "--grammar"]
    lexicons = [argv[i + 1] for i, a in enumerate(argv) if a == "--lexicon"]
    files = [(Path(p).stem, Path(p).read_text(encoding="utf-8")) for p in grammars]
    main = argv[argv.index("--main") + 1] if "--main" in argv else parse_graph(files[0][1]).name
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "longest"
    return load_grammar_set(files, main), lexicons, mode


def sample_sentences(inp, seed, root, n_with=30, n_without=6):
    """A seeded sample of sentences that hold no sentence boundary inside."""
    abbrevs = _abbreviations(root)
    rng = random.Random(f"{inp.workload}:{seed}:oracle")
    order = list(range(len(inp.sentences)))
    rng.shuffle(order)
    picked, want = [], {True: n_with, False: n_without}
    for i in order:
        s, e, n_ent = inp.sentences[i]
        if want[n_ent > 0] and not _internal_boundary(inp.corpus[s:e], abbrevs):
            want[n_ent > 0] -= 1
            picked.append((s, e))
    return sorted(picked)


def check_matches(inp, argv, sample):
    """Concordance lines of one ``lgw apply`` that start inside each sampled
    sentence equal the oracle's matches on that sentence alone.
    Returns (failures, (sentences checked, sentences skipped))."""
    gs, lex_paths, mode = _apply_setup(argv)
    lex = _Lexicon(lex_paths)
    out = Path(argv[argv.index("--out") + 1])
    lines = read_cnc(out / argv[argv.index("--cnc") + 1])
    fails, checked, skipped = [], 0, 0
    for s, e in sample:
        sentence = inp.corpus[s:e]
        ogs = oracle_grammar(gs, sentence, lex)
        if ogs is None:
            skipped += 1
            continue
        checked += 1
        want = {(a + s, b + s, m) for a, b, m in oracles.brute_matches(ogs, sentence, lex)}
        if mode == "longest":
            want = longest(want)
        got = {l for l in lines if s <= l[0] < e}
        if got != want:
            fails.append(f"{Path(argv[argv.index('--cnc') + 1]).stem}: sentence at {s}: "
                         f"{len(got ^ want)} of {len(got | want)} match(es) differ "
                         "from the oracle's")
    return fails, (checked, skipped)
