import random

import pytest
from hypothesis import given, settings, strategies as st

from lgw.grammar import Graph, GraphBox, GrammarSet, InputAtom, LexicalMask
from lgw.lexicon import parse_lexicon, token_has_mask
from lgw.matcher import (
    ALL_MATCHES,
    LONGEST_ONLY,
    Occurrence,
    apply_grammar,
    compile_grammar_set,
    filter_longest,
    tokenize,
)
from lgw.matcher import _engine as _pure

from oracles import brute_matches, brute_tokenize, random_literal_grammar


# --- tokenizer ---------------------------------------------------------------


def test_tokenize_example():
    toks = tokenize("Sra. Joana")
    assert [(t.surface, t.kind) for t in toks] == [
        ("Sra", "word"),
        (".", "punct"),
        (" ", "space"),
        ("Joana", "word"),
    ]
    assert toks[0].start == 0 and toks[0].end == 3
    assert toks[3].start == 5 and toks[3].end == 10


def test_tokenize_numbers_and_punct_runs():
    toks = tokenize("em 1978!!")
    assert [(t.surface, t.kind) for t in toks] == [
        ("em", "word"),
        (" ", "space"),
        ("1978", "number"),
        ("!", "punct"),
        ("!", "punct"),
    ]


@given(st.text(max_size=120))
def test_tokenize_partitions_text(text):
    toks = tokenize(text)
    assert "".join(t.surface for t in toks) == text
    pos = 0
    for t in toks:
        assert (t.start, t.end) == (pos, pos + len(t.surface))
        pos = t.end
    assert [(t.surface, t.start, t.end) for t in toks] == [
        (s, a, b) for s, a, b, _ in brute_tokenize(text)
    ]


# --- sentence boundaries -----------------------------------------------------


def _bounds(text, abbrevs=frozenset()):
    return _pure.sentence_boundaries(_pure.tokenize_raw(text), abbrevs)


def test_boundary_after_period_and_capital():
    toks = _pure.tokenize_raw("fim. Novo")
    bounds = _pure.sentence_boundaries(toks, frozenset())
    assert sum(bounds) == 1


def test_no_boundary_after_abbreviation_or_initial():
    assert sum(_bounds("o Sr. Silva", frozenset({"Sr"}))) == 0
    assert sum(_bounds("D. Afonso")) == 0  # single capital letter
    assert sum(_bounds("fim. depois")) == 0  # lowercase continuation


def test_match_does_not_cross_boundary(g1, lexicon):
    # "Sra." then a sentence break: the name must not reach into the next
    # sentence even though the tokens would otherwise chain.
    text = "A Sra. Joana saiu. Maria ficou."
    occs = apply_grammar(g1, text, lexicon, mode=LONGEST_ONLY)
    assert [o.surface for o in occs] == ["Sra. Joana"]


# --- spec walkthrough examples ----------------------------------------------


def test_g1_merged_example(g1, lexicon):
    text = "A Sra. Joana da Silva falou com o Dr. Pedro."
    occs = apply_grammar(g1, text, lexicon, mode=LONGEST_ONLY)
    assert [o.merged for o in occs] == [
        "Sra. <NOME>Joana da Silva</NOME>",
        "Dr. <NOME>Pedro</NOME>",
    ]
    assert occs[0].surface == "Sra. Joana da Silva"
    assert text[occs[0].start : occs[0].end] == occs[0].surface


def test_g1_all_matches_includes_shorter(g1, lexicon):
    text = "A Sra. Joana da Silva falou."
    merged = {o.merged for o in apply_grammar(g1, text, lexicon, mode=ALL_MATCHES)}
    assert "Sra. <NOME>Joana da Silva</NOME>" in merged
    assert "Sra. <NOME>Joana</NOME>" in merged


def test_g1_enhanced_tags_title(g1_enhanced, lexicon):
    text = "A Sra. Joana da Silva falou."
    occs = apply_grammar(g1_enhanced, text, lexicon, mode=LONGEST_ONLY)
    assert [o.merged for o in occs] == ["<NOME>Sra. Joana da Silva</NOME>"]


def test_g2_examples(g2, lexicon):
    occs = apply_grammar(
        g2, "A rainha Isabel II encontrou Marilyn Monroe.", lexicon, LONGEST_ONLY
    )
    # LongestOnly prunes per start offset, so the bare name starting at
    # "Isabel" survives alongside the longer match that includes "rainha".
    assert [o.merged for o in occs] == [
        "rainha <NOME>Isabel II</NOME>",
        "<NOME>Isabel II</NOME>",
        "<NOME>Marilyn Monroe</NOME>",
    ]


def test_g1_g2_disjoint_fixture(g1, g2, lexicon):
    text = (
        "Jimmy Carter visitou Lisboa em 1978. "
        "D. Afonso Henriques fundou o reino de Portugal."
    )
    s1 = {(o.start, o.end) for o in apply_grammar(g1, text, lexicon, LONGEST_ONLY)}
    s2 = {(o.start, o.end) for o in apply_grammar(g2, text, lexicon, LONGEST_ONLY)}
    assert s1 == {(37, 56)}  # D. Afonso Henriques
    assert s2 == {(0, 12)}  # Jimmy Carter
    assert not (s1 & s2)


def test_case_insensitive_literal_lowercase_only(lexicon):
    from lgw.grammar import parse_graph

    text_g = 'graph T\nbox b "de" "Sousa"\ninit i\nfinal f\nedge i b\nedge b f'
    gs = GrammarSet({"T": parse_graph(text_g)}, "T")
    assert len(apply_grammar(gs, "De Sousa chegou", lexicon)) == 1
    # upper-case literal stays exact
    assert apply_grammar(gs, "De sousa chegou", lexicon) == []


def test_merged_without_tags_equals_surface(g1, g2, lexicon):
    text = "A Sra. Joana  da   Silva e a rainha Isabel II chegaram."
    for gs in (g1, g2):
        for o in apply_grammar(gs, text, lexicon, ALL_MATCHES):
            stripped = o.merged.replace("<NOME>", "").replace("</NOME>", "")
            assert stripped == o.surface


# --- LongestOnly filter ------------------------------------------------------


def _occ(s, e):
    return Occurrence(s, e, "x" * (e - s), "x" * (e - s), "G")


def test_filter_longest_keeps_max_end_per_start():
    occs = [_occ(0, 2), _occ(0, 5), _occ(3, 4), _occ(6, 7), _occ(6, 9)]
    kept = filter_longest(sorted(occs, key=lambda o: (o.start, o.end)))
    assert [(o.start, o.end) for o in kept] == [(0, 5), (3, 4), (6, 9)]


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(1, 10)).map(
            lambda p: _occ(p[0], p[0] + p[1])
        ),
        max_size=15,
    )
)
def test_filter_longest_idempotent_and_dominant(occs):
    occs = sorted(occs, key=lambda o: (o.start, o.end, o.merged))
    kept = filter_longest(occs)
    assert filter_longest(kept) == kept
    starts = {o.start for o in occs}
    assert {o.start for o in kept} == starts
    for o in kept:
        assert o.end == max(p.end for p in occs if p.start == o.start)


# --- brute-force oracle property --------------------------------------------

VOCAB = ["ana", "rui", "lua", "sol", "mar", "rio", "paz"]


@pytest.mark.parametrize("seed", range(40))
def test_all_matches_agrees_with_path_oracle(seed):
    rng = random.Random(seed)
    lex = parse_lexicon("")
    g = random_literal_grammar(rng, "R", VOCAB)
    gs = GrammarSet({"R": g}, "R")
    words = [rng.choice(VOCAB) for _ in range(rng.randint(3, 14))]
    text = " ".join(words)
    got = {
        (o.start, o.end, o.merged)
        for o in apply_grammar(gs, text, lex, mode=ALL_MATCHES)
    }
    assert got == brute_matches(gs, text, lex)


# cycle-free sibling of the titled-name sample, suitable for path enumeration
_ORACLE_TOP = """\
graph Topo
box titulo "Sra." ; "Dr."
box nome1 out="<NOME>" <PRE><<..>>
box liga :Lig
box nome2 <PRE><<..>>
box fecha out="</NOME>" <E>
init i
final f
edge i titulo
edge titulo nome1
edge nome1 liga
edge nome1 fecha
edge liga nome2
edge nome2 fecha
edge fecha f
"""
_ORACLE_LIG = """\
graph Lig
box prep "de" ; "da" ; "do"
init i
final f
edge i prep
edge prep f
"""


def test_oracle_agreement_with_masks_and_calls(lexicon):
    from lgw.grammar import load_grammar_set

    gs = load_grammar_set([("Topo", _ORACLE_TOP), ("Lig", _ORACLE_LIG)], "Topo")
    # boundary-free text so the oracle's no-boundary assumption holds
    text = "a Sra. Joana da Silva e o Dr. Pedro de Sousa conversaram"
    got = {
        (o.start, o.end, o.merged)
        for o in apply_grammar(gs, text, lexicon, mode=ALL_MATCHES)
    }
    assert got == brute_matches(gs, text, lexicon)
    assert got  # non-vacuous


def test_oracle_agreement_with_dictionary_masks(g2, lexicon):
    text = "a rainha Isabel II e Marilyn Monroe cantaram juntas"
    got = {
        (o.start, o.end, o.merged)
        for o in apply_grammar(g2, text, lexicon, mode=ALL_MATCHES)
    }
    assert got == brute_matches(g2, text, lexicon)
    assert got


# --- engine parity -----------------------------------------------------------


def test_pure_and_selected_engines_agree(g1, lexicon, monkeypatch):
    import lgw.matcher as m

    text = "A Sra. Joana da Silva falou com o Dr. Pedro."
    selected = apply_grammar(g1, text, lexicon, ALL_MATCHES)
    monkeypatch.setattr(m, "_impl", m._pure)
    assert apply_grammar(g1, text, lexicon, ALL_MATCHES) == selected


# --- lexicon head index: dictionary-mask probe window ------------------------


def _graph(name, boxes, edges):
    return Graph(name, tuple(boxes), frozenset(edges), "i", "f")


def _mask_grammar(symbols):
    mask = LexicalMask(codes=frozenset(symbols))
    box = GraphBox("b", ((InputAtom.masked(mask),),))
    return GrammarSet({"M": _graph("M", [box], [("i", "b"), ("b", "f")])}, "M"), mask


def _spans(gs, text, lex):
    return {(o.start, o.end) for o in apply_grammar(gs, text, lex, ALL_MATCHES)}


def test_entry_longer_than_eight_tokens_matches(g2):
    name = "Associação Portuguesa de Amigos da Música Antiga e Contemporânea de Lisboa Norte"
    assert len(name.split()) == 12
    lex = parse_lexicon(f"{name},.N+PR\nAssociação,.N+PR")
    text = f"a {name} reuniu"
    occs = apply_grammar(g2, text, lex, LONGEST_ONLY)
    assert [o.merged for o in occs] == [f"<NOME>{name}</NOME>"]


def test_head_index():
    lex = parse_lexicon("Marilyn Monroe,.N+PR\nMarilyn,.N+PR\nrei,.N\nSr\\.,.N\nDom Pedro  II,.N+PR")
    heads, longest = lex.head_index()
    assert heads == {"Marilyn": 2, "rei": 1, "Sr": 2, "Dom": 3}
    assert longest == 3
    assert parse_lexicon("").head_index() == ({}, 0)


def _generated_lexicon(rng, n):
    vocab = ["ana", "rui", "lua", "sol", "mar", "rio", "paz", "de", "da"]
    lines = []
    for _ in range(n):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.3:
            words[0] = words[0].capitalize()
        code = rng.choice(["PR", "Hum", "Loc"])
        lines.append(f"{' '.join(words)},.N+{code}")
    return parse_lexicon("\n".join(lines))


@pytest.mark.parametrize("which", ["shipped", "generated"])
def test_token_has_mask_agrees_with_matcher(which, lexicon):
    lex = lexicon if which == "shipped" else _generated_lexicon(random.Random(5), 150)
    checked = 0
    for surface, entries in lex.entries.items():
        words = surface.split(" ")
        variants = {
            surface,
            surface[:1].upper() + surface[1:],
            " ".join(words[: (len(words) + 1) // 2]),
        }
        for symbols in {e.symbols for e in entries}:
            gs, mask = _mask_grammar(symbols)
            for text in variants:
                whole = (0, len(text)) in _spans(gs, text, lex)
                assert whole == token_has_mask(lex, text, mask), (text, symbols)
                checked += whole
    assert checked >= len(lex.entries)


@pytest.mark.parametrize(
    "entry,text",
    [
        # "İ".lower() is "i" + U+0307, which is not a letter: the lowercase
        # form of the token is not one word, so the head-index gate must not
        # reject it
        ("i̇stanbul", "İstanbul"),
        ("i̇stanbul üniversitesi", "İstanbul Üniversitesi"),
        # a final sigma lowercases to "ς" as a whole string ...
        ("οδος", "ΟΔΟΣ"),
        ("οδος αθηνας", "ΟΔΟΣ ΑΘΗΝΑΣ"),
        # ... but to "σ" when case-ignorable characters and a letter follow
        ("οδοσ'α", "ΟΔΟΣ'Α"),
    ],
)
def test_lowercase_probe_edge_cases(entry, text):
    lex = parse_lexicon(f"{entry},.N+PR")
    gs, mask = _mask_grammar({"N", "PR"})
    assert token_has_mask(lex, text, mask)
    assert (0, len(text)) in _spans(gs, text, lex)


def test_multiword_entry_needs_its_exact_whitespace():
    # Decided behaviour: a multiword entry matches only text with the
    # entry's own whitespace, byte for byte; whitespace is not normalized.
    lex = parse_lexicon("Universidade de Lisboa,.N+PR")
    gs, _ = _mask_grammar({"N", "PR"})
    assert _spans(gs, "a Universidade de Lisboa", lex) == {(2, 24)}
    assert _spans(gs, "a Universidade  de Lisboa", lex) == set()
    assert _spans(gs, "a Universidade de\nLisboa", lex) == set()


# --- compile-time indexes: literal dispatch and FIRST sets -------------------

_DISPATCH_WORDS = ["ana", "rui", "lua", "sol"]
_DISPATCH_LEX = "rui sol,.N+PR\nlua,.N+PR\nana,.N+Hum"


def _cased(rng, word):
    return rng.choice([word, word, word.capitalize(), word.upper()])


def _random_literal(rng):
    return " ".join(_cased(rng, rng.choice(_DISPATCH_WORDS)) for _ in range(rng.randint(1, 2)))


def _random_alternative(rng, subgraphs):
    """A mask or literal, after an optional prefix (<E> or a call to a
    nullable subgraph) that consumes nothing."""
    atoms = []
    if rng.random() < 0.4:
        atoms.append(InputAtom.call(rng.choice(subgraphs)) if rng.random() < 0.7 else InputAtom.eps())
    roll = rng.random()
    if roll < 0.4:
        atoms.append(InputAtom.lit(_random_literal(rng)))
    elif roll < 0.6:
        atoms.append(InputAtom.masked(LexicalMask(builtin="PRE")))
    elif roll < 0.8:
        atoms.append(InputAtom.masked(LexicalMask(builtin="MOT")))
    else:
        atoms.append(InputAtom.masked(LexicalMask(pos="N", codes=frozenset({"PR"}))))
    return tuple(atoms)


def _chain(rng, name, boxes):
    ids = [b.id for b in boxes]
    edges = {("i", ids[0]), (ids[-1], "f")}
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            if b == a + 1 or rng.random() < 0.25:
                edges.add((ids[a], ids[b]))
    return _graph(name, boxes, edges)


def random_dispatch_grammar(rng):
    """A cycle-free grammar set: a main chain with one box of many literal
    alternatives sharing first pieces (case-sensitive and case-folded, a
    few behind <E>), output-only <E> boxes, and boxes whose alternatives
    may call nullable subgraphs before their first consuming atom."""
    graphs = {}
    for name in ("S0", "S1"):
        alts = ((InputAtom.eps(),),) + tuple(
            (InputAtom.lit(_random_literal(rng)),) for _ in range(rng.randint(1, 2))
        )
        graphs[name] = _chain(rng, name, [GraphBox("s", alts)])
    n_boxes = rng.randint(1, 4)
    dictionary = rng.randrange(n_boxes)
    boxes = []
    for b in range(n_boxes):
        if b == dictionary:
            alts = tuple(
                ((InputAtom.eps(),) if rng.random() < 0.1 else ())
                + (InputAtom.lit(_random_literal(rng)),)
                for _ in range(rng.randint(3, 10))
            )
            boxes.append(GraphBox(f"b{b}", alts, rng.choice([None, "<T>"])))
        elif rng.random() < 0.3:
            boxes.append(GraphBox(f"b{b}", ((InputAtom.eps(),),), rng.choice(["<N>", "</N>"])))
        else:
            alts = tuple(_random_alternative(rng, ["S0", "S1"]) for _ in range(rng.randint(1, 2)))
            boxes.append(GraphBox(f"b{b}", alts))
    graphs["R"] = _chain(rng, "R", boxes)
    return GrammarSet(graphs, "R")


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_indexes_agree_with_path_oracle(rng):
    gs = random_dispatch_grammar(rng)
    lex = parse_lexicon(_DISPATCH_LEX)
    words = [_cased(rng, rng.choice(_DISPATCH_WORDS)) for _ in range(rng.randint(2, 10))]
    text = " ".join(words)
    got = {
        (o.start, o.end, o.merged)
        for o in apply_grammar(gs, text, lex, mode=ALL_MATCHES)
    }
    assert got == brute_matches(gs, text, lex)


def test_first_set_of_titled_names(g1):
    first = compile_grammar_set(g1)["graphs"][g1.main]["first"]
    assert first == (
        frozenset({"Sr", "Sra", "Srta", "Dr", "Dra", "D", "Prof", "Profa"}),
        frozenset(),
        frozenset(),
    )


def test_first_set_sees_through_nullable_prefixes():
    opt = _graph("Opt", [GraphBox("o", ((InputAtom.eps(),), (InputAtom.lit("de"),)))],
                 [("i", "o"), ("o", "f")])
    pre = LexicalMask(builtin="PRE")
    main = _graph(
        "M",
        [
            GraphBox("tag", ((InputAtom.eps(),),), "<N>"),
            GraphBox("a", ((InputAtom.call("Opt"), InputAtom.masked(pre)), (InputAtom.lit("Rei"),))),
            GraphBox("loop", ((InputAtom.eps(),),)),
        ],
        # an <E> loop before the first consuming box is not a call cycle
        [("i", "tag"), ("tag", "loop"), ("loop", "tag"), ("tag", "a"), ("a", "f")],
    )
    gs = GrammarSet({"M": main, "Opt": opt}, "M")
    graphs = compile_grammar_set(gs)["graphs"]
    assert graphs["M"]["first"] == (
        frozenset({"Rei"}), frozenset({"de"}), frozenset({"PRE"})
    )
    assert graphs["Opt"]["first"] == (frozenset(), frozenset({"de"}), frozenset())


def test_recursive_nullable_prefix_makes_first_any_token():
    # R calls itself before consuming anything (possible only in a
    # GrammarSet built directly; load_grammar_set rejects recursion)
    rec = _graph(
        "R",
        [GraphBox("a", ((InputAtom.call("R"), InputAtom.lit("x")), (InputAtom.lit("y"),)))],
        [("i", "a"), ("a", "f")],
    )
    gs = GrammarSet({"R": rec}, "R")
    assert compile_grammar_set(gs)["graphs"]["R"]["first"] is None
    # a recursive call after the first consuming atom leaves FIRST exact
    tail = _graph(
        "R",
        [GraphBox("a", ((InputAtom.lit("x"), InputAtom.call("R")), (InputAtom.lit("y"),)))],
        [("i", "a"), ("a", "f")],
    )
    first = compile_grammar_set(GrammarSet({"R": tail}, "R"))["graphs"]["R"]["first"]
    assert first == (frozenset(), frozenset({"x", "y"}), frozenset())


def test_literal_dispatch_splits_alternatives():
    box = GraphBox(
        "b",
        (
            (InputAtom.lit("Rio"),),
            (InputAtom.lit("rio de"),),
            (InputAtom.lit("Rio Branco"),),
            (InputAtom.masked(LexicalMask(builtin="MOT")),),
        ),
    )
    gs = GrammarSet({"G": _graph("G", [box], [("i", "b"), ("b", "f")])}, "G")
    _, rest, exact, folded = compile_grammar_set(gs)["graphs"]["G"]["boxes"]["b"]
    assert [alt[0][0] for alt in rest] == ["mask"]
    assert {k: len(v) for k, v in exact.items()} == {"Rio": 2}
    assert {k: len(v) for k, v in folded.items()} == {"rio": 1}
