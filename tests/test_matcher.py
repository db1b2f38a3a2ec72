import random
import sys
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lgw.grammar import (
    Graph, GraphBox, GrammarSet, InputAtom, LexicalMask, MorphFilter, load_grammar_set,
)
from lgw.lexicon import parse_lexicon
from lgw.matcher import (
    ALL_MATCHES,
    LONGEST_ONLY,
    Occurrence,
    _first_sets,
    apply_grammar,
    compile_grammar_set,
    filter_longest,
)
from lgw.matcher import _engine as _pure

from oracles import (
    _lex_entries,
    brute_matches,
    brute_tokenize,
    oracle_grammar,
    oracle_parse_lexicon,
    random_literal_grammar,
)


# --- tokenizer ---------------------------------------------------------------


def test_tokenize_example():
    # (surface, start, end, kind) with kind 0=word, 1=number, 2=punct
    assert _pure.tokenize_raw("Sra. Joana") == [
        ("Sra", 0, 3, 0),
        (".", 3, 4, 2),
        ("Joana", 5, 10, 0),
    ]


def test_tokenize_numbers_and_punct_runs():
    assert _pure.tokenize_raw("em 1978!!") == [
        ("em", 0, 2, 0),
        ("1978", 3, 7, 1),
        ("!", 7, 8, 2),
        ("!", 8, 9, 2),
    ]


_KINDS = {"word": 0, "number": 1, "punct": 2}


@given(st.text(max_size=120))
def test_tokenize_partitions_text(text):
    # the tokens and the whitespace gaps between them partition the text
    toks = _pure.tokenize_raw(text)
    assert toks == [
        (s, a, b, _KINDS[k]) for s, a, b, k in brute_tokenize(text) if k != "space"
    ]
    gaps = []
    pos = 0
    for _, start, end, _ in toks:
        gaps.append(text[pos:start])
        pos = end
    gaps.append(text[pos:])
    assert all(c.isspace() for gap in gaps for c in gap)


# --- sentence boundaries -----------------------------------------------------


def _bounds(text, abbrevs=frozenset()):
    return _pure.sentence_boundaries(_pure.tokenize_raw(text), abbrevs)


def _boundary_offsets(text, abbrevs=frozenset()):
    """The character offsets of the '.'s that end a sentence."""
    toks = _pure.tokenize_raw(text)
    return sorted(toks[i][1] for i in _pure.sentence_boundaries(toks, abbrevs))


def test_boundary_after_period_and_capital():
    toks = _pure.tokenize_raw("fim. Novo")
    bounds = _pure.sentence_boundaries(toks, frozenset())
    assert sum(bounds) == 1
    assert _boundary_offsets("fim.\nNovo") == [3]  # any whitespace is a gap
    # an abbreviation or an initial keeps the sentence open only when it
    # touches the '.'
    assert _boundary_offsets("o Sr . Silva", frozenset({"Sr"})) == [5]
    assert _boundary_offsets("D . Afonso") == [2]


def test_no_boundary_after_abbreviation_or_initial():
    assert sum(_bounds("o Sr. Silva", frozenset({"Sr"}))) == 0
    assert sum(_bounds("D. Afonso")) == 0  # single capital letter
    assert sum(_bounds("fim. depois")) == 0  # lowercase continuation
    assert _boundary_offsets("fim.Novo") == []  # no gap after the '.'


def test_match_does_not_cross_boundary(g1, lexicon):
    # "Sra." then a sentence break: the name must not reach into the next
    # sentence even though the tokens would otherwise chain.
    text = "A Sra. Joana saiu. Maria ficou."
    occs = apply_grammar(g1, text, lexicon, mode=LONGEST_ONLY)
    assert [text[o.start : o.end] for o in occs] == ["Sra. Joana"]


def test_match_may_end_at_but_not_cross_a_boundary():
    word_or_period = GraphBox("b", ((InputAtom.masked(LexicalMask(builtin="MOT")),),
                                    (InputAtom.lit("."),)))
    gs = GrammarSet({"W": _graph("W", [word_or_period], [("i", "b"), ("b", "b"), ("b", "f")])}, "W")
    text = "ana saiu. Maria ficou"
    assert {(o.start, o.end) for o in apply_grammar(gs, text, parse_lexicon(""))} == {
        (0, 9), (4, 9), (8, 9), (10, 21), (16, 21)
    }
    # a dictionary mask takes the longest entry that ends at or before the
    # boundary: "Ana. Maria" crosses it, so "Ana" is taken instead
    gs, _ = _mask_grammar({"N", "PR"})
    lex = parse_lexicon("Ana. Maria,.N+PR\nAna,.N+PR")
    assert _spans(gs, "a Ana. Maria", lex) == {(2, 5)}
    assert _spans(gs, "a Ana, Maria", lex) == {(2, 5)}


# --- spec walkthrough examples ----------------------------------------------


def test_g1_merged_example(g1, lexicon):
    text = "A Sra. Joana da Silva falou com o Dr. Pedro."
    occs = apply_grammar(g1, text, lexicon, mode=LONGEST_ONLY)
    assert [o.merged for o in occs] == [
        "Sra. <NOME>Joana da Silva</NOME>",
        "Dr. <NOME>Pedro</NOME>",
    ]
    assert text[occs[0].start : occs[0].end] == "Sra. Joana da Silva"


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
            assert stripped == text[o.start : o.end]


# --- LongestOnly filter ------------------------------------------------------


def _occ(s, e):
    return Occurrence(s, e, "x" * (e - s), "G")


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
    assert filter_longest(occs[::-1]) == kept  # the input order does not matter
    starts = {o.start for o in occs}
    assert {o.start for o in kept} == starts
    for o in kept:
        assert o.end == max(p.end for p in occs if p.start == o.start)


# --- brute-force oracle property --------------------------------------------

VOCAB = ["ana", "rui", "lua", "sol", "mar", "rio", "paz"]


def _spaced(rng, words):
    """The words joined by whitespace runs, sometimes with whitespace before
    the first and after the last.  Drawn after the words, so the grammar
    and the words of a seed do not depend on it."""
    edge = ["", "", "", " ", "\n", " \t"]
    seps = [rng.choice([" ", "  ", "\n", " \t"]) for _ in words[1:]]
    return "".join(
        sep + w for sep, w in zip([rng.choice(edge), *seps], words)
    ) + rng.choice(edge)


def _events_splice_to_merged(text, o):
    """Splicing the occurrence's events into its matched text gives its
    merged text, and every offset lies in the span, in non-decreasing
    order."""
    offsets = [pos for pos, _ in o.events]
    if offsets != sorted(offsets) or not all(o.start <= pos <= o.end for pos in offsets):
        return False
    merged, cur = "", o.start
    for pos, out in o.events:
        merged += text[cur:pos] + out
        cur = pos
    return merged + text[cur:o.end] == o.merged


@pytest.mark.parametrize("seed", range(40))
def test_all_matches_agrees_with_path_oracle(seed):
    rng = random.Random(seed)
    lex = parse_lexicon("")
    g = random_literal_grammar(rng, "R", VOCAB)
    gs = GrammarSet({"R": g}, "R")
    words = [rng.choice(VOCAB) for _ in range(rng.randint(3, 14))]
    text = _spaced(rng, words)
    occs = apply_grammar(gs, text, lex, mode=ALL_MATCHES)
    assert {(o.start, o.end, o.merged) for o in occs} == brute_matches(
        gs, text, oracle_parse_lexicon("")
    )
    assert all(_events_splice_to_merged(text, o) for o in occs)


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


def test_oracle_agreement_with_masks_and_calls(lexicon, oracle_lexicon):
    from lgw.grammar import load_grammar_set

    gs = load_grammar_set([("Topo", _ORACLE_TOP), ("Lig", _ORACLE_LIG)], "Topo")
    # boundary-free text so the oracle's no-boundary assumption holds
    text = "a Sra. Joana da Silva e o Dr. Pedro de Sousa conversaram"
    got = {
        (o.start, o.end, o.merged)
        for o in apply_grammar(gs, text, lexicon, mode=ALL_MATCHES)
    }
    assert got == brute_matches(gs, text, oracle_lexicon)
    assert got  # non-vacuous


def test_oracle_agreement_with_dictionary_masks(g2, lexicon, oracle_lexicon):
    text = "a rainha Isabel II e Marilyn Monroe cantaram juntas"
    got = {
        (o.start, o.end, o.merged)
        for o in apply_grammar(g2, text, lexicon, mode=ALL_MATCHES)
    }
    assert got == brute_matches(g2, text, oracle_lexicon)
    assert got


def _graph(name, boxes, edges):
    return Graph(name, tuple(boxes), frozenset(edges), "i", "f")


# --- cyclic grammars against the unrolled path oracle -----------------------
# Self-loops, <E> cycles and nullable calls, over texts with sentence
# boundaries: each sentence is matched by brute_matches on oracle_grammar,
# a cycle-free grammar with the same matches there.

_CYCLE_WORDS = ["Ana", "ana", "Rui", "bela", "de", ".", ","]
_MOT = InputAtom.masked(LexicalMask(builtin="MOT"))
_PRE = InputAtom.masked(LexicalMask(builtin="PRE"))


@st.composite
def cyclic_grammars(draw):
    """A main graph M and up to two subgraphs, S1 and S2; a graph calls only
    the ones after it, so no call is recursive.  Each graph is a chain of
    one to three boxes from initial to final with random extra edges, so
    self-loops, back edges (into the initial box too) and <E> cycles are
    common; a box holds one or two alternatives of literals, <MOT>, <PRE>,
    <E> and calls, and may have an output."""
    names = ["M", "S1", "S2"][: draw(st.integers(1, 3))]
    graphs = {}
    for g, name in enumerate(names):
        atoms = [
            st.sampled_from(_CYCLE_WORDS + ["Ana bela", "de Rui"]).map(InputAtom.lit),
            st.sampled_from([_MOT, _PRE]),
            st.just(InputAtom.eps()),
            *[st.just(InputAtom.call(callee)) for callee in names[g + 1:]],
        ]
        alternative = st.lists(st.one_of(atoms), min_size=1, max_size=2).map(tuple)
        ids = [f"b{j}" for j in range(draw(st.integers(1, 3)))]
        boxes = [
            GraphBox(b, tuple(draw(st.lists(alternative, min_size=1, max_size=2))),
                     draw(st.sampled_from([None, f"<{name}{b}>"])))
            for b in ids
        ]
        chain = ["i", *ids, "f"]
        extra = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(["i", *ids, "f"])),
                             max_size=3))
        graphs[name] = _graph(name, boxes, set(zip(chain, chain[1:])) | extra)
    return GrammarSet(graphs, "M")


def _cycle_text(words_and_gaps):
    return "".join(gap + w for w, gap in words_and_gaps).strip()


# "." before a capitalized word often, so that most texts hold a boundary
_cycle_texts = st.lists(
    st.tuples(st.sampled_from(_CYCLE_WORDS + ["Ana", "Rui", "."]),
              st.sampled_from([" ", "  ", "\n", "\t "])),
    min_size=2, max_size=12,
).map(_cycle_text)


def _alts(*alts):
    return tuple(tuple(alt) for alt in alts)


# an <E> self-loop with an output, between two words: the loop is taken
# once, and the output goes right after "Ana"
_EPS_LOOP = GrammarSet({"M": _graph("M", [
    GraphBox("b0", _alts([InputAtom.lit("Ana")])),
    GraphBox("b1", _alts([InputAtom.eps()]), "<X>"),
    GraphBox("b2", _alts([_MOT])),
], {("i", "b0"), ("b0", "b1"), ("b1", "b1"), ("b1", "b2"), ("b2", "f"), ("b0", "f")})}, "M")
# a word loop that would run across the sentence boundary
_WORD_LOOP = GrammarSet({"M": _graph("M", [
    GraphBox("b0", _alts([_MOT], [InputAtom.lit(".")]), "<W>"),
], {("i", "b0"), ("b0", "b0"), ("b0", "f")})}, "M")
# an <E> cycle through a nullable call whose graph has an output of its own
_NULLABLE_CYCLE = GrammarSet({
    "M": _graph("M", [
        GraphBox("b0", _alts([InputAtom.call("S1")]), "<A>"),
        GraphBox("b1", _alts([InputAtom.eps()], [_PRE]), "<B>"),
    ], {("i", "b0"), ("b0", "b1"), ("b1", "b0"), ("b1", "f")}),
    "S1": _graph("S1", [
        GraphBox("b0", _alts([InputAtom.eps()], [InputAtom.lit("de")]), "<C>"),
    ], {("i", "b0"), ("b0", "f")}),
}, "M")

# an edge back into the initial box, which is entered again consuming
# nothing: "Ana Ana" matches as a whole and as each "Ana"
_BACK_TO_INITIAL = GrammarSet({"M": _graph("M", [
    GraphBox("b0", _alts([InputAtom.lit("Ana")])),
], {("i", "b0"), ("b0", "i"), ("b0", "f")})}, "M")


@settings(max_examples=300, deadline=None)
@given(cyclic_grammars(), _cycle_texts)
@example(_EPS_LOOP, "Ana  bela Rui")
@example(_WORD_LOOP, "ana bela. Rui de")
@example(_NULLABLE_CYCLE, "de Ana  de\tRui. Ana")
@example(_BACK_TO_INITIAL, "Ana Ana")
def test_cyclic_grammars_agree_with_unrolled_path_oracle(gs, text):
    got = {(o.start, o.end, o.merged)
           for o in apply_grammar(gs, text, parse_lexicon(""), ALL_MATCHES, frozenset())}
    toks = _pure.tokenize_raw(text)
    want = set()
    first = 0
    # each sentence ends with its boundary token, or with the last token
    for last in sorted(_pure.sentence_boundaries(toks, frozenset())) + [len(toks) - 1]:
        start = toks[first][1]
        sentence = text[start : toks[last][2]]
        ogs = oracle_grammar(gs, sentence, oracle_parse_lexicon(""))
        assume(ogs is not None)
        want |= {(a + start, b + start, merged)
                 for a, b, merged in brute_matches(ogs, sentence, oracle_parse_lexicon(""))}
        first = last + 1
    assert got == want


# --- lexicon head index: dictionary-mask probe window ------------------------


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


# Tokens of random surfaces: capitalized and upper-case variants, words that
# run together when joined without a space, punctuation and a number.
_SURFACE_PIECES = ["ana", "Ana", "ANA", "rui", "Rui", "de", "Sr", ".", ",", "-", "7"]


@st.composite
def _surfaces(draw, max_pieces):
    pieces = draw(st.lists(st.sampled_from(_SURFACE_PIECES), min_size=1, max_size=max_pieces))
    seps = draw(st.lists(st.sampled_from([" ", "", "  "]), min_size=len(pieces),
                         max_size=len(pieces)))
    return "".join(p + sep for p, sep in zip(pieces, seps)).strip()


def _escaped(s):
    """``s`` as the surface field of a lexicon line."""
    return s.replace("\\", "\\\\").replace(",", "\\,").replace(".", "\\.")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_surfaces(4), st.sampled_from(["N+PR", "N+Hum", "A"])), max_size=8),
    _surfaces(12),
)
def test_entries_at_agrees_with_brute_probe(entries, text):
    lines = "".join(f"{_escaped(s)},.{tag}\n" for s, tag in entries)
    lex, ref = parse_lexicon(lines), oracle_parse_lexicon(lines)
    toks = _pure.tokenize_raw(text)
    for i, tok in enumerate(toks):
        # every token-aligned prefix from token i, longest first: the exact
        # surface, then the lowercase one for a capitalized surface
        want = []
        for j in range(len(toks) - 1, i - 1, -1):
            surface = text[tok[1] : toks[j][2]]
            found = _lex_entries(ref, surface)
            if found:
                want.append((j + 1, surface, tuple(e.symbols for e in found)))
        got = _pure._entries_at(toks, text, lex.symbol_index(), lex.head_index(), i)
        assert got == tuple(want), (text, i)


def _generated_lexicon(rng, n):
    vocab = ["ana", "rui", "lua", "sol", "mar", "rio", "paz", "de", "da"]
    lines = []
    for _ in range(n):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.3:
            words[0] = words[0].capitalize()
        code = rng.choice(["PR", "Hum", "Loc"])
        lines.append(f"{' '.join(words)},.N+{code}")
    return "\n".join(lines)


@pytest.mark.parametrize("which", ["shipped", "generated"])
def test_one_mask_grammars_agree_with_path_oracle(which, lexicon, oracle_lexicon):
    # each surface, its capitalized form and its first half, under a mask of
    # each of the surface's symbol sets
    if which == "shipped":
        lex, ref = lexicon, oracle_lexicon
    else:
        text = _generated_lexicon(random.Random(5), 150)
        lex, ref = parse_lexicon(text), oracle_parse_lexicon(text)
    checked = 0
    for surface, sets in lex.symbol_index().items():
        words = surface.split(" ")
        variants = {
            surface,
            surface[:1].upper() + surface[1:],
            " ".join(words[: (len(words) + 1) // 2]),
        }
        for symbols in sets:
            gs, _ = _mask_grammar(symbols)
            for text in variants:
                assert not _bounds(text), text  # the oracle ignores boundaries
                occs = apply_grammar(gs, text, lex, ALL_MATCHES)
                got = {(o.start, o.end, o.merged) for o in occs}
                assert got == brute_matches(gs, text, ref), (text, symbols)
                checked += (0, len(text), text) in got
    assert checked >= len(lex.symbol_index())


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
    gs, _ = _mask_grammar({"N", "PR"})
    assert (0, len(text)) in _spans(gs, text, lex)


def test_dictionary_mask_takes_the_longest_entry_its_filter_accepts():
    # "Ana Maria" is the longest entry but fails the one-word filter
    mask = LexicalMask(pos="N", codes=frozenset({"PR"}))
    box = GraphBox("b", ((InputAtom.masked(mask, MorphFilter("[A-Z][a-z]+")),),))
    gs = GrammarSet({"M": _graph("M", [box], [("i", "b"), ("b", "f")])}, "M")
    lines = "Ana Maria,.N+PR\nAna,.N+PR"
    text = "a Ana Maria e Rui"
    occs = apply_grammar(gs, text, parse_lexicon(lines), ALL_MATCHES)
    got = {(o.start, o.end, o.merged) for o in occs}
    assert got == brute_matches(gs, text, oracle_parse_lexicon(lines)) == {(2, 5, "Ana")}


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
    few behind <E>), output-only <E> boxes, boxes whose alternatives may
    call nullable subgraphs before their first consuming atom, and output
    boxes that call a subgraph whose own boxes carry outputs."""
    graphs = {}
    for name in ("S0", "S1"):
        alts = ((InputAtom.eps(),),) + tuple(
            (InputAtom.lit(_random_literal(rng)),) for _ in range(rng.randint(1, 2))
        )
        graphs[name] = _chain(rng, name, [GraphBox("s", alts)])
    # T always consumes, and its outputs share positions with its caller's
    tagged = [GraphBox("t", tuple(_random_alternative(rng, ["S0"]) for _ in range(2)), "<B>")]
    if rng.random() < 0.5:
        tagged.append(GraphBox("c", ((InputAtom.eps(),),), "</B>"))
    graphs["T"] = _chain(rng, "T", tagged)
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
        elif rng.random() < 0.3:
            alt = (InputAtom.call("T"),)
            if rng.random() < 0.5:
                alt += (InputAtom.lit(_random_literal(rng)),)
            boxes.append(GraphBox(f"b{b}", (alt,), "<A>"))
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
    text = _spaced(rng, words)
    occs = apply_grammar(gs, text, lex, mode=ALL_MATCHES)
    assert {(o.start, o.end, o.merged) for o in occs} == brute_matches(
        gs, text, oracle_parse_lexicon(_DISPATCH_LEX)
    )
    assert all(_events_splice_to_merged(text, o) for o in occs)


def test_first_set_of_titled_names(g1):
    first = compile_grammar_set(g1)["first"]
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
    cgs = compile_grammar_set(gs)
    assert cgs["first"] == (
        frozenset({"Rei"}), frozenset({"de"}), frozenset({("mask", frozenset(), "PRE", None)})
    )
    opt_first = _first_sets(cgs["table"], cgs["initial"])["Opt"][0]
    assert opt_first == (frozenset(), frozenset({"de"}), frozenset())


def test_left_recursive_grammar_gets_an_exact_first_set():
    # R calls itself before consuming anything (possible only in a
    # GrammarSet built directly; load_grammar_set rejects recursion): a
    # match of R can only begin with "y"
    rec = _graph(
        "R",
        [GraphBox("a", ((InputAtom.call("R"), InputAtom.lit("x")), (InputAtom.lit("y"),)))],
        [("i", "a"), ("a", "f")],
    )
    gs = GrammarSet({"R": rec}, "R")
    assert compile_grammar_set(gs)["first"] == (
        frozenset(), frozenset({"y"}), frozenset()
    )
    # a recursive call after the first consuming atom leaves FIRST exact
    tail = _graph(
        "R",
        [GraphBox("a", ((InputAtom.lit("x"), InputAtom.call("R")), (InputAtom.lit("y"),)))],
        [("i", "a"), ("a", "f")],
    )
    first = compile_grammar_set(GrammarSet({"R": tail}, "R"))["first"]
    assert first == (frozenset(), frozenset({"x", "y"}), frozenset())


def test_first_set_of_dictionary_names(g2):
    first = compile_grammar_set(g2)["first"]
    assert first == (
        frozenset(), frozenset(),
        frozenset({("mask", frozenset({"Hum"}), "", None),  # <Hum> and <N+PR>
                   ("mask", frozenset({"N", "PR"}), "", None)}),
    )
    lex = parse_lexicon("bonita,.A\nMarilyn Monroe,.N+PR")
    text = "bonita Marilyn Monroe"
    toks = _pure.tokenize_raw(text)
    index = (lex.symbol_index(), lex.head_index())
    entries = {}
    # an entry that covers neither required set does not admit its token,
    # and the rejected token's entries are not kept
    assert not _pure._may_start(first, toks, text, *index, 0, entries)
    assert entries == {}
    assert _pure._may_start(first, toks, text, *index, 1, entries)
    assert entries == {1: ((3, "Marilyn Monroe", (frozenset({"N", "PR"}),)),)}


_START_DICT_MASKS = [
    LexicalMask(pos="N", codes=frozenset({"PR"})),
    LexicalMask(pos="N", codes=frozenset({"Hum"})),
    LexicalMask(pos="A"),
]
# "i\u0307rem sá" is "İrem Sá".lower(): lowering "İrem" is not one letter
# run, so the probe width of "İrem" is the longest entry's
_START_LEX = (
    "Ana Maria,.N+PR\nAna,.N+PR\nana,.N+Hum\nrui,.N+Hum\nRui Sá,.N+PR\n"
    "bela,.A\nde,.PREP\nSá. Rui,.N+PR\nMaria,.A\ni\u0307rem sá,.N+PR"
)
_START_WORDS = ["Ana", "ana", "Maria", "rui", "Rui", "Sá", "bela", "Bela", "de", "İrem", ".", ","]


# leading masks whose filter the start filter must test too
_START_FILTERED = [
    InputAtom.masked(LexicalMask(builtin="PRE"), MorphFilter("..")),
    InputAtom.masked(_START_DICT_MASKS[0], MorphFilter("R.")),
    InputAtom.masked(_START_DICT_MASKS[0], MorphFilter("[A-Z][a-z]+")),
]


def random_start_grammar(rng):
    """A main graph whose leading atoms are mostly dictionary masks, some
    filtered: first in an alternative, behind <E>, behind an output-only
    box, behind a call to a nullable subgraph that may itself begin with
    one, or behind a left-recursive call to the main graph.  The graphs
    come in either order, so a FIRST set computed before its callee's
    must be computed again."""

    def atom():
        roll = rng.random()
        if roll < 0.55:
            return InputAtom.masked(rng.choice(_START_DICT_MASKS))
        if roll < 0.7:
            return rng.choice(_START_FILTERED)
        if roll < 0.85:
            return InputAtom.lit(rng.choice(["de", "Rui", "ana"]))
        return InputAtom.masked(LexicalMask(builtin="PRE"))

    def alternative():
        if rng.random() < 0.1:  # left recursion (load_grammar_set rejects it)
            return (InputAtom.call("M"), InputAtom.masked(rng.choice(_START_DICT_MASKS)))
        prefix = rng.choice([(), (), (InputAtom.eps(),), (InputAtom.call("Opt"),)])
        return prefix + tuple(atom() for _ in range(rng.randint(1, 2)))

    opt = _chain(rng, "Opt", [GraphBox("o", ((InputAtom.eps(),), (atom(),)))])
    boxes = []
    if rng.random() < 0.3:
        boxes.append(GraphBox("tag", ((InputAtom.eps(),),), "<N>"))
    for b in range(rng.randint(1, 3)):
        boxes.append(GraphBox(f"b{b}", tuple(alternative() for _ in range(rng.randint(1, 2)))))
    graphs = [("M", _chain(rng, "M", boxes)), ("Opt", opt)]
    rng.shuffle(graphs)
    return GrammarSet(dict(graphs), "M")


def _single_box(*alts):
    return _graph("M", [GraphBox("b", alts)], [("i", "b"), ("b", "f")])


_PR_ONLY = GrammarSet({"M": _single_box((InputAtom.masked(_START_DICT_MASKS[0]),))}, "M")
# the caller is listed after its nullable callee, whose FIRST it needs: a
# fixpoint that scans M first must scan it again
_CALLER_LAST = GrammarSet({
    "Opt": _graph("Opt", [GraphBox("o", ((InputAtom.eps(),), (InputAtom.lit("de"),)))],
                  [("i", "o"), ("o", "f")]),
    "M": _single_box((InputAtom.call("Opt"), InputAtom.masked(_START_DICT_MASKS[0]))),
}, "M")
# each of two leading masks admits a token the other rejects
_TWO_MASKS = GrammarSet({"M": _single_box(
    (InputAtom.masked(_START_DICT_MASKS[0]),), (InputAtom.masked(_START_DICT_MASKS[2]),)
)}, "M")
# the initial box is also the final one: FIRST is scanned from the
# initial box's successors, not stopped at the initial box itself
_INITIAL_IS_FINAL = GrammarSet({"M": Graph(
    "M", (GraphBox("b", ((InputAtom.lit("Ana"),),)),),
    frozenset({("i", "b"), ("b", "i")}), "i", "i",
)}, "M")


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False).map(random_start_grammar),
    st.lists(st.sampled_from(_START_WORDS), min_size=2, max_size=40),
)
# the walk runs from the end, so a head is rejected on its own further
# right before its multiword entry admits it further left, and the reverse
@example(_PR_ONLY, ["Rui", "Sá", "de", "Rui", "bela"])
@example(_PR_ONLY, ["İrem", "Sá", "de", "İrem", "bela"])
@example(_PR_ONLY, ["Rui", "bela", "Ana", "Rui", "Sá", "Ana"])
@example(_PR_ONLY, ["Ana", "de", "Ana", "Maria", ".", "Ana"])
@example(_CALLER_LAST, ["de", "Ana", "bela", "Rui"])
@example(_TWO_MASKS, ["bela", "Ana", "bela"])
@example(_INITIAL_IS_FINAL, ["Ana", "bela", "Ana"])
def test_start_filter_agrees_with_unfiltered_walk(gs, words):
    cgs = compile_grammar_set(gs)
    lex = parse_lexicon(_START_LEX)
    text = "".join(w if w in ".," else " " + w for w in words).strip()
    toks = _pure.tokenize_raw(text)
    args = (text, toks, lex.symbol_index(), lex.head_index(),
            _pure.sentence_boundaries(toks, frozenset()))
    filtered = _pure.find_matches(cgs, *args)
    # a FIRST set that admits every token
    cgs["first"] = (frozenset(t[0] for t in toks), frozenset(), frozenset())
    assert filtered == _pure.find_matches(cgs, *args)


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
    cgs = compile_grammar_set(gs)
    # the initial box's one successor carries box b's alternatives
    (_, _, rest, exact, folded), = cgs["table"][cgs["initial"]["G"][0]][2]
    assert [alt[0][0] for alt in rest] == ["mask"]
    assert {k: len(v) for k, v in exact.items()} == {"Rio": 2}
    assert {k: len(v) for k, v in folded.items()} == {"rio": 1}


# --- the walk: output order, long chains, ambiguity, recursion --------------


def test_output_of_a_box_that_consumes_nothing_follows_the_last_token():
    # ahead of the whitespace after the last consumed token; before the
    # first token when nothing has been consumed yet
    eps, mot = (InputAtom.eps(),), (InputAtom.masked(LexicalMask(builtin="MOT")),)
    boxes = [GraphBox("open", (eps,), "<A>"), GraphBox("a", (mot,)),
             GraphBox("mid", (eps,), "<B>"), GraphBox("b", (mot,)),
             GraphBox("close", (eps,), "<C>")]
    edges = [("i", "open"), ("open", "a"), ("a", "mid"), ("mid", "b"), ("b", "close"),
             ("close", "f")]
    gs = GrammarSet({"G": _graph("G", boxes, edges)}, "G")
    occs = apply_grammar(gs, " ana \n rui\t", parse_lexicon(""), ALL_MATCHES)
    assert [(o.start, o.end, o.merged) for o in occs] == [(1, 10, "<A>ana<B> \n rui<C>")]


def test_box_output_precedes_its_calls_outputs():
    from lgw.grammar import load_grammar_set

    m = 'graph M\nbox a out="<A>" :S\ninit i\nfinal f\nedge i a\nedge a f'
    sub = 'graph S\nbox b out="<B>" <PRE>\ninit i\nfinal f\nedge i b\nedge b f'
    gs = load_grammar_set([("M", m), ("S", sub)], "M")
    assert [o.merged for o in apply_grammar(gs, "Ana", parse_lexicon(""))] == ["<A><B>Ana"]


def test_events_that_splice_to_the_same_text_give_one_occurrence():
    # the output "a" before or after the token "aa" gives "aaa" both times;
    # the occurrence keeps the first events in sorted order
    eps, mot = (InputAtom.eps(),), (InputAtom.masked(LexicalMask(builtin="MOT")),)
    boxes = [GraphBox("w", (mot,)), GraphBox("o", (eps,), "a")]
    edges = [("i", "w"), ("i", "o"), ("o", "w"), ("w", "o"), ("w", "f"), ("o", "f")]
    gs = GrammarSet({"G": _graph("G", boxes, edges)}, "G")
    for mode in (ALL_MATCHES, LONGEST_ONLY):
        occs = apply_grammar(gs, "aa", parse_lexicon(""), mode)
        assert [(o.start, o.end, o.merged, o.events) for o in occs] == [
            (0, 2, "aa", ()),
            (0, 2, "aaa", ((0, "a"),)),
            (0, 2, "aaaa", ((0, "a"), (2, "a"))),
        ]


def test_literal_without_pieces_never_matches():
    # the parser rejects a blank literal; one built directly never matches
    box = GraphBox("b", ((InputAtom.lit("Rio"), InputAtom.lit(" "), InputAtom.lit("Branco")),))
    gs = GrammarSet({"G": _graph("G", [box], [("i", "b"), ("b", "f")])}, "G")
    assert apply_grammar(gs, "Rio Branco", parse_lexicon(""), ALL_MATCHES) == []
    # a blank first atom: only the other alternative matches
    box = GraphBox("b", ((InputAtom.lit(" "), InputAtom.lit("Branco")), (InputAtom.lit("Rio"),)))
    gs = GrammarSet({"G": _graph("G", [box], [("i", "b"), ("b", "f")])}, "G")
    occs = apply_grammar(gs, "Rio Branco", parse_lexicon(""), ALL_MATCHES)
    assert [(o.start, o.end) for o in occs] == [(0, 3)]


def test_long_title_chain_matches_in_under_a_second(g1):
    # one path through 1,200 boxes
    text = "Sr. " + " ".join(["Nome"] * 1200)
    t0 = time.perf_counter()
    occs = apply_grammar(g1, text, parse_lexicon(""))
    assert time.perf_counter() - t0 < 1.0
    assert [(o.start, o.end) for o in occs] == [(0, len(text))]


def test_ambiguous_self_loop_matches_in_under_a_second():
    # <MOT> and <PRE> both match every capitalized word: 2^40 paths per
    # match, all with the same continuations
    either = GraphBox("b", ((InputAtom.masked(LexicalMask(builtin="MOT")),),
                            (InputAtom.masked(LexicalMask(builtin="PRE")),)))
    gs = GrammarSet({"L": _graph("L", [either], [("i", "b"), ("b", "b"), ("b", "f")])}, "L")
    t0 = time.perf_counter()
    occs = apply_grammar(gs, " ".join(["Nome"] * 40), parse_lexicon(""), ALL_MATCHES)
    assert time.perf_counter() - t0 < 1.0
    assert len(occs) == 40 * 41 // 2


@pytest.mark.parametrize("order", [1, -1], ids=["call-order", "reversed"])
def test_call_chain_deeper_than_the_recursion_limit(order):
    # G0 calls G1 ... calls G<depth-1>, which reads "Ana"
    depth = sys.getrecursionlimit() + 100
    atoms = [f":G{d}" for d in range(1, depth)] + ['"Ana"']
    files = [
        (f"G{d}", f"graph G{d}\nbox b {atom}\ninit i\nfinal f\nedge i b\nedge b f\n")
        for d, atom in enumerate(atoms)
    ][::order]
    gs = load_grammar_set(files, "G0")
    occs = apply_grammar(gs, "A Ana veio.", parse_lexicon(""))
    assert [(o.start, o.end) for o in occs] == [(2, 5)]


def test_call_chain_of_4800_graphs_applies_in_under_a_second():
    # G0 calls G1 ... calls G4799, which reads "Ana": no token is consumed
    # between the calls, so every state holds the whole call stack and the
    # boxes entered along it
    depth = 4800
    atoms = [f":G{d}" for d in range(1, depth)] + ['"Ana"']
    gs = load_grammar_set(
        [(f"G{d}", f"graph G{d}\nbox b {atom}\ninit i\nfinal f\nedge i b\nedge b f\n")
         for d, atom in enumerate(atoms)],
        "G0",
    )
    t0 = time.perf_counter()
    occs = apply_grammar(gs, "A Ana veio.", parse_lexicon(""))
    assert time.perf_counter() - t0 < 1.0
    assert [(o.start, o.end) for o in occs] == [(2, 5)]


def test_left_recursive_grammar_terminates():
    # R -> R "x" | "x" S | "y" and S -> R | "z" S (a GrammarSet built
    # directly; load_grammar_set rejects recursion).  A box is not entered
    # again at the same token on one path, so the left-recursive
    # alternative never matches; the right-recursive ones do.
    lit, call = InputAtom.lit, InputAtom.call
    r = _graph("R", [GraphBox("a", ((call("R"), lit("x")), (lit("x"), call("S")), (lit("y"),)), "<R>")],
               [("i", "a"), ("a", "f")])
    s = _graph("S", [GraphBox("b", ((call("R"),), (lit("z"), call("S"))), "<S>")],
               [("i", "b"), ("b", "f")])
    gs = GrammarSet({"R": r, "S": s}, "R")
    got = {(o.start, o.end, o.merged)
           for o in apply_grammar(gs, "x z x y x", parse_lexicon(""), ALL_MATCHES)}
    assert got == {
        (0, 7, "<R>x <S>z <S><R>x <S><R>y"),
        (4, 7, "<R>x <S><R>y"),
        (6, 7, "<R>y"),
    }
