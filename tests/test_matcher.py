import random
import sys
import time
from array import array

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lgw.grammar import (
    Graph, GraphBox, GrammarSet, InputAtom, LexicalMask, MorphFilter, load_grammar_set,
)
from lgw.composer import compose_main
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


def _token_tuples(toks):
    """The ``(surface, start, end, kind)`` tuples of token columns, with
    the end derived from the start and the surface, and kind 0=word,
    1=number, 2=punct read off the surface's first character as the
    kernel reads it."""
    surfaces, starts = toks
    return [(s, a, a + len(s), 0 if s[0].isalpha() else 1 if s[0].isdigit() else 2)
            for s, a in zip(surfaces, starts, strict=True)]


def test_tokenize_example():
    # (surface, start, end, kind) with kind 0=word, 1=number, 2=punct
    assert _token_tuples(_pure.tokenize_raw("Sra. Joana")) == [
        ("Sra", 0, 3, 0),
        (".", 3, 4, 2),
        ("Joana", 5, 10, 0),
    ]


def test_tokenize_numbers_and_punct_runs():
    toks = _pure.tokenize_raw("em 1978!!")
    assert _token_tuples(toks) == [
        ("em", 0, 2, 0),
        ("1978", 3, 7, 1),
        ("!", 7, 8, 2),
        ("!", 8, 9, 2),
    ]
    # equal surfaces are one str
    assert toks[0][2] is toks[0][3]


_KINDS = {"word": 0, "number": 1, "punct": 2}


# words, numbers and punctuation between every kind of gap, so that both
# whitespace-split chunks of letters and mixed chunks come up
_TEXT_PIECES = st.sampled_from(
    ["Ana", "rio", "İ", "ǅ", "ß", "三", "²", "٣", "42", ".", ",", "-", "'", "_",
     " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\x85", "\x1c"]
)


@given(st.one_of(st.text(max_size=120), st.lists(_TEXT_PIECES, max_size=30).map("".join)))
@example("Porto Alegre")
@example(" São\u00a0Paulo,  Rio²٣ ")
def test_tokenize_partitions_text(text):
    # the tokens and the whitespace gaps between them partition the text
    surfaces, starts = columns = _pure.tokenize_raw(text)
    assert _pure.token_surfaces(text) == surfaces
    assert type(surfaces) is list
    assert type(starts) is array
    assert starts.typecode == _pure.OFFSETS
    toks = _token_tuples(columns)
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
    return sorted(toks[1][i] for i in _pure.sentence_boundaries(toks, abbrevs))


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


def test_boundary_needs_a_word_not_an_uppercase_symbol():
    # "Ⓐ" and "Ⅰ" are isupper() but not isalpha(): punct tokens, not words
    assert _boundary_offsets("fim. Ⓐ") == []
    assert _boundary_offsets("fim. Ⅰ") == []
    assert _boundary_offsets("fim. Ana") == [3]
    # nor is such a token an initial that keeps the sentence open
    assert _boundary_offsets("Ⓐ. Novo") == [1]


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
    want = _oracle_matches(gs, text)
    assume(want is not None)
    assert _all_matches(gs, text) == want


# --- pure call boxes inlined at compile time ---------------------------------
# A box with no output whose every alternative is one call of a callee that
# cannot consume nothing is walked as a copy of its callees' boxes; the
# calls that need a return frame keep it.


def _oracle_matches(gs, text):
    """The matches of ``gs`` in ``text`` by brute_matches on the unrolled
    oracle grammar of each sentence; None if the oracle gives up."""
    toks = _pure.tokenize_raw(text)
    surfaces, starts = toks
    want = set()
    first = 0
    # each sentence ends with its boundary token, or with the last token
    for last in sorted(_pure.sentence_boundaries(toks, frozenset())) + [len(starts) - 1]:
        start = starts[first]
        sentence = text[start : starts[last] + len(surfaces[last])]
        ogs = oracle_grammar(gs, sentence, oracle_parse_lexicon(""))
        if ogs is None:
            return None
        want |= {(a + start, b + start, merged)
                 for a, b, merged in brute_matches(ogs, sentence, oracle_parse_lexicon(""))}
        first = last + 1
    return want


def _all_matches(gs, text):
    return {(o.start, o.end, o.merged)
            for o in apply_grammar(gs, text, parse_lexicon(""), ALL_MATCHES, frozenset())}


def _calls(*names):
    return tuple((InputAtom.call(n),) for n in names)


@st.composite
def pure_call_grammars(draw):
    """M calls S1 from the pure call boxes c1 and c2 and from the longer
    alternative of box l, and S2 from box o.  S1 calls S2 from its pure call
    box p (a nested pure call), and S2 has outputs on its first and last
    boxes.  Drawn: one or two callees per call box, among them the nullable
    S3 (whose call keeps its frame); an output on o and on c2; an <E> loop
    from c1 back to c1 or to c2; and edges back into initial boxes."""
    word = st.sampled_from(_CYCLE_WORDS).map(InputAtom.lit)
    consuming = st.one_of(word, st.sampled_from([_MOT, _PRE]))

    def callees(*names):
        return _calls(*draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)))

    def back_edges(ids):
        return draw(st.sets(st.tuples(st.sampled_from(ids), st.just("i")), max_size=1))

    s3 = _graph("S3", [GraphBox("n", ((InputAtom.eps(),), (draw(word),)),
                                draw(st.sampled_from([None, "<n>"])))],
                {("i", "n"), ("n", "f")} | back_edges(["n"]))
    s2 = _graph("S2", [
        GraphBox("a", ((draw(consuming),),), "<a>"),
        GraphBox("z", ((InputAtom.eps(),), (draw(word),)), "</a>"),
    ], {("i", "a"), ("a", "z"), ("z", "f")} | draw(st.sets(st.sampled_from(
        [("a", "a"), ("z", "a"), ("a", "i"), ("z", "i")]), max_size=2)))
    s1 = _graph("S1", [
        GraphBox("p", callees("S2", "S2", "S3")),
        GraphBox("w", ((draw(word),),), draw(st.sampled_from([None, "<w>"]))),
    ], {("i", "p"), ("p", "w"), ("w", "f")} | draw(st.sets(st.sampled_from(
        [("i", "w"), ("p", "f"), ("w", "p"), ("p", "i")]), max_size=2)))
    longer = draw(st.sampled_from([(InputAtom.call("S1"), draw(consuming)),
                                   (draw(word), InputAtom.call("S1"))]))
    m = _graph("M", [
        GraphBox("c1", callees("S1", "S1", "S2", "S3")),
        GraphBox("e", ((InputAtom.eps(),),)),
        GraphBox("c2", _calls("S1"), draw(st.sampled_from([None, "<c>"]))),
        GraphBox("l", (longer,)),
        GraphBox("o", callees("S2", "S3"), draw(st.sampled_from([None, "<o>"]))),
    ], {("i", "c1"), ("c1", "e"), ("e", "c2"), ("c2", "f"), ("c1", "f"), ("i", "l"),
        ("l", "f"), ("i", "o"), ("o", "f")}
       | draw(st.sets(st.sampled_from([("e", "c1"), ("c2", "e"), ("e", "i")]), max_size=2)))
    return GrammarSet({"M": m, "S1": s1, "S2": s2, "S3": s3}, "M")


# M's one pure call box calls G, where an <E> box with an output leads back
# into G's initial box: entering it again at the same token is refused,
# as the call refuses it, so "y x" holds only "x"
_BACK_INTO_CALLEE_INITIAL = GrammarSet({
    "M": _graph("M", [GraphBox("x", _calls("G"))], {("i", "x"), ("x", "f")}),
    "G": _graph("G", [GraphBox("a", ((InputAtom.eps(),),), "<a>"),
                      GraphBox("b", ((InputAtom.lit("x"),),))],
                {("i", "a"), ("a", "i"), ("i", "b"), ("b", "f")}),
}, "M")


@settings(max_examples=300, deadline=None)
@given(pure_call_grammars(), _cycle_texts)
@example(_BACK_INTO_CALLEE_INITIAL, "y x")
def test_inlined_calls_agree_with_the_path_oracle(gs, text):
    want = _oracle_matches(gs, text)
    assume(want is not None)
    assert _all_matches(gs, text) == want


def test_a_copy_is_not_entered_again_through_its_initial_box():
    assert _all_matches(_BACK_INTO_CALLEE_INITIAL, "y x") == {(2, 3, "x")}


def test_a_call_cycle_is_not_inlined():
    # G calls H, keeping its frame, and H's pure call box calls G back (a
    # GrammarSet built directly).  The walk refuses to enter G again at the
    # token where G was entered; a copy of G would have been entered.
    lit, call = InputAtom.lit, InputAtom.call
    g = _graph("G", [GraphBox("a", ((call("H"), lit("y")),)), GraphBox("b", ((lit("x"),),))],
               {("i", "a"), ("a", "f"), ("i", "b"), ("b", "f")})
    h = _graph("H", [GraphBox("c", _calls("G"))], {("i", "c"), ("c", "f")})
    assert _all_matches(GrammarSet({"G": g, "H": h}, "G"), "x y") == {(0, 1, "x")}


# --- LongestOnly inside the walk ---------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(cyclic_grammars(), pure_call_grammars()), _cycle_texts)
# the starts before the boundary end before those after it
@example(_WORD_LOOP, "ana bela. Rui de")
def test_longest_in_the_walk_equals_the_longest_filter(gs, text):
    lex = parse_lexicon("")
    want = filter_longest(apply_grammar(gs, text, lex, ALL_MATCHES, frozenset()))
    # Occurrences compare every field, events included
    assert apply_grammar(gs, text, lex, LONGEST_ONLY, frozenset()) == want


def _doubling_dag(levels):
    """G0 ... G<levels>: each graph calls the next from two pure call boxes
    in parallel, one of them followed by an output; the last reads "Ana".
    Inlining every call would copy the last graph 2**levels times."""
    graphs = {}
    for d in range(levels):
        graphs[f"G{d}"] = _graph(f"G{d}", [
            GraphBox("a", _calls(f"G{d + 1}")), GraphBox("b", _calls(f"G{d + 1}")),
            GraphBox("t", ((InputAtom.eps(),),), f"<{d}>"),
        ], {("i", "a"), ("i", "b"), ("a", "f"), ("b", "t"), ("t", "f")})
    graphs[f"G{levels}"] = _graph(f"G{levels}", [GraphBox("w", ((InputAtom.lit("Ana"),),))],
                                  {("i", "w"), ("w", "f")})
    return GrammarSet(graphs, "G0")


def test_doubling_call_dag_compiles_within_the_bound():
    gs = _doubling_dag(20)
    boxes = sum(len(g.boxes) + 2 for g in gs.graphs.values())
    t0 = time.perf_counter()
    cgs = compile_grammar_set(gs)
    assert time.perf_counter() - t0 < 1.0
    assert boxes < len(cgs["table"]) <= 4 * boxes


def test_doubling_call_dag_agrees_with_the_path_oracle():
    gs = _doubling_dag(8)
    text = "A Ana veio."
    want = brute_matches(gs, text, oracle_parse_lexicon(""))
    assert len(want) == 2 ** 8
    assert _all_matches(gs, text) == want


def _reachable_alternatives(cgs):
    """Every alternative of every box the walk can enter from the main
    graph's initial box, through successors and through calls."""
    table, initial = cgs["table"], cgs["initial"]
    todo, seen, alts = [initial[cgs["main"]][0]], set(), []
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        _, final, succs = table[node]
        for b, _, rest, exact, folded, masked in succs:
            if b == final:
                continue
            todo.append(b)
            groups = [*exact.values(), *folded.values(), *(group for _, group in masked)]
            for alt in [*rest, *(a for group in groups for a in group)]:
                alts.append(alt)
                todo.extend(initial[atom[1]][0] for atom in alt if atom[0] == "call")
    return alts


def test_composed_main_of_the_shipped_grammars_makes_no_call(g1, g1_enhanced, g2):
    graphs = {**g1.graphs, **g1_enhanced.graphs, **g2.graphs}
    kept = [g1.main, g1_enhanced.main, g2.main]
    graphs["Main"] = compose_main(kept)
    for name in ("Main", *kept):
        alts = _reachable_alternatives(compile_grammar_set(GrammarSet(graphs, name)))
        assert alts
        assert not [alt for alt in alts if any(atom[0] == "call" for atom in alt)], name
    # a call that keeps its frame is counted
    alts = _reachable_alternatives(compile_grammar_set(_doubling_dag(20)))
    assert any(atom[0] == "call" for alt in alts for atom in alt)


# --- lexicon prefix index: where a dictionary-mask probe stops ---------------


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


def test_prefix_index():
    lex = parse_lexicon("Marilyn Monroe,.N+PR\nMarilyn,.N+PR\nrei,.N\nSr\\.,.N\nDom Pedro  II,.N+PR")
    prefixes, longest = lex.prefix_index()
    # a prefix keeps the entry's own spacing, up to the end of a token
    assert prefixes == {"Marilyn", "Sr", "Dom", "Dom Pedro"}
    assert longest == 3
    assert parse_lexicon("").prefix_index() == (set(), 0)


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
# lower() of a later token of the entry: "ΟΔΟΣ" alone lowers to "οδος",
# which is no prefix of "οδοσ'α", and "İzmir" to "i" + U+0307 + "zmir",
# three tokens where the text has one
@example([("ana οδοσ'α", "N+PR")], "ANA ΟΔΟΣ'Α")
@example([("ana i\u0307zmir bey", "N+PR")], "ANA İzmir BEY")
def test_entries_at_agrees_with_brute_probe(entries, text):
    lines = "".join(f"{_escaped(s)},.{tag}\n" for s, tag in entries)
    lex, ref = parse_lexicon(lines), oracle_parse_lexicon(lines)
    toks = _pure.tokenize_raw(text)
    surfaces, starts = toks
    for i, start in enumerate(starts):
        # every token-aligned prefix from token i, longest first: the exact
        # surface, then the lowercase one for a capitalized surface
        want = []
        for j in range(len(starts) - 1, i - 1, -1):
            surface = text[start : starts[j] + len(surfaces[j])]
            found = _lex_entries(ref, surface)
            if found:
                want.append((j + 1, surface, tuple(e.symbols for e in found)))
        got = _pure._entries_at(toks, text, lex.symbol_index(), lex.prefix_index(), i)
        assert got == tuple(want), (text, i)


class _CountingIndex(dict):
    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_entries_at_stops_at_the_first_span_no_entry_extends():
    name = "Hugo de Sousa Lima Pereira da Costa e Silva Neto Junior"
    assert len(name.split()) == 11
    lex = parse_lexicon(f"Hugo,.N+PR\n{name},.N+PR")
    text = "Hugo foi vez preço de uma sala do teatro maior e melhor."
    toks = _pure.tokenize_raw(text)
    assert len(toks[0]) >= 11
    symindex = _CountingIndex(lex.symbol_index())
    got = _pure._entries_at(toks, text, symindex, lex.prefix_index(), 0)
    assert got == ((1, "Hugo", (frozenset({"N", "PR"}),)),)
    # "Hugo" and "Hugo foi", each looked up as itself and as its lower()
    assert symindex.gets <= 2 * 2


@pytest.mark.parametrize("word", ["ΟΔΟΣ", "RUA"])
def test_a_final_sigma_extends_only_where_a_longer_entry_could_follow(word):
    # a final sigma turns medial only before a cased letter, so "ΟΔΟΣ" is
    # read past only if "οδοσ" is a prefix, as "RUA" only if "rua" is
    lex = parse_lexicon(" ".join(["ana"] * 12) + ",.N+PR")
    text = " ".join([word] * 20)
    toks = _pure.tokenize_raw(text)
    symindex = _CountingIndex(lex.symbol_index())
    assert _pure._entries_at(toks, text, symindex, lex.prefix_index(), 0) == ()
    # the first span, looked up as itself and as its lower()
    assert symindex.gets == 2


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
        # form of the token is three tokens, and its prefixes must still
        # lead the walk on
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
    index = (lex.symbol_index(), lex.prefix_index())
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
# run, but "i\u0307rem" is still a prefix of the entry
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
# the walk runs from the end, so a first token is rejected on its own further
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
    args = (text, toks, lex.symbol_index(), lex.prefix_index(),
            _pure.sentence_boundaries(toks, frozenset()))
    filtered = _pure.find_matches(cgs, *args)
    # a FIRST set that admits every token
    cgs["first"] = (frozenset(toks[0]), frozenset(), frozenset())
    assert filtered == _pure.find_matches(cgs, *args)


# letters with and without case, a titlecase and a dotted capital, digits
# that are not decimal, punctuation and non-ASCII whitespace
_LITERAL_CHARS = st.sampled_from(list("aZçÉ") + ["İ", "ǅ", "ß", "²", "٣", "7", ".", "-", "'",
                                                 " ", "\u00a0", "\u2003"])


@given(st.lists(st.text(_LITERAL_CHARS, min_size=1, max_size=10).filter(lambda s: not s.isspace()),
                min_size=1, max_size=5))
@example(["İstanbul", "ǅemal", "rio²", "Rio ٣", "são\u00a0paulo", "a.b-c"])
def test_literal_compilation_follows_the_tokenizer_rule(literals):
    # the one-box grammar of the literals, through the parser and the compiler
    alts = " ; ".join(f'"{lit}"' for lit in literals)
    gs = load_grammar_set([("G", f"graph G\nbox b {alts}\ninit i\nfinal f\nedge i b\nedge b f\n")])
    cgs = compile_grammar_set(gs)
    (_, _, rest, exact, folded, masked), = cgs["table"][cgs["initial"]["G"][0]][2]
    want = ({}, {})
    for lit in literals:
        ci = not any(c.isupper() for c in lit)
        pieces = tuple(s.lower() if ci else s for s, _, _, kind in brute_tokenize(lit)
                       if kind != "space")
        want[ci].setdefault(pieces[0], []).append((("lit", pieces, ci),))
    assert rest == masked == ()
    assert (exact, folded) == want


def test_literal_dispatch_splits_alternatives():
    box = GraphBox(
        "b",
        (
            (InputAtom.lit("Rio"),),
            (InputAtom.lit("rio de"),),
            (InputAtom.lit("Rio Branco"),),
            (InputAtom.masked(LexicalMask(builtin="MOT")),),
            (InputAtom.masked(LexicalMask(builtin="MOT")), InputAtom.lit("de")),
            (InputAtom.eps(), InputAtom.lit("Rio")),
        ),
    )
    gs = GrammarSet({"G": _graph("G", [box], [("i", "b"), ("b", "f")])}, "G")
    cgs = compile_grammar_set(gs)
    # the initial box's one successor carries box b's alternatives
    (_, _, rest, exact, folded, masked), = cgs["table"][cgs["initial"]["G"][0]][2]
    assert [alt[0][0] for alt in rest] == ["eps"]
    assert {k: len(v) for k, v in exact.items()} == {"Rio": 2}
    assert {k: len(v) for k, v in folded.items()} == {"rio": 1}
    # both <MOT>-first alternatives, in one group under their mask
    mot = ("mask", frozenset(), "MOT", None)
    assert masked == ((mot, [(mot,), (mot, ("lit", ("de",), True))]),)


# --- the walk: output order, long chains, ambiguity, recursion --------------


def test_unknown_mode_is_refused(g1, lexicon):
    with pytest.raises(ValueError, match="unknown mode 'shortest'"):
        apply_grammar(g1, "O Sr. Silva.", lexicon, "shortest")


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
