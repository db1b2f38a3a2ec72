import time

import pytest
from hypothesis import example, given, strategies as st

from lgw.errors import MalformedLine
from lgw.grammar import Graph, GraphBox, GrammarSet, InputAtom, LexicalMask
from lgw.lexicon import (
    LexEntry,
    Lexicon,
    merge_lexicons,
    parse_lexicon,
    render_lexicon,
)
from lgw.matcher import ALL_MATCHES, apply_grammar
from oracles import oracle_lexicon_index, oracle_parse_lexicon


def test_parse_multiword_proper_name():
    lex = parse_lexicon("Marilyn Monroe,.N+PR")
    (entry,) = lex.entries["Marilyn Monroe"]
    assert entry.surface == "Marilyn Monroe"
    assert entry.lemma == "Marilyn Monroe"
    assert entry.pos == "N"
    assert entry.codes == frozenset({"PR"})


def test_parse_rainha():
    lex = parse_lexicon("rainha,.N+Hum")
    (entry,) = lex.entries["rainha"]
    assert entry.pos == "N"
    assert entry.codes == frozenset({"Hum"})


def test_parse_empty_input():
    assert len(parse_lexicon("")) == 0


def test_parse_lemma_and_escapes():
    lex = parse_lexicon("da,de.PREP\nSr\\.,.N+Abrev")
    (da,) = lex.entries["da"]
    assert da.lemma == "de"
    (sr,) = lex.entries["Sr."]
    assert sr.surface == "Sr."
    # an unknown escape drops its backslash
    (ax,) = parse_lexicon("a\\x,b\\y.N").entries["ax"]
    assert ax.lemma == "by"


@pytest.mark.parametrize("bad", ["no separators", "surface,nope", ",.N"])
def test_parse_malformed_line(bad):
    with pytest.raises(MalformedLine) as exc:
        parse_lexicon("ok,.N\n" + bad)
    assert exc.value.line_no == 2


def test_duplicate_lines_collapse():
    lex = parse_lexicon("a,.N\na,.N")
    assert len(lex) == 1


def test_comment_lines_skipped():
    lex = parse_lexicon("# header\na,.N")
    assert len(lex) == 1


def _has_mask(lex, surface, mask):
    """Does a grammar of the one mask match all of ``surface``?"""
    box = GraphBox("b", ((InputAtom.masked(mask),),))
    graph = Graph("M", (box,), frozenset({("i", "b"), ("b", "f")}), "i", "f")
    occs = apply_grammar(GrammarSet({"M": graph}, "M"), surface, lex, ALL_MATCHES)
    return any((o.start, o.end) == (0, len(surface)) for o in occs)


def test_token_has_mask_builtin_pre():
    lex = parse_lexicon("")
    pre = LexicalMask(builtin="PRE")
    assert _has_mask(lex, "Joana", pre)
    assert not _has_mask(lex, "da", pre)
    # a stored PRE code also satisfies the builtin
    lex2 = parse_lexicon("von,.PART+PRE")
    assert _has_mask(lex2, "von", pre)


def test_token_has_mask_builtin_mot():
    lex = parse_lexicon("")
    mot = LexicalMask(builtin="MOT")
    assert _has_mask(lex, "casa", mot)
    assert not _has_mask(lex, "123", mot)


def test_token_has_mask_dictionary():
    lex = parse_lexicon("Marilyn Monroe,.N+PR\nrainha,.N+Hum")
    assert _has_mask(lex, "Marilyn Monroe", LexicalMask(pos="N", codes=frozenset({"PR"})))
    assert _has_mask(lex, "rainha", LexicalMask(codes=frozenset({"Hum"})))
    assert not _has_mask(lex, "rainha", LexicalMask(codes=frozenset({"PR"})))
    # a capitalized surface also has its lowercase form's entries, and only
    # a capitalized one
    assert _has_mask(lex, "Rainha", LexicalMask(codes=frozenset({"Hum"})))
    assert not _has_mask(parse_lexicon("RAINHA,.N"), "rainha", LexicalMask(pos="N"))


def test_pre_builtin_ignores_lexicon_contents():
    # <PRE> on a capitalized word depends only on the first character
    big = parse_lexicon("Joana,.N+PR")
    empty = parse_lexicon("")
    for lex in (big, empty):
        assert _has_mask(lex, "Joana", LexicalMask(builtin="PRE"))


def test_loading_monotonicity():
    lines = ["a,.N", "b,.V+X", "a,.N+Y", "c,lemma.ADJ"]
    full = parse_lexicon("\n".join(lines))
    for cut in range(len(lines) + 1):
        prefix = parse_lexicon("\n".join(lines[:cut]))
        for s in ("a", "b", "c"):
            assert set(prefix.entries.get(s, ())) <= set(full.entries[s])


_surface = st.text(
    st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)
_code = st.text(st.characters(whitelist_categories=("Lu", "Nd")), min_size=1, max_size=4)


@given(
    st.lists(
        st.builds(
            LexEntry,
            surface=_surface,
            lemma=_surface,
            pos=_code,
            codes=st.frozensets(_code, max_size=3),
        ),
        max_size=10,
    )
)
@example([LexEntry("ends\\", "\\x", "N"), LexEntry("a\\\\b", "c\\", "N", frozenset({"PR"}))])
def test_render_parse_round_trip(entries):
    base = {}
    for e in entries:
        base.setdefault(e.surface, [])
        if e not in base[e.surface]:
            base[e.surface].append(e)
    lex = Lexicon({s: tuple(es) for s, es in base.items()})
    again = parse_lexicon(render_lexicon(lex))
    assert again.entries == lex.entries


def test_merge_lexicons():
    a = parse_lexicon("a,.N")
    b = parse_lexicon("a,.N\nb,.V")
    merged = merge_lexicons([a, b])
    assert len(merged) == 2


def test_merge_keeps_first_seen_order_and_collapses_duplicates():
    a1, a2, b1, c1 = (
        LexEntry("a", "a", "N"),
        LexEntry("a", "x", "N", frozenset({"PR"})),
        LexEntry("b", "b", "V"),
        LexEntry("c", "c", "ADJ"),
    )
    # duplicates inside one hand-built lexicon, and an equal but distinct
    # object, collapse onto the first one
    hand = Lexicon({"b": (b1, b1), "a": (a1, LexEntry("a", "a", "N"), a2, a1)})
    merged = merge_lexicons([hand])
    assert list(merged.entries) == ["b", "a"]
    assert merged.entries == {"b": (b1,), "a": (a1, a2)}
    assert merged.entries["a"][0] is a1
    # across lexicons: later surfaces and entries append, repeats vanish
    other = parse_lexicon("c,.ADJ\na,x.N+PR\nb,.V\na,.N+Hum")
    merged = merge_lexicons([hand, other], name="m")
    assert merged.name == "m"
    assert list(merged.entries) == ["b", "a", "c"]
    assert merged.entries == {
        "b": (b1,),
        "a": (a1, a2, LexEntry("a", "a", "N", frozenset({"Hum"}))),
        "c": (c1,),
    }
    # an empty entry tuple adds no surface
    assert merge_lexicons([Lexicon({"z": ()})]).entries == {}


def test_load_is_linear_in_the_entries_under_one_surface():
    # a per-surface dedupe that compared each entry with every entry
    # stored under its surface took seconds here
    text = "".join(f"a,l{k}.N\n" for k in range(4000))
    t0 = time.perf_counter()
    lex = merge_lexicons([parse_lexicon(text), parse_lexicon(text)])
    lex.symbol_index()
    elapsed = time.perf_counter() - t0
    assert len(lex) == 4000
    assert lex.head_index() == ({"a": 1}, 1)
    assert elapsed < 1.0


# Lines mixing every case the parser distinguishes: escaped and unescaped
# separators, lone trailing backslashes, empty fields and codes, comments,
# blank and whitespace-only lines.  Well-formed lines are drawn more often,
# so that most texts parse past their first line.
_safe = st.sampled_from(["a", "Bé", " ", "x y", "\\,", "\\.", "\\\\", "\\x", "+", "#"])
_good_line = st.builds(
    lambda surface, lemma, tag: f"{surface},{lemma}.{tag}",
    st.lists(_safe, min_size=1, max_size=3).map("".join),
    st.lists(_safe, max_size=2).map("".join),
    st.sampled_from(["N", "N+PR", "N+PR ", " N+Hum+PR", "N+PR+Hum", "N+PR+PR", "V"]),
)
_piece = st.one_of(_safe, st.sampled_from([",", ".", "\\"]))
_field = st.lists(_piece, max_size=3).map("".join)
_tag = st.lists(
    st.sampled_from(["N", "PR", "Hum", "", " ", "\\", "V."]), min_size=1, max_size=3
).map("+".join)
_any_line = st.one_of(
    st.builds(lambda surface, lemma, tag: f"{surface},{lemma}.{tag}", _field, _field, _tag),
    _field,
    st.sampled_from([" # not a comment", "a\\", "\\", "a\\,.N", "a,b\\.N", ",x"]),
)
_skipped_line = st.sampled_from(["", "   ", "\t", "# c,.N", "#"])


@st.composite
def _lexicon_text(draw):
    kinds = st.sampled_from([_good_line] * 6 + [_skipped_line, _any_line])
    pool = [draw(draw(kinds)) for _ in range(draw(st.integers(1, 6)))]
    # drawing from a small pool repeats lines
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _parse_outcome(parse, text):
    try:
        lex = parse(text, name="n")
    except MalformedLine as exc:
        return ("error", exc.line_no, str(exc))
    return ("ok", list(lex.entries), lex.entries, lex.name)


@given(_lexicon_text())
@example("a,.N\r\nb\\,c,.N+PR\na,.N\n\n  \n# x\nb\\,c,.N+PR \nb\\,c,d\\..N+PR\n")
@example("a,.N\nb,.N+\nc,.+X\n")
@example("a,.N\nb,c\\.N\n")
@example("a\\,.N\n")
@example("a,.N\n,x\n")
def test_parse_agrees_with_reference_parser(text):
    assert _parse_outcome(parse_lexicon, text) == _parse_outcome(oracle_parse_lexicon, text)


def _parsed(text):
    try:
        return parse_lexicon(text), oracle_parse_lexicon(text).entries
    except MalformedLine:
        return None


def _index(lex):
    return lex.symbol_index(), lex.head_index()


@given(_lexicon_text())
@example("a,.N\na,.N\na,x.N+PR\nx y,.N\nx\\,y,.N\n")
def test_index_agrees_with_reference_index(text):
    parsed = _parsed(text)
    if parsed is not None:
        assert _index(parsed[0]) == oracle_lexicon_index(parsed[1])


@given(st.lists(_lexicon_text(), min_size=1, max_size=3))
@example(["a,.N\nb c,.V\n", "b c,.V\na,.N+PR\n", "a,.N\n"])
def test_merged_index_agrees_with_reference_index(texts):
    parsed = [p for p in map(_parsed, texts) if p is not None]
    merged = {}  # the oracle entries of every text, each distinct one once
    for _, entries in parsed:
        for s, es in entries.items():
            merged[s] = merged.get(s, ()) + tuple(e for e in es if e not in merged.get(s, ()))
    lex = merge_lexicons([lex for lex, _ in parsed])
    assert _index(lex) == oracle_lexicon_index(merged)
