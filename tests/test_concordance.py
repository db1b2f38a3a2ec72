import pytest
from hypothesis import example, given, strategies as st

from lgw.concordance import (
    Concordance,
    ConcordanceLine,
    _unesc,
    build_concordance,
    parse_concordance,
    write_concordance,
)
from lgw.errors import MalformedConcordanceLine, SpanOutOfBounds
from lgw.matcher import LONGEST_ONLY, Occurrence, apply_grammar


def test_build_from_grammar_output(g1, lexicon):
    text = "A Sra. Joana da Silva falou com o Dr. Pedro."
    occs = apply_grammar(g1, text, lexicon, LONGEST_ONLY)
    c = build_concordance(occs, text, grammar="G1", text_id="t1")
    assert c.source_grammar == "G1"
    first = c.lines[0]
    assert first.left == "A "
    assert first.match == "Sra. <NOME>Joana da Silva</NOME>"
    assert first.right == " falou com o Dr. Pedro."


def test_context_clipping_and_widths():
    text = "x" * 100 + " alvo " + "y" * 100
    occ = Occurrence(101, 105, "alvo", "G")
    c = build_concordance([occ], text, 5, 3)
    (line,) = c.lines
    assert line.left == "xxxx "  # 5 chars
    assert line.right == " yy"  # 3 chars
    short = build_concordance([Occurrence(0, 4, "alvo", "G")], "alvo!")
    assert short.lines[0].left == ""
    assert short.lines[0].right == "!"


def test_newlines_in_context_become_spaces():
    text = "um\ndois alvo tres\r\nquatro"
    occ = Occurrence(8, 12, "alvo", "G")
    c = build_concordance([occ], text)
    assert c.lines[0].left == "um dois "
    assert c.lines[0].right == " tres quatro"


def test_duplicate_occurrences_collapse():
    occ = Occurrence(0, 1, "a", "G")
    c = build_concordance([occ, occ], "ab")
    assert len(c.lines) == 1


def test_lines_sorted_positionally():
    occs = [
        Occurrence(5, 7, "cd", "G"),
        Occurrence(0, 3, "abc", "G"),
        Occurrence(0, 2, "ab", "G"),
    ]
    c = build_concordance(occs, "abcd cdef")
    assert [(l.start, l.end) for l in c.lines] == [(0, 2), (0, 3), (5, 7)]


@pytest.mark.parametrize("span", [(-1, 2), (0, 99), (3, 3), (4, 2)])
def test_bad_spans_rejected(span):
    s, e = span
    occ = Occurrence(s, e, "x", "G")
    with pytest.raises(SpanOutOfBounds):
        build_concordance([occ], "abcdef")


# --- serialization -----------------------------------------------------------


def test_write_header_and_sentinels():
    c = Concordance([], source_grammar="", source_text_id="", left_width=4, right_width=6)
    assert write_concordance(c) == "#concordance v1 - - 4 6\n"
    back = parse_concordance(write_concordance(c))
    assert back.source_grammar == "" and back.source_text_id == ""
    assert (back.left_width, back.right_width) == (4, 6)


def test_write_escapes_tabs_and_newlines():
    c = Concordance([ConcordanceLine(0, 2, "a\tb", "x\ny", "c\\d")], "G", "t")
    text = write_concordance(c)
    assert "a\\tb" in text and "x\\ny" in text and "c\\\\d" in text
    assert parse_concordance(text).lines == c.lines
    # hand-written escapes: a lone trailing backslash stays, an unknown
    # escape drops its backslash, an escaped newline is a newline
    (line,) = parse_concordance("#concordance v1 G t 40 60\n0\t2\tab\\\t\\x\t-\n").lines
    assert (line.left, line.match) == ("ab\\", "x")
    assert _unesc("a\\\nb") == "a\nb"


@pytest.mark.parametrize(
    "bad,line_no",
    [
        ("", 1),
        ("#concordance v2 G t 40 60\n", 1),
        ("#concordance v1 G t 40 60\n1\t2\tl\tm\n", 2),
        ("#concordance v1 G t 40 60\nx\t2\tl\tm\tr\n", 2),
        ("#concordance v1 G t 40 60\n0\t2\tl\tm\tr\n7\t5\tl\tm\tr\n", 3),
        ("#concordance v1 G t 40 60\n5\t5\tl\tm\tr\n", 2),
        ("#concordance v1 G t 40 60\n-1\t2\tl\tm\tr\n", 2),
    ],
)
def test_parse_errors(bad, line_no):
    with pytest.raises(MalformedConcordanceLine) as exc:
        parse_concordance(bad)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "bad,line_no",
    [
        ("#concordance v1 G t 40 60\n+1\t2\tl\tm\tr\n", 2),
        ("#concordance v1 G t 40 60\n0\t 12\tl\tm\tr\n", 2),
        ("#concordance v1 G t 40 60\n1_0\t12\tl\tm\tr\n", 2),
        ("#concordance v1 G t 40 60\n0\t\u0663\tl\tm\tr\n", 2),
        ("#concordance v1 G t \u0664 60\n", 1),
    ],
    ids=["plus-sign", "leading-space", "underscore", "arabic-indic-span", "arabic-indic-width"],
)
def test_spans_and_widths_are_ascii_digits(bad, line_no):
    # int() reads each of these as a number that writes back as other bytes
    with pytest.raises(MalformedConcordanceLine) as exc:
        parse_concordance(bad)
    assert exc.value.line_no == line_no


_ctx = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=12
)
_line = st.builds(
    ConcordanceLine,
    start=st.integers(0, 999),
    end=st.integers(1000, 1999),
    left=_ctx,
    match=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12),
    right=_ctx,
)
_name = st.text(st.sampled_from("GgTt19_."), min_size=1, max_size=6)


@given(
    st.lists(_line, max_size=8),
    st.one_of(st.just(""), _name),
    st.one_of(st.just(""), _name),
)
@example([ConcordanceLine(0, 1000, "ends\\", "\\x", "a\\\nb\\")], "G", "t")
def test_write_parse_round_trip(lines, grammar, text_id):
    c = Concordance(lines, grammar, text_id, 40, 60)
    back = parse_concordance(write_concordance(c))
    assert back.lines == c.lines
    assert back.source_grammar == grammar
    assert back.source_text_id == text_id
