import pytest
from hypothesis import given, strategies as st

from lgw.errors import LgwError, MalformedTag, NestedTag, OverlappingOccurrences
from lgw.evaluator import (
    GoldAnnotation,
    annotate,
    f_measure,
    format_report,
    parse_gold,
    render_gold,
    score,
    tagged_region,
)
from lgw.matcher import LONGEST_ONLY, Occurrence, apply_grammar

GOLD = (
    'A <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Sra. Joana da Silva</EM> falou com '
    'o <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Dr. Pedro</EM> em '
    '<EM CATEG="LOCAL" TIPO="CIDADE">Lisboa</EM>.'
)


def test_parse_gold_offsets_and_fields():
    plain, anns = parse_gold(GOLD)
    assert plain == "A Sra. Joana da Silva falou com o Dr. Pedro em Lisboa."
    assert [plain[a.start : a.end] for a in anns] == [
        "Sra. Joana da Silva",
        "Dr. Pedro",
        "Lisboa",
    ]
    assert anns[0].category == "PESSOA" and anns[0].subtype == "INDIVIDUAL"
    assert anns[2].category == "LOCAL" and anns[2].subtype == "CIDADE"


def test_parse_gold_round_trip_exact():
    plain, anns = parse_gold(GOLD)
    assert render_gold(plain, anns) == GOLD


def test_parse_gold_stray_angle_bracket_passes_through():
    plain, anns = parse_gold("a < b e <EM CATEG=\"X\" TIPO=\"Y\">c</EM>")
    assert plain == "a < b e c"
    assert anns == [GoldAnnotation(8, 9, "X", "Y")]


@pytest.mark.parametrize(
    "bad,exc",
    [
        ('<EM CATEG="A">x</EM>', MalformedTag),  # missing TIPO
        ("x</EM>", MalformedTag),
        ('<EM CATEG="A" TIPO="B">x', MalformedTag),  # unclosed
        ('<EM CATEG="A" TIPO="B"><EM CATEG="C" TIPO="D">x</EM></EM>', NestedTag),
    ],
)
def test_parse_gold_errors(bad, exc):
    with pytest.raises(exc):
        parse_gold(bad)


_plain_chunk = st.text(
    st.characters(blacklist_characters="<", blacklist_categories=("Cs",)), max_size=8
)
_name = st.text(st.sampled_from("ABCDE"), min_size=1, max_size=6)


@given(st.lists(st.tuples(_plain_chunk, _plain_chunk, _name, _name), max_size=6), _plain_chunk)
def test_render_parse_round_trip(chunks, tail):
    plain_parts = []
    anns = []
    pos = 0
    for gap, body, categ, tipo in chunks:
        plain_parts.append(gap)
        pos += len(gap)
        plain_parts.append(body)
        anns.append(GoldAnnotation(pos, pos + len(body), categ, tipo))
        pos += len(body)
    plain_parts.append(tail)
    plain = "".join(plain_parts)
    xml = render_gold(plain, anns)
    got_plain, got_anns = parse_gold(xml)
    assert got_plain == plain
    assert got_anns == anns


_xml_piece = st.sampled_from(
    ["<", "<EM", "</EM>", "<EMAIL>", '<EM CATEG="A" TIPO="B">', "a", "E", "M", " "]
)


@given(st.lists(_xml_piece, max_size=10).map("".join), st.data())
def test_render_gold_refuses_what_it_cannot_round_trip(plain, data):
    # disjoint, possibly empty or touching, annotations
    cuts = sorted(data.draw(st.lists(st.integers(0, len(plain)), max_size=6)))
    anns = [GoldAnnotation(s, e, "PESSOA", "X") for s, e in zip(cuts[::2], cuts[1::2])]
    try:
        xml = render_gold(plain, anns)
    except LgwError:
        assert "<EM" in plain or "</EM>" in plain
        return
    assert parse_gold(xml) == (plain, anns)


# --- projecting grammar output to annotations --------------------------------


def test_tagged_region_inside_merged():
    occ = Occurrence(2, 21, "Sra. <NOME>Joana da Silva</NOME>", "G",
                     ((7, "<NOME>"), (21, "</NOME>")))
    assert tagged_region(occ) == (7, 21)


@pytest.mark.parametrize(
    "events, region",
    [
        # an open tag without a close: the whole span
        (((2, "[T]"), (7, "<NOME>")), (2, 21)),
        # the close before the open: the whole span
        (((7, "</NOME>"), (21, "<NOME>")), (2, 21)),
        # one output holding both tags: the empty region at its offset
        (((2, "[T]"), (7, "<NOME></NOME>")), (7, 7)),
        # ... and with the close first in it: the whole span
        (((2, "[T]"), (7, "</NOME><NOME>")), (2, 21)),
    ],
)
def test_tagged_region_reads_the_offsets_of_the_tag_outputs(events, region):
    occ = Occurrence(2, 21, "", "G", events)
    assert tagged_region(occ) == region


def test_tagged_region_whole_span_fallback():
    occ = Occurrence(5, 9, "abcd", "G")
    assert tagged_region(occ) == (5, 9)


def test_annotate_g1(g1, lexicon):
    text = "A Sra. Joana da Silva falou com o Dr. Pedro."
    occs = apply_grammar(g1, text, lexicon, LONGEST_ONLY)
    out = annotate(text, occs, "PESSOA", "INDIVIDUAL")
    assert out == (
        'A Sra. <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Joana da Silva</EM> '
        'falou com o Dr. <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Pedro</EM>.'
    )


def test_annotate_rejects_overlaps():
    occs = [Occurrence(0, 5, "aaaaa", "G"), Occurrence(3, 8, "bbbbb", "G")]
    with pytest.raises(OverlappingOccurrences):
        annotate("x" * 10, occs, "PESSOA", "INDIVIDUAL")


# --- scoring -----------------------------------------------------------------


def _ann(s, e, categ="PESSOA", tipo="INDIVIDUAL"):
    return GoldAnnotation(s, e, categ, tipo)


def test_score_strict_span():
    gold = [_ann(0, 5), _ann(10, 15), _ann(20, 25)]
    sys = [_ann(0, 5), _ann(10, 14), _ann(30, 35)]
    rep = score(sys, gold, "PESSOA")
    assert (rep.tp, rep.n_sys, rep.n_gold) == (1, 3, 3)
    d = rep.rounded()
    assert d["precision"] == 33.33 and d["recall"] == 33.33


def test_score_filters_category_and_subtype():
    gold = [_ann(0, 5), _ann(10, 15, "LOCAL", "CIDADE"), _ann(20, 25, "PESSOA", "GRUPO")]
    sys = [_ann(0, 5), _ann(10, 15, "LOCAL", "CIDADE"), _ann(20, 25, "PESSOA", "GRUPO")]
    by_cat = score(sys, gold, "PESSOA")
    assert by_cat.n_gold == 2  # both PESSOA subtypes
    by_sub = score(sys, gold, "PESSOA", "INDIVIDUAL")
    assert (by_sub.tp, by_sub.n_gold) == (1, 1)


def test_score_empty_sides():
    rep = score([], [_ann(0, 2)], "PESSOA")
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f_measure == 0.0
    rep2 = score([], [], "PESSOA")
    assert (rep2.precision, rep2.recall, rep2.f_measure) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "p,r,f",
    [
        (79.0, 64.08, 70.76),
        (79.75, 74.18, 76.86),
        (59.06, 55.22, 57.07),
        (81.0, 60.0, 68.94),
    ],
)
def test_f_measure_published_style_values(p, r, f):
    # reference figures are printed to 2 decimals, hence the 0.01 slack
    assert f_measure(p, r) == pytest.approx(f, abs=0.01)


@given(st.floats(0.01, 100), st.floats(0.01, 100))
def test_f_between_min_and_max(p, r):
    f = f_measure(p, r)
    assert min(p, r) <= f + 1e-9
    assert f <= max(p, r) + 1e-9


@given(st.floats(0, 100))
def test_f_equals_p_when_p_equals_r(p):
    assert f_measure(p, p) == pytest.approx(p)


@given(
    st.lists(st.tuples(st.integers(0, 20), st.integers(1, 5)), max_size=8),
    st.lists(st.tuples(st.integers(0, 20), st.integers(1, 5)), max_size=8),
)
def test_precision_recall_duality(a, b):
    sys = [_ann(s, s + l) for s, l in a]
    gold = [_ann(s, s + l) for s, l in b]
    assert score(sys, gold, "PESSOA").precision == pytest.approx(
        score(gold, sys, "PESSOA").recall
    )
    rep = score(sys, gold, "PESSOA")
    assert rep.tp <= min(rep.n_sys, rep.n_gold)


def test_format_report_plain_and_bold():
    rep = score([_ann(0, 2)], [_ann(0, 2)], "PESSOA", "INDIVIDUAL")
    plain = format_report(rep, "PESSOA", "INDIVIDUAL")
    assert "PESSOA(INDIVIDUAL)" in plain
    assert "precision  100.00" in plain
    assert "\x1b[1m" not in plain
    assert "\x1b[1m" in format_report(rep, "PESSOA", "INDIVIDUAL", bold=True)
