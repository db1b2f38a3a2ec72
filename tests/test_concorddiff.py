import html
import re

import pytest
from hypothesis import example, given, strategies as st

from lgw.concorddiff import (
    Action,
    DiffClass,
    Relation,
    align,
    diff_counts,
    infer_relation,
    recommend,
    render_html,
)
from lgw.concordance import Concordance, ConcordanceLine, build_concordance
from lgw.errors import TextMismatch
from lgw.matcher import LONGEST_ONLY, apply_grammar

from oracles import make_concordance, oracle_align, oracle_classes


def _cnc(triples, grammar="G", text_id="t"):
    return make_concordance(triples, grammar, text_id)


def _fig2_concordances(fig2):
    corpus, gx, gy = fig2
    cx = build_concordance(
        apply_grammar(gx, corpus, _EMPTY_LEX, LONGEST_ONLY), corpus,
        grammar="FigX", text_id="t",
    )
    cy = build_concordance(
        apply_grammar(gy, corpus, _EMPTY_LEX, LONGEST_ONLY), corpus,
        grammar="FigY", text_id="t",
    )
    return cx, cy


from lgw.lexicon import parse_lexicon

_EMPTY_LEX = parse_lexicon("")


# --- alignment and classes ---------------------------------------------------


def test_fig2_classes(fig2):
    cx, cy = _fig2_concordances(fig2)
    diff = align(cx, cy)
    by = {(d.side, d.line.match): d.cls for d in diff}
    assert by[("x", "<NOME>Michael Jackson</NOME>")] is DiffClass.COMMON
    assert by[("y", "<NOME>Michael Jackson</NOME>")] is DiffClass.COMMON
    assert by[("x", "<NOME>Luther King</NOME>")] is DiffClass.PARTIAL_OVERLAP
    assert by[("y", "<NOME>Luther</NOME>")] is DiffClass.PARTIAL_OVERLAP
    assert by[("x", "<NOME>Antonio Ricardo</NOME>")] is DiffClass.UNIQUE_X
    assert by[("x", "<NOME>Chico Buarque</NOME>")] is DiffClass.UNIQUE_X
    assert diff_counts(diff) == (1, 0, 2, 2, 0)


def test_align_orders_by_position_x_first(fig2):
    cx, cy = _fig2_concordances(fig2)
    diff = align(cx, cy)
    starts = [d.line.start for d in diff]
    assert starts == sorted(starts)
    # within the Michael Jackson component the X line comes first
    mj = [d.side for d in diff if d.line.match == "<NOME>Michael Jackson</NOME>"]
    assert mj == ["x", "y"]


def test_align_rejects_different_texts():
    with pytest.raises(TextMismatch):
        align(_cnc([], text_id="a"), _cnc([], text_id="b"))


def test_output_conflict_class():
    cx = _cnc([(0, 5, "<NOME>abc</NOME>")])
    cy = _cnc([(0, 5, "abc")])
    diff = align(cx, cy)
    assert [d.cls for d in diff] == [DiffClass.OUTPUT_CONFLICT] * 2
    assert diff_counts(diff) == (0, 2, 0, 0, 0)


_triples = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 6), st.sampled_from("abc")).map(
        lambda t: (t[0], t[0] + t[1], t[2])
    ),
    max_size=8,
)


@given(_triples, _triples)
def test_classes_agree_with_interval_oracle(tx, ty):
    cx, cy = _cnc(tx), _cnc(ty)
    diff = align(cx, cy)
    got_x = [d.cls.value.replace("_overlap", "").replace("unique_x", "unique")
             for d in sorted(
                 (d for d in diff if d.side == "x"),
                 key=lambda d: (d.line.start, d.line.end, d.line.match))]
    got_y = [d.cls.value.replace("_overlap", "").replace("unique_y", "unique")
             for d in sorted(
                 (d for d in diff if d.side == "y"),
                 key=lambda d: (d.line.start, d.line.end, d.line.match))]
    got_x = ["conflict" if c == "output_conflict" else c for c in got_x]
    got_y = ["conflict" if c == "output_conflict" else c for c in got_y]
    want_x, want_y = oracle_classes(
        sorted({t for t in tx}), sorted({t for t in ty})
    )
    assert got_x == want_x
    assert got_y == want_y


# file order, duplicates, zero-length, touching and identical spans
_raw_triples = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 5), st.sampled_from("abc")).map(
        lambda t: (t[0], t[0] + t[1], t[2])
    ),
    max_size=10,
)


def _raw_cnc(triples):
    lines = [ConcordanceLine(s, e, "", m, "") for s, e, m in triples]
    return Concordance(lines, source_text_id="t")


@given(_raw_triples, _raw_triples)
@example(
    [(9, 12, "b"), (3, 6, "a"), (3, 6, "a"), (6, 6, "c"), (6, 9, "a")],
    [(6, 9, "b"), (0, 3, "a"), (6, 6, "c"), (3, 6, "a"), (4, 4, "a")],
)
# an X line overlapping no Y line, nested in the range of a longer X line
# that holds two Y lines: a component inside another's range comes after it
@example([(4, 5, "c"), (0, 10, "a")], [(6, 8, "b"), (1, 3, "a")])
def test_align_sequence_agrees_with_all_pairs_oracle(tx, ty):
    diff = align(_raw_cnc(tx), _raw_cnc(ty))
    got = [(d.side, d.line.start, d.line.end, d.line.match, d.cls.value) for d in diff]
    assert got == oracle_align(tx, ty)


@given(_raw_triples, _raw_triples)
def test_infer_relation_reuses_a_precomputed_diff(tx, ty):
    cx, cy = _raw_cnc(tx), _raw_cnc(ty)
    assert infer_relation(cx, cy, align(cx, cy)) == infer_relation(cx, cy)


@given(_triples, _triples)
def test_swap_symmetry(tx, ty):
    cx, cy = _cnc(tx), _cnc(ty)
    c1 = diff_counts(align(cx, cy))
    c2 = diff_counts(align(cy, cx))
    assert (c1.common, c1.conflict, c1.partial) == (c2.common, c2.conflict, c2.partial)
    assert (c1.unique_x, c1.unique_y) == (c2.unique_y, c2.unique_x)


@given(_triples, _triples)
def test_every_line_appears_once(tx, ty):
    cx, cy = _cnc(tx), _cnc(ty)
    diff = align(cx, cy)
    assert sorted(
        (d.line.start, d.line.end, d.line.match) for d in diff if d.side == "x"
    ) == sorted((s, e, m) for s, e, m in set(tx))
    c = diff_counts(diff)
    assert 2 * c.common + c.conflict + c.partial + c.unique_x + c.unique_y == len(diff)


# --- relation inference ------------------------------------------------------


def test_relation_equal_self(fig2):
    cx, _ = _fig2_concordances(fig2)
    rep = infer_relation(cx, cx)
    assert rep.relation is Relation.EQUAL
    assert rep.action is Action.KEEP_EITHER


@pytest.mark.parametrize(
    "tx,ty,relation,action",
    [
        # same spans and outputs
        ([(0, 2, "a")], [(0, 2, "a")], Relation.EQUAL, Action.KEEP_EITHER),
        # same spans, outputs differ
        ([(0, 2, "<NOME>a</NOME>")], [(0, 2, "a")],
         Relation.EQUAL_DIFFERENT_OUTPUTS, Action.ANALYZE_AMBIGUITY),
        # strict containment either way
        ([(0, 2, "a")], [(0, 2, "a"), (5, 7, "b")], Relation.X_SUBSET_OF_Y, Action.KEEP_Y),
        ([(0, 2, "a"), (5, 7, "b")], [(5, 7, "b")], Relation.Y_SUBSET_OF_X, Action.KEEP_X),
        # overlapping sets, neither contains the other
        ([(0, 2, "a"), (5, 7, "b")], [(0, 2, "a"), (9, 11, "c")],
         Relation.INTERSECTING, Action.KEEP_BOTH),
        # one side empty
        ([], [(0, 2, "a")], Relation.DISJOINT_X_EMPTY, Action.KEEP_Y),
        ([(0, 2, "a")], [], Relation.DISJOINT_Y_EMPTY, Action.KEEP_X),
        # pairwise overlapping spans, X always longer / Y always longer / mixed
        ([(0, 11, "Luther King")], [(0, 6, "Luther")],
         Relation.SIMILAR_OVERLAP, Action.KEEP_LONGER_X),
        ([(0, 6, "Luther")], [(0, 11, "Luther King")],
         Relation.SIMILAR_OVERLAP, Action.KEEP_LONGER_Y),
        ([(0, 11, "a"), (20, 22, "b")], [(0, 6, "c"), (19, 30, "d")],
         Relation.SIMILAR_OVERLAP, Action.ANALYZE_AMBIGUITY),
        # disjoint as sets, some spans touch
        ([(0, 4, "a"), (10, 14, "b")], [(2, 6, "c")],
         Relation.DISJOINT_WITH_SOME_OVERLAP, Action.KEEP_BOTH),
        # fully disjoint
        ([(0, 2, "a")], [(5, 7, "b")], Relation.DISJOINT, Action.KEEP_BOTH),
        # a same-span pair touches, as its output-conflict class says,
        # even when the span is empty
        ([(5, 5, "a"), (10, 12, "b")], [(5, 5, "c")],
         Relation.DISJOINT_WITH_SOME_OVERLAP, Action.KEEP_BOTH),
    ],
)
def test_relation_table(tx, ty, relation, action):
    rep = infer_relation(_cnc(tx, "GX"), _cnc(ty, "GY"))
    assert rep.relation is relation
    assert rep.action is action


def test_fig2_relation(fig2):
    cx, cy = _fig2_concordances(fig2)
    rep = infer_relation(cx, cy)
    assert rep.relation is Relation.INTERSECTING
    assert rep.action is Action.KEEP_BOTH


@given(_triples, _triples)
def test_relation_total_and_consistent(tx, ty):
    rep = infer_relation(_cnc(tx), _cnc(ty))
    assert isinstance(rep.relation, Relation)
    assert isinstance(rep.action, Action)
    # swapping sides mirrors the directional outcomes
    mirror = infer_relation(_cnc(ty), _cnc(tx))
    pairs = {
        Action.KEEP_X: Action.KEEP_Y,
        Action.KEEP_Y: Action.KEEP_X,
        Action.KEEP_LONGER_X: Action.KEEP_LONGER_Y,
        Action.KEEP_LONGER_Y: Action.KEEP_LONGER_X,
    }
    assert mirror.action == pairs.get(rep.action, rep.action)


def test_recommend_mentions_grammars_and_counts():
    rep = infer_relation(_cnc([(0, 2, "a")], "GA"), _cnc([(5, 7, "b")], "GB"))
    text = recommend(rep)
    assert "GA" in text and "GB" in text
    assert "unique_x=1" in text and "unique_y=1" in text
    assert rep.to_json_dict()["recommendation"] == text


# --- HTML rendering ----------------------------------------------------------


def test_render_html_rows_and_colors(fig2):
    cx, cy = _fig2_concordances(fig2)
    diff = align(cx, cy)
    out = render_html(diff)
    data_rows = out.count("<tr style=")
    uniques = sum(
        1 for d in diff if d.cls in (DiffClass.UNIQUE_X, DiffClass.UNIQUE_Y)
    )
    assert data_rows == len(diff) + uniques == 8
    assert out.count("background:#FFD7D7") == 4  # X rows
    # Y rows plus one filler per unique X line
    assert out.count("background:#D7FFD7") == 2 + 2
    assert "color:#0000CC" in out and "color:#CC0000" in out
    assert "color:#007700" in out and "#770077" not in out


def test_render_html_escapes_markup():
    diff = align(_cnc([(0, 5, "<NOME>a</NOME>")]), _cnc([]))
    out = render_html(diff)
    assert "&lt;NOME&gt;" in out
    assert "<NOME>" not in out


_cell_text = st.text(
    st.one_of(
        st.sampled_from("&<>\"'\\\t\n"), st.characters(blacklist_categories=("Cs",))
    ),
    max_size=8,
)


@given(st.lists(st.tuples(_cell_text, _cell_text, _cell_text), max_size=4))
@example([("it's", 'a "b"', "c & d"), ("<x>", "plain", "\\\t\n")])
def test_render_html_cells_equal_html_escape(fields):
    lines = [ConcordanceLine(2 * i, 2 * i + 1, l, m, r) for i, (l, m, r) in enumerate(fields)]
    diff = align(Concordance(lines, source_text_id="t"), Concordance([], source_text_id="t"))
    cells = re.findall(
        r'<td>\d+-\d+</td><td class="l">(.*?)</td><td>(.*?)</td><td>(.*?)</td></tr>',
        render_html(diff),
        re.S,
    )
    assert cells == [tuple(html.escape(f) for f in row) for row in fields]


def test_render_html_empty_diff():
    out = render_html([])
    assert out.startswith("<!DOCTYPE html>")
    assert "<tr style=" not in out
