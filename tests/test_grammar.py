import re

import pytest
from hypothesis import given, strategies as st
from oracles import oracle_compile_filter

from lgw import data
from lgw.errors import (
    DuplicateBoxId,
    EdgeToUnknownBox,
    GraphSyntaxError,
    LgwError,
    MissingInitialOrFinal,
    RecursiveCall,
    UnresolvedSubgraph,
)
from lgw.grammar import (
    Diagnostic,
    Graph,
    GraphBox,
    InputAtom,
    LexicalMask,
    MorphFilter,
    compile_filter,
    load_grammar_set,
    parse_graph,
    render_graph,
    validate,
)

MINIMAL = """\
graph Minimo
box b "x"
init i
final f
edge i b
edge b f
"""


def test_parse_minimal_graph():
    g = parse_graph(MINIMAL)
    assert g.name == "Minimo"
    assert [b.id for b in g.boxes] == ["b"]
    assert g.boxes[0].alternatives == ((InputAtom.lit("x"),),)
    assert g.edges == frozenset({("i", "b"), ("b", "f")})


def test_parse_shipped_g1():
    g = parse_graph(data.grammar_text("ReconheceFormasDeTratamento"))
    atoms = [a for b in g.boxes for alt in b.alternatives for a in alt]
    literals = {a.literal for a in atoms if a.kind == "literal"}
    assert {"Sr.", "Sra.", "Dr."} <= literals
    masks = [a for a in atoms if a.kind == "mask"]
    assert any(a.mask.builtin == "PRE" and a.filter.pattern == ".." for a in masks)
    calls = {a.graph_name for a in atoms if a.kind == "call"}
    assert calls == {"Preposicao", "Abreviacoes"}
    outputs = {b.output for b in g.boxes if b.output}
    assert outputs == {"<NOME>", "</NOME>"}


def test_parse_shipped_g2():
    g = parse_graph(data.grammar_text("ReconheceNomesCompostos"))
    masks = [
        a.mask
        for b in g.boxes
        for alt in b.alternatives
        for a in alt
        if a.kind == "mask"
    ]
    assert LexicalMask(pos="N", codes=frozenset({"PR"})) in masks
    assert LexicalMask(codes=frozenset({"Hum"})) in masks


def test_every_sample_mask_symbol_parses_uniquely():
    kinds = {
        "<PRE>": ("mask", None),
        "<N+PR>": ("mask", None),
        "<Hum>": ("mask", None),
        "<E>": ("epsilon", None),
    }
    for symbol, (kind, _) in kinds.items():
        g = parse_graph(f"graph T\nbox b {symbol}\ninit i\nfinal f\nedge i b\nedge b f")
        (atom,) = g.boxes[0].alternatives[0]
        assert atom.kind == kind


@pytest.mark.parametrize(
    "text,exc",
    [
        ("graph G\nbox b \"x\"\nbox b \"y\"\ninit i\nfinal f\nedge i b\nedge b f", DuplicateBoxId),
        ("graph G\nbox b \"x\"\nedge i b", MissingInitialOrFinal),
        ("graph G\nbox b \"x\"\ninit i\nfinal f\nedge i zz", EdgeToUnknownBox),
        ("graph G\nbox b <E> \"x\"\ninit i\nfinal f\nedge i b", GraphSyntaxError),
        ("graph G\nbox b \"unterminated\ninit i\nfinal f", GraphSyntaxError),
        ("graph G\nbox i \"x\"\ninit i\nfinal f\nedge i f", GraphSyntaxError),
        ("box b \"x\"\ninit i\nfinal f\nedge i b\nedge b f", GraphSyntaxError),
        ("graph G\nbox x <MOT><<[z-a]>>\ninit i\nfinal f", GraphSyntaxError),
        ("graph G\nbox x <MOT><<a{\u0663}>>\ninit i\nfinal f", GraphSyntaxError),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_graph(text)


# Every message the box-line scanner gives, with the line it names.  An
# atom's error comes before any alternative's, the first alternative's before
# a later one's, and an earlier atom's before a later atom's.
@pytest.mark.parametrize(
    "box,message",
    [
        ('b "Rio', "unterminated string literal"),
        ('b "Rio" ; <N+PR', "unterminated mask"),
        ("b <MOT><<..", "unterminated morphological filter"),
        ('b "x" ; ""', "empty literal"),
        ('b "Rio" " \t"', "literal without a token"),
        ("b <E><<..>>", "<E> cannot carry a filter"),
        ('b <E> "x"', "<E> must be alone in its alternative"),
        ('b "x" ; "y" <E>', "<E> must be alone in its alternative"),
        ("b <MOT><<a{>>", "unexpected '{' at position 1 in filter 'a{'"),
        ("b <MOT><<>>", "empty morphological filter"),
        ("b <N++PR>", "empty segment in mask <N++PR>"),
        ('b "x" ; :', "missing subgraph name after ':'"),
        ("b :-x", "missing subgraph name after ':'"),
        ('"x"', "missing box id"),
        ('b "x" ?', "unexpected character '?'"),
        ('b "x" <MOT>>', "unexpected character '>'"),
        ('b out="<A>" "x" é', "unexpected character 'é'"),
        ('b "x" ; ; "y"', "empty alternative"),
        ('b "x" ;', "empty alternative"),
        ('b ; "x"', "empty alternative"),
        ('b ; "x" ?', "unexpected character '?'"),
        ('b ; "x" ""', "empty literal"),
        ('b "" "Rio', "empty literal"),
        ('b <E> "x" ;', "<E> must be alone in its alternative"),
        ('b ; <E> "x"', "empty alternative"),
    ],
)
def test_box_line_diagnostics(tmp_path, capsys, box, message):
    from lgw.cli import main

    text = f"graph G\n# a comment\nbox {box}\ninit i\nfinal f\nedge i b\nedge b f\n"
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph(text)
    assert (e.value.line_no, str(e.value)) == (3, f"line 3: {message}")
    path = tmp_path / "g.lg"
    path.write_text(text, encoding="utf-8")
    (tmp_path / "c.txt").write_text("Rio x y\n", encoding="utf-8")
    argv = ["apply", "--grammar", str(path), "--out", str(tmp_path / "out"), str(tmp_path / "c.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"lgw apply: error: {path}: line 3: {message}\n")
    assert not (tmp_path / "out").exists()


def test_box_line_separators_are_any_whitespace():
    # the scanner's whitespace is str.isspace's, between atoms and around ';'
    g = parse_graph('graph G\nbox b "Rio" ; "Porto　Alegre"\x1c<MOT>\x85;:S\n'
                    "init i\nfinal f\nedge i b\nedge b f\n")
    assert g.boxes[0].alternatives == (
        (InputAtom.lit("Rio"),),
        (InputAtom.lit("Porto　Alegre"), InputAtom.masked(LexicalMask(builtin="MOT"))),
        (InputAtom.call("S"),),
    )


def test_syntax_error_carries_line_number():
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph("graph G\nbox b ???\ninit i\nfinal f")
    assert e.value.line_no == 2


def test_a_line_ends_only_at_a_line_break():
    # str.splitlines would also end a line at the form feed and at "\x85"
    text = MINIMAL.replace("\n", "\n# see\x0cpage 2\n", 1).replace('"x"', '"a\x85b"')
    assert parse_graph(text).boxes[0].alternatives == ((InputAtom.lit("a\x85b"),),)
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph("graph G\r\n\x0c\rbox b ???\ninit i\nfinal f")
    assert e.value.line_no == 3


def test_unterminated_output_literal_names_its_line():
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph('graph G\nbox b out="<x <PRE>\ninit i\nfinal f')
    assert str(e.value) == "line 2: unterminated string literal"


def test_final_id_with_a_space_is_rejected():
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph('graph G\nbox b "x"\ninit i\nfinal f g\nedge i b')
    assert str(e.value) == "line 4: bad final id 'f g'"


@pytest.mark.parametrize("literal", ['""', '" "', '"   "', '"\t"'])
def test_literal_without_a_token_is_rejected(literal):
    # a literal must hold a token; a blank one could never match
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph(f'graph G\n\nbox b "Rio" {literal} "Branco"\ninit i\nfinal f')
    assert e.value.line_no == 3


# --- morphological filters ---------------------------------------------------


def test_filter_two_dots_means_at_least_two():
    f = compile_filter("..")
    assert f.fullmatch("ab")
    assert f.fullmatch("abc")
    assert not f.fullmatch("a")


def test_filter_explicit_quantifier_is_exact():
    f = compile_filter(".{1,1}")
    assert f.fullmatch("a")
    assert not f.fullmatch("ab")


def test_filter_char_class_and_star():
    f = compile_filter("[AB]x*")
    assert f.fullmatch("A")
    assert f.fullmatch("Bxxx")
    assert not f.fullmatch("Cx")


def test_filter_literal_is_escaped():
    f = compile_filter("a(b")
    assert f.fullmatch("a(b")
    assert f.fullmatch("a(bc")  # trailing literal gets the implicit .*


@pytest.mark.parametrize(
    "bad", ["", "[ab", "*a", "a{2,", "[]", "[z-a]", "a{3,1}", "[\\]", "a{99999999999}",
            # re reads only ASCII digits as a repeat count
            "a{\u0663}", "a{1,\u0663}"]
)
def test_filter_rejects_bad_patterns(bad):
    with pytest.raises(ValueError):
        compile_filter(bad)


_FILTER_SYMBOLS = [*".[]*+{}0123,abzA^-\\(|?", "{2}", "{1,3}", "{3,1}", "[a-z]", "[z-a]", "[]"]


@given(st.lists(st.sampled_from(_FILTER_SYMBOLS), max_size=8).map("".join))
def test_filter_translation_agrees_with_the_original(pattern):
    try:
        want = oracle_compile_filter(pattern).pattern
    except (ValueError, re.error):
        # both reject it; the original let re's own error escape
        with pytest.raises(ValueError):
            compile_filter(pattern)
    else:
        assert compile_filter(pattern).pattern == want


# --- grammar sets ------------------------------------------------------------


def test_load_grammar_set_resolves_calls():
    gs = load_grammar_set(
        [(n, data.grammar_text(n)) for n in ("ReconheceFormasDeTratamento", "Preposicao", "Abreviacoes")],
        "ReconheceFormasDeTratamento",
    )
    assert set(gs.graphs) == {"ReconheceFormasDeTratamento", "Preposicao", "Abreviacoes"}


def test_load_grammar_set_rejects_two_cycle():
    a = 'graph A\nbox b :B\ninit i\nfinal f\nedge i b\nedge b f'
    b = 'graph B\nbox b :A\ninit i\nfinal f\nedge i b\nedge b f'
    with pytest.raises(RecursiveCall):
        load_grammar_set([("A", a), ("B", b)], "A")


def test_recursive_call_names_the_first_cycle_in_call_order():
    def calling(name, *callees):
        boxes = "".join(f"box b{k} :{c}\n" for k, c in enumerate(callees))
        edges = "".join(f"edge i b{k}\nedge b{k} f\n" for k in range(len(callees)))
        return name, f"graph {name}\n{boxes}init i\nfinal f\n{edges}"

    files = [
        calling("D", "D"),
        calling("C", "A"),
        calling("B", "C"),
        calling("A", "D", "B"),
    ]
    with pytest.raises(RecursiveCall) as e:
        load_grammar_set(files, "A")
    assert str(e.value) == "A: recursive subgraph call: A -> B -> C -> A"
    assert e.value.cycle == ("A", "B", "C", "A")


def test_load_grammar_set_rejects_a_graph_defined_twice():
    with pytest.raises(LgwError) as e:
        load_grammar_set([("a.lg", MINIMAL), ("b.lg", MINIMAL)], "Minimo")
    assert str(e.value) == "graph 'Minimo' is defined in both a.lg and b.lg"
    assert e.value.exit_code == 2


def test_load_grammar_set_names_the_file_of_a_parse_error():
    with pytest.raises(GraphSyntaxError) as e:
        load_grammar_set([("a.lg", MINIMAL), ("b.lg", "graph B\nbox b ?\n")], "Minimo")
    assert str(e.value) == "b.lg: line 2: unexpected character '?'"
    assert e.value.line_no == 2


def test_load_grammar_set_main_defaults_to_the_first_files_graph():
    names = ("Preposicao", "ReconheceFormasDeTratamento", "Abreviacoes")
    gs = load_grammar_set([(n, data.grammar_text(n)) for n in names])
    assert gs.main == "Preposicao"


def test_load_grammar_set_unknown_main():
    with pytest.raises(UnresolvedSubgraph) as e:
        load_grammar_set([("A", MINIMAL)], "Z")
    assert str(e.value) == "unresolved subgraph: Z"  # no file holds the name


def test_load_grammar_set_unresolved_call():
    a = 'graph A\nbox b :Missing\ninit i\nfinal f\nedge i b\nedge b f'
    with pytest.raises(UnresolvedSubgraph) as e:
        load_grammar_set([("a.lg", MINIMAL), ("A.lg", a)], "A")
    assert str(e.value) == "A.lg: unresolved subgraph: Missing"
    assert e.value.name == "Missing"


# --- validation --------------------------------------------------------------


def test_validate_shipped_samples_clean():
    for name in data.GRAMMAR_NAMES:
        assert validate(parse_graph(data.grammar_text(name))) == []


def test_validate_orphan_box():
    g = parse_graph("graph G\nbox b \"x\"\nbox orfao \"y\"\ninit i\nfinal f\nedge i b\nedge b f")
    diags = validate(g)
    assert [d.code for d in diags] == ["Unreachable"]
    assert "orfao" in diags[0].detail


def test_validate_final_has_successor():
    g = parse_graph("graph G\nbox b \"x\"\ninit i\nfinal f\nedge i b\nedge b f\nedge f b")
    assert "FinalHasSuccessor" in [d.code for d in validate(g)]


def test_validate_box_that_cannot_reach_final():
    g = parse_graph('graph G\nbox b "x"\nbox beco "y"\ninit i\nfinal f\nedge i b\nedge b f\nedge i beco')
    assert validate(g) == [Diagnostic("warning", "NotCoReachable", "box 'beco' cannot reach final")]


def test_validate_unreachable_final():
    g = parse_graph('graph G\nbox b "x"\ninit i\nfinal f\nedge i b')
    assert validate(g) == [
        Diagnostic("warning", "NotCoReachable", "box 'b' cannot reach final"),
        Diagnostic("error", "FinalUnreachable", "final box 'f' is unreachable"),
    ]


def test_validate_rejects_empty_match():
    g = parse_graph("graph G\nbox b <E>\ninit i\nfinal f\nedge i b\nedge b f")
    assert "EmptyMatch" in [d.code for d in validate(g)]


# --- round trip --------------------------------------------------------------

_word = st.text(st.characters(whitelist_categories=("Ll", "Lu")), min_size=1, max_size=6)
_literal = st.text(
    st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters="\n"),
    min_size=1,
    max_size=8,
).filter(lambda s: not s.isspace())
_codes = st.frozensets(
    st.sampled_from(["PR", "Hum", "Abrev", "Conc", "XY"]), min_size=1, max_size=3
)
# every field is given: st.builds draws a named tuple's defaulted fields too
_mask = st.one_of(
    st.builds(LexicalMask, pos=st.none(), codes=st.just(frozenset()),
              builtin=st.sampled_from(["PRE", "MOT"])),
    st.builds(LexicalMask, pos=st.sampled_from(["N", "V", "A"]), codes=_codes, builtin=st.none()),
    st.builds(LexicalMask, pos=st.none(), codes=_codes, builtin=st.none()),
)
_filter = st.one_of(st.none(), st.sampled_from([MorphFilter(".."), MorphFilter(".{1,1}"), MorphFilter("[AB].*")]))
_atom = st.one_of(
    st.builds(InputAtom.lit, _literal),
    st.builds(InputAtom.masked, _mask, _filter),
    st.builds(InputAtom.call, st.sampled_from(["Sub1", "Sub2"])),
)
_alt = st.one_of(
    st.lists(_atom, min_size=1, max_size=3).map(tuple),
    st.just((InputAtom.eps(),)),
)
_box_ids = st.lists(
    st.text(st.sampled_from("abcdefg"), min_size=1, max_size=3),
    min_size=1,
    max_size=4,
    unique=True,
)


@st.composite
def graphs(draw):
    ids = draw(_box_ids)
    boxes = tuple(
        GraphBox(
            bid,
            tuple(draw(st.lists(_alt, min_size=1, max_size=2))),
            draw(st.one_of(st.none(), st.just("<NOME>"), st.just("</NOME>"))),
        )
        for bid in ids
    )
    nodes = list(ids) + ["ini", "fin"]
    edges = set()
    edges.add(("ini", ids[0]))
    edges.add((ids[-1], "fin"))
    for a in nodes:
        for b in nodes:
            if draw(st.booleans()) and draw(st.booleans()):
                edges.add((a, b))
    return Graph("Rand", boxes, frozenset(edges), "ini", "fin")


@given(graphs())
def test_render_parse_round_trip(g):
    assert parse_graph(render_graph(g)) == g
