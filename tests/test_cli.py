import datetime
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from lgw import data
from lgw.cli import _non_overlapping, main
from lgw.concordance import parse_concordance
from lgw.matcher import Occurrence
from oracles import oracle_non_overlapping

CORPUS = (
    "A Sra. Joana da Silva falou com o Dr. Pedro.\n"
    "A rainha Isabel II encontrou Marilyn Monroe em Lisboa.\n"
)

G1_FILES = ("ReconheceFormasDeTratamento", "Preposicao", "Abreviacoes")


@pytest.fixture()
def ws(tmp_path):
    """Workspace with the shipped grammars, lexicons and a small corpus."""
    for name in data.GRAMMAR_NAMES:
        (tmp_path / f"{name}.lg").write_text(data.grammar_text(name), encoding="utf-8")
    for name in data.LEXICON_NAMES:
        (tmp_path / f"{name}.dic").write_text(data.lexicon_text(name), encoding="utf-8")
    (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    return tmp_path


def _apply(ws, out, grammar_files, cnc, extra=()):
    argv = ["apply", "--out", str(out), "--cnc", cnc]
    for g in grammar_files:
        argv += ["--grammar", str(ws / f"{g}.lg")]
    for l in ("portugues", "ingles"):
        argv += ["--lexicon", str(ws / f"{l}.dic")]
    argv += list(extra)
    argv += [str(ws / "corpus.txt")]
    return main(argv)


def test_apply_writes_concordance(ws, capsys):
    assert _apply(ws, ws / "out", G1_FILES, "g1.cnc") == 0
    out = capsys.readouterr().out
    assert "2 occurrence(s)" in out
    c = parse_concordance((ws / "out" / "g1.cnc").read_text(encoding="utf-8"))
    assert c.source_grammar == "ReconheceFormasDeTratamento"
    assert c.source_text_id == "corpus.txt"
    assert [l.match for l in c.lines] == [
        "Sra. <NOME>Joana da Silva</NOME>",
        "Dr. <NOME>Pedro</NOME>",
    ]


def test_apply_deterministic_without_stamp(ws):
    _apply(ws, ws / "a", G1_FILES, "g.cnc")
    _apply(ws, ws / "b", G1_FILES, "g.cnc")
    assert (ws / "a" / "g.cnc").read_bytes() == (ws / "b" / "g.cnc").read_bytes()


def test_apply_stamp_adds_comment(ws):
    _apply(ws, ws / "out", G1_FILES, "g.cnc", extra=["--stamp"])
    first = (ws / "out" / "g.cnc").read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# generated ")


def test_apply_mode_all_keeps_the_shorter_matches(ws):
    # "Sra. Joana da Silva" holds the shorter match "Sra. Joana"
    lines = {}
    for mode in ("all", "longest"):
        assert _apply(ws, ws / mode, G1_FILES, "g.cnc", ["--mode", mode]) == 0
        c = parse_concordance((ws / mode / "g.cnc").read_text(encoding="utf-8"))
        lines[mode] = {(l.start, l.end, l.match) for l in c.lines}
    assert len(lines["longest"]) == 2
    assert lines["longest"] < lines["all"]


def test_apply_parses_each_grammar_file_once(ws, monkeypatch):
    from lgw import cli, grammar

    calls = []
    parse = grammar.parse_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return parse(*args, **kwargs)

    monkeypatch.setattr(grammar, "parse_graph", counting)
    monkeypatch.setattr(cli, "parse_graph", counting)
    assert _apply(ws, ws / "out", G1_FILES, "g.cnc") == 0  # no --main
    assert len(calls) == len(G1_FILES)


def test_apply_multiple_corpus_files_sorted(ws):
    (ws / "b.txt").write_text("O Dr. Pedro chegou.", encoding="utf-8")
    (ws / "a.txt").write_text("A Sra. Joana saiu.", encoding="utf-8")
    argv = ["apply", "--out", str(ws / "out"), "--cnc", "m.cnc"]
    for g in G1_FILES:
        argv += ["--grammar", str(ws / f"{g}.lg")]
    argv += ["--lexicon", str(ws / "portugues.dic")]
    # pass the files in the "wrong" order; output must not depend on it
    argv += [str(ws / "b.txt"), str(ws / "a.txt")]
    assert main(argv) == 0
    c = parse_concordance((ws / "out" / "m.cnc").read_text(encoding="utf-8"))
    assert c.source_text_id == "a.txt+b.txt"
    assert [l.match for l in c.lines] == [
        "Sra. <NOME>Joana</NOME>",
        "Dr. <NOME>Pedro</NOME>",
    ]


def test_apply_xml_annotation(ws):
    _apply(ws, ws / "out", G1_FILES, "g.cnc", extra=["--xml", "sys.xml"])
    xml = (ws / "out" / "sys.xml").read_text(encoding="utf-8")
    assert '<EM CATEG="PESSOA" TIPO="INDIVIDUAL">Joana da Silva</EM>' in xml
    from lgw.evaluator import parse_gold

    plain, anns = parse_gold(xml)
    assert plain == CORPUS
    assert len(anns) == 2


TITLED = """\
graph Titulo
box tit out="[T]" "Sra."
box nome out="<NOME>" <PRE>
box fecha out="</NOME>" <E>
init i
final f
edge i tit
edge tit nome
edge nome fecha
edge fecha f
"""


def test_apply_xml_annotates_the_nome_outputs_offsets(tmp_path):
    # an output before <NOME> does not shift the annotation
    (tmp_path / "t.lg").write_text(TITLED, encoding="utf-8")
    (tmp_path / "corpus.txt").write_text("Veja a Sra. Joana falou.", encoding="utf-8")
    argv = ["apply", "--out", str(tmp_path / "out"), "--grammar", str(tmp_path / "t.lg"),
            "--xml", "sys.xml", str(tmp_path / "corpus.txt")]
    assert main(argv) == 0
    assert (tmp_path / "out" / "sys.xml").read_text(encoding="utf-8") == (
        'Veja a Sra. <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Joana</EM> falou.'
    )


@pytest.mark.parametrize(
    "corpus, offset",
    [
        ("Veja <EMAIL> e a Sra. Joana da Silva falou.\n", 5),
        ('A Sra. Joana e <EM CATEG="PESSOA" TIPO="INDIVIDUAL">xx</EM>.\n', 15),
    ],
    ids=["malformed-tag", "well-formed-tag"],
)
def test_apply_xml_of_a_text_holding_an_em_tag_exits_2(ws, capsys, corpus, offset):
    # lgw eval would read the text's own tag back as a malformed or an
    # extra annotation
    (ws / "corpus.txt").write_text(corpus, encoding="utf-8")
    assert _apply(ws, ws / "out", G1_FILES, "g.cnc", ["--xml", "sys.xml"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lgw apply: error: offset {offset}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (ws / "out" / "sys.xml").exists()


def test_refused_apply_xml_writes_no_file(ws, capsys):
    (ws / "corpus.txt").write_text(
        "Veja <EMAIL> e a Sra. Joana da Silva falou.\n", encoding="utf-8"
    )
    assert _apply(ws, ws / "out", G1_FILES, "g.cnc", ["--xml", "sys.xml"]) == 2
    assert capsys.readouterr().out == ""
    assert [p for p in (ws / "out").rglob("*") if p.is_file()] == []


def test_full_pipeline_diff_compose_eval(ws, capsys):
    out = ws / "out"
    _apply(ws, out, G1_FILES, "g1.cnc")
    _apply(ws, out, ("ReconheceNomesCompostos",), "g2.cnc")
    capsys.readouterr()

    # diff + relation
    rc = main(
        ["diff", str(out / "g1.cnc"), str(out / "g2.cnc"), "--out", str(out)]
    )
    assert rc == 0
    html = (out / "diff.html").read_text(encoding="utf-8")
    assert html.startswith("<!DOCTYPE html>")
    rel = json.loads((out / "relation.json").read_text(encoding="utf-8"))
    # G2's proper-name mask also hits the bare first names inside G1's
    # titled matches, so the sets are disjoint but their spans touch
    assert rel["relation"] == "disjoint_with_some_overlap"
    assert rel["action"] == "keep_both"
    assert "recommendation" in rel

    # compose from the relation report
    rc = main(
        ["compose", "--report", str(out / "relation.json"), "--out", str(out)]
    )
    assert rc == 0
    main_lg = (out / "main.lg").read_text(encoding="utf-8")
    assert ":ReconheceFormasDeTratamento" in main_lg
    assert ":ReconheceNomesCompostos" in main_lg
    decisions = json.loads((out / "decisions.json").read_text(encoding="utf-8"))
    assert all(d["kept"] for d in decisions)

    # apply the composed graph: its occurrences are the union of both
    argv = ["apply", "--out", str(out), "--cnc", "main.cnc", "--main", "Main"]
    for g in data.GRAMMAR_NAMES:
        argv += ["--grammar", str(ws / f"{g}.lg")]
    argv += ["--grammar", str(out / "main.lg")]
    for l in ("portugues", "ingles"):
        argv += ["--lexicon", str(ws / f"{l}.dic")]
    argv += [str(ws / "corpus.txt")]
    assert main(argv) == 0
    joined = parse_concordance((out / "main.cnc").read_text(encoding="utf-8"))
    g1c = parse_concordance((out / "g1.cnc").read_text(encoding="utf-8"))
    g2c = parse_concordance((out / "g2.cnc").read_text(encoding="utf-8"))
    want = {(l.start, l.end, l.match) for c in (g1c, g2c) for l in c.lines}
    assert {(l.start, l.end, l.match) for l in joined.lines} == want

    # annotate with the composed graph and score against hand-made gold
    assert main(argv + ["--xml", "sys.xml"]) == 0
    gold = (
        'A Sra. <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Joana da Silva</EM> falou com '
        'o Dr. <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Pedro</EM>.\n'
        'A rainha <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Isabel II</EM> encontrou '
        '<EM CATEG="PESSOA" TIPO="INDIVIDUAL">Marilyn Monroe</EM> em '
        '<EM CATEG="LOCAL" TIPO="CIDADE">Lisboa</EM>.\n'
    )
    (ws / "gold.xml").write_text(gold, encoding="utf-8")
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--sys", str(out / "sys.xml"),
            "--gold", str(ws / "gold.xml"),
            "--categ", "PESSOA",
            "--tipo", "INDIVIDUAL",
            "--out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "precision  100.00" in printed
    assert "recall     100.00" in printed
    rep = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert rep["tp"] == 4 and rep["n_sys"] == 4 and rep["n_gold"] == 4
    assert rep["f_measure"] == 100.0


def test_relate_subcommand(ws, tmp_path):
    out = ws / "out"
    _apply(ws, out, G1_FILES, "g1.cnc")
    rc = main(["relate", str(out / "g1.cnc"), str(out / "g1.cnc"), "--out", str(out)])
    assert rc == 0
    rel = json.loads((out / "relation.json").read_text(encoding="utf-8"))
    assert rel["relation"] == "equal" and rel["action"] == "keep_either"


# Nested, touching, identical and same-length spans, plus empty and reversed
# ones, with few starts and merged outputs so that sort keys tie.
_occurrence = st.builds(
    lambda start, length, merged: Occurrence(start, start + length, merged, "G"),
    st.integers(0, 12),
    st.integers(-6, 6),
    st.sampled_from(["A", "B"]),
)


@given(st.lists(_occurrence, max_size=14))
@example([Occurrence(0, 4, "A", "G"), Occurrence(4, 8, "A", "G"),
          Occurrence(2, 6, "A", "G"), Occurrence(4, 4, "A", "G"),
          Occurrence(2, 2, "A", "G"), Occurrence(6, 3, "A", "G"),
          Occurrence(0, 4, "A", "G"), Occurrence(1, 3, "B", "G")])
@example([Occurrence(6, 4, "B", "G"), Occurrence(9, 6, "B", "G"),
          Occurrence(4, 10, "B", "G"), Occurrence(1, -1, "A", "G")])
def test_non_overlapping_agrees_with_all_pairs_reference(occs):
    got = _non_overlapping(occs)
    assert [id(o) for o in got] == [id(o) for o in oracle_non_overlapping(occs)]


# --- exit codes --------------------------------------------------------------


def test_usage_error_exits_1():
    assert main(["no-such-command"]) == 1
    assert main(["apply", "--out", "x"]) == 1  # missing --grammar and corpus


@pytest.mark.parametrize("flag", ["--left", "--right"])
@pytest.mark.parametrize("value", ["-5", "x"])
def test_negative_context_width_exits_1(ws, capsys, flag, value):
    # a negative width would be written into the concordance header,
    # which no .cnc reader accepts
    assert _apply(ws, ws / "out", ["ReconheceNomesCompostos"], "g2.cnc", [flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}: not a non-negative integer: '{value}'" in err
    assert not (ws / "out").exists()
    assert _apply(ws, ws / "out", ["ReconheceNomesCompostos"], "g2.cnc", [flag, "0"]) == 0


@pytest.mark.parametrize("flag", ["--categ", "--tipo"])
@pytest.mark.parametrize("value", ['A"B', "<A", "A>"])
def test_unreadable_em_attribute_exits_1(ws, capsys, flag, value):
    # lgw eval cannot read an <EM> tag whose attribute holds these characters
    extra = ["--xml", "sys.xml", flag, value]
    assert _apply(ws, ws / "out", ["ReconheceNomesCompostos"], "g2.cnc", extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}: may not contain" in err
    assert not (ws / "out").exists()


def test_corpus_name_with_whitespace_exits_1(ws, capsys):
    # the concordance header holds the corpus file names as one field
    corpus = ws / "my corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    argv = ["apply", "--grammar", str(ws / "ReconheceNomesCompostos.lg"), "--out", str(ws / "out")]
    assert main(argv + [str(ws / "corpus.txt"), str(corpus)]) == 1
    err = capsys.readouterr().err
    assert err == "lgw apply: error: corpus file name contains whitespace: 'my corpus.txt'\n"
    assert not (ws / "out").exists()


_REPORT = {
    "grammar_x": "A",
    "grammar_y": "B",
    "relation": "equal",
    "action": "keep_x",
    "counts": {"common": 1, "conflict": 0, "partial": 0, "unique_x": 0, "unique_y": 0},
}


@pytest.mark.parametrize(
    "text, reason",
    [
        ("not json", "Expecting value"),
        (json.dumps({k: v for k, v in _REPORT.items() if k != "action"}), "missing key 'action'"),
        (json.dumps({**_REPORT, "relation": "same"}), "'same' is not a valid Relation"),
        (json.dumps({**_REPORT, "action": "keep_z"}), "'keep_z' is not a valid Action"),
        (json.dumps({**_REPORT, "grammar_x": 5}), "grammar names must be strings"),
        (json.dumps({**_REPORT, "counts": {"common": 1}}), "missing"),
        ("[]", "list indices"),
        (json.dumps({**_REPORT, "grammar_x": ""}), "grammar_x is not a graph name: ''"),
        (json.dumps({**_REPORT, "grammar_y": "a b"}), "grammar_y is not a graph name: 'a b'"),
    ],
    ids=["not-json", "no-action", "unknown-relation", "unknown-action", "grammar-not-string",
         "missing-count", "not-an-object", "grammar-empty", "grammar-with-space"],
)
def test_malformed_relation_report_exits_2(tmp_path, capsys, text, reason):
    report = tmp_path / "r.json"
    report.write_text(text, encoding="utf-8")
    assert main(["compose", "--report", str(report), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lgw compose: error: bad relation report {report}: ")
    assert reason in err
    assert not (tmp_path / "out").exists()
    report.write_text(json.dumps(_REPORT), encoding="utf-8")
    assert main(["compose", "--report", str(report), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name", ["a b", "", "A", "B"])
def test_compose_name_that_apply_cannot_use_exits_1(tmp_path, capsys, name):
    # "a b" and "" are no graph names; A and B are the report's grammars,
    # whose graphs a main graph of the same name would clash with
    report = tmp_path / "r.json"
    report.write_text(json.dumps(_REPORT), encoding="utf-8")
    argv = ["compose", "--report", str(report), "--out", str(tmp_path / "out")]
    assert main(argv + ["--name", name]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("lgw compose: error: ") and "--name" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_file_exits_2(tmp_path):
    rc = main(
        [
            "apply",
            "--grammar", str(tmp_path / "nope.lg"),
            "--out", str(tmp_path),
            str(tmp_path / "nope.txt"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("command", ["diff", "relate"])
def test_diff_aligns_once(ws, monkeypatch, command):
    from lgw import concorddiff

    out = ws / "out"
    _apply(ws, out, G1_FILES, "g1.cnc")
    _apply(ws, out, ("ReconheceNomesCompostos",), "g2.cnc")
    calls = []
    align = concorddiff.align
    monkeypatch.setattr(
        concorddiff, "align", lambda cx, cy: calls.append(1) or align(cx, cy)
    )
    assert main([command, str(out / "g1.cnc"), str(out / "g2.cnc"), "--out", str(out)]) == 0
    assert len(calls) == 1


def test_relate_is_diff_without_html(ws, capsys):
    cnc = ws / "cnc"
    _apply(ws, cnc, G1_FILES, "g1.cnc")
    _apply(ws, cnc, ("ReconheceNomesCompostos",), "g2.cnc")
    printed = {}
    for command in ("diff", "relate"):
        capsys.readouterr()
        assert main([command, str(cnc / "g1.cnc"), str(cnc / "g2.cnc"), "--out", str(ws / command)]) == 0
        printed[command] = capsys.readouterr().out.splitlines()
    assert sorted(p.name for p in (ws / "diff").iterdir()) == ["diff.html", "relation.json"]
    assert [p.name for p in (ws / "relate").iterdir()] == ["relation.json"]
    relation = (ws / "relate" / "relation.json").read_bytes()
    assert relation == (ws / "diff" / "relation.json").read_bytes()
    assert printed["relate"][-1] == printed["diff"][-1] == json.loads(relation)["recommendation"]


def test_diff_stamp_writes_one_time(ws):
    out = ws / "out"
    _apply(ws, out, G1_FILES, "g1.cnc")
    assert main(["diff", str(out / "g1.cnc"), str(out / "g1.cnc"), "--out", str(out), "--stamp"]) == 0
    stamp = json.loads((out / "relation.json").read_text(encoding="utf-8"))["stamp"]
    assert datetime.datetime.fromisoformat(stamp).utcoffset() == datetime.timedelta(0)
    html = (out / "diff.html").read_text(encoding="utf-8")
    assert f"<!-- generated {stamp} -->\n</body>" in html


@pytest.mark.parametrize("corpus", ["latin1", "directory"])
def test_unreadable_corpus_exits_2(ws, capsys, corpus):
    if corpus == "latin1":
        path = ws / "latin1.txt"
        path.write_bytes("A Sra. Joana falou à noite.".encode("latin-1"))
    else:
        path = ws
    rc = main(
        [
            "apply",
            "--grammar", str(ws / "ReconheceNomesCompostos.lg"),
            "--out", str(ws / "out"),
            str(path),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot read {path}" in err
    assert "Traceback" not in err


def test_out_naming_a_file_exits_2(ws, capsys):
    out = ws / "outfile"
    out.write_text("not a directory", encoding="utf-8")
    rc = main(
        [
            "apply",
            "--grammar", str(ws / "ReconheceNomesCompostos.lg"),
            "--out", str(out),
            str(ws / "corpus.txt"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot write {out / 'ReconheceNomesCompostos.cnc'}" in err
    assert "Traceback" not in err


def test_bad_grammar_exits_2(tmp_path, capsys):
    (tmp_path / "bad.lg").write_text("graph B\nbox x ???\n", encoding="utf-8")
    (tmp_path / "c.txt").write_text("x", encoding="utf-8")
    rc = main(
        [
            "apply",
            "--grammar", str(tmp_path / "bad.lg"),
            "--out", str(tmp_path),
            str(tmp_path / "c.txt"),
        ]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_filter_re_cannot_compile_exits_2(tmp_path, capsys):
    (tmp_path / "bad.lg").write_text(
        "graph B\nbox x <MOT><<[z-a]>>\ninit i\nfinal f\nedge i x\nedge x f\n",
        encoding="utf-8",
    )
    (tmp_path / "c.txt").write_text("x", encoding="utf-8")
    argv = ["apply", "--grammar", str(tmp_path / "bad.lg"), "--out", str(tmp_path)]
    assert main(argv + [str(tmp_path / "c.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lgw apply: error: {tmp_path / 'bad.lg'}: line 2: bad filter '[z-a]'")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("kind", ["grammar", "lexicon", "concordance", "xml"])
def test_parse_error_names_the_file(ws, capsys, kind):
    out = ws / "out"
    bad = ws / f"bad.{kind}"
    grammar = ["--grammar", str(ws / "ReconheceNomesCompostos.lg")]
    lexicon = ["--lexicon", str(ws / "portugues.dic")]
    if kind == "grammar":
        bad.write_text("graph B\nbox b ?\n", encoding="utf-8")
        argv = ["apply", *grammar, "--grammar", str(bad), "--out", str(out), str(ws / "corpus.txt")]
        reason = "line 2: unexpected character '?'"
    elif kind == "lexicon":
        bad.write_text("Ana,Ana.N\nsem virgula\n", encoding="utf-8")
        argv = ["apply", *grammar, *lexicon, "--lexicon", str(bad), "--out", str(out),
                str(ws / "corpus.txt")]
        reason = "line 2: missing ',' separator"
    elif kind == "concordance":
        assert _apply(ws, out, G1_FILES, "g1.cnc") == 0
        bad.write_text("not a concordance\n", encoding="utf-8")
        argv = ["diff", str(out / "g1.cnc"), str(bad), "--out", str(out)]
        reason = "line 1: bad header"
    else:
        (ws / "gold.xml").write_text("Ana", encoding="utf-8")
        bad.write_text("<EM>Ana", encoding="utf-8")
        argv = ["eval", "--sys", str(bad), "--gold", str(ws / "gold.xml"), "--categ", "PESSOA"]
        reason = "malformed <EM> tag"
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lgw {argv[0]}: error: {bad}: ")
    assert reason in err


def test_blank_literal_exits_2(tmp_path, capsys):
    (tmp_path / "blank.lg").write_text(
        'graph B\nbox x "Rio" " " "Branco"\ninit i\nfinal f\nedge i x\nedge x f\n',
        encoding="utf-8",
    )
    (tmp_path / "c.txt").write_text("Rio Branco", encoding="utf-8")
    rc = main(
        [
            "apply",
            "--grammar", str(tmp_path / "blank.lg"),
            "--out", str(tmp_path),
            str(tmp_path / "c.txt"),
        ]
    )
    assert rc == 2
    assert "line 2: literal without a token" in capsys.readouterr().err


def test_apply_long_title_chain_exits_0(ws, capsys):
    (ws / "chain.txt").write_text("Sr. " + " ".join(["Nome"] * 1200), encoding="utf-8")
    argv = ["apply", "--out", str(ws / "out")]
    for g in G1_FILES:
        argv += ["--grammar", str(ws / f"{g}.lg")]
    assert main(argv + [str(ws / "chain.txt")]) == 0
    assert "1 occurrence(s)" in capsys.readouterr().out


def test_text_mismatch_exits_3(ws):
    out = ws / "out"
    _apply(ws, out, G1_FILES, "g1.cnc")
    (ws / "other.txt").write_text("O Dr. Pedro chegou.", encoding="utf-8")
    argv = ["apply", "--out", str(out), "--cnc", "other.cnc"]
    for g in G1_FILES:
        argv += ["--grammar", str(ws / f"{g}.lg")]
    argv += ["--lexicon", str(ws / "portugues.dic"), str(ws / "other.txt")]
    main(argv)
    rc = main(["diff", str(out / "g1.cnc"), str(out / "other.cnc"), "--out", str(out)])
    assert rc == 3


def test_eval_text_mismatch_exits_3(tmp_path):
    (tmp_path / "sys.xml").write_text("aaa", encoding="utf-8")
    (tmp_path / "gold.xml").write_text("bbb", encoding="utf-8")
    rc = main(
        [
            "eval",
            "--sys", str(tmp_path / "sys.xml"),
            "--gold", str(tmp_path / "gold.xml"),
            "--categ", "PESSOA",
        ]
    )
    assert rc == 3


def test_error_exit_codes_are_documented():
    from lgw import errors

    assert errors.TextMismatch("x").exit_code == 3
    assert errors.EmptyKeepSet("x").exit_code == 4
    assert errors.MalformedLine(1, "x").exit_code == 2


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "lgw.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "apply" in proc.stdout and "compose" in proc.stdout
