import contextlib
import datetime
import functools
import io
import json
import marshal
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types

import pytest
from hypothesis import example, given, settings, strategies as st

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
        # json.loads recurses once per level, past the interpreter's limit
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["not-json", "no-action", "unknown-relation", "unknown-action", "grammar-not-string",
         "missing-count", "not-an-object", "grammar-empty", "grammar-with-space",
         "nested-too-deep"],
)
def test_malformed_relation_report_exits_2(tmp_path, capsys, text, reason):
    report = tmp_path / "r.json"
    report.write_text(text, encoding="utf-8")
    assert main(["compose", "--report", str(report), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lgw compose: error: bad relation report {report}: ")
    assert reason in err and err.count("\n") == 1 and err.endswith("\n")
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


def test_diff_reads_stamped_concordances(ws):
    # the "# generated" first line that apply --stamp writes is skipped
    reports = {}
    for run, extra in (("plain", []), ("stamped", ["--stamp"])):
        out = ws / run
        _apply(ws, out, G1_FILES, "g1.cnc", extra=extra)
        _apply(ws, out, ("ReconheceNomesCompostos",), "g2.cnc", extra=extra)
        assert main(["diff", str(out / "g1.cnc"), str(out / "g2.cnc"), "--out", str(out)]) == 0
        reports[run] = json.loads((out / "relation.json").read_text(encoding="utf-8"))
    assert (ws / "stamped" / "g1.cnc").read_text(encoding="utf-8").startswith("# generated ")
    reports["stamped"].pop("stamp", None)
    assert reports["stamped"] == reports["plain"]


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


def _apply_graph(tmp_path, graph):
    """``lgw apply`` of the one-graph grammar ``graph`` to a small corpus,
    with no lexicon and the outputs in tmp_path/out."""
    (tmp_path / "g.lg").write_text(graph, encoding="utf-8")
    (tmp_path / "c.txt").write_text("A Joana falou.\n", encoding="utf-8")
    return main(["apply", "--grammar", str(tmp_path / "g.lg"),
                 "--out", str(tmp_path / "out"), str(tmp_path / "c.txt")])


def test_apply_warns_of_an_unreachable_box_and_runs(tmp_path, capsys):
    graph = 'graph W\nbox b "Joana"\nbox orphan "x"\ninit i\nfinal f\nedge i b\nedge b f\n'
    assert _apply_graph(tmp_path, graph) == 0
    captured = capsys.readouterr()
    assert "warning: Unreachable: W: box 'orphan' is unreachable from init" in captured.err
    assert "1 occurrence(s)" in captured.out


def test_apply_refuses_a_final_box_with_a_successor(tmp_path, capsys):
    graph = 'graph F\nbox b "Joana"\ninit i\nfinal f\nedge i b\nedge b f\nedge f b\n'
    assert _apply_graph(tmp_path, graph) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: FinalHasSuccessor: F: final box 'f' has outgoing edges"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "__lgwcache__").exists()


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
    if kind == "lexicon":  # nothing is written beside a lexicon
        assert not (ws / "__lgwcache__").exists()


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


# --- the corpus sidecar -----------------------------------------------------------
# lgw apply writes nothing beside a lexicon file.  It keeps each corpus file's
# tokens and text lexicon, for each list of lexicon files, in one sidecar,
# __lgwcache__/<file>.<set>.lgc beside it; every case here must give what
# tokenizing the corpus and loading the whole lexicon give.

NAMES = "Ana,.N+PR\nZeca,.V+PR\n"


@pytest.fixture()
def named(tmp_path):
    """ReconheceNomesCompostos, a corpus, and a lexicon in its own directory."""
    name = "ReconheceNomesCompostos"
    (tmp_path / f"{name}.lg").write_text(data.grammar_text(name), encoding="utf-8")
    (tmp_path / "c.txt").write_text("Ana viu Zeca e a rainha Isabel.\n", encoding="utf-8")
    (tmp_path / "lex").mkdir()
    (tmp_path / "lex" / "n.dic").write_text(NAMES, encoding="utf-8")
    return tmp_path


def _apply_named(d, out, lexicons=("n.dic",)):
    argv = ["apply", "--grammar", str(d / "ReconheceNomesCompostos.lg"), "--out", str(d / out),
            "--cnc", "n.cnc", "--xml", "n.xml", str(d / "c.txt")]
    for name in lexicons:
        argv += ["--lexicon", str(d / "lex" / name)]
    return main(argv)


def _outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _sidecar(d, corpus="c.txt"):
    (path,) = (d / "__lgwcache__").glob(f"{corpus}.*.lgc")
    return path


def _sidecars(d):
    cache = d / "__lgwcache__"
    return {p.name: p.read_bytes() for p in cache.iterdir()} if cache.exists() else {}


def _forbid_misses(monkeypatch):
    """Make loading a lexicon and tokenizing a corpus fail: a hit does neither."""
    from lgw import cli, lexicon, matcher

    def no_miss(*args, **kwargs):
        raise AssertionError("a lexicon was loaded or a corpus tokenized on a sidecar hit")

    monkeypatch.setattr(cli, "parse_lexicon", no_miss)
    monkeypatch.setattr(lexicon, "_read_lines", no_miss)
    # the kernel as apply_grammar and lgw apply's tokenizing reach it
    kernel = {**vars(matcher._engine), "tokenize_raw": no_miss}
    monkeypatch.setattr(matcher, "_impl", types.SimpleNamespace(**kernel))


def test_malformed_lexicon_with_an_old_sidecar_exits_2(named, capsys):
    # a lexicon made malformed after a good apply, although its corpus
    # keeps the text lexicon of the good one
    assert _apply_named(named, "a") == 0
    first = _sidecar(named).read_bytes()
    dic = named / "lex" / "n.dic"
    dic.write_text(NAMES + "sem virgula\n", encoding="utf-8")
    capsys.readouterr()
    assert _apply_named(named, "b") == 2
    err = capsys.readouterr().err
    assert err == f"lgw apply: error: {dic}: line 3: missing ',' separator\n"
    assert _sidecar(named).read_bytes() == first
    assert not (named / "lex" / "__lgwcache__").exists()


def test_sidecar_hit_writes_the_same_files_as_a_miss(ws, monkeypatch):
    from lgw.sidecar import digest, lexicon_set, read

    # the lexicons in their own directory, which gets no sidecar
    (ws / "lex").mkdir()
    for n in ("portugues", "ingles"):
        (ws / f"{n}.dic").rename(ws / "lex" / f"{n}.dic")
    lexicons = [ws / "lex" / f"{n}.dic" for n in ("portugues", "ingles")]

    def apply(out):
        argv = ["apply", "--grammar", str(ws / "ReconheceNomesCompostos.lg"), "--out", str(out),
                "--cnc", "g.cnc", "--xml", "s.xml", str(ws / "corpus.txt")]
        for p in lexicons:
            argv += ["--lexicon", str(p)]
        return main(argv)

    assert apply(ws / "miss") == 0
    assert "<NOME>Marilyn Monroe</NOME>" in (ws / "miss" / "g.cnc").read_text(encoding="utf-8")
    name, _ = lexicon_set(lexicons, [])
    assert sorted(_sidecars(ws)) == [f"corpus.txt.{name}.lgc"]
    assert not (ws / "lex" / "__lgwcache__").exists()
    # a hit's surfaces, as the tokenizer's, are one str per distinct surface
    listed = lexicon_set(lexicons, [p.read_bytes() for p in lexicons])
    (surfaces, _), _ = read(ws / "corpus.txt", listed, digest(CORPUS.encode("utf-8")))
    assert len(surfaces) > len(set(surfaces)) == len(set(map(id, surfaces)))
    _forbid_misses(monkeypatch)
    assert apply(ws / "hit") == 0
    assert _outputs(ws / "hit") == _outputs(ws / "miss")
    assert not (ws / "lex" / "__lgwcache__").exists()


def test_alternating_lexicon_lists_keep_one_sidecar_each(named, capsys, monkeypatch):
    (named / "lex" / "m.dic").write_text("Isabel,.N+PR\nZeca,.N+PR\n", encoding="utf-8")
    lists = [("n.dic",), (), ("m.dic", "n.dic"), ("n.dic", "m.dic")]
    first, counts = [], []
    for k, lexicons in enumerate(lists):
        before = _sidecars(named)
        assert _apply_named(named, f"a{k}", lexicons) == 0
        counts.append(capsys.readouterr().out.split()[0])
        after = _sidecars(named)
        # one new sidecar, and those of the earlier lists byte-identical
        assert len(after) == k + 1 and before.items() <= after.items()
        first.append(_outputs(named / f"a{k}"))
    assert counts == ["1", "0", "3", "3"]  # each apply matched with its own lexicons
    # a second round tokenizes nothing, loads no lexicon and rewrites no sidecar
    _forbid_misses(monkeypatch)
    for k, lexicons in enumerate(lists):
        assert _apply_named(named, f"b{k}", lexicons) == 0
        assert _outputs(named / f"b{k}") == first[k]
    assert _sidecars(named) == after


def test_ten_lexicon_lists_leave_the_newest_four_sidecars(named, capsys, monkeypatch):
    from lgw.sidecar import KEEP, lexicon_set

    cache = named / "__lgwcache__"
    cache.mkdir()
    # the sidecar of another corpus file, c.txt.x.txt, and a temporary file
    # of a write: neither is a sidecar of c.txt
    others = {"c.txt.x.txt.0123456789abcdef.lgc": b"x", "c.txt.0123456789abcdef.lgc.7.tmp": b"t"}
    for name, content in others.items():
        (cache / name).write_bytes(content)
    names = []
    for k in range(10):
        (named / "lex" / f"m{k}.dic").write_text(NAMES, encoding="utf-8")
        assert _apply_named(named, f"a{k}", (f"m{k}.dic",)) == 0
        names.append(f"c.txt.{lexicon_set([named / 'lex' / f'm{k}.dic'], [])[0]}.lgc")
        # file times may be coarser than one apply: date the k-th sidecar k
        # seconds after the epoch, so the order of the writes is their age
        os.utime(cache / names[k], ns=(k * 10**9, k * 10**9))
        kept = _sidecars(named)
        assert {n: kept.pop(n) for n in others} == others
        assert sorted(kept) == sorted(names[-KEEP:])
    assert "1 occurrence(s)" in capsys.readouterr().out
    # the newest four hit
    _forbid_misses(monkeypatch)
    for k in range(10 - KEEP, 10):
        assert _apply_named(named, f"b{k}", (f"m{k}.dic",)) == 0
        assert _outputs(named / f"b{k}") == _outputs(named / f"a{k}")
    assert sorted(_sidecars(named)) == sorted([*names[-KEEP:], *others])


@pytest.mark.parametrize("edit", ["lexicon", "corpus"])
def test_text_lexicon_of_an_edited_lexicon_or_corpus_is_not_used(named, capsys, monkeypatch,
                                                                 edit):
    path = named / "lex" / "n.dic" if edit == "lexicon" else named / "c.txt"
    assert _apply_named(named, "a") == 0
    assert "1 occurrence(s)" in capsys.readouterr().out
    first = _sidecar(named).read_bytes()
    # same size and modification time: only the bytes tell the edit
    stat = path.stat()
    if edit == "lexicon":
        path.write_text(NAMES.replace("V+PR", "N+PR"), encoding="utf-8")
        want = ('2 occurrence(s)',
                '<EM CATEG="PESSOA" TIPO="INDIVIDUAL">Ana</EM> viu '
                '<EM CATEG="PESSOA" TIPO="INDIVIDUAL">Zeca</EM> e a rainha Isabel.\n')
    else:
        path.write_text("Zeca viu Ana e a rainha Isabel.\n", encoding="utf-8")
        want = ('1 occurrence(s)',
                'Zeca viu <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Ana</EM> e a rainha Isabel.\n')
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert _apply_named(named, "b") == 0
    assert want[0] in capsys.readouterr().out
    assert (named / "b" / "n.xml").read_text(encoding="utf-8") == want[1]
    assert _sidecar(named).read_bytes() != first
    _forbid_misses(monkeypatch)
    assert _apply_named(named, "c") == 0  # a hit on the rewritten sidecar
    assert _outputs(named / "c") == _outputs(named / "b")


def test_token_sidecar_of_an_edited_corpus_is_not_used(named, capsys, monkeypatch):
    from lgw import matcher, sidecar
    from lgw.matcher._engine import tokenize_raw

    corpus = named / "c.txt"
    assert _apply_named(named, "a") == 0
    assert "1 occurrence(s)" in capsys.readouterr().out
    # same size and modification time: only the text tells the edit
    stat = corpus.stat()
    text = "Zeca viu Ana e a rainha Isabel.\n"
    corpus.write_text(text, encoding="utf-8")
    os.utime(corpus, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert corpus.stat().st_size == stat.st_size
    tokenized = []
    kernel = {**vars(matcher._engine),
              "tokenize_raw": lambda t: tokenized.append(t) or tokenize_raw(t)}
    with monkeypatch.context() as m:
        m.setattr(matcher, "_impl", types.SimpleNamespace(**kernel))
        assert _apply_named(named, "b") == 0
    assert tokenized == [text]  # the edited text is tokenized again, once
    assert "1 occurrence(s)" in capsys.readouterr().out
    # the rewritten sidecar keeps the edited text's tokens
    lexicons = sidecar.lexicon_set([named / "lex" / "n.dic"], [NAMES.encode("utf-8")])
    tokens, _ = sidecar.read(corpus, lexicons, sidecar.digest(text.encode("utf-8")))
    assert tokens == tokenize_raw(text)
    _forbid_misses(monkeypatch)
    assert _apply_named(named, "c") == 0  # a hit on the rewritten sidecar
    assert _outputs(named / "c") == _outputs(named / "b")


def _damaged(named, damage):
    """The bytes of the named corpus's sidecar with ``damage``, after a good
    apply wrote it; each must be a miss."""
    from array import array

    from lgw import sidecar
    from lgw.matcher._engine import OFFSETS

    path = _sidecar(named)
    good = path.read_bytes()
    lexicons = sidecar.lexicon_set([named / "lex" / "n.dic"], [NAMES.encode("utf-8")])
    digest = sidecar.digest((named / "c.txt").read_bytes())
    key = sidecar.key(lexicons, digest)
    version = b"python %d.%d" % sys.version_info[:2]
    assert path.name == f"c.txt.{lexicons[0]}.lgc"
    assert good.startswith(key) and version in key
    payload = good[len(key) + sidecar.DIGEST_SIZE:]
    assert good[len(key):len(key) + sidecar.DIGEST_SIZE] == sidecar.digest(payload)
    surfaces, starts, *lexicon = marshal.loads(payload)
    symidx, prefixes, longest = lexicon
    # the end offsets format 3 kept: each token's start plus its length
    ends = array(OFFSETS, map(sum, zip(array(OFFSETS, starts), map(len, surfaces)))).tobytes()
    assert list(symidx) == ["Ana", "Zeca"] and prefixes == set()

    def sealed(payload):
        # with its digest, so that read reaches marshal and the type checks
        return key + sidecar.digest(payload) + payload

    def values(*tokens, lexicon=lexicon):
        return sealed(marshal.dumps((*tokens, *lexicon)))

    def damaged(at, replacement):
        # the good payload's digest stays: read must refuse before marshal
        return good[:at] + replacement + good[at + len(replacement):]

    # the (surface, start, end, kind) tuples of the first token sidecar, in a list
    tuples = marshal.dumps([("Ana", 0, 3, 0), ("viu", 4, 7, 0)], 2)
    # the nine columns of format 1: the distinct surfaces and each token's
    # surface number, the distinct symbol-set tuples and each entry's number
    distinct = tuple(dict.fromkeys(surfaces))
    sets = tuple(dict.fromkeys(symidx.values()))
    nine = (distinct, array(OFFSETS, map(distinct.index, surfaces)).tobytes(), starts, ends,
            sets, tuple(symidx), bytes(map(sets.index, symidx.values())), {}, longest)
    other = sidecar.lexicon_set([named / "lex" / "n.dic"], [b"Ana,.N+PR\n"])
    return {
        "truncated": good[: (len(key) + len(good)) // 2],
        "key-only": key,
        "garbage": b"\x00\xffnot a sidecar",
        "empty": b"",
        "other-python": good.replace(version, b"python 2.7", 1),
        "wrong-shape": sealed(marshal.dumps((1, 2, 3), 2)),
        "wrong-tuples": sealed(marshal.dumps([("Ana", 0, 3, 0), ("viu", 4)], 2)),
        "not-tuples": sealed(marshal.dumps([["Ana", 0, 3, 0]], 2)),
        "format-1": b"lgw tokens 1 %s\n%s" % (version, digest) + tuples,
        "tuple-list": sealed(tuples),
        "nine-columns": sealed(marshal.dumps(nine, 2)),
        # the token columns
        "unequal-columns": values(surfaces, starts[:-8]),
        "ragged-bytes": values(surfaces, starts[:-1]),
        "non-str-surface": values(surfaces[:-1] + [7], starts),
        "empty-surface": values(surfaces[:-1] + [""], starts),
        "tuple-surfaces": values(tuple(surfaces), starts),
        "three-columns": values(surfaces, starts + ends),
        # the six values of format 3, with the end offsets, under this
        # format's key
        "format-3-layout": values(surfaces, starts, ends),
        # damage the payload's digest catches: a byte of the last start
        # offset (past the text, or a wrong span), and a first "(" that
        # claims 2**29 items, which marshal would allocate before reading
        "offset-byte": damaged(good.index(starts) + len(starts) - 6, b"\xc3"),
        "claimed-tuple": damaged(len(key) + sidecar.DIGEST_SIZE, b"(" + (1 << 29).to_bytes(4, "little")),
        # the text lexicon
        "lexicon-truncated": sealed(payload[:-1]),
        "lexicon-garbage": sealed(b"\x00\xffnot marshal data"),
        "lexicon-wrong-shape": values(surfaces, starts, lexicon=(1, 2)),
        "wrong-types": values(surfaces, starts, lexicon=(1, 2, 3)),
        "list-symbol-index": values(surfaces, starts,
                                    lexicon=(list(symidx.items()), prefixes, longest)),
        "list-symbol-sets": values(surfaces, starts,
                                   lexicon=({w: list(v) for w, v in symidx.items()}, prefixes,
                                            longest)),
        "int-symbol-set": values(surfaces, starts,
                                 lexicon=(dict.fromkeys(symidx, (1,)), prefixes, longest)),
        "list-prefixes": values(surfaces, starts, lexicon=(symidx, ["Ana"], longest)),
        "non-str-prefix": values(surfaces, starts, lexicon=(symidx, {"Ana", 1}, longest)),
        "str-longest": values(surfaces, starts, lexicon=(symidx, prefixes, str(longest))),
        # the format before this one, and the key of another lexicon list
        "format-0": good.replace(b"corpus %d python" % sidecar.FORMAT,
                                 b"corpus %d python" % (sidecar.FORMAT - 1), 1),
        "other-lexicons": sidecar.key(other, digest) + good[len(key):],
    }[damage]


def _check_damaged_sidecar_is_rewritten(named, capsys, damage):
    assert _apply_named(named, "a") == 0
    path = _sidecar(named)
    good = path.read_bytes()
    path.write_bytes(_damaged(named, damage))
    capsys.readouterr()
    assert _apply_named(named, "b") == 0
    captured = capsys.readouterr()
    assert "1 occurrence(s)" in captured.out
    assert captured.err == ""
    assert path.read_bytes() == good
    assert _outputs(named / "b") == _outputs(named / "a")


@pytest.mark.parametrize("damage", [
    "truncated", "key-only", "garbage", "empty", "other-python", "wrong-shape",
    "wrong-tuples", "not-tuples", "format-1", "tuple-list", "unequal-columns",
    "ragged-bytes", "non-str-surface", "empty-surface", "tuple-surfaces", "three-columns",
    "format-3-layout",
])
def test_damaged_token_sidecar_is_rewritten(named, capsys, damage):
    # damage to the whole sidecar or to its token columns
    _check_damaged_sidecar_is_rewritten(named, capsys, damage)


@pytest.mark.parametrize("damage", ["offset-byte", "claimed-tuple"])
def test_damaged_sidecar_payload_is_a_miss_before_it_is_unmarshalled(
        named, capsys, monkeypatch, damage):
    from lgw import sidecar

    loads = []
    monkeypatch.setattr(sidecar, "marshal", types.SimpleNamespace(
        dumps=marshal.dumps, loads=lambda b: loads.append(b) or marshal.loads(b)))
    with _address_space_capped():
        _check_damaged_sidecar_is_rewritten(named, capsys, damage)
    assert loads == []


@pytest.mark.parametrize("damage", [
    "truncated", "key-only", "garbage", "empty", "other-python", "wrong-shape", "wrong-types",
    "format-0", "other-lexicons", "nine-columns", "list-symbol-index", "list-symbol-sets",
    "int-symbol-set", "list-prefixes", "non-str-prefix", "str-longest",
])
def test_damaged_text_lexicon_sidecar_is_rewritten(named, capsys, damage):
    # damage to the key or to the text lexicon
    lexicon_damage = {"truncated": "lexicon-truncated", "garbage": "lexicon-garbage",
                      "wrong-shape": "lexicon-wrong-shape"}
    _check_damaged_sidecar_is_rewritten(named, capsys, lexicon_damage.get(damage, damage))


def _unwritable_cache_applies(named, capsys, monkeypatch):
    """Apply twice with __lgwcache__ a file, so no sidecar can be written;
    the texts tokenized and the lexicons parsed, in order."""
    from lgw import cli, matcher

    (named / "__lgwcache__").write_text("not a directory", encoding="utf-8")
    tokenized, parsed = [], []
    tokenize, parse = matcher._engine.tokenize_raw, cli.parse_lexicon
    kernel = {**vars(matcher._engine),
              "tokenize_raw": lambda text: tokenized.append(text) or tokenize(text)}
    monkeypatch.setattr(matcher, "_impl", types.SimpleNamespace(**kernel))
    monkeypatch.setattr(cli, "parse_lexicon", lambda text: parsed.append(text) or parse(text))
    for out in ("a", "b"):
        assert _apply_named(named, out) == 0
        assert "1 occurrence(s)" in capsys.readouterr().out
    assert (named / "__lgwcache__").read_text(encoding="utf-8") == "not a directory"
    assert _outputs(named / "b") == _outputs(named / "a")
    return tokenized, parsed


def test_unwritable_corpus_directory_gets_no_token_sidecar(named, capsys, monkeypatch):
    tokenized, _ = _unwritable_cache_applies(named, capsys, monkeypatch)
    # no kept tokens: each apply tokenizes the corpus
    text = (named / "c.txt").read_text(encoding="utf-8")
    assert tokenized == [text, text]


def test_unwritable_corpus_directory_gets_no_text_lexicon(named, capsys, monkeypatch):
    _, parsed = _unwritable_cache_applies(named, capsys, monkeypatch)
    # no kept text lexicon: each apply parses the whole lexicon
    assert parsed == [NAMES, NAMES]


def test_non_utf8_corpus_exits_2_and_gets_no_token_sidecar(named, capsys):
    corpus = named / "c.txt"
    corpus.write_bytes(b"Ana \xff viu Zeca.\n")
    assert _apply_named(named, "a") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"lgw apply: error: cannot read {corpus}: ")
    assert "can't decode byte 0xff" in err and err.count("\n") == 1
    assert not (named / "__lgwcache__").exists()
    assert not (named / "a").exists()


# every character class the tokenizer tells apart, and the line ends that
# reading the file translates to "\n"
_corpus_piece = st.sampled_from(
    ["Ana", "a", "²", "½", "三", "İ", "ς", "\x85", "_", "\r\n", "\r", "\n", " ", "42", ".", ","]
)
_corpus_file = st.builds(
    lambda pieces, end: "".join(pieces) + end,
    st.lists(_corpus_piece, max_size=8),
    st.sampled_from(["", "\n", "\r\n"]),
)


@given(st.lists(_corpus_file, min_size=1, max_size=4))
@example(["", "Ana²", ""])
@example(["a\r", "\rb", "½三\x85İς_"])
def test_corpus_tokens_equal_the_joined_texts_tokens(texts):
    from lgw import sidecar
    from lgw.cli import _read_corpus, _read_text
    from lgw.lexicon import merge_lexicons
    from lgw.matcher._engine import tokenize_raw

    no_lexicons = sidecar.lexicon_set([], [])

    def read(paths):
        # as lgw apply reads a corpus without --lexicon
        pairs = [_read_text(p) for p in paths]
        found = [sidecar.read(p, no_lexicons, digest) for p, (_, digest) in zip(paths, pairs)]
        return _read_corpus(paths, pairs, no_lexicons, found, merge_lexicons([]))[0]

    with tempfile.TemporaryDirectory() as directory:
        paths = []
        for i, text in enumerate(texts):
            path = os.path.join(directory, f"c{i}.txt")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            paths.append(path)
        miss = read(paths)
        assert miss.text == "\n".join(t.replace("\r\n", "\n").replace("\r", "\n")
                                      for t in texts)
        assert miss.tokens == tokenize_raw(miss.text)
        assert len(os.listdir(os.path.join(directory, "__lgwcache__"))) == len(texts)
        hit = read(paths)
        assert hit == miss
        # and of the same types: an array never equals a list
        column_types = [(type(c), getattr(c, "typecode", None)) for c in tokenize_raw("")]
        for tokens in (hit.tokens, miss.tokens):
            assert [(type(c), getattr(c, "typecode", None)) for c in tokens] == column_types


def test_several_corpus_files_merge_their_text_lexicons(named, capsys, monkeypatch):
    from lgw import matcher

    # "Ana Zeca" would span the two files: no entry holds the "\n" joining them
    (named / "lex" / "n.dic").write_text("Ana,.N+PR\nAna Zeca,.N+PR\nZeca,.N+PR\n",
                                         encoding="utf-8")
    (named / "c.txt").write_text("a rainha Ana", encoding="utf-8")
    (named / "d.txt").write_text("Zeca viu Ana Zeca.\n", encoding="utf-8")

    def apply(out):
        return main(["apply", "--grammar", str(named / "ReconheceNomesCompostos.lg"),
                     "--lexicon", str(named / "lex" / "n.dic"), "--out", str(named / out),
                     "--xml", "n.xml", str(named / "d.txt"), str(named / "c.txt")])

    assert apply("miss") == 0
    assert "4 occurrence(s)" in capsys.readouterr().out
    assert (named / "miss" / "n.xml").read_text(encoding="utf-8") == (
        'a rainha <EM CATEG="PESSOA" TIPO="INDIVIDUAL">Ana</EM>\n'
        '<EM CATEG="PESSOA" TIPO="INDIVIDUAL">Zeca</EM> viu '
        '<EM CATEG="PESSOA" TIPO="INDIVIDUAL">Ana Zeca</EM>.\n'
    )
    hit = _sidecar(named, "d.txt").read_bytes()
    _sidecar(named, "c.txt").unlink()
    tokenized = []
    tokenize = matcher._engine.tokenize_raw
    kernel = {**vars(matcher._engine),
              "tokenize_raw": lambda text: tokenized.append(text) or tokenize(text)}
    with monkeypatch.context() as m:
        m.setattr(matcher, "_impl", types.SimpleNamespace(**kernel))
        assert apply("one-miss") == 0  # c.txt misses, d.txt hits
    assert tokenized == ["a rainha Ana"]
    assert _sidecar(named, "c.txt").exists()
    assert _sidecar(named, "d.txt").read_bytes() == hit
    _forbid_misses(monkeypatch)
    assert apply("hit") == 0
    assert _outputs(named / "one-miss") == _outputs(named / "hit") == _outputs(named / "miss")


def test_lexicon_with_a_byte_order_mark_loses_no_entry(named, capsys):
    dic = named / "lex" / "n.dic"
    dic.write_bytes(b"\xef\xbb\xbfAna,.N+PR\nZeca,.N+PR\n")
    (named / "c.txt").write_text("Ana viu Zeca.\n", encoding="utf-8")
    assert _apply_named(named, "a") == 0
    assert "2 occurrence(s)" in capsys.readouterr().out
    # a grammar file with one still fails loudly
    grammar = named / "ReconheceNomesCompostos.lg"
    grammar.write_bytes(b"\xef\xbb\xbf" + grammar.read_bytes())
    assert _apply_named(named, "b") == 2
    assert capsys.readouterr().err.startswith(f"lgw apply: error: {grammar}: line 1: ")


def test_apply_errors_come_in_command_order(named, capsys):
    # the lexicons, then the grammars, then the corpus
    bad_lexicon = named / "lex" / "bad.dic"
    bad_lexicon.write_text("Ana,.N+PR\nsem virgula\n", encoding="utf-8")
    bad_grammar = named / "bad.lg"
    bad_grammar.write_text("graph B\nbox b ?\n", encoding="utf-8")
    corpus = named / "c.txt"
    corpus.write_bytes(b"Ana \xff viu Zeca.\n")
    (named / "d.txt").write_text("Ana viu Zeca.\n", encoding="utf-8")

    def apply(grammar, lexicon):
        capsys.readouterr()
        rc = main(["apply", "--grammar", str(grammar), "--lexicon", str(lexicon),
                   "--out", str(named / "out"), str(named / "d.txt"), str(corpus)])
        return rc, capsys.readouterr().err

    good_grammar = named / "ReconheceNomesCompostos.lg"
    good_lexicon = named / "lex" / "n.dic"
    assert apply(bad_grammar, bad_lexicon) == (
        2, f"lgw apply: error: {bad_lexicon}: line 2: missing ',' separator\n")
    assert apply(bad_grammar, good_lexicon) == (
        2, f"lgw apply: error: {bad_grammar}: line 2: unexpected character '?'\n")
    rc, err = apply(good_grammar, good_lexicon)
    assert rc == 2 and err.startswith(f"lgw apply: error: cannot read {corpus}: ")
    # a corpus that cannot be read leaves no sidecar, not even for the other file
    assert not (named / "__lgwcache__").exists()
    assert not (named / "out").exists()


def test_warm_apply_digests_each_corpus_text_once(named, monkeypatch):
    # the sidecar key holds one digest of the text
    from lgw import sidecar

    texts = {"c.txt": "Ana viu Zeca e a rainha Isabel. " * 8, "d.txt": "Zeca viu Ana. " * 30}
    for name, text in texts.items():
        (named / name).write_text(text, encoding="utf-8")
    argv = ["apply", "--grammar", str(named / "ReconheceNomesCompostos.lg"),
            "--lexicon", str(named / "lex" / "n.dic"), "--xml", "n.xml",
            str(named / "c.txt"), str(named / "d.txt"), "--out"]
    assert main(argv + [str(named / "cold")]) == 0
    lengths = []
    digest = sidecar.digest
    monkeypatch.setattr(sidecar, "digest", lambda content: lengths.append(len(content)) or digest(content))
    _forbid_misses(monkeypatch)
    assert main(argv + [str(named / "warm")]) == 0
    # every longer input is one corpus text or the payload of its sidecar,
    # whose digest read checks: the keys, paths and the lexicon are short
    sizes = [len(text.encode("utf-8")) for text in texts.values()]
    for name in texts:
        blob = _sidecar(named, name).read_bytes()
        sizes.append(len(blob) - blob.index(b"\n") - 1 - 2 * sidecar.DIGEST_SIZE)
    assert min(sizes) > 200 and len(NAMES) < 200
    assert sorted(n for n in lengths if n > 200) == sorted(sizes)
    assert _outputs(named / "warm") == _outputs(named / "cold")


# --- one parser per process ------------------------------------------------------

def test_main_builds_one_parser_and_reuses_it(ws, capsys, monkeypatch):
    from lgw import cli

    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    try:
        grammar = ["--grammar", str(ws / "ReconheceNomesCompostos.lg")]

        def apply(out, lexicon=()):
            argv = ["apply", *grammar, *lexicon, "--out", str(ws / out), str(ws / "corpus.txt")]
            assert main(argv) == 0
            return capsys.readouterr(), _outputs(ws / out)

        bare, bare_out = apply("bare")
        one_build = len(built)
        assert one_build > 0
        # a later apply without --lexicon sees none of an earlier apply's
        _, lexicon_out = apply("lexicon", ["--lexicon", str(ws / "portugues.dic")])
        assert lexicon_out != bare_out
        again, again_out = apply("bare")
        assert again == bare and again_out == bare_out
        assert cli._build_parser().parse_args(["apply", *grammar, "--out", "o", "c"]).lexicon == []

        # relate writes no HTML after a diff did
        cnc = [str(ws / "bare" / "ReconheceNomesCompostos.cnc"),
               str(ws / "lexicon" / "ReconheceNomesCompostos.cnc")]
        assert main(["diff", *cnc, "--out", str(ws / "diff")]) == 0
        assert (ws / "diff" / "diff.html").exists()
        assert main(["relate", *cnc, "--out", str(ws / "relate")]) == 0
        assert sorted(_outputs(ws / "relate")) == ["relation.json"]
        assert cli._build_parser().parse_args(["relate", *cnc, "--out", "o"]).html is None
        capsys.readouterr()

        # a usage error between two good calls changes nothing in the second
        assert main(["apply", *grammar, "--left", "-1", "--out", str(ws / "bad"),
                     str(ws / "corpus.txt")]) == 1
        assert "error: argument --left" in capsys.readouterr().err
        assert not (ws / "bad").exists()
        assert apply("bare") == (bare, bare_out)
        assert len(built) == one_build
    finally:
        cli._build_parser.cache_clear()


# --- the CLI contract under fuzz ----------------------------------------------
# Whatever the bytes of an input file, a command exits 0-4 and raises
# nothing; an input error says which file it is in.


def _fuzz_argv(d, command):
    grammars = [a for n in G1_FILES for a in ("--grammar", str(d / f"{n}.lg"))]
    lexicons = [a for n in data.LEXICON_NAMES for a in ("--lexicon", str(d / f"{n}.dic"))]
    apply = ["apply", *lexicons, "--out", str(d / "out"), "--xml", "sys.xml"]
    if command == "g1":
        return [*apply, *grammars, "--cnc", "g1.cnc", str(d / "corpus.txt")]
    if command == "g2":
        return [*apply, "--grammar", str(d / "ReconheceNomesCompostos.lg"), "--cnc", "g2.cnc",
                str(d / "corpus.txt")]
    if command == "main":
        every = [a for n in data.GRAMMAR_NAMES for a in ("--grammar", str(d / f"{n}.lg"))]
        return [*apply, *every, "--grammar", str(d / "main.lg"), "--main", "Main",
                "--cnc", "main.cnc", str(d / "corpus.txt")]
    if command == "diff":
        return ["diff", str(d / "g1.cnc"), str(d / "g2.cnc"), "--out", str(d / "out")]
    if command == "compose":
        return ["compose", "--report", str(d / "relation.json"), "--out", str(d / "out")]
    return ["eval", "--sys", str(d / "sys.xml"), "--gold", str(d / "gold.xml"),
            "--categ", "PESSOA", "--tipo", "INDIVIDUAL", "--out", str(d / "out")]


@functools.cache
def _fuzz_inputs():
    """name -> bytes of every file the fuzzed commands read, as the
    pipeline writes them from the shipped grammars and lexicons."""
    with tempfile.TemporaryDirectory() as directory:
        d = pathlib.Path(directory)
        for name in data.GRAMMAR_NAMES:
            (d / f"{name}.lg").write_text(data.grammar_text(name), encoding="utf-8")
        for name in data.LEXICON_NAMES:
            (d / f"{name}.dic").write_text(data.lexicon_text(name), encoding="utf-8")
        (d / "corpus.txt").write_text(CORPUS, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            for command, made in (("g1", "g1.cnc"), ("g2", "g2.cnc"), ("diff", "relation.json"),
                                  ("compose", "main.lg"), ("main", "sys.xml")):
                assert main(_fuzz_argv(d, command)) == 0
                (d / "out" / made).rename(d / made)
        inputs = {p.name: p.read_bytes() for p in d.iterdir() if p.is_file()}
    inputs["gold.xml"] = inputs["sys.xml"]
    return inputs


# the file each kind of input mutates, and the command that reads it; a
# "sidecar" is the .lgc that a first apply of g1 writes, after its key
_FUZZ = {
    "grammar": ("ReconheceFormasDeTratamento.lg", "g1"),
    "lexicon": ("portugues.dic", "g1"),
    "corpus": ("corpus.txt", "g1"),
    "sidecar": (None, "g1"),
    "concordance": ("g1.cnc", "diff"),
    "relation": ("relation.json", "compose"),
    "main": ("main.lg", "main"),
    "system": ("sys.xml", "eval"),
    "gold": ("gold.xml", "eval"),
}
# (position, replace/insert/delete, byte); the bytes that delimit the
# inputs' fields come up as often as all the others
_edit = st.tuples(st.integers(0, 1 << 16), st.sampled_from("rid"),
                  st.one_of(st.sampled_from(b'\n\r\t ,.;:+<>=/"\\#()[]{}0\x00\xc3\xff'),
                            st.integers(0, 255)))


def _mutated(content: bytes, edits, start=0) -> bytes:
    """``content`` with ``edits`` made at or after ``start``."""
    b = bytearray(content)
    for pos, op, byte in edits:
        i = start + pos % (len(b) - start + 1)
        if op == "i":
            b.insert(i, byte)
        elif i < len(b):
            if op == "r":
                b[i] = byte
            else:
                del b[i]
    return bytes(b)


@contextlib.contextmanager
def _address_space_capped(extra=1 << 29):
    """Cap this process's address space at its current size plus ``extra``
    bytes while inside: marshal allocates the tuple a damaged sidecar
    claims, up to 2**31 items, before it reads them, and this keeps that a
    MemoryError instead of gigabytes of memory.  No cap without
    /proc/self/statm."""
    try:
        import resource

        with open("/proc/self/statm") as f:
            size = int(f.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _check_contract(command, code, err):
    assert 0 <= code <= 4
    if code < 2:
        return
    lines = err.split("\n")
    assert lines.pop() == ""  # stderr ends with a line end
    last = lines.pop()
    prefix = f"lgw {command}: error: "
    if last.startswith(prefix):
        # one error line, after any warnings of the grammar validator
        assert all(re.match(r"warning: \w+: ", line) for line in lines)
        # a line number, or an offset into an XML file, comes after its file
        # name; only lgw apply gives an offset into the joined corpus text
        assert not re.match(r"line \d" if command == "apply" else r"(line|offset) \d",
                            last[len(prefix):])
        # so do an unresolved call and a recursive one; only an unknown
        # --main Main is in no file
        if last != prefix + "unresolved subgraph: Main":
            assert not re.match(r"(unresolved|recursive) subgraph", last[len(prefix):])
    else:  # a refused apply: the validator's diagnostics, an error last
        assert command == "apply" and code == 2
        assert re.match(r"error: \w+: ", last)
        assert all(re.match(r"(warning|error): \w+: ", line) for line in lines)


@pytest.mark.parametrize("callee, message", [
    # a typo the fuzz test made in main.lg
    ("ReconheeNomesCompostos", "unresolved subgraph: ReconheeNomesCompostos"),
    ("Main", "recursive subgraph call: Main -> Main"),
])
def test_apply_names_the_file_of_an_unresolved_or_recursive_call(callee, message):
    inputs = _fuzz_inputs()
    with tempfile.TemporaryDirectory() as directory:
        d = pathlib.Path(directory)
        for n, content in inputs.items():
            (d / n).write_bytes(content)
        typo = inputs["main.lg"].replace(b":ReconheceNomesCompostos", b":" + callee.encode())
        assert typo != inputs["main.lg"]
        (d / "main.lg").write_bytes(typo)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(_fuzz_argv(d, "main"))
        assert code == 2
        assert err.getvalue() == f"lgw apply: error: {d / 'main.lg'}: {message}\n"
        _check_contract("apply", code, err.getvalue())


@pytest.mark.parametrize("kind", sorted(_FUZZ))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(edits=st.lists(_edit, min_size=1, max_size=4))
def test_cli_contract_holds_for_damaged_inputs(kind, edits):
    name, command = _FUZZ[kind]
    inputs = _fuzz_inputs()
    with tempfile.TemporaryDirectory() as directory, _address_space_capped():
        d = pathlib.Path(directory)
        for n, content in inputs.items():
            (d / n).write_bytes(_mutated(content, edits) if n == name else content)
        argv = _fuzz_argv(d, command)
        if name is None:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            (path,) = (d / "__lgwcache__").iterdir()
            blob = path.read_bytes()
            # the payload, after the key's and the payload's digests
            path.write_bytes(_mutated(blob, edits, blob.index(b"\n") + 129))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        _check_contract(argv[0], code, err.getvalue())
