"""The layer functions perfbench/trace.py wraps are still where it looks
them up: a refactor that breaks ``perfbench/run.py --trace 1`` fails here."""

import importlib.util
from pathlib import Path

from lgw import data
from lgw.cli import main

TRACE_PY = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"
G1_FILES = ("ReconheceFormasDeTratamento", "Preposicao", "Abreviacoes")


def _load_trace():
    # a unique name: "trace" is also a standard library module
    spec = importlib.util.spec_from_file_location("lgw_perfbench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _apply_argv(directory, corpus, *options):
    """``lgw apply`` of the shipped g1 grammars and Portuguese lexicon on
    ``corpus``, all written into ``directory``, the outputs into its out/."""
    argv = ["apply", "--out", str(directory / "out"), *options]
    for name in G1_FILES:
        (directory / f"{name}.lg").write_text(data.grammar_text(name), encoding="utf-8")
        argv += ["--grammar", str(directory / f"{name}.lg")]
    (directory / "portugues.dic").write_text(data.lexicon_text("portugues"), encoding="utf-8")
    (directory / "corpus.txt").write_text(corpus, encoding="utf-8")
    return argv + ["--lexicon", str(directory / "portugues.dic"), str(directory / "corpus.txt")]


def test_traced_apply_records_the_layer_spans(tmp_path):
    argv = _apply_argv(tmp_path, "A Sra. Joana da Silva falou.\n")

    # the first apply tokenizes the corpus and writes its sidecar, the
    # second reads it: both reach apply_grammar through the traced wrapper
    for run in ("miss", "hit"):
        tracer = _load_trace().Tracer()
        tracer.install()
        try:
            assert tracer.command("apply", main, argv) == 0
        finally:
            tracer.uninstall()
        recorded = {(layer, name) for _, _, _, name, layer, *_ in tracer.spans}
        assert {("matcher", "apply"), ("matcher", "filter_longest"),
                ("grammar", "load")} <= recorded
        assert (("matcher", "tokenize") in recorded) == (run == "miss")
        # the miss parses the lexicon and counts its symbol sets; the hit
        # rebuilds it from its sidecar and parses nothing
        parses = [counts for _, _, _, name, layer, _, _, counts in tracer.spans
                  if (layer, name) == ("lexicon", "parse")]
        if run == "miss":
            assert parses and all(c["entries"] > 0 for c in parses)
        else:
            assert parses == []
    assert len(list((tmp_path / "__lgwcache__").glob("corpus.txt.*.lgc"))) == 1


def test_traced_apply_writes_what_an_untraced_apply_writes(tmp_path):
    # the trace runs ALL mode and then filter_longest, where an untraced
    # apply keeps each start's longest matches inside the walk; the shorter
    # names here ("Joana", "Rui de Sousa") are the matches it drops
    corpus = "A Sra. Joana da Silva falou com o Dr. Rui de Sousa Lima e a Profa. Ana.\n"
    written = []
    for traced in (False, True):
        directory = tmp_path / ("traced" if traced else "untraced")
        directory.mkdir()
        argv = _apply_argv(directory, corpus, "--xml", "sys.xml")
        tracer = _load_trace().Tracer()
        if traced:
            tracer.install()
        try:
            assert tracer.command("apply", main, argv) == 0
        finally:
            tracer.uninstall()
        written.append({p.name: p.read_bytes() for p in (directory / "out").iterdir()})
    assert written[0] == written[1]
    assert sorted(written[0]) == ["ReconheceFormasDeTratamento.cnc", "sys.xml"]
    assert written[0]["sys.xml"].count(b"<EM ") == 3
