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


def test_traced_apply_records_the_layer_spans(tmp_path):
    argv = ["apply", "--out", str(tmp_path / "out")]
    for name in G1_FILES:
        (tmp_path / f"{name}.lg").write_text(data.grammar_text(name), encoding="utf-8")
        argv += ["--grammar", str(tmp_path / f"{name}.lg")]
    (tmp_path / "portugues.dic").write_text(data.lexicon_text("portugues"), encoding="utf-8")
    (tmp_path / "corpus.txt").write_text("A Sra. Joana da Silva falou.\n", encoding="utf-8")
    argv += ["--lexicon", str(tmp_path / "portugues.dic"), str(tmp_path / "corpus.txt")]

    # the first apply tokenizes the corpus and writes its token sidecar, the
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
    assert (tmp_path / "__lgwcache__" / "corpus.txt.tok").exists()
