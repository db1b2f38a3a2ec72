"""Spans around lgw's layer functions, recorded from outside the program.

``Tracer.install()`` replaces each layer function with a timing wrapper
where ``lgw.cli``, ``lgw.concorddiff``, ``lgw.evaluator`` and
``lgw.matcher`` look it up at call time, so every span nests under the
CLI command that caused it.  ``uninstall()`` puts the originals back.
Nothing in the package changes; only this benchmark process is patched.

A span is (id, parent, trace, name, layer, start_ns, end_ns, counts).
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

import lgw.cli
import lgw.concorddiff
import lgw.evaluator
import lgw.lexicon
import lgw.matcher


def _lexicon_counts(lex):
    multi = sum(len(es) for s, es in lex.entries.items() if len(s.split()) > 1)
    return {"entries": len(lex), "multiword_entries": multi}


def _alternatives(gs):
    return {"alternatives": sum(
        len(b.alternatives) for g in gs.graphs.values() for b in g.boxes
    )}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 1
        self.trace = 0
        self._patched = []

    def span(self, name, layer, fn, args, kwargs, counts=None):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        rec = [sid, parent, self.trace, name, layer, time.perf_counter_ns(), 0, None]
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[6] = time.perf_counter_ns()
            self._stack.pop()
        if counts is not None:
            rec[7] = counts(result, *args)
        return result

    def _wrap(self, owner, attr, name, layer, counts=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, layer, orig, args, kwargs, counts)

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self):
        cli, cd, ev, m = lgw.cli, lgw.concorddiff, lgw.evaluator, lgw.matcher
        w = self._wrap
        w(cli, "parse_lexicon", "parse", "lexicon", lambda r, *a: _lexicon_counts(r))
        w(cli, "merge_lexicons", "merge", "lexicon")
        w(lgw.lexicon.Lexicon, "symbol_index", "index", "lexicon")
        w(cli, "parse_graph", "load", "grammar")
        w(cli, "load_grammar_set", "load", "grammar", lambda r, *a: _alternatives(r))
        w(cli, "validate_set", "validate", "grammar")
        w(cli, "render_graph", "render", "grammar")
        w(m, "compile_grammar_set", "compile", "matcher")
        # the kernel entry points apply_grammar reaches through matcher._impl
        impl = m._impl
        proxy = types.SimpleNamespace(**{
            k: getattr(impl, k) for k in dir(impl) if not k.startswith("__")
        })
        self._patched.append((m, "_impl", impl))
        m._impl = proxy
        w(proxy, "tokenize_raw", "tokenize", "matcher", lambda r, *a: {"tokens": len(r)})
        w(proxy, "sentence_boundaries", "boundaries", "matcher")
        w(proxy, "find_matches", "apply", "matcher")
        self._wrap_apply_grammar()
        w(cli, "build_concordance", "build", "concordance",
          lambda r, *a: {"lines": len(r.lines)})
        w(cli, "write_concordance", "write", "concordance")
        w(cli, "parse_concordance", "parse", "concordance")
        w(cd, "align", "align", "concorddiff",
          lambda r, cx, cy: {"align_calls": 1, "line_pairs": len(cx.lines) * len(cy.lines)})
        w(cd, "infer_relation", "infer_relation", "concorddiff")
        w(cd, "render_html", "render_html", "concorddiff")
        w(cli, "_non_overlapping", "non_overlapping", "cli")
        w(ev, "parse_gold", "parse_gold", "evaluator")
        w(ev, "annotate", "annotate", "evaluator")
        w(ev, "score", "score", "evaluator")
        w(cli, "select_keep_set", "select", "composer")
        w(cli, "compose_main", "compose", "composer")

    def _wrap_apply_grammar(self):
        """Run ALL mode and the longest filter as two spans, so the
        occurrences the filter drops are counted where it drops them."""
        m = lgw.matcher
        apply_all = m.apply_grammar
        filter_longest = m.filter_longest

        def run(gs, text, lex, mode=m.LONGEST_ONLY, abbreviations=None):
            occs = apply_all(gs, text, lex, m.ALL_MATCHES, abbreviations)
            counts = {"occurrences_all": len(occs), "occurrences_kept": len(occs)}
            if mode == m.LONGEST_ONLY:
                occs = self.span("filter_longest", "matcher", filter_longest, (occs,), {})
                counts["occurrences_kept"] = len(occs)
            return occs, counts

        def wrapper(*args, **kwargs):
            occs, counts = self.span("apply_grammar", "matcher", run, args, kwargs,
                                     lambda r, *a: r[1])
            return occs

        self._patched.append((lgw.cli, "apply_grammar", lgw.cli.apply_grammar))
        lgw.cli.apply_grammar = wrapper

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def command(self, name, fn, *args):
        """Run one CLI command as a root span of layer cli."""
        return self.span(name, "cli", fn, args, {})

    def dump(self, path):
        keys = ("id", "parent", "trace", "name", "layer", "start_ns", "end_ns", "counts")
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(keys, rec))) + "\n")


def summarize(spans):
    """Per-trace totals from a span list.

    Returns {trace: {"time": {layer.name: s}, "self": {layer: s},
    "count": {layer.counter: n}, "commands": s, "spans": n}}.  A span's
    self time is its duration minus its direct children's durations
    (single-threaded, so children never overlap).
    """
    child = defaultdict(int)
    for s in spans:
        if s[1]:
            child[s[1]] += s[6] - s[5]
    out = {}
    for s in spans:
        t = out.setdefault(s[2], {
            "time": defaultdict(float), "self": defaultdict(float),
            "count": defaultdict(int), "commands": 0.0, "spans": 0,
        })
        dur = (s[6] - s[5]) / 1e9
        t["spans"] += 1
        t["time"][f"{s[4]}.{s[3]}"] += dur
        t["self"][s[4]] += dur - child[s[0]] / 1e9
        if not s[1]:
            t["commands"] += dur
        for k, v in (s[7] or {}).items():
            t["count"][f"{s[4]}.{k}"] += v
    return out
