"""Command-line front end: apply -> diff/relate -> compose -> eval.

Exit codes: 0 success, 1 usage error, 2 unreadable or unparsable input
or an unwritable output path, 3 semantic mismatch (e.g. concordances from
different texts), 4 empty-result error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from bisect import bisect_left
from functools import cache
from pathlib import Path

from . import concorddiff, evaluator, matcher, sidecar
from .composer import compose_main, select_keep_set
from .concordance import build_concordance, parse_concordance, write_concordance
from .concorddiff import Action, DiffCounts, Relation, RelationReport
from .errors import EmptyKeepSet, LgwError, TextMismatch, UsageError, located
# parse_graph is not called here: perfbench/trace.py wraps lgw.cli.parse_graph
from .grammar import _ID, load_grammar_set, parse_graph, render_graph, validate_set
# perfbench/trace.py wraps lgw.cli.parse_lexicon and lgw.cli.merge_lexicons
from .lexicon import Lexicon, merge_lexicons, parse_lexicon, text_lexicon
from .matcher import ALL_MATCHES, LONGEST_ONLY, Tokenized, apply_grammar


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _width(value: str) -> int:
    """A context width in characters, which a concordance header must be
    able to hold: a non-negative integer."""
    try:
        n = int(value)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {value!r}")
    return n


def _attribute(value: str) -> str:
    """An <EM> attribute value, which ``lgw eval`` must be able to read
    back: no '"', '<' or '>'."""
    if any(c in '"<>' for c in value):
        raise argparse.ArgumentTypeError(f"may not contain '\"', '<' or '>': {value!r}")
    return value


def _graph_name(value: str) -> str:
    """A name ``lgw apply`` can read back from a ``graph`` line."""
    if not _ID.fullmatch(value):
        raise argparse.ArgumentTypeError(f"not a graph name (letters, digits, '_'): {value!r}")
    return value


# one parser per process: building it costs about 1 ms, and ``main`` may
# be called many times (by tests, library callers and the benchmark)
@cache
def _build_parser() -> _Parser:
    p = _Parser(prog="lgw", description="local grammar workbench")
    sub = p.add_subparsers(dest="command", required=True)

    ap = sub.add_parser("apply", help="apply a grammar to a corpus, write a concordance")
    ap.set_defaults(run=cmd_apply)
    ap.add_argument("--lexicon", action="append", default=[], help="lexicon file (repeatable)")
    ap.add_argument("--grammar", action="append", required=True, help="grammar file (repeatable)")
    ap.add_argument("--main", help="main graph name (default: first grammar file's graph)")
    ap.add_argument("--mode", choices=[ALL_MATCHES, LONGEST_ONLY], default=LONGEST_ONLY)
    ap.add_argument("--left", type=_width, default=40)
    ap.add_argument("--right", type=_width, default=60)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--cnc", help="concordance file name inside --out")
    ap.add_argument("--xml", help="also write an <EM>-annotated XML file inside --out")
    ap.add_argument("--categ", type=_attribute, default="PESSOA")
    ap.add_argument("--tipo", type=_attribute, default="INDIVIDUAL")
    ap.add_argument("--stamp", action="store_true")
    ap.add_argument("corpus", nargs="+", help="corpus text file(s)")

    dp = sub.add_parser("diff", help="compare two concordances, write HTML and JSON")
    dp.set_defaults(run=cmd_diff)
    dp.add_argument("cnc_x")
    dp.add_argument("cnc_y")
    dp.add_argument("--out", required=True)
    dp.add_argument("--html", default="diff.html")
    dp.add_argument("--json", default="relation.json")
    dp.add_argument("--stamp", action="store_true")

    rp = sub.add_parser("relate", help="infer the set relation between two concordances (JSON only)")
    rp.set_defaults(run=cmd_diff, html=None)
    rp.add_argument("cnc_x")
    rp.add_argument("cnc_y")
    rp.add_argument("--out", required=True)
    rp.add_argument("--json", default="relation.json")
    rp.add_argument("--stamp", action="store_true")

    cp = sub.add_parser("compose", help="select the keep-set and compose a main graph")
    cp.set_defaults(run=cmd_compose)
    cp.add_argument("--report", action="append", required=True, help="relation JSON (repeatable)")
    cp.add_argument("--name", type=_graph_name, default="Main")
    cp.add_argument("--out", required=True)
    cp.add_argument("--lg", default="main.lg")
    cp.add_argument("--decisions", default="decisions.json")
    cp.add_argument("--stamp", action="store_true")

    ep = sub.add_parser("eval", help="score a system XML against a gold XML")
    ep.set_defaults(run=cmd_eval)
    ep.add_argument("--sys", required=True, dest="sys_xml")
    ep.add_argument("--gold", required=True)
    ep.add_argument("--categ", required=True)
    ep.add_argument("--tipo")
    ep.add_argument("--out")
    ep.add_argument("--json", default="eval.json")
    return p


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LgwError(f"cannot read {path}: {exc}") from None


def _write(out_dir: str, name: str, content: str) -> Path:
    target = Path(out_dir) / name
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise LgwError(f"cannot write {target}: {exc}") from None
    return target


def _parse(parse, path: str, **kwargs):
    """parse() of the text of the file at path; a parse error names the file."""
    text = _read(path)
    with located(path):
        return parse(text, **kwargs)


def _stamp(args) -> str:
    """The UTC time a command writes into each of its outputs with
    ``--stamp``; "" without it."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat() if args.stamp else ""


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_text(path: str) -> tuple:
    """(text, digest) of the corpus file at ``path``: the digest of its
    UTF-8 bytes, which the file's sidecar key holds."""
    text = _read(path)
    return text, sidecar.digest(text.encode("utf-8"))


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise LgwError(f"cannot read {path}: {exc}") from None


def _attempt(read, path: str):
    """read(path), or the LgwError it raises, for the command to raise
    where it would have read the file."""
    try:
        return read(path)
    except LgwError as exc:
        return exc


def _load_lexicon(path: str, data) -> Lexicon:
    """The lexicon parsed from the file at path, which holds ``data`` (or
    the LgwError reading it raised)."""
    if isinstance(data, LgwError):
        raise data
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LgwError(f"cannot read {path}: {exc}") from None
    with located(path):
        return parse_lexicon(text)


def _load_lexicons(paths, data) -> Lexicon:
    return merge_lexicons([_load_lexicon(p, d) for p, d in zip(paths, data)])


def _read_corpus(paths, texts, lexicons, found, full) -> tuple:
    """(the ``Tokenized`` joined text, its text lexicon) of the corpus
    files at ``paths``, whose ``_read_text`` pairs are ``texts``, for the
    ``sidecar.lexicon_set`` ``lexicons``.  A file's tokens and text
    lexicon are those ``found`` in its sidecar; a file whose sidecar
    missed (None) is tokenized, its text lexicon is cut from the ``full``
    lexicon, and both are kept in its sidecar.  The texts are joined with
    "\n", which no token spans and no lexicon key holds, so the files'
    tokens, their starts shifted by where their texts start, and the merge
    of their text lexicons are those of the joined text."""
    tokens, cut, offset = None, [], 0
    for p, (text, digest), hit in zip(paths, texts, found):
        if hit is None:
            toks = matcher._impl.tokenize_raw(text)
            hit = toks, text_lexicon(full, toks, text)
            sidecar.write(p, lexicons, digest, *hit)
        toks, lex = hit
        cut.append(lex)
        if offset:
            surfaces, starts = tokens
            surfaces += toks[0]
            starts.extend(a + offset for a in toks[1])
        else:
            tokens = toks
        offset += len(text) + 1
    return Tokenized("\n".join(text for text, _ in texts), tokens), merge_lexicons(cut)


def cmd_apply(args) -> int:
    for p in args.corpus:
        # the concordance header holds the corpus file names as one field
        if any(c.isspace() for c in Path(p).name):
            raise UsageError(f"corpus file name contains whitespace: {Path(p).name!r}")
    stamp = _stamp(args)
    corpus = sorted(args.corpus, key=lambda p: Path(p).name)
    # the corpus and the lexicon bytes are read first, to look up the
    # sidecars; when a file cannot be read, every sidecar misses and its
    # read error is raised only where the file's load raises it
    texts = [_attempt(_read_text, p) for p in corpus]
    data = [_attempt(_read_bytes, p) for p in args.lexicon]
    if any(isinstance(x, LgwError) for x in (*texts, *data)):
        lexicons, found = None, [None] * len(corpus)
    else:
        lexicons = sidecar.lexicon_set(args.lexicon, data)
        found = [sidecar.read(p, lexicons, digest) for p, (_, digest) in zip(corpus, texts)]
    full = _load_lexicons(args.lexicon, data) if None in found else None
    del data  # not kept through the walk: a 20k-entry lexicon file is about 330 kB
    gs = load_grammar_set([(p, _read(p)) for p in args.grammar], args.main)
    diags = validate_set(gs)
    for d in diags:
        print(f"{d.severity}: {d.code}: {d.detail}", file=sys.stderr)
    if any(d.severity == "error" for d in diags):
        return 2
    for text in texts:
        if isinstance(text, LgwError):
            raise text
    text_id = "+".join(Path(p).name for p in corpus)
    tokenized, lex = _read_corpus(corpus, texts, lexicons, found, full)
    del found, full  # the walk needs only the text lexicon
    # the tokens ride in the text argument: perfbench/trace.py forwards
    # exactly apply_grammar's five parameters
    occs = apply_grammar(gs, tokenized, lex, mode=args.mode)
    text = tokenized.text
    del tokenized  # keeping the tokens through annotate and the concordance raised peak memory
    # annotate before writing anything: a text the XML refuses leaves no file
    if args.xml:
        annotated = evaluator.annotate(
            text, _non_overlapping(occs), args.categ, args.tipo
        )
    cnc = build_concordance(
        occs, text, args.left, args.right, grammar=gs.main, text_id=text_id
    )
    body = (f"# generated {stamp}\n" if stamp else "") + write_concordance(cnc)
    path = _write(args.out, args.cnc or f"{gs.main}.cnc", body)
    print(f"{len(occs)} occurrence(s) -> {path}")
    if args.xml:
        print(f"annotated XML -> {_write(args.out, args.xml, annotated)}")
    return 0


def _non_overlapping(occs):
    """Greedy maximal non-overlapping subset, longer occurrences first;
    inline annotation cannot represent overlapping spans.

    The non-empty spans chosen are disjoint, so their ends rise with their
    starts, and a candidate overlaps one of them exactly when it overlaps
    the last one starting before the candidate ends.  A chosen span with
    start >= end is empty and can never overlap a later, no longer
    candidate, so it is not indexed."""
    chosen = []
    starts, ends = [], []  # chosen non-empty spans, in start order
    for o in sorted(occs, key=lambda o: (o.start - o.end, o.start, o.merged)):
        i = bisect_left(starts, o.end)
        if i and ends[i - 1] > o.start:
            continue
        chosen.append(o)
        if o.start < o.end:
            starts.insert(i, o.start)
            ends.insert(i, o.end)
    return sorted(chosen, key=lambda o: o.start)


def cmd_diff(args) -> int:
    """``lgw diff``; ``lgw relate`` is the same without the HTML report."""
    stamp = _stamp(args)
    cx = _parse(parse_concordance, args.cnc_x)
    cy = _parse(parse_concordance, args.cnc_y)
    diff = concorddiff.align(cx, cy)
    if args.html is not None:
        html = concorddiff.render_html(diff)
        if stamp:
            html = html.replace("</body>", f"<!-- generated {stamp} -->\n</body>")
        print(f"HTML -> {_write(args.out, args.html, html)}")
    report = concorddiff.infer_relation(cx, cy, diff).to_json_dict()
    if stamp:
        report["stamp"] = stamp
    print(f"relation -> {_write(args.out, args.json, _json(report))}")
    print(report["recommendation"])
    return 0


def _read_report(path: str) -> RelationReport:
    """The relation report an ``lgw diff`` or ``lgw relate`` wrote."""
    try:
        d = json.loads(_read(path))
        for k in ("grammar_x", "grammar_y"):
            if not isinstance(d[k], str):
                raise TypeError("grammar names must be strings")
            if not _ID.fullmatch(d[k]):
                raise ValueError(f"{k} is not a graph name: {d[k]!r}")
        return RelationReport(
            Relation(d["relation"]),
            Action(d["action"]),
            DiffCounts(**d["counts"]),
            d["grammar_x"],
            d["grammar_y"],
        )
    except KeyError as exc:
        raise LgwError(f"bad relation report {path}: missing key {exc}") from None
    except (ValueError, TypeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise LgwError(f"bad relation report {path}: {exc}") from None


def cmd_compose(args) -> int:
    stamp = _stamp(args)
    reports = {}
    for path in args.report:
        rep = _read_report(path)
        reports[(rep.grammar_x, rep.grammar_y)] = rep
    grammars = sorted({g for pair in reports for g in pair})
    if not grammars:
        raise EmptyKeepSet("no grammars named in the relation reports")
    if args.name in grammars:
        raise UsageError(f"--name {args.name} is a grammar of the relation reports")
    decisions = select_keep_set(grammars, reports)
    kept = [d.grammar for d in decisions if d.kept]
    graph = compose_main(kept, args.name)
    body = (f"# generated {stamp}\n" if stamp else "") + render_graph(graph)
    print(f"main graph ({len(kept)} call(s)) -> {_write(args.out, args.lg, body)}")
    dec_json = _json([d.to_json_dict() for d in decisions])
    print(f"decisions -> {_write(args.out, args.decisions, dec_json)}")
    return 0


def cmd_eval(args) -> int:
    sys_plain, sys_anns = _parse(evaluator.parse_gold, args.sys_xml)
    gold_plain, gold_anns = _parse(evaluator.parse_gold, args.gold)
    if sys_plain != gold_plain:
        raise TextMismatch("system and gold files have different underlying texts")
    report = evaluator.score(sys_anns, gold_anns, args.categ, args.tipo)
    bold = sys.stdout.isatty() and os.environ.get("LGW_COLOR") != "0"
    print(evaluator.format_report(report, args.categ, args.tipo, bold=bold))
    if args.out:
        print(f"report -> {_write(args.out, args.json, _json(report.to_json_dict()))}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.run(args)
    except LgwError as exc:
        print(f"lgw {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry_point():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
