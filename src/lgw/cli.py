"""Command-line front end: apply -> diff/relate -> compose -> eval.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 semantic
mismatch (e.g. concordances from different texts), 4 empty-result error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

from . import concorddiff, evaluator
from .composer import compose_main, select_keep_set
from .concordance import (
    Concordance,
    ContextConfig,
    build_concordance,
    parse_concordance,
    write_concordance,
)
from .concorddiff import Action, DiffCounts, Relation, RelationReport
from .errors import EmptyKeepSet, LgwError
from .grammar import load_grammar_set, parse_graph, render_graph, validate_set
from .lexicon import Lexicon, merge_lexicons, parse_lexicon
from .matcher import ALL_MATCHES, LONGEST_ONLY, apply_grammar


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="lgw", description="local grammar workbench")
    sub = p.add_subparsers(dest="command", required=True)

    ap = sub.add_parser("apply", help="apply a grammar to a corpus, write a concordance")
    ap.add_argument("--lexicon", action="append", default=[], help="lexicon file (repeatable)")
    ap.add_argument("--grammar", action="append", required=True, help="grammar file (repeatable)")
    ap.add_argument("--main", help="main graph name (default: first grammar file's graph)")
    ap.add_argument("--mode", choices=["all", "longest"], default="longest")
    ap.add_argument("--left", type=int, default=40)
    ap.add_argument("--right", type=int, default=60)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--cnc", help="concordance file name inside --out")
    ap.add_argument("--xml", help="also write an <EM>-annotated XML file inside --out")
    ap.add_argument("--categ", default="PESSOA")
    ap.add_argument("--tipo", default="INDIVIDUAL")
    ap.add_argument("--stamp", action="store_true")
    ap.add_argument("corpus", nargs="+", help="corpus text file(s)")

    dp = sub.add_parser("diff", help="compare two concordances, write HTML and JSON")
    dp.add_argument("cnc_x")
    dp.add_argument("cnc_y")
    dp.add_argument("--out", required=True)
    dp.add_argument("--html", default="diff.html")
    dp.add_argument("--json", default="relation.json")
    dp.add_argument("--stamp", action="store_true")

    rp = sub.add_parser("relate", help="infer the set relation between two concordances (JSON only)")
    rp.add_argument("cnc_x")
    rp.add_argument("cnc_y")
    rp.add_argument("--out", required=True)
    rp.add_argument("--json", default="relation.json")
    rp.add_argument("--stamp", action="store_true")

    cp = sub.add_parser("compose", help="select the keep-set and compose a main graph")
    cp.add_argument("--report", action="append", required=True, help="relation JSON (repeatable)")
    cp.add_argument("--name", default="Main")
    cp.add_argument("--out", required=True)
    cp.add_argument("--lg", default="main.lg")
    cp.add_argument("--decisions", default="decisions.json")
    cp.add_argument("--stamp", action="store_true")

    ep = sub.add_parser("eval", help="score a system XML against a gold XML")
    ep.add_argument("--sys", required=True, dest="sys_xml")
    ep.add_argument("--gold", required=True)
    ep.add_argument("--categ", required=True)
    ep.add_argument("--tipo")
    ep.add_argument("--out")
    ep.add_argument("--json", default="eval.json")
    return p


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(out_dir: str, name: str, content: str) -> Path:
    target = Path(out_dir) / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content, encoding="utf-8")
    return target


def _stamp_line(enabled: bool, comment: str) -> str:
    if not enabled:
        return ""
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return comment.format(now) + "\n"


def _load_lexicons(paths) -> Lexicon:
    lexicons = [parse_lexicon(_read(p), name=Path(p).stem) for p in paths]
    return merge_lexicons(lexicons, name="+".join(Path(p).stem for p in paths))


def cmd_apply(args) -> int:
    lex = _load_lexicons(args.lexicon)
    files = [(Path(p).stem, _read(p)) for p in args.grammar]
    main = args.main or parse_graph(files[0][1]).name
    gs = load_grammar_set(files, main)
    diags = validate_set(gs)
    for d in diags:
        print(f"{d.severity}: {d.code}: {d.detail}", file=sys.stderr)
    if any(d.severity == "error" for d in diags):
        return 2
    corpus = sorted(args.corpus, key=lambda p: Path(p).name)
    text = "\n".join(_read(p) for p in corpus)
    text_id = "+".join(Path(p).name for p in corpus)
    mode = LONGEST_ONLY if args.mode == "longest" else ALL_MATCHES
    occs = apply_grammar(gs, text, lex, mode=mode)
    cnc = build_concordance(
        occs, text, ContextConfig(args.left, args.right), grammar=main, text_id=text_id
    )
    body = _stamp_line(args.stamp, "# generated {}") + write_concordance(cnc)
    path = _write(args.out, args.cnc or f"{main}.cnc", body)
    print(f"{len(occs)} occurrence(s) -> {path}")
    if args.xml:
        annotated = evaluator.annotate(
            text, _non_overlapping(occs), args.categ, args.tipo
        )
        print(f"annotated XML -> {_write(args.out, args.xml, annotated)}")
    return 0


def _non_overlapping(occs):
    """Greedy maximal non-overlapping subset, longer occurrences first;
    inline annotation cannot represent overlapping spans."""
    chosen = []
    for o in sorted(occs, key=lambda o: (o.start - o.end, o.start, o.merged)):
        if all(o.end <= c.start or c.end <= o.start for c in chosen):
            chosen.append(o)
    return sorted(chosen, key=lambda o: o.start)


def _relation_json(report: RelationReport, stamp: bool) -> str:
    d = report.to_json_dict()
    if stamp:
        d["stamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def cmd_diff(args) -> int:
    cx = parse_concordance(_read(args.cnc_x))
    cy = parse_concordance(_read(args.cnc_y))
    diff = concorddiff.align(cx, cy)
    html_body = concorddiff.render_html(diff)
    if args.stamp:
        html_body = html_body.replace(
            "</body>",
            f"<!-- generated {datetime.datetime.now(datetime.timezone.utc).isoformat()} -->\n</body>",
        )
    report = concorddiff.infer_relation(cx, cy)
    print(f"HTML -> {_write(args.out, args.html, html_body)}")
    print(f"relation -> {_write(args.out, args.json, _relation_json(report, args.stamp))}")
    print(concorddiff.recommend(report))
    return 0


def cmd_relate(args) -> int:
    cx = parse_concordance(_read(args.cnc_x))
    cy = parse_concordance(_read(args.cnc_y))
    report = concorddiff.infer_relation(cx, cy)
    print(f"relation -> {_write(args.out, args.json, _relation_json(report, args.stamp))}")
    print(concorddiff.recommend(report))
    return 0


def _report_from_json(d: dict) -> RelationReport:
    return RelationReport(
        Relation(d["relation"]),
        Action(d["action"]),
        DiffCounts(**d["counts"]),
        d["grammar_x"],
        d["grammar_y"],
    )


def cmd_compose(args) -> int:
    reports = {}
    for path in args.report:
        d = json.loads(_read(path))
        rep = _report_from_json(d)
        reports[(rep.grammar_x, rep.grammar_y)] = rep
    grammars = sorted({g for pair in reports for g in pair})
    if not grammars:
        raise EmptyKeepSet("no grammars named in the relation reports")
    decisions = select_keep_set(grammars, reports)
    kept = [d.grammar for d in decisions if d.kept]
    graph = compose_main(kept, args.name)
    body = _stamp_line(args.stamp, "# generated {}") + render_graph(graph)
    print(f"main graph ({len(kept)} call(s)) -> {_write(args.out, args.lg, body)}")
    dec_json = json.dumps([d.to_json_dict() for d in decisions], indent=2) + "\n"
    print(f"decisions -> {_write(args.out, args.decisions, dec_json)}")
    return 0


def cmd_eval(args) -> int:
    sys_plain, sys_anns = evaluator.parse_gold(_read(args.sys_xml))
    gold_plain, gold_anns = evaluator.parse_gold(_read(args.gold))
    if sys_plain != gold_plain:
        from .errors import TextMismatch

        raise TextMismatch("system and gold files have different underlying texts")
    report = evaluator.score(sys_anns, gold_anns, args.categ, args.tipo)
    bold = sys.stdout.isatty() and os.environ.get("LGW_COLOR") != "0"
    print(evaluator.format_report(report, args.categ, args.tipo, bold=bold))
    if args.out:
        body = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        print(f"report -> {_write(args.out, args.json, body)}")
    return 0


_COMMANDS = {
    "apply": cmd_apply,
    "diff": cmd_diff,
    "relate": cmd_relate,
    "compose": cmd_compose,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except LgwError as exc:
        print(f"lgw {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"lgw {args.command}: error: {exc}", file=sys.stderr)
        return 2


def entry_point():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
