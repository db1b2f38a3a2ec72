"""Compare two concordances of the same text line by line.

Diff classes follow the four character colors of the comparison report:
common occurrences (blue), partial span overlaps (red), occurrences unique
to one side (green) and same-span occurrences with different inserted
outputs (purple).  From the classified lines a set-theoretic relation
between the two concordances is inferred, together with the recommended
keep/discard action.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import NamedTuple

from .concordance import Concordance, ConcordanceLine
from .errors import TextMismatch


class DiffClass(str, Enum):
    COMMON = "common"
    PARTIAL_OVERLAP = "partial_overlap"
    UNIQUE_X = "unique_x"
    UNIQUE_Y = "unique_y"
    OUTPUT_CONFLICT = "output_conflict"


class Relation(str, Enum):
    EQUAL = "equal"
    EQUAL_DIFFERENT_OUTPUTS = "equal_different_outputs"
    X_SUBSET_OF_Y = "x_subset_of_y"
    Y_SUBSET_OF_X = "y_subset_of_x"
    INTERSECTING = "intersecting"
    DISJOINT_X_EMPTY = "disjoint_x_empty"
    DISJOINT_Y_EMPTY = "disjoint_y_empty"
    DISJOINT = "disjoint"
    SIMILAR_OVERLAP = "similar_overlap"
    DISJOINT_WITH_SOME_OVERLAP = "disjoint_with_some_overlap"


class Action(str, Enum):
    KEEP_X = "keep_x"
    KEEP_Y = "keep_y"
    KEEP_EITHER = "keep_either"
    KEEP_BOTH = "keep_both"
    ANALYZE_AMBIGUITY = "analyze_ambiguity"
    KEEP_LONGER_X = "keep_longer_x"
    KEEP_LONGER_Y = "keep_longer_y"


class DiffCounts(NamedTuple):
    common: int  # matched (span, output) pairs present on both sides
    conflict: int  # output-conflict lines, both sides
    partial: int  # partial-overlap lines, both sides
    unique_x: int
    unique_y: int


@dataclass(frozen=True)
class DiffLine:
    side: str  # "x" | "y"
    line: ConcordanceLine
    cls: DiffClass


_OPPOSITE = {"x": "y", "y": "x"}
_UNIQUE = {"x": DiffClass.UNIQUE_X, "y": DiffClass.UNIQUE_Y}


@dataclass(frozen=True)
class RelationReport:
    relation: Relation
    action: Action
    counts: DiffCounts
    grammar_x: str = ""
    grammar_y: str = ""

    def to_json_dict(self) -> dict:
        return {
            "grammar_x": self.grammar_x,
            "grammar_y": self.grammar_y,
            "relation": self.relation.value,
            "action": self.action.value,
            "counts": self.counts._asdict(),
            "recommendation": recommend(self),
        }


def align(cx: Concordance, cy: Concordance) -> list:
    """Classified lines of both sides, grouped by overlap component in
    positional order; within a component X and Y lines are interleaved,
    X first.

    One sweep in start order finds every X-Y overlap: a line overlaps
    exactly the lines of the other side that are still open (end past its
    start) and pass the interval test.  Those overlaps give both the
    PARTIAL_OVERLAP flags and the union-find components."""
    if cx.source_text_id != cy.source_text_id:
        raise TextMismatch(
            f"concordances come from different texts: "
            f"{cx.source_text_id!r} vs {cy.source_text_id!r}"
        )
    lines = [("x", l) for l in cx.lines] + [("y", l) for l in cy.lines]
    parent = list(range(len(lines)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    overlapped = [False] * len(lines)
    open_ = {"x": [], "y": []}
    for k in sorted(range(len(lines)), key=lambda k: lines[k][1].start):
        side, b = lines[k]
        other = _OPPOSITE[side]
        still = []
        for j in open_[other]:
            a = lines[j][1]
            if b.start < a.end:
                still.append(j)
                if a.start < b.end:
                    overlapped[j] = overlapped[k] = True
                    parent[find(j)] = find(k)
        open_[other] = still
        open_[side].append(k)

    exact = {"x": set(), "y": set()}
    spans = {"x": set(), "y": set()}
    for side, l in lines:
        exact[side].add((l.start, l.end, l.match))
        spans[side].add((l.start, l.end))

    def diff_line(k):
        side, l = lines[k]
        other = _OPPOSITE[side]
        if (l.start, l.end, l.match) in exact[other]:
            cls = DiffClass.COMMON
        elif (l.start, l.end) in spans[other]:
            cls = DiffClass.OUTPUT_CONFLICT
        elif overlapped[k]:
            cls = DiffClass.PARTIAL_OVERLAP
        else:
            cls = _UNIQUE[side]
        return DiffLine(side, l, cls)

    groups = {}
    for k in range(len(lines)):
        groups.setdefault(find(k), []).append(k)

    def position(k):
        l = lines[k][1]
        return (l.start, l.end, l.match)

    result = []
    for members in sorted(
        groups.values(),
        key=lambda ks: min((lines[k][1].start, lines[k][1].end, lines[k][0]) for k in ks),
    ):
        xs = sorted((k for k in members if lines[k][0] == "x"), key=position)
        ys = sorted((k for k in members if lines[k][0] == "y"), key=position)
        for pair in zip_longest(xs, ys):
            result.extend(diff_line(k) for k in pair if k is not None)
    return result


def diff_counts(diff: list) -> DiffCounts:
    common_pairs = sum(1 for d in diff if d.side == "x" and d.cls is DiffClass.COMMON)
    conflict = sum(1 for d in diff if d.cls is DiffClass.OUTPUT_CONFLICT)
    partial = sum(1 for d in diff if d.cls is DiffClass.PARTIAL_OVERLAP)
    ux = sum(1 for d in diff if d.cls is DiffClass.UNIQUE_X)
    uy = sum(1 for d in diff if d.cls is DiffClass.UNIQUE_Y)
    return DiffCounts(common_pairs, conflict, partial, ux, uy)


_BG = {"x": "#FFD7D7", "y": "#D7FFD7"}
_FG = {
    DiffClass.COMMON: "#0000CC",
    DiffClass.PARTIAL_OVERLAP: "#CC0000",
    DiffClass.UNIQUE_X: "#007700",
    DiffClass.UNIQUE_Y: "#007700",
    DiffClass.OUTPUT_CONFLICT: "#770077",
}

_HTML_HEAD = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>concordance comparison</title>
<style>
body { font-family: monospace; }
table { border-collapse: collapse; }
td, th { padding: 1px 6px; white-space: pre; }
td.l { text-align: right; }
</style>
</head>
<body>
<table>
<tr><th>span</th><th>left</th><th>match</th><th>right</th></tr>
"""

_HTML_TAIL = "</table>\n</body>\n</html>\n"


def render_html(diff: list) -> str:
    """Self-contained HTML table: pink rows for the first concordance,
    green rows for the second, character color by diff class, and an empty
    filler row opposite every unique line."""
    rows = []
    for d in diff:
        style = f"background:{_BG[d.side]};color:{_FG[d.cls]}"
        l = d.line
        rows.append(
            f'<tr style="{style}"><td>{l.start}-{l.end}</td>'
            f'<td class="l">{html.escape(l.left)}</td>'
            f"<td>{html.escape(l.match)}</td>"
            f"<td>{html.escape(l.right)}</td></tr>"
        )
        if d.cls in (DiffClass.UNIQUE_X, DiffClass.UNIQUE_Y):
            filler = _BG[_OPPOSITE[d.side]]
            rows.append(
                f'<tr style="background:{filler}">'
                "<td></td><td></td><td></td><td></td></tr>"
            )
    return _HTML_HEAD + "\n".join(rows) + ("\n" if rows else "") + _HTML_TAIL


def infer_relation(cx: Concordance, cy: Concordance, diff: list = None) -> RelationReport:
    """Set-theoretic relation between the two concordances and its
    keep/discard consequence.  Occurrence identity is (span, match with
    outputs); geometry (overlap) looks at spans only.  ``diff`` is
    ``align(cx, cy)`` when the caller already has it."""
    if diff is None:
        diff = align(cx, cy)  # also validates the text ids
    counts = diff_counts(diff)
    sx = {(l.start, l.end, l.match) for l in cx.lines}
    sy = {(l.start, l.end, l.match) for l in cy.lines}
    spans_x = sorted((l.start, l.end) for l in cx.lines)
    spans_y = sorted((l.start, l.end) for l in cy.lines)

    def report(rel, act):
        return RelationReport(
            rel, act, counts, cx.source_grammar, cy.source_grammar
        )

    if sx == sy:
        return report(Relation.EQUAL, Action.KEEP_EITHER)
    if spans_x == spans_y:
        return report(Relation.EQUAL_DIFFERENT_OUTPUTS, Action.ANALYZE_AMBIGUITY)
    if not sx:
        return report(Relation.DISJOINT_X_EMPTY, Action.KEEP_Y)
    if not sy:
        return report(Relation.DISJOINT_Y_EMPTY, Action.KEEP_X)
    if sx < sy:
        return report(Relation.X_SUBSET_OF_Y, Action.KEEP_Y)
    if sy < sx:
        return report(Relation.Y_SUBSET_OF_X, Action.KEEP_X)
    if sx & sy:
        return report(Relation.INTERSECTING, Action.KEEP_BOTH)

    def span_overlap(a, b):
        return a[0] < b[1] and b[0] < a[1]

    if len(spans_x) == len(spans_y) and all(
        span_overlap(a, b) for a, b in zip(spans_x, spans_y)
    ):
        if all(a[1] - a[0] > b[1] - b[0] for a, b in zip(spans_x, spans_y)):
            return report(Relation.SIMILAR_OVERLAP, Action.KEEP_LONGER_X)
        if all(a[1] - a[0] < b[1] - b[0] for a, b in zip(spans_x, spans_y)):
            return report(Relation.SIMILAR_OVERLAP, Action.KEEP_LONGER_Y)
        return report(Relation.SIMILAR_OVERLAP, Action.ANALYZE_AMBIGUITY)
    # the sets share no line here, so any X-Y overlap is a conflict or partial line
    if counts.conflict + counts.partial > 0:
        return report(Relation.DISJOINT_WITH_SOME_OVERLAP, Action.KEEP_BOTH)
    return report(Relation.DISJOINT, Action.KEEP_BOTH)


def recommend(r: RelationReport) -> str:
    gx = r.grammar_x or "G_X"
    gy = r.grammar_y or "G_Y"
    texts = {
        Action.KEEP_EITHER: f"Keep either {gx} or {gy}: their concordances are identical.",
        Action.ANALYZE_AMBIGUITY: "Same spans, different outputs: analyze ambiguity.",
        Action.KEEP_X: f"Discard {gy}: every occurrence it finds is also found by {gx}.",
        Action.KEEP_Y: f"Discard {gx}: every occurrence it finds is also found by {gy}.",
        Action.KEEP_LONGER_X: f"Keep {gx}: each of its occurrences is longer than the one it overlaps in {gy}.",
        Action.KEEP_LONGER_Y: f"Keep {gy}: each of its occurrences is longer than the one it overlaps in {gx}.",
    }
    if r.action in texts:
        text = texts[r.action]
    elif r.relation is Relation.DISJOINT_WITH_SOME_OVERLAP:
        text = (
            f"Keep both {gx} and {gy} if their unique occurrences are relevant; "
            "otherwise keep only the grammar matching the larger occurrences."
        )
    elif r.relation is Relation.INTERSECTING:
        text = f"Keep both {gx} and {gy}: each finds occurrences the other misses."
    else:
        text = f"Keep both {gx} and {gy}: they recognize different names."
    c = r.counts
    return (
        f"{text} (common={c.common}, conflict={c.conflict}, partial={c.partial}, "
        f"unique_x={c.unique_x}, unique_y={c.unique_y})"
    )
