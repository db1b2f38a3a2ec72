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
from collections import Counter
from enum import Enum
from itertools import zip_longest
from operator import itemgetter
from typing import NamedTuple

from .concordance import Concordance, ConcordanceLine, line_key
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


class DiffLine(NamedTuple):
    """A concordance line of one side of a diff, with its class."""

    side: str  # "x" | "y"
    line: ConcordanceLine
    cls: DiffClass


_OPPOSITE = {"x": "y", "y": "x"}
# each read of an Enum member costs more than a line's class test, so
# align and render_html read these names instead
_COMMON, _CONFLICT, _PARTIAL = (
    DiffClass.COMMON, DiffClass.OUTPUT_CONFLICT, DiffClass.PARTIAL_OVERLAP
)
_UNIQUE_X, _UNIQUE_Y = DiffClass.UNIQUE_X, DiffClass.UNIQUE_Y
_span = itemgetter(0, 1)  # (start, end) of a ConcordanceLine


class RelationReport(NamedTuple):
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
    """Classified lines of both sides, grouped by overlap component.
    Components come in order of their smallest (start, end, side), X
    before Y, ties in input order; within a component the X and Y lines,
    each sorted by (start, end, match) with ties in input order, alternate,
    X first.

    One sweep in (start, end) order finds every X-Y overlap: a line
    overlaps exactly the lines of the other side that are still open (end
    past its start) and pass the interval test.  Those overlaps give both
    the PARTIAL_OVERLAP flags and the union-find components.  A line that
    overlaps nothing is a component of its own; the others are gathered
    by a second walk in the same order, which meets each component first
    at its smallest (start, end, side)."""
    if cx.source_text_id != cy.source_text_id:
        raise TextMismatch(
            f"concordances come from different texts: "
            f"{cx.source_text_id!r} vs {cy.source_text_id!r}"
        )
    lines = cx.lines + cy.lines
    nx, n = len(cx.lines), len(lines)  # line k is on side Y when k >= nx
    keys = list(map(line_key, lines))
    spans = list(map(_span, lines))
    parent = list(range(n))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    # a stable sort, so lines of one span keep input order, X first
    order = sorted(range(n), key=spans.__getitem__)
    overlapped = [False] * n
    open_ = [[], []]  # open X lines, open Y lines
    for k in order:
        start, end = spans[k]
        y = k >= nx
        still = []
        for j in open_[not y]:
            if start < spans[j][1]:
                still.append(j)
                if spans[j][0] < end:
                    overlapped[j] = overlapped[k] = True
                    parent[find(j)] = find(k)
        open_[not y] = still
        open_[y].append(k)

    diff_lines = []
    for side, ks, other, unique in (
        ("x", range(nx), slice(nx, n), _UNIQUE_X),
        ("y", range(nx, n), slice(nx), _UNIQUE_Y),
    ):
        exact, same_span = set(keys[other]), set(spans[other])
        for k in ks:
            if keys[k] in exact:
                cls = _COMMON
            elif spans[k] in same_span:
                cls = _CONFLICT
            elif overlapped[k]:
                cls = _PARTIAL
            else:
                cls = unique
            diff_lines.append(DiffLine(side, lines[k], cls))

    # a component is an int, the one line of a component that overlaps
    # nothing, or the lists of its X and Y lines; in order of smallest
    # (start, end, side), as the walk in (start, end) order meets them
    components = []
    sides_of = {}
    for k in order:
        if not overlapped[k]:
            components.append(k)
            continue
        root = find(k)
        if root not in sides_of:
            sides_of[root] = ([], [])
            components.append(sides_of[root])
        sides_of[root][k >= nx].append(k)

    result = []
    for c in components:
        if type(c) is int:
            result.append(diff_lines[c])
            continue
        xs, ys = c
        xs.sort(key=keys.__getitem__)  # in (start, end) order already
        ys.sort(key=keys.__getitem__)
        for kx, ky in zip_longest(xs, ys):
            if kx is not None:
                result.append(diff_lines[kx])
            if ky is not None:
                result.append(diff_lines[ky])
    return result


def diff_counts(diff: list) -> DiffCounts:
    n = Counter((side, cls) for side, _, cls in diff)
    return DiffCounts(
        n["x", _COMMON],
        n["x", _CONFLICT] + n["y", _CONFLICT],
        n["x", _PARTIAL] + n["y", _PARTIAL],
        n["x", _UNIQUE_X],
        n["y", _UNIQUE_Y],
    )


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


def _escape(s: str) -> str:
    """html.escape(s), without its five replace passes when s holds none
    of the characters it replaces."""
    if "&" in s or "<" in s or ">" in s or '"' in s or "'" in s:
        return html.escape(s)
    return s


def render_html(diff: list) -> str:
    """Self-contained HTML table: pink rows for the first concordance,
    green rows for the second, character color by diff class, and an empty
    filler row opposite every unique line."""
    rows = []
    for side, (start, end, left, match, right), cls in diff:
        rows.append(
            f'<tr style="background:{_BG[side]};color:{_FG[cls]}">'
            f"<td>{start}-{end}</td>"
            f'<td class="l">{_escape(left)}</td>'
            f"<td>{_escape(match)}</td>"
            f"<td>{_escape(right)}</td></tr>"
        )
        if cls in (_UNIQUE_X, _UNIQUE_Y):
            filler = _BG[_OPPOSITE[side]]
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
    sx, sy = set(map(line_key, cx.lines)), set(map(line_key, cy.lines))
    spans_x, spans_y = sorted(map(_span, cx.lines)), sorted(map(_span, cy.lines))

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
