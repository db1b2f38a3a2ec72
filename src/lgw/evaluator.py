"""Annotate texts with grammar output, parse inline gold annotations and
score precision/recall/F-measure per category.

Gold and system files are UTF-8 text fragments with inline, non-nested
``<EM CATEG="..." TIPO="...">...</EM>`` tags.  Scoring is strict: a true
positive needs an exact span match after filtering both sides by category
(and subtype, when one is given).
"""

from __future__ import annotations

import re
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

from .errors import MalformedTag, NestedTag, OverlappingOccurrences

_CLOSE = "</EM>"
# an opening tag, a closing one, or the start of a malformed opening tag
_TAG_RE = re.compile(r'<EM CATEG="([^"<>]*)" TIPO="([^"<>]*)">|</EM>|<EM')
_TAG_IN_TEXT = re.compile("<EM|</EM>")  # what parse_gold would read as a tag
# the output tags whose enclosed text an annotation marks
_NOME_OPEN, _NOME_CLOSE = "<NOME>", "</NOME>"


class GoldAnnotation(NamedTuple):
    """One <EM> annotation."""

    start: int  # offsets in the tag-stripped text
    end: int
    category: str
    subtype: str = ""


class EvalReport(NamedTuple):
    tp: int
    n_sys: int
    n_gold: int
    precision: float  # raw percentages; use rounded() for display
    recall: float
    f_measure: float

    def rounded(self) -> dict:
        return {
            "precision": _round2(self.precision),
            "recall": _round2(self.recall),
            "f_measure": _round2(self.f_measure),
        }

    def to_json_dict(self) -> dict:
        d = {
            "scoring": "strict-span",
            "tp": self.tp,
            "n_sys": self.n_sys,
            "n_gold": self.n_gold,
        }
        d.update(self.rounded())
        return d


def _round2(v: float) -> float:
    return float(Decimal(repr(v)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def f_measure(p: float, r: float) -> float:
    """Harmonic mean of precision and recall percentages."""
    return 2 * p * r / (p + r) if p + r else 0.0


def parse_gold(xml: str):
    """-> (plain_text, annotations); offsets are computed on plain_text."""
    plain = []
    plain_len = 0
    annotations = []
    open_ann = None  # (plain_start, category, subtype)
    i = 0
    for m in _TAG_RE.finditer(xml):
        j = m.start()
        plain.append(xml[i:j])
        plain_len += j - i
        i = m.end()
        if m.group() == _CLOSE:
            if open_ann is None:
                raise MalformedTag(j, "</EM> without opening tag")
            annotations.append(
                GoldAnnotation(open_ann[0], plain_len, open_ann[1], open_ann[2])
            )
            open_ann = None
        elif m.group() == "<EM":  # no whole opening tag begins here
            raise MalformedTag(j)
        elif open_ann is not None:
            raise NestedTag(j)
        else:
            open_ann = (plain_len, m.group(1), m.group(2))
    if open_ann is not None:
        raise MalformedTag(len(xml), "unclosed <EM> tag")
    plain.append(xml[i:])
    return "".join(plain), annotations


def render_gold(plain: str, annotations) -> str:
    """Re-insert <EM> tags at the stored offsets (inverse of parse_gold).
    Plain text that holds "<EM" or "</EM>" is refused: it would not read
    back as the same text."""
    m = _TAG_IN_TEXT.search(plain)
    if m:
        raise MalformedTag(m.start(), f"the text holds {m.group()!r}, which would read back as a tag")
    anns = sorted(annotations, key=lambda a: (a.start, a.end))
    out = []
    cur = 0
    for a in anns:
        out.append(plain[cur : a.start])
        out.append(f'<EM CATEG="{a.category}" TIPO="{a.subtype}">')
        out.append(plain[a.start : a.end])
        out.append(_CLOSE)
        cur = a.end
    out.append(plain[cur:])
    return "".join(out)


def _first_output_with(events, tag):
    """(splice index, index in the output, text offset) of the first
    output that holds ``tag``, or None."""
    for n, (pos, out) in enumerate(events):
        k = out.find(tag)
        if k >= 0:
            return n, k, pos
    return None


def tagged_region(occ):
    """Text offsets of the region the grammar's output tags enclose: from
    the first output holding <NOME> to the first holding </NOME>.  The
    whole occurrence span when either is missing or the close comes
    first."""
    opened = _first_output_with(occ.events, _NOME_OPEN)
    closed = _first_output_with(occ.events, _NOME_CLOSE)
    if opened is None or closed is None or closed < opened:
        return occ.start, occ.end
    return opened[2], closed[2]


def annotate(text: str, occs, categ: str, tipo: str) -> str:
    """Wrap each occurrence's tagged region in an <EM> annotation."""
    occs = sorted(occs, key=lambda o: (o.start, o.end))
    for prev, cur in zip(occs, occs[1:]):
        if cur.start < prev.end:
            raise OverlappingOccurrences(
                f"occurrences ({prev.start},{prev.end}) and "
                f"({cur.start},{cur.end}) overlap"
            )
    regions = [tagged_region(o) for o in occs]
    anns = [GoldAnnotation(s, e, categ, tipo) for s, e in regions]
    return render_gold(text, anns)


def score(sys_anns, gold_anns, category: str, subtype: str = None) -> EvalReport:
    """Strict exact-span scoring after filtering both sides by category
    (and subtype when given).  Percentages follow
    P = 100*tp/n_sys, R = 100*tp/n_gold, F = 2PR/(P+R)."""

    def keep(a):
        return a.category == category and (subtype is None or a.subtype == subtype)

    sys_spans = {(a.start, a.end) for a in sys_anns if keep(a)}
    gold_spans = {(a.start, a.end) for a in gold_anns if keep(a)}
    tp = len(sys_spans & gold_spans)
    n_sys = len(sys_spans)
    n_gold = len(gold_spans)
    p = 100.0 * tp / n_sys if n_sys else 0.0
    r = 100.0 * tp / n_gold if n_gold else 0.0
    return EvalReport(tp, n_sys, n_gold, p, r, f_measure(p, r))


def format_report(report: EvalReport, category: str, subtype: str = None, bold=False) -> str:
    b, e = ("\x1b[1m", "\x1b[0m") if bold else ("", "")
    tag = category + (f"({subtype})" if subtype is not None else "(*)")
    d = report.rounded()
    return "\n".join(
        [
            f"{b}{tag}: strict span scoring{e}",
            f"  tp={report.tp}  sys={report.n_sys}  gold={report.n_gold}",
            f"  precision  {d['precision']:.2f}",
            f"  recall     {d['recall']:.2f}",
            f"  f-measure  {d['f_measure']:.2f}",
        ]
    )
