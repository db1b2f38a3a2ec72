"""Select the keep-set of grammars from pairwise relation reports and
assemble the kept ones into a single main graph."""

from __future__ import annotations

from dataclasses import dataclass, field

from .concorddiff import Action
from .errors import EmptyKeepSet, MissingPair
from .grammar import Graph, GraphBox, InputAtom


@dataclass
class KeepDecision:
    grammar: str
    kept: bool
    reasons: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"grammar": self.grammar, "kept": self.kept, "reasons": self.reasons}


def _dropped_by(action: Action, gx: str, gy: str):
    if action is Action.KEEP_X or action is Action.KEEP_LONGER_X:
        return gy
    if action is Action.KEEP_Y or action is Action.KEEP_LONGER_Y:
        return gx
    if action is Action.KEEP_EITHER:
        return max(gx, gy)  # deterministic tie-break: keep the smaller name
    return None


def select_keep_set(grammars, reports) -> list:
    """Apply each pair's consequence in lexicographic pair order.

    ``reports`` maps an (unordered) grammar-name pair to its
    RelationReport.  A grammar dropped by any applied rule stays dropped;
    pairs involving an already-dropped grammar are skipped.
    """
    grammars = sorted(grammars)
    by_pair = {}
    for key, rep in reports.items():
        by_pair[tuple(sorted(key))] = rep
    dropped = {}
    decisions = {g: KeepDecision(g, True) for g in grammars}
    for i, a in enumerate(grammars):
        for b in grammars[i + 1 :]:
            rep = by_pair.get((a, b))
            if rep is None:
                raise MissingPair((a, b))
            if a in dropped or b in dropped:
                continue
            gx = rep.grammar_x or a
            gy = rep.grammar_y or b
            loser = _dropped_by(rep.action, gx, gy)
            if loser is not None:
                winner = gy if loser == gx else gx
                dropped[loser] = winner
                decisions[loser].kept = False
                decisions[loser].reasons.append(
                    f"dropped vs {winner}: {rep.relation.value} ({rep.action.value})"
                )
                decisions[winner].reasons.append(
                    f"kept vs {loser}: {rep.relation.value} ({rep.action.value})"
                )
            else:
                label = f"{rep.relation.value} ({rep.action.value})"
                decisions[a].reasons.append(f"vs {b}: {label}")
                decisions[b].reasons.append(f"vs {a}: {label}")
    return [decisions[g] for g in grammars]


def compose_main(kept, name: str = "Main") -> Graph:
    """A main graph whose initial box fans out to one subgraph call per
    kept grammar, all converging on the final box."""
    kept = list(kept)
    if not kept:
        raise EmptyKeepSet("no grammars to compose")
    boxes = []
    edges = set()
    for i, gname in enumerate(kept):
        box_id = f"g{i}"
        boxes.append(GraphBox(box_id, ((InputAtom.call(gname),),), None))
        edges.add(("inicio", box_id))
        edges.add((box_id, "fim"))
    return Graph(name, tuple(boxes), frozenset(edges), "inicio", "fim")
