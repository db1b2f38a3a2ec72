import itertools
import random

import pytest
from hypothesis import given, strategies as st

from lgw.composer import compose_main, select_keep_set
from lgw.concorddiff import Action, DiffCounts, Relation, RelationReport, infer_relation
from lgw.errors import EmptyKeepSet, LgwError, MissingPair
from lgw.grammar import GrammarSet, render_graph, validate_set
from lgw.lexicon import parse_lexicon
from lgw.matcher import ALL_MATCHES, apply_grammar

from oracles import make_concordance


def _reports(concs):
    return {
        (a, b): infer_relation(concs[a], concs[b])
        for a, b in itertools.combinations(sorted(concs), 2)
    }


def _kept(decisions):
    return [d.grammar for d in decisions if d.kept]


def test_equal_pair_keeps_smaller_name():
    concs = {
        "B": make_concordance([(0, 2, "x")], "B"),
        "A": make_concordance([(0, 2, "x")], "A"),
    }
    decisions = select_keep_set(["A", "B"], _reports(concs))
    assert _kept(decisions) == ["A"]
    (drop,) = [d for d in decisions if not d.kept]
    assert drop.grammar == "B"
    assert any("equal" in r for r in drop.reasons)


def test_subset_drops_the_contained_grammar():
    concs = {
        "A": make_concordance([(0, 2, "x")], "A"),
        "C": make_concordance([(0, 2, "x"), (5, 7, "y")], "C"),
    }
    assert _kept(select_keep_set(["A", "C"], _reports(concs))) == ["C"]


def test_equal_then_subset_chain():
    # A == B, B strictly contained in C: only C survives
    concs = {
        "A": make_concordance([(0, 2, "x")], "A"),
        "B": make_concordance([(0, 2, "x")], "B"),
        "C": make_concordance([(0, 2, "x"), (5, 7, "y")], "C"),
    }
    decisions = select_keep_set(["A", "B", "C"], _reports(concs))
    assert _kept(decisions) == ["C"]


def test_all_disjoint_keeps_all():
    concs = {
        "A": make_concordance([(0, 2, "x")], "A"),
        "B": make_concordance([(10, 12, "y")], "B"),
        "C": make_concordance([(20, 22, "z")], "C"),
    }
    decisions = select_keep_set(["A", "B", "C"], _reports(concs))
    assert _kept(decisions) == ["A", "B", "C"]
    assert all("disjoint" in r for d in decisions for r in d.reasons)


def test_dropped_grammar_pairs_are_skipped():
    # B is dropped against A (equal); B's subset relation to C must not
    # then drop C's standing
    concs = {
        "A": make_concordance([(0, 2, "x")], "A"),
        "B": make_concordance([(0, 2, "x")], "B"),
        "D": make_concordance([(50, 52, "q")], "D"),
    }
    decisions = select_keep_set(["A", "B", "D"], _reports(concs))
    assert _kept(decisions) == ["A", "D"]
    b = next(d for d in decisions if d.grammar == "B")
    # no further reasons accumulate once dropped
    assert len(b.reasons) == 1


def test_missing_pair_raises():
    concs = {
        "A": make_concordance([(0, 2, "x")], "A"),
        "B": make_concordance([(5, 7, "y")], "B"),
    }
    with pytest.raises(MissingPair):
        select_keep_set(["A", "B", "C"], _reports(concs))


@pytest.mark.parametrize("action", [Action.KEEP_X, Action.KEEP_BOTH])
@pytest.mark.parametrize("grammars", [["A", "B"], ["A", "B", "C"]])
def test_report_naming_a_grammar_outside_its_pair_raises(action, grammars):
    # "C" unknown, or a grammar the A/B report would drop
    def report(x, y):
        return RelationReport(Relation.EQUAL, action, DiffCounts(0, 0, 0, 0, 0), x, y)

    reports = {(x, y): report(x, y) for x, y in itertools.combinations(grammars, 2)}
    reports["A", "B"] = report("A", "C")
    with pytest.raises(LgwError) as exc:
        select_keep_set(grammars, reports)
    assert str(exc.value) == "relation report for pair 'A'/'B' names grammar 'C'"


def test_selection_deterministic_under_report_dict_order():
    concs = {
        g: make_concordance([(i * 10, i * 10 + 2, "m")], g)
        for i, g in enumerate(["A", "B", "C", "D"])
    }
    reports = _reports(concs)
    items = list(reports.items())
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(items)
        shuffled = {tuple(reversed(k)) if rng.random() < 0.5 else k: v for k, v in items}
        assert select_keep_set(list(concs), shuffled) == select_keep_set(
            list(concs), reports
        )


@given(st.data())
def test_some_grammar_is_always_kept(data):
    # the winner of the last rule that drops a grammar is never dropped
    # later, so lgw compose always has a grammar to call
    names = data.draw(st.lists(st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True),
                               min_size=2, max_size=5, unique=True))
    reports = {}
    for pair in itertools.combinations(names, 2):
        x, y = data.draw(st.permutations(pair))
        action = data.draw(st.sampled_from(Action))
        reports[x, y] = RelationReport(Relation.INTERSECTING, action, DiffCounts(0, 0, 0, 0, 0), x, y)
    assert _kept(select_keep_set(names, reports))


# --- composition -------------------------------------------------------------


def test_compose_main_structure():
    g = compose_main(["G2", "G1"], name="Principal")
    assert g.name == "Principal"
    calls = [a.graph_name for b in g.boxes for alt in b.alternatives for a in alt]
    assert calls == ["G2", "G1"]
    assert ("inicio", "g0") in g.edges and ("g1", "fim") in g.edges
    # canonical text round-trips
    from lgw.grammar import parse_graph

    assert parse_graph(render_graph(g)) == g


def test_compose_main_empty_raises():
    with pytest.raises(EmptyKeepSet):
        compose_main([])


def test_composed_set_validates(g1, g2):
    graphs = dict(g1.graphs)
    graphs.update(g2.graphs)
    main = compose_main(sorted({g1.main, g2.main}))
    graphs[main.name] = main
    gs = GrammarSet(graphs, main.name)
    assert [d for d in validate_set(gs) if d.severity == "error"] == []


def test_composed_matches_are_the_union(g1, g2, lexicon):
    text = (
        "Jimmy Carter visitou Lisboa em 1978. "
        "A Sra. Joana da Silva e a rainha Isabel II chegaram."
    )
    graphs = dict(g1.graphs)
    graphs.update(g2.graphs)
    main = compose_main(sorted({g1.main, g2.main}))
    graphs[main.name] = main
    gs = GrammarSet(graphs, main.name)

    def spans(res):
        return {(o.start, o.end, o.merged) for o in res}

    union = spans(apply_grammar(g1, text, lexicon, ALL_MATCHES)) | spans(
        apply_grammar(g2, text, lexicon, ALL_MATCHES)
    )
    assert spans(apply_grammar(gs, text, lexicon, ALL_MATCHES)) == union
    assert union  # non-vacuous


def test_union_property_random_literal_grammars():
    from oracles import random_literal_grammar

    vocab = ["um", "dois", "tres", "quatro", "cinco"]
    lex = parse_lexicon("")
    rng = random.Random(99)
    for _ in range(25):
        names = ["Ga", "Gb", "Gc"][: rng.randint(2, 3)]
        sets = {
            n: GrammarSet({n: random_literal_grammar(rng, n, vocab)}, n) for n in names
        }
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 12)))
        graphs = {n: s.graphs[n] for n, s in sets.items()}
        main = compose_main(names)
        graphs[main.name] = main
        combined = GrammarSet(graphs, main.name)
        union = set()
        for s in sets.values():
            union |= {
                (o.start, o.end, o.merged)
                for o in apply_grammar(s, text, lex, ALL_MATCHES)
            }
        got = {
            (o.start, o.end, o.merged)
            for o in apply_grammar(combined, text, lex, ALL_MATCHES)
        }
        assert got == union
