import pytest
from hypothesis import example, given, strategies as st

from lgw.errors import MalformedLine
from lgw.grammar import LexicalMask
from lgw.lexicon import (
    LexEntry,
    lookup,
    merge_lexicons,
    parse_lexicon,
    render_lexicon,
    token_has_mask,
)


def test_parse_multiword_proper_name():
    lex = parse_lexicon("Marilyn Monroe,.N+PR")
    (entry,) = lookup(lex, "Marilyn Monroe")
    assert entry.surface == "Marilyn Monroe"
    assert entry.lemma == "Marilyn Monroe"
    assert entry.pos == "N"
    assert entry.codes == frozenset({"PR"})


def test_parse_rainha():
    lex = parse_lexicon("rainha,.N+Hum")
    (entry,) = lookup(lex, "rainha")
    assert entry.pos == "N"
    assert entry.codes == frozenset({"Hum"})


def test_parse_empty_input():
    assert len(parse_lexicon("")) == 0


def test_parse_lemma_and_escapes():
    lex = parse_lexicon("da,de.PREP\nSr\\.,.N+Abrev")
    (da,) = lookup(lex, "da")
    assert da.lemma == "de"
    (sr,) = lookup(lex, "Sr.")
    assert sr.surface == "Sr."
    # an unknown escape drops its backslash
    (ax,) = lookup(parse_lexicon("a\\x,b\\y.N"), "ax")
    assert ax.lemma == "by"


@pytest.mark.parametrize("bad", ["no separators", "surface,nope", ",.N"])
def test_parse_malformed_line(bad):
    with pytest.raises(MalformedLine) as exc:
        parse_lexicon("ok,.N\n" + bad)
    assert exc.value.line_no == 2


def test_duplicate_lines_collapse():
    lex = parse_lexicon("a,.N\na,.N")
    assert len(lex) == 1


def test_comment_lines_skipped():
    lex = parse_lexicon("# header\na,.N")
    assert len(lex) == 1


def test_lookup_lowercase_fallback():
    lex = parse_lexicon("rainha,.N+Hum")
    assert len(lookup(lex, "Rainha")) == 1
    assert lookup(lex, "xyzzy") == set()
    # fallback applies only to capitalized surfaces
    lex2 = parse_lexicon("RAINHA,.N")
    assert lookup(lex2, "rainha") == set()


def test_token_has_mask_builtin_pre():
    lex = parse_lexicon("")
    pre = LexicalMask(builtin="PRE")
    assert token_has_mask(lex, "Joana", pre)
    assert not token_has_mask(lex, "da", pre)
    # a stored PRE code also satisfies the builtin
    lex2 = parse_lexicon("von,.PART+PRE")
    assert token_has_mask(lex2, "von", pre)


def test_token_has_mask_builtin_mot():
    lex = parse_lexicon("")
    mot = LexicalMask(builtin="MOT")
    assert token_has_mask(lex, "casa", mot)
    assert not token_has_mask(lex, "123", mot)


def test_token_has_mask_dictionary():
    lex = parse_lexicon("Marilyn Monroe,.N+PR\nrainha,.N+Hum")
    assert token_has_mask(lex, "Marilyn Monroe", LexicalMask(pos="N", codes=frozenset({"PR"})))
    assert token_has_mask(lex, "rainha", LexicalMask(codes=frozenset({"Hum"})))
    assert not token_has_mask(lex, "rainha", LexicalMask(codes=frozenset({"PR"})))


def test_pre_builtin_ignores_lexicon_contents():
    # <PRE> on a capitalized word depends only on the first character
    big = parse_lexicon("Joana,.N+PR")
    empty = parse_lexicon("")
    for lex in (big, empty):
        assert token_has_mask(lex, "Joana", LexicalMask(builtin="PRE"))


def test_loading_monotonicity():
    lines = ["a,.N", "b,.V+X", "a,.N+Y", "c,lemma.ADJ"]
    full = parse_lexicon("\n".join(lines))
    for cut in range(len(lines) + 1):
        prefix = parse_lexicon("\n".join(lines[:cut]))
        for s in ("a", "b", "c"):
            assert lookup(prefix, s) <= lookup(full, s)


_surface = st.text(
    st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)
_code = st.text(st.characters(whitelist_categories=("Lu", "Nd")), min_size=1, max_size=4)


@given(
    st.lists(
        st.builds(
            LexEntry,
            surface=_surface,
            lemma=_surface,
            pos=_code,
            codes=st.frozensets(_code, max_size=3),
        ),
        max_size=10,
    )
)
@example([LexEntry("ends\\", "\\x", "N"), LexEntry("a\\\\b", "c\\", "N", frozenset({"PR"}))])
def test_render_parse_round_trip(entries):
    base = {}
    for e in entries:
        base.setdefault(e.surface, [])
        if e not in base[e.surface]:
            base[e.surface].append(e)
    from lgw.lexicon import Lexicon

    lex = Lexicon({s: tuple(es) for s, es in base.items()})
    again = parse_lexicon(render_lexicon(lex))
    assert again.entries == lex.entries


def test_merge_lexicons():
    a = parse_lexicon("a,.N")
    b = parse_lexicon("a,.N\nb,.V")
    merged = merge_lexicons([a, b])
    assert len(merged) == 2
