import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lgw import data, sidecar
from lgw.errors import MalformedLine
from lgw.grammar import Graph, GraphBox, GrammarSet, InputAtom, LexicalMask, load_grammar_set
from lgw.lexicon import merge_lexicons, parse_lexicon, text_lexicon
from lgw.matcher import ALL_MATCHES, _engine, apply_grammar
from oracles import oracle_lexicon_index, oracle_parse_lexicon

N, V, NPR = frozenset({"N"}), frozenset({"V"}), frozenset({"N", "PR"})


def test_parse_multiword_proper_name():
    lex = parse_lexicon("Marilyn Monroe,.N+PR")
    assert lex.symbol_index() == {"Marilyn Monroe": (NPR,)}
    assert lex.prefix_index() == ({"Marilyn"}, 2)


def test_parse_rainha():
    lex = parse_lexicon("rainha,.N+Hum")
    assert lex.symbol_index() == {"rainha": (frozenset({"N", "Hum"}),)}


def test_parse_empty_input():
    assert _index(parse_lexicon("")) == ({}, (set(), 0))


def test_parse_lemma_and_escapes():
    lex = parse_lexicon("da,de.PREP\nSr\\.,.N+Abrev")
    assert lex.symbol_index() == {"da": (frozenset({"PREP"}),), "Sr.": (frozenset({"N", "Abrev"}),)}
    # an unknown escape drops its backslash
    assert list(parse_lexicon("a\\x,b\\y.N").symbol_index()) == ["ax"]


@pytest.mark.parametrize("bad", ["no separators", "surface,nope", ",.N"])
def test_parse_malformed_line(bad):
    with pytest.raises(MalformedLine) as exc:
        parse_lexicon("ok,.N\n" + bad)
    assert exc.value.line_no == 2


def test_a_line_ends_only_at_a_line_break():
    # str.splitlines would also end a line at "\x85" and at the form feed
    assert list(parse_lexicon("a\x85b,.N").symbol_index()) == ["a\x85b"]
    for text in ("a,.N\n\x0c\nbad\n", "a,.N\r\n\x0c\rbad\r"):
        with pytest.raises(MalformedLine) as exc:
            parse_lexicon(text)
        assert exc.value.line_no == 3


def test_duplicate_lines_collapse():
    assert parse_lexicon("a,.N\na,.N").symbol_index() == {"a": (N,)}
    # a surface keeps each symbol set once: lines that differ only in
    # their lemma, or in the order of POS and codes, give one set
    lex = parse_lexicon("a,.N+PR\na,x.N+PR\na,.PR+N\na,.V\na,y.N+PR")
    assert lex.symbol_index() == {"a": (NPR, V)}


def test_comment_lines_skipped():
    lex = parse_lexicon("# header\na,.N")
    assert lex.symbol_index() == {"a": (N,)}


def _has_mask(lex, surface, mask):
    """Does a grammar of the one mask match all of ``surface``?"""
    box = GraphBox("b", ((InputAtom.masked(mask),),))
    graph = Graph("M", (box,), frozenset({("i", "b"), ("b", "f")}), "i", "f")
    occs = apply_grammar(GrammarSet({"M": graph}, "M"), surface, lex, ALL_MATCHES)
    return any((o.start, o.end) == (0, len(surface)) for o in occs)


def test_token_has_mask_builtin_pre():
    lex = parse_lexicon("")
    pre = LexicalMask(builtin="PRE")
    assert _has_mask(lex, "Joana", pre)
    assert not _has_mask(lex, "da", pre)
    # a stored PRE code also satisfies the builtin
    lex2 = parse_lexicon("von,.PART+PRE")
    assert _has_mask(lex2, "von", pre)


def test_token_has_mask_builtin_mot():
    lex = parse_lexicon("")
    mot = LexicalMask(builtin="MOT")
    assert _has_mask(lex, "casa", mot)
    assert not _has_mask(lex, "123", mot)


def test_token_has_mask_dictionary():
    lex = parse_lexicon("Marilyn Monroe,.N+PR\nrainha,.N+Hum")
    assert _has_mask(lex, "Marilyn Monroe", LexicalMask(pos="N", codes=frozenset({"PR"})))
    assert _has_mask(lex, "rainha", LexicalMask(codes=frozenset({"Hum"})))
    assert not _has_mask(lex, "rainha", LexicalMask(codes=frozenset({"PR"})))
    # a capitalized surface also has its lowercase form's entries, and only
    # a capitalized one
    assert _has_mask(lex, "Rainha", LexicalMask(codes=frozenset({"Hum"})))
    assert not _has_mask(parse_lexicon("RAINHA,.N"), "rainha", LexicalMask(pos="N"))


def test_pre_builtin_ignores_lexicon_contents():
    # <PRE> on a capitalized word depends only on the first character
    big = parse_lexicon("Joana,.N+PR")
    empty = parse_lexicon("")
    for lex in (big, empty):
        assert _has_mask(lex, "Joana", LexicalMask(builtin="PRE"))


def test_loading_monotonicity():
    lines = ["a,.N", "b,.V+X", "a,.N+Y", "c,lemma.ADJ"]
    full = parse_lexicon("\n".join(lines)).symbol_index()
    for cut in range(len(lines) + 1):
        prefix = parse_lexicon("\n".join(lines[:cut])).symbol_index()
        for s in ("a", "b", "c"):
            assert set(prefix.get(s, ())) <= set(full[s])


def test_merge_lexicons():
    a = parse_lexicon("a,.N")
    b = parse_lexicon("a,.N\nb,.V")
    merged = merge_lexicons([a, b])
    assert merged.symbol_index() == {"a": (N,), "b": (V,)}


def test_merge_keeps_first_seen_order_and_collapses_duplicates():
    hum, adj = frozenset({"N", "Hum"}), frozenset({"ADJ"})
    first = parse_lexicon("b,.V\na,.N\na,x.N+PR\nb,y.V")
    # a single lexicon's indexes are kept as they are
    single = merge_lexicons([first], name="s")
    assert single.name == "s"
    assert single.symbol_index() is first.symbol_index()
    assert single.prefix_index() is first.prefix_index()
    # across lexicons: later surfaces and symbol sets append, repeats vanish
    other = parse_lexicon("c,.ADJ\na,x.N+PR\nb,.V\na,.N+Hum\nd e f,.N")
    merged = merge_lexicons([first, other], name="m")
    assert merged.name == "m"
    assert list(merged.symbol_index().items()) == [
        ("b", (V,)), ("a", (N, NPR, hum)), ("c", (adj,)), ("d e f", (N,))
    ]
    assert merged.prefix_index() == ({"d", "d e"}, 3)
    # an empty lexicon adds nothing, and no lexicon is the empty one
    assert _index(merge_lexicons([parse_lexicon(""), other])) == _index(other)
    assert _index(merge_lexicons([])) == ({}, (set(), 0))


def test_load_is_linear_in_the_entries_under_one_surface():
    # a per-surface dedupe that compared each entry with every entry
    # stored under its surface took seconds here
    text = "".join(f"a,l{k}.N+C{k}\n" for k in range(4000))
    t0 = time.perf_counter()
    lex = merge_lexicons([parse_lexicon(text), parse_lexicon(text)])
    lex.symbol_index()
    elapsed = time.perf_counter() - t0
    assert len(lex.symbol_index()["a"]) == 4000
    assert lex.prefix_index() == (set(), 1)
    assert elapsed < 1.0


# Lines mixing every case the parser distinguishes: escaped and unescaped
# separators, lone trailing backslashes, empty fields and codes, comments,
# blank and whitespace-only lines, "\r" line ends, and the form feed and
# "\x85", which end no line, and "²" and "½", which the tokenizer classes
# otherwise than a regular expression's \d and \w do.  Well-formed lines
# are drawn more often, so that most texts parse past their first line.
_safe = st.sampled_from(
    ["a", "Bé", " ", "x y", "x²y", "½", "\\,", "\\.", "\\\\", "\\x", "+", "#", "\x85", "\x0c"]
)
_good_line = st.builds(
    lambda surface, lemma, tag: f"{surface},{lemma}.{tag}",
    st.lists(_safe, min_size=1, max_size=3).map("".join),
    st.lists(_safe, max_size=2).map("".join),
    st.sampled_from(["N", "N+PR", "N+PR ", " N+Hum+PR", "N+PR+Hum", "N+PR+PR", "V"]),
)
_piece = st.one_of(_safe, st.sampled_from([",", ".", "\\"]))
_field = st.lists(_piece, max_size=3).map("".join)
_tag = st.lists(
    st.sampled_from(["N", "PR", "Hum", "", " ", "\\", "V."]), min_size=1, max_size=3
).map("+".join)
_any_line = st.one_of(
    st.builds(lambda surface, lemma, tag: f"{surface},{lemma}.{tag}", _field, _field, _tag),
    _field,
    st.sampled_from([" # not a comment", "a\\", "\\", "a\\,.N", "a,b\\.N", ",x"]),
)
_skipped_line = st.sampled_from(["", "   ", "\t", "\x0c", "# c,.N", "#"])


@st.composite
def _lexicon_text(draw):
    kinds = st.sampled_from([_good_line] * 6 + [_skipped_line, _any_line])
    pool = [draw(draw(kinds)) for _ in range(draw(st.integers(1, 6)))]
    # drawing from a small pool repeats lines
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _index(lex):
    return lex.symbol_index(), lex.prefix_index()


def _oracle_index(text):
    return oracle_lexicon_index(oracle_parse_lexicon(text).entries)


def _parse_outcome(text):
    """The lexicon's name and indexes, in order, or the error it raised."""
    try:
        lex = parse_lexicon(text, name="n")
    except MalformedLine as exc:
        return ("error", exc.line_no, str(exc))
    return ("ok", list(lex.symbol_index().items()), lex.prefix_index(), lex.name)


def _oracle_outcome(text):
    try:
        lex = oracle_parse_lexicon(text, name="n")
    except MalformedLine as exc:
        return ("error", exc.line_no, str(exc))
    symidx, prefixes = oracle_lexicon_index(lex.entries)
    return ("ok", list(symidx.items()), prefixes, lex.name)


@given(_lexicon_text())
@example("a,.N\r\nb\\,c,.N+PR\na,.N\n\n  \n# x\nb\\,c,.N+PR \nb\\,c,d\\..N+PR\n")
@example("a,.N\nb,.N+\nc,.+X\n")
@example("a,.N\nb,c\\.N\n")
@example("a\\,.N\n")
@example("a,.N\n,x\n")
def test_parse_agrees_with_reference_parser(text):
    assert _parse_outcome(text) == _oracle_outcome(text)


def _parsed(text):
    try:
        return parse_lexicon(text)
    except MalformedLine:
        return None


@given(_lexicon_text())
@example("a,.N\na,.N\na,x.N+PR\nx y,.N\nx\\,y,.N\n")
@example("x²y,.N\n")
def test_index_agrees_with_reference_index(text):
    lex = _parsed(text)
    if lex is not None:
        assert _index(lex) == _oracle_index(text)


def _hit_built(text, directory, name="x"):
    """The lexicon of ``text`` as ``lgw apply`` rebuilds it from the
    sidecar of a corpus holding every surface, where the text lexicon is
    the whole lexicon."""
    lex = parse_lexicon(text)
    corpus = "\n".join(lex.symbol_index())
    path = Path(directory) / f"{name}.txt"
    path.write_text(corpus, encoding="utf-8")
    lexicons = sidecar.lexicon_set([Path(directory) / f"{name}.dic"], [text.encode("utf-8")])
    digest = sidecar.digest(corpus.encode("utf-8"))
    tokens = _engine.tokenize_raw(corpus)
    sidecar.write(path, lexicons, digest, tokens, lex)
    hit = sidecar.read(path, lexicons, digest)
    assert hit is not None and hit[0] == tokens
    return hit[1]


def _ordered(lex):
    return list(lex.symbol_index().items()), lex.prefix_index()


@given(st.lists(_lexicon_text(), min_size=1, max_size=3))
@example(["a,.N\nb c,.V\n", "b c,.V\na,.N+PR\n", "a,.N\n"])
# lines that differ only in lemma, and the same line in two parts
@example(["a,.N\nb,x.V\n", "b,y.V\na,.N\nb,x.V\n"])
@example(["a,.N\r", "\nb,.V\n"])
def test_merged_index_agrees_with_reference_index(parts):
    # the parts are a split of their concatenation at line boundaries
    whole = _parsed("".join(parts))
    if whole is None:
        return
    want = _ordered(whole)
    assert want[0] == list(_oracle_index("".join(parts))[0].items())
    assert _ordered(merge_lexicons([parse_lexicon(p) for p in parts])) == want
    with tempfile.TemporaryDirectory() as directory:
        hits = [_hit_built(p, directory, f"x{k}") for k, p in enumerate(parts)]
        assert _ordered(merge_lexicons(hits)) == want


def _check_hit_built(text, directory):
    try:
        ref = parse_lexicon(text, name="x")
    except MalformedLine:
        return
    hit = _hit_built(text, directory)
    assert _ordered(hit) == _ordered(ref)
    assert _index(hit) == _oracle_index(text)
    other = parse_lexicon("b c,.V\nzz,.N+PR\na,.N+Hum\n")
    for order in (1, -1):
        got = merge_lexicons([other, _hit_built(text, directory)][::order])
        want = merge_lexicons([other, ref][::order])
        assert _ordered(got) == _ordered(want)


@pytest.mark.parametrize("text", [
    *(data.lexicon_text(n) for n in data.LEXICON_NAMES),
    "Sr\\.,.N+Abrev\na\\,b,c\\\\d.N\nx\\y,.V\nSr\\.,Senhor.N+Abrev\n",
    "Rio,.N+Top\nRio de Janeiro,.N+Top\nRio Branco,.N+PR\nde,.PREP\nRio,.N+Top\n",
    "İstanbul,.N+Top\nİ,.N\ni,.N\n",
    "3M,.N+PR\nO'Neil,.N+PR\nX-Men,.N\nJoão  Paulo,.N+PR\n",
    # more distinct symbol-set tuples than one byte can number
    "".join(f"w{k},.N+C{k}\nw{k},.V\n" for k in range(300)),
    "",
], ids=[*data.LEXICON_NAMES, "escapes", "multiword", "dotted-I", "non-alphabetic",
        "many-tag-sets", "empty"])
def test_sidecar_lexicon_equals_the_parsed_one(text, tmp_path):
    _check_hit_built(text, tmp_path)


@given(_lexicon_text())
def test_sidecar_lexicon_equals_the_parsed_one_generated(text):
    with tempfile.TemporaryDirectory() as directory:
        _check_hit_built(text, directory)


def test_leading_byte_order_mark_is_dropped():
    # a .dic saved with a UTF-8 byte order mark: "\ufeffAna" would be the
    # first surface, and no token equals it
    plain = "Ana,.N+PR\nZeca,.N+PR\n"
    assert _ordered(parse_lexicon("\ufeff" + plain)) == _ordered(parse_lexicon(plain))
    # only one: a second mark is part of the surface
    assert list(parse_lexicon("\ufeff\ufeffAna,.N").symbol_index()) == ["\ufeffAna"]
    with pytest.raises(MalformedLine) as err:
        parse_lexicon("\ufeffsem virgula\n")
    assert err.value.line_no == 1


# --- the text lexicon: the part of a lexicon the matcher probes on a text ------

# capitalized surfaces with lowercase twins, "İ" and "ς", whose lower() is
# not one word of the same letters, and punctuation- and digit-initial ones
_TEXT_WORDS = ["Ana", "ana", "ANA", "Rui", "rui", "de", "Sr", "İstanbul", "i̇stanbul",
               "ΟΔΟΣ", "οδος", "οδοσ", "Σ", "ς", ".", "-", "'", "7", "3M"]
_text_surface = st.builds(
    lambda words, seps: "".join(w + s for w, s in zip(words, seps)).strip(),
    st.lists(st.sampled_from(_TEXT_WORDS), min_size=1, max_size=4),
    st.lists(st.sampled_from([" ", "", ". "]), min_size=4, max_size=4),
)
_text_entries = st.lists(
    st.tuples(_text_surface, st.sampled_from(["N+PR", "N+Hum", "PRE", "A"]), st.booleans()),
    max_size=10,
)


@st.composite
def _entries_and_texts(draw):
    """Lexicon entries and 1-3 corpus texts of words and of the entries'
    surfaces, as written, capitalized, upper- and lowercased."""
    entries = draw(_text_entries)
    pool = list(_TEXT_WORDS)
    for surface, _, _ in entries:
        pool += [surface, surface.capitalize(), surface.upper(), surface.lower()]
    piece = st.tuples(st.sampled_from(pool), st.sampled_from([" ", "", ". ", "\n", "  "]))
    part = st.lists(piece, max_size=10).map(lambda pairs: "".join(w + s for w, s in pairs))
    return entries, draw(st.lists(part, min_size=1, max_size=3))


_TEXT_GRAMMAR = """\
graph M
box p <PRE>
box h <Hum>
box n out="<" <N+PR> ; <A> ; <N>
init i
final f
edge i p
edge i h
edge i n
edge p n
edge h n
edge n f
edge p f
"""


def _escaped_surface(s):
    return s.replace("\\", "\\\\").replace(",", "\\,").replace(".", "\\.")


def _probes(lex, toks, text):
    """Every answer of the matcher's lexicon lookups at every token."""
    symidx, index = lex.symbol_index(), lex.prefix_index()
    return [
        (_engine._extends(index[0], surface),
         _engine._entries_at(toks, text, symidx, index, i),
         _engine._is_pre(symidx, surface))
        for i, surface in enumerate(toks[0])
    ]


@settings(max_examples=150, deadline=None)
@given(_entries_and_texts())
@example(([("Ana Rui", "N+PR", True), ("i̇stanbul de", "N+PR", False)], ["İstanbul de ana rui"]))
@example(([("οδοσ. Σ", "N+PR", False)], ["ΟΔΟΣ. Σ"]))
# "ΟΔΟΣ" is read past because its lower() before a cased letter, "οδοσ", is a prefix
@example(([("οδοσ'α", "N+PR", False)], ["ΟΔΟΣ'Α"]))
@example(([("Ana", "N+PR", False)], ["Ana", "Ana"]))
def test_text_lexicon_answers_as_the_full_lexicon(entries_and_texts):
    entries, parts = entries_and_texts
    # every entry, and its lowercase twin for some
    lines = "".join(
        f"{_escaped_surface(s)},.{tag}\n" + (f"{_escaped_surface(s.lower())},.N\n" if twin else "")
        for s, tag, twin in entries
    )
    full = parse_lexicon(lines)
    # several corpus files are joined with "\n", and their text lexicons merged
    text = "\n".join(parts)
    toks = _engine.tokenize_raw(text)
    cut = merge_lexicons([text_lexicon(full, _engine.tokenize_raw(p), p) for p in parts])
    assert _probes(cut, toks, text) == _probes(full, toks, text)
    gs = load_grammar_set([("M", _TEXT_GRAMMAR)], "M")
    assert apply_grammar(gs, text, cut, ALL_MATCHES) == apply_grammar(gs, text, full, ALL_MATCHES)
    # and its sidecar gives it back
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "c.txt"
        lexicons = sidecar.lexicon_set(["x.dic"], [lines.encode("utf-8")])
        tokens = _engine.tokenize_raw(parts[0])
        one = text_lexicon(full, tokens, parts[0])
        digest = sidecar.digest(parts[0].encode("utf-8"))
        sidecar.write(path, lexicons, digest, tokens, one)
        assert _index(sidecar.read(path, lexicons, digest)[1]) == _index(one)
        edited = sidecar.lexicon_set(["x.dic"], [lines.encode("utf-8") + b"#\n"])
        assert sidecar.read(path, edited, digest) is None
