"""Time the matcher kernel on the two shipped grammars.

Usage: python benchmarks/bench_matcher.py [--repeat N] [--size WORDS]

Times the lexicon load (parse + merge + symbol index) of the shipped
lexicons, of a synthetic 20k-entry lexicon and of 4,000 entries under one
surface (where a per-surface dedupe that compares each entry with the
others grows with the square), then builds a synthetic
corpus from the shipped lexicons, applies the two shipped grammars and
reports corpus words/second (whitespace makes no token, so the tokenizer
sees the words plus their punctuation).  That corpus is all names, so it
also applies the lexicon-names grammar to sparse prose: the synthetic
lexicon's one-word entries with one of its names about every 50 words,
where nearly every word has an entry but few can start a match.  Last it
times two inputs that once broke the matcher: "Sr. " and 1,200
capitalized words under the titled-name grammar (a long chain), and 40
capitalized words under a one-box grammar <MOT> ; <PRE> with a self-loop
in ALL mode (2^40 paths per match).  Every time is the best of --repeat.
"""

import argparse
import random
import time

from lgw import data
from lgw.grammar import Graph, GraphBox, GrammarSet, InputAtom, LexicalMask, load_grammar_set
from lgw.lexicon import merge_lexicons, parse_lexicon
from lgw.matcher import ALL_MATCHES, LONGEST_ONLY, apply_grammar

G1_FILES = ("ReconheceFormasDeTratamento", "Preposicao", "Abreviacoes")

WORDS = (
    "Sra. Joana da Silva falou com o Dr. Pedro de Sousa . "
    "A rainha Isabel II encontrou Marilyn Monroe em Lisboa . "
    "O cantor Michael Jackson e Albert Einstein conversaram ontem ."
).split()


SYNTHETIC_LEXICON_ENTRIES = 20_000
ONE_SURFACE_ENTRIES = 4_000
_TAGS = ("N", "N+Hum", "V", "ADJ", "ADV", "PREP")


def build_lexicon_text(n_entries: int, seed: int = 7) -> str:
    """DELAF lines: pseudo-words under a few tags, and every tenth entry a
    capitalized multiword name tagged N+PR."""
    rng = random.Random(seed)

    def word():
        return "".join(rng.choice("abcdefghijklmnoprstuv") for _ in range(rng.randint(3, 9)))

    lines = []
    for k in range(n_entries):
        if k % 10 == 0:
            name = " ".join(word().capitalize() for _ in range(rng.randint(2, 4)))
            lines.append(f"{name},.N+PR")
        else:
            lines.append(f"{word()},.{rng.choice(_TAGS)}")
    return "\n".join(lines) + "\n"


def load(named_texts, repeat):
    """(best seconds, lexicon) of parsing, merging and indexing the texts."""
    best = float("inf")
    lex = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        lex = merge_lexicons([parse_lexicon(t, name=n) for n, t in named_texts])
        lex.symbol_index()
        best = min(best, time.perf_counter() - t0)
    return best, lex


def build_corpus(n_words: int, seed: int = 7) -> str:
    rng = random.Random(seed)
    return " ".join(rng.choice(WORDS) for _ in range(n_words))


def build_sparse_corpus(lex, n_words: int, seed: int = 7) -> str:
    """The lexicon's one-word entries, with one of its multiword entries
    (the N+PR names) about every 50 words."""
    rng = random.Random(seed)
    words = [s for s in lex.entries if " " not in s]
    names = [s for s in lex.entries if " " in s]
    return " ".join(
        rng.choice(names) if rng.random() < 1 / 50 else rng.choice(words)
        for _ in range(n_words)
    )


def run(gs, text, lex, repeat, mode=ALL_MATCHES):
    best = float("inf")
    occs = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        occs = apply_grammar(gs, text, lex, mode)
        best = min(best, time.perf_counter() - t0)
    return best, occs


def self_loop_grammar():
    """One box <MOT> ; <PRE> with a self-loop."""
    either = GraphBox("b", ((InputAtom.masked(LexicalMask(builtin="MOT")),),
                            (InputAtom.masked(LexicalMask(builtin="PRE")),)))
    edges = frozenset({("i", "b"), ("b", "b"), ("b", "f")})
    return GrammarSet({"L": Graph("L", (either,), edges, "i", "f")}, "L")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--size", type=int, default=20_000, help="corpus size in words")
    args = ap.parse_args()

    print(f"lexicon load (parse + merge + index), best of {args.repeat} runs\n")
    shipped_s, lex = load([(n, data.lexicon_text(n)) for n in data.LEXICON_NAMES], args.repeat)
    synthetic_s, synthetic = load(
        [("synthetic", build_lexicon_text(SYNTHETIC_LEXICON_ENTRIES))], args.repeat
    )
    one_surface = "".join(f"a,l{k}.N\n" for k in range(ONE_SURFACE_ENTRIES))
    loads = [
        ("shipped", shipped_s, lex),
        ("synthetic", synthetic_s, synthetic),
        ("one-surface", *load([("one-surface", one_surface)], args.repeat)),
    ]
    for lname, secs, loaded in loads:
        print(f"{lname:14s} {secs * 1000:8.1f} ms  {len(loaded):10d} entries")

    g1 = load_grammar_set([(n, data.grammar_text(n)) for n in G1_FILES], G1_FILES[0])
    g2 = load_grammar_set(
        [("ReconheceNomesCompostos", data.grammar_text("ReconheceNomesCompostos"))],
        "ReconheceNomesCompostos",
    )
    text = build_corpus(args.size)

    print(f"corpus: {args.size} words, best of {args.repeat} runs\n")
    for gname, gs in (("titled-names", g1), ("lexicon-names", g2)):
        secs, occs = run(gs, text, lex, args.repeat)
        print(f"{gname:14s} {secs * 1000:8.1f} ms  {args.size / secs:10.0f} words/s  "
              f"{len(occs)} occurrence(s)")
    sparse = build_sparse_corpus(synthetic, args.size)
    secs, occs = run(g2, sparse, synthetic, args.repeat)
    words = len(sparse.split())
    print(f"{'sparse-names':14s} {secs * 1000:8.1f} ms  {words / secs:10.0f} words/s  "
          f"{len(occs)} occurrence(s), synthetic lexicon")

    print(f"\nrobustness probes, best of {args.repeat} runs\n")
    empty = parse_lexicon("")
    for pname, gs, text, mode in (
        ("title-chain", g1, "Sr. " + " ".join(["Nome"] * 1200), LONGEST_ONLY),
        ("self-loop", self_loop_grammar(), " ".join(["Nome"] * 40), ALL_MATCHES),
    ):
        secs, occs = run(gs, text, empty, args.repeat, mode)
        print(f"{pname:14s} {secs * 1000:8.1f} ms  {len(occs)} occurrence(s)")


if __name__ == "__main__":
    main()
