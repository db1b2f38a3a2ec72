"""Compare the compiled matcher kernel against the pure-Python one.

Usage: python benchmarks/bench_matcher.py [--repeat N] [--size WORDS]

Builds a synthetic corpus from the shipped lexicons, applies the two
shipped grammars through both kernels and reports corpus words/second
(the tokenizer sees about twice as many tokens, because spaces are tokens).
"""

import argparse
import random
import time

from lgw import data
from lgw.grammar import load_grammar_set
from lgw.lexicon import merge_lexicons, parse_lexicon
from lgw.matcher import ALL_MATCHES, USING_COMPILED_ENGINE
import lgw.matcher as matcher

G1_FILES = ("ReconheceFormasDeTratamento", "Preposicao", "Abreviacoes")

WORDS = (
    "Sra. Joana da Silva falou com o Dr. Pedro de Sousa . "
    "A rainha Isabel II encontrou Marilyn Monroe em Lisboa . "
    "O cantor Michael Jackson e Albert Einstein conversaram ontem ."
).split()


def build_corpus(n_words: int, seed: int = 7) -> str:
    rng = random.Random(seed)
    return " ".join(rng.choice(WORDS) for _ in range(n_words))


def run(engine, gs, text, lex, repeat):
    prev = matcher._impl
    matcher._impl = engine
    try:
        best = float("inf")
        occs = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            occs = matcher.apply_grammar(gs, text, lex, ALL_MATCHES)
            best = min(best, time.perf_counter() - t0)
        return best, occs
    finally:
        matcher._impl = prev


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--size", type=int, default=20_000, help="corpus size in words")
    args = ap.parse_args()

    lex = merge_lexicons(
        [parse_lexicon(data.lexicon_text(n), name=n) for n in data.LEXICON_NAMES]
    )
    g1 = load_grammar_set([(n, data.grammar_text(n)) for n in G1_FILES], G1_FILES[0])
    g2 = load_grammar_set(
        [("ReconheceNomesCompostos", data.grammar_text("ReconheceNomesCompostos"))],
        "ReconheceNomesCompostos",
    )
    text = build_corpus(args.size)

    engines = [("pure", matcher._pure)]
    if USING_COMPILED_ENGINE:
        engines.append(("compiled", matcher._impl))
    else:
        print("compiled engine not available; only timing the pure kernel")

    print(f"corpus: {args.size} words, best of {args.repeat} runs\n")
    for gname, gs in (("titled-names", g1), ("lexicon-names", g2)):
        results = {}
        for ename, engine in engines:
            secs, occs = run(engine, gs, text, lex, args.repeat)
            results[ename] = (secs, occs)
            rate = args.size / secs
            print(f"{gname:14s} {ename:9s} {secs * 1000:8.1f} ms  {rate:10.0f} words/s  "
                  f"{len(occs)} occurrence(s)")
        if len(results) == 2:
            assert results["pure"][1] == results["compiled"][1], "engines disagree"
            speedup = results["pure"][0] / results["compiled"][0]
            print(f"{gname:14s} speedup   {speedup:8.2f}x\n")


if __name__ == "__main__":
    main()
