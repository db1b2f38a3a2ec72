"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of (seed, scale): the same seed gives
byte-identical corpus, gold, lexicon and grammar files.  ``scale`` shrinks
only the corpus; lexicons and grammars come from their own random streams
and stay the same, so a scaling sweep shows how each stage grows with the
text it reads.

The program under test sees only the files written by ``write_inputs``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from lgw import data

WORKLOADS = ("sparse-news", "dense-pairs", "gazetteer")

# Full-size corpus lengths in generator-counted words (see Inputs.words).
WORDS = {"sparse-news": 12_000, "dense-pairs": 9_000, "gazetteer": 2_000}
SPARSE_LEXICON_ENTRIES = 20_000
SPARSE_PERSON_NAMES = 5_000
GAZETTEER_ALTERNATIVES = 240

FILLER = """
o a os as um uma uns umas de do da dos das em no na nos nas por para com sem
sobre entre até desde que quando porque como onde mas ou também não já ainda
muito pouco mais menos bem mal sempre nunca hoje ontem amanhã depois antes
foi era é são será seria tem tinha teve vai vão pode podia deve disse afirmou
explicou contou anunciou declarou lembrou garantiu segundo durante após
governo cidade país estado empresa mercado projeto relatório reunião acordo
processo programa sistema serviço setor política economia saúde escola
universidade hospital tribunal câmara ministério conselho comissão equipa
jogo campeonato temporada eleição votação proposta decisão medida lei plano
ano mês semana dia noite manhã tarde hora vez parte lugar caso problema
questão resultado número valor preço custo taxa crescimento queda aumento
novo nova grande pequeno primeiro último maior menor público nacional local
internacional social regional central importante possível necessário
trabalho investimento contrato obra estrada ponte porto aeroporto estação
""".split()

SENTENCE_OPENERS = """
O A Os As Ontem Hoje Segundo Durante Depois Antes Também Para Com Em No Na
Mas Ainda Já Desde Após Entre
""".split()

GIVEN = """
Joana Pedro Maria Isabel Ana Rui Carlos Paulo Marta Sofia Helena Luís
Miguel Tiago Rita Inês Beatriz Teresa Manuel António Fernando Ricardo
Carla Sara Diana Cláudia Nuno Bruno Jorge Filipe Raquel Susana Vasco Duarte
Gonçalo Rodrigo Mariana Leonor Catarina Francisco Henrique Alice Clara
Lúcia Sérgio Vítor Hugo Daniel
""".split()

SURNAMES = """
Silva Santos Ferreira Pereira Oliveira Costa Rodrigues Martins Jesus Sousa
Fernandes Gonçalves Gomes Lopes Marques Alves Almeida Ribeiro Pinto Carvalho
Teixeira Moreira Correia Mendes Nunes Soares Vieira Monteiro Cardoso Rocha
Neves Coelho Cruz Cunha Pires Ramos Reis Simões Antunes Matos Fonseca
Machado Araújo Barbosa Tavares Lourenço Castro Figueiredo Azevedo Freitas
""".split()

NAME_LINKS = ("da", "de", "do", "dos", "das")
TITLES = ("Sr.", "Sra.", "Dr.", "Dra.", "Prof.", "Profa.")
SPEECH_VERBS = ("disse", "afirmou", "explicou", "contou")

HUM_NOUNS = """
cantor cantora presidente ministro ministra jornalista escritor escritora
professor professora médico médica advogado advogada juiz juíza deputado
deputada autarca treinador treinadora atleta empresário empresária
investigador investigadora diretor diretora arquiteto arquiteta
""".split()

# Names and human nouns of the shipped lexicons (lgw.data: portugues, ingles).
SHIPPED_NAMES = (
    "Isabel", "Isabel II", "Joana", "Pedro", "Maria", "José Saramago", "Camões",
    "Marilyn Monroe", "Cameron Diaz", "Albert Einstein", "Jimmy Carter",
    "Michael Jackson",
)
SHIPPED_HUM = ("rainha", "rei", "presidente", "cantor", "cantora", "escritor", "jornalista")

PLACE_HEADS = """
Vila São Santa Porto Rio Campo Monte Ponte Serra Foz Vale Praia Torre Quinta
Alto Castelo
""".split()
PLACE_TAILS = "Velho Novo Nova Grande Alegre Verde Branco Real Seco Fundo".split()

SYLLABLES = """
ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo ga go gu la le li
lo lu ma me mi mo mu na ne ni no nu pa pe pi po ra re ri ro ru sa se si so
ta te ti to tu va ve vi vo za zo ar er or al el an en in on es as os
""".split()

_POS_SIMPLE = ("N", "V", "A", "ADV")

G1 = ("ReconheceFormasDeTratamento", "Preposicao", "Abreviacoes")
G1E = ("ReconheceFormasDeTratamentoEtiquetaAntes", "Preposicao", "Abreviacoes")
G2 = ("ReconheceNomesCompostos",)


@dataclass
class Inputs:
    """Everything a workload's command sequence reads, plus what the
    benchmark needs to check the outputs.

    ``words`` counts the words the generator emitted (a title such as
    "Sra." is one word; the tokenizer sees about two tokens per word,
    because spaces are tokens).
    """

    workload: str
    corpus: str
    gold: str  # corpus with <EM> tags around every planted entity
    spans: list  # (start, end) of every planted entity in corpus
    sentences: list  # (start, end, entities) per sentence, in corpus order
    words: int
    categ: str
    tipo: str
    files: dict  # file name -> text (grammars, lexicons)
    props: dict


def _quota(*shares):
    """A cycle holding each value as often as its share.  Generators index
    it with a running counter, so every seed gets the same mix and input
    size and the seed only picks the words."""
    cycle = [v for v, n in shares for _ in range(n)]
    random.Random(len(cycle)).shuffle(cycle)
    return cycle


# token counts of multiword person names; the names over 8 tokens exceed
# the matcher's 8-token probe window and stay in on purpose
NAME_LENGTHS = _quota((2, 30), (3, 30), (4, 15), (5, 8), (6, 5), (7, 4), (8, 3),
                      (9, 2), (10, 1), (11, 1), (12, 1))
_PLACE_SHAPES = _quota((1, 3), (2, 6), (3, 5), (4, 4), (5, 2))


def _pseudo_word(rng, lo=2, hi=4):
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(lo, hi)))


class _Text:
    """Accumulates sentences, recording entity spans and sentence spans."""

    def __init__(self):
        self.parts = []
        self.pos = 0
        self.words = 0
        self.spans = []
        self.sentences = []

    def _emit(self, s):
        self.parts.append(s)
        self.pos += len(s)

    def sentence(self, rng, words, entities):
        """``words`` is the filler (opener first); each entity is a list of
        plain words and one ("ENT", words) item, inserted as a unit at a
        distinct gap that leaves at least one filler word after it."""
        gaps = sorted(rng.sample(range(2, len(words)), len(entities)), reverse=True)
        items = list(words)
        for at, ent in zip(gaps, entities):
            items[at:at] = ent
        if self.parts:
            self._emit("\n" if rng.random() < 0.1 else " ")
        start = self.pos
        n_ent = 0
        for k, item in enumerate(items):
            if k:
                self._emit(" ")
            if isinstance(item, tuple):
                ent = " ".join(item[1])
                self.spans.append((self.pos, self.pos + len(ent)))
                self._emit(ent)
                self.words += len(item[1])
                n_ent += 1
            else:
                self._emit(item)
                self.words += 1
        self._emit(".")
        self.sentences.append((start, self.pos, n_ent))


def _gold_xml(text, spans, categ, tipo):
    out = []
    cur = 0
    for s, e in spans:
        out.append(text[cur:s])
        out.append(f'<EM CATEG="{categ}" TIPO="{tipo}">{text[s:e]}</EM>')
        cur = e
    out.append(text[cur:])
    return "".join(out)


def _filler(rng, lo, hi):
    return [rng.choice(SENTENCE_OPENERS)] + [
        rng.choice(FILLER) for _ in range(rng.randint(lo, hi))
    ]


def _titled_name(rng):
    """Title, given name and up to two surnames, each surname optionally
    linked by a preposition."""
    parts = [rng.choice(GIVEN)]
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            parts.append(rng.choice(NAME_LINKS))
        parts.append(rng.choice(SURNAMES))
    return [rng.choice(TITLES), ("ENT", parts)]


def _count_alternatives(grammar_text):
    """Box alternatives, counted from the file text: one plus the number of
    ';' separators outside quoted literals on each box line."""
    n = 0
    for line in grammar_text.splitlines():
        if not line.startswith("box "):
            continue
        n += 1
        quoted = False
        escaped = False
        for c in line:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                quoted = not quoted
            elif c == ";" and not quoted:
                n += 1
    return n


def _lexicon_surfaces(lexicon_text):
    out = []
    for line in lexicon_text.splitlines():
        if line and not line.startswith("#"):
            out.append(line.split(",", 1)[0])
    return out


def _finish(t, workload, categ, tipo, files):
    text = "".join(t.parts)
    surfaces = [
        s for name, body in files.items() if name.endswith(".dic")
        for s in _lexicon_surfaces(body)
    ]
    hist = Counter(len(s.split()) for s in surfaces)
    n_sent = len(t.sentences)
    props = {
        "words": t.words,
        "sentences": n_sent,
        "entities": len(t.spans),
        "entities_per_100_words": round(100.0 * len(t.spans) / max(1, t.words), 3),
        "sentences_with_entity": round(
            sum(1 for s in t.sentences if s[2]) / max(1, n_sent), 3
        ),
        "lexicon_entries": len(surfaces),
        "lexicon_tokens_histogram": {str(k): hist[k] for k in sorted(hist)},
        "lexicon_entries_over_8_tokens": sum(v for k, v in hist.items() if k > 8),
        "grammar_alternatives": sum(
            _count_alternatives(body) for name, body in files.items()
            if name.endswith(".lg")
        ),
    }
    return Inputs(
        workload, text, _gold_xml(text, t.spans, categ, tipo), list(t.spans),
        list(t.sentences), t.words, categ, tipo, files, props,
    )


def _shipped(grammars, lexicons=()):
    files = {f"{g}.lg": data.grammar_text(g) for g in grammars}
    files.update({f"{n}.dic": data.lexicon_text(n) for n in lexicons})
    return files


# ---------------------------------------------------------------------------
# sparse-news


def _sparse_lexicon(seed):
    """A DELAF lexicon of SPARSE_LEXICON_ENTRIES entries: the filler
    vocabulary, pseudo-word forms, human nouns and person names of 1 to 12
    tokens.  Returns (text, multiword person names, human nouns)."""
    rng = random.Random(f"sparse-news:{seed}:lexicon")
    lines = []
    seen = set()

    def add(surface, codes):
        if (surface, codes) in seen:
            return False
        seen.add((surface, codes))
        lines.append(f"{surface},.{codes}")
        return True

    for w in FILLER:
        add(w, rng.choice(_POS_SIMPLE))
    hum = list(HUM_NOUNS)
    for w in hum:
        add(w, "N+Hum")
    while len(hum) < 300:
        w = _pseudo_word(rng, 3, 4)
        if add(w, "N+Hum"):
            hum.append(w)
    for g in GIVEN:
        add(g, "N+PR")
    names = []
    k = 0
    while len(names) < SPARSE_PERSON_NAMES:
        n = NAME_LENGTHS[k % len(NAME_LENGTHS)]
        k += 1
        parts = [rng.choice(GIVEN)]
        while len(parts) < n:
            if len(parts) < n - 1 and rng.random() < 0.3:
                parts.append(rng.choice(NAME_LINKS))
            parts.append(rng.choice(SURNAMES))
        name = " ".join(parts)
        if add(name, "N+PR"):
            names.append(name)
    while len(lines) < SPARSE_LEXICON_ENTRIES:
        add(_pseudo_word(rng), rng.choice(_POS_SIMPLE))
    text = "# synthetic lexicon, DELAF line format\n" + "\n".join(lines) + "\n"
    return text, names, hum


def gen_sparse_news(seed, scale=1.0):
    lex_text, names, hum = _sparse_lexicon(seed)
    rng = random.Random(f"sparse-news:{seed}:corpus")
    target = int(WORDS["sparse-news"] * scale)
    t = _Text()
    kinds = _quota(("titled", 35), ("lexicon", 45), ("hum", 15), ("given", 5))
    by_length = {}
    for n in names:
        by_length.setdefault(len(n.split()), []).append(n)
    k = n_lexicon = 0
    while t.words < target:
        words = _filler(rng, 8, 18)
        entities = []
        if len(t.sentences) % 9 in (0, 4):  # about one entity per 60 words
            kind = kinds[k % len(kinds)]
            k += 1
            if kind == "titled":
                entities.append(_titled_name(rng))
            elif kind == "lexicon":
                n = NAME_LENGTHS[n_lexicon % len(NAME_LENGTHS)]
                n_lexicon += 1
                entities.append([("ENT", rng.choice(by_length[n]).split())])
            elif kind == "hum":
                entities.append([rng.choice(("o", "a")), rng.choice(hum),
                                 ("ENT", rng.choice(by_length[2 + k % 2]).split())])
            else:
                entities.append([("ENT", [rng.choice(GIVEN)])])
        t.sentence(rng, words, entities)
    files = _shipped(G1 + G2)
    files["lexicon.dic"] = lex_text
    return _finish(t, "sparse-news", "PESSOA", "INDIVIDUAL", files)


# ---------------------------------------------------------------------------
# dense-pairs


def gen_dense_pairs(seed, scale=1.0):
    rng = random.Random(f"dense-pairs:{seed}:corpus")
    target = int(WORDS["dense-pairs"] * scale)
    t = _Text()
    kinds = _quota(("titled", 55), ("lexicon", 30), ("hum", 15))
    k = 0
    while t.words < target:
        words = _filler(rng, 4, 7)
        entities = []
        for _ in range(2 + len(t.sentences) % 2):
            kind = kinds[k % len(kinds)]
            k += 1
            if kind == "titled":
                ent = _titled_name(rng)
            elif kind == "lexicon":
                ent = [("ENT", rng.choice(SHIPPED_NAMES).split())]
            else:
                ent = [rng.choice(("o", "a")), rng.choice(SHIPPED_HUM),
                       ("ENT", rng.choice(SHIPPED_NAMES).split())]
            # a lowercase verb after every name keeps two names apart
            entities.append(ent + [rng.choice(SPEECH_VERBS)])
        t.sentence(rng, words, entities)
    files = _shipped(G1 + G1E[:1] + G2, data.LEXICON_NAMES)
    return _finish(t, "dense-pairs", "PESSOA", "INDIVIDUAL", files)


# ---------------------------------------------------------------------------
# gazetteer


def _place_name(rng, k):
    core = _pseudo_word(rng, 2, 3).capitalize()
    shape = _PLACE_SHAPES[k % len(_PLACE_SHAPES)]
    if shape == 1:
        return core
    if shape == 2:
        return f"{rng.choice(PLACE_HEADS)} {core}"
    if shape == 3:
        return f"{rng.choice(PLACE_HEADS)} {rng.choice(NAME_LINKS)} {core}"
    if shape == 4:
        return f"{core} {rng.choice(PLACE_TAILS)}"
    tail = _pseudo_word(rng, 2, 3).capitalize()
    return f"{rng.choice(PLACE_HEADS)} {core} {rng.choice(NAME_LINKS)} {tail}"


def _gazetteer_graph(name, places):
    alts = " ; ".join(f'"{p}"' for p in places)
    return (
        f"# dictionary graph of {len(places)} place names\n"
        f"graph {name}\n"
        f'box lugar out="<NOME>" {alts}\n'
        'box fecha out="</NOME>" <E>\n'
        "init inicio\nfinal fim\n"
        "edge inicio lugar\nedge lugar fecha\nedge fecha fim\n"
    )


def _gazetteers(seed):
    """v1, a revised v2 (a tenth of v1 dropped, as many names added) and
    place names in neither."""
    rng = random.Random(f"gazetteer:{seed}:grammar")
    n = GAZETTEER_ALTERNATIVES
    tenth = n // 10
    pool = []
    seen = set()
    while len(pool) < n + 2 * tenth:
        p = _place_name(rng, len(seen))
        if p not in seen:
            seen.add(p)
            pool.append(p)
    v1 = pool[:n]
    dropped = set(rng.sample(v1, tenth))
    v2 = [p for p in v1 if p not in dropped] + pool[n : n + tenth]
    return v1, v2, pool[n + tenth :]


def gen_gazetteer(seed, scale=1.0):
    v1, v2, unknown = _gazetteers(seed)
    s1, s2 = set(v1), set(v2)
    both = [p for p in v1 if p in s2]
    only1 = [p for p in v1 if p not in s2]
    only2 = [p for p in v2 if p not in s1]
    pools = _quota((both, 16), (only1, 1), (only2, 1), (unknown, 2))
    rng = random.Random(f"gazetteer:{seed}:corpus")
    target = int(WORDS["gazetteer"] * scale)
    t = _Text()
    k = 0
    while t.words < target:
        words = _filler(rng, 7, 13)
        entities = []
        for _ in range(1 + (len(t.sentences) % 5 == 4)):
            place = rng.choice(pools[k % len(pools)])
            k += 1
            entities.append([rng.choice(("em", "para", "de")), ("ENT", place.split())])
        t.sentence(rng, words, entities)
    files = {
        "GazetteerV1.lg": _gazetteer_graph("GazetteerV1", v1),
        "GazetteerV2.lg": _gazetteer_graph("GazetteerV2", v2),
    }
    return _finish(t, "gazetteer", "LOCAL", "TOPONIMO", files)


GENERATORS = {
    "sparse-news": gen_sparse_news,
    "dense-pairs": gen_dense_pairs,
    "gazetteer": gen_gazetteer,
}


def commands(workload, work: Path):
    """The workload's command sequence as (kind, argv) pairs for
    ``lgw.cli.main``; every path lies inside ``work``."""
    w = str(work)
    out = f"{w}/out"
    corpus = f"{w}/corpus.txt"

    def grammar_args(names):
        return [a for n in names for a in ("--grammar", f"{w}/{n}.lg")]

    def lex_args(names):
        return [a for n in names for a in ("--lexicon", f"{w}/{n}.dic")]

    def apply(names, lex, cnc, extra=()):
        return ("apply", ["apply", *grammar_args(names), *lex_args(lex),
                          "--out", out, "--cnc", cnc, *extra, corpus])

    def diff(x, y):
        return ("diff", ["diff", f"{out}/{x}.cnc", f"{out}/{y}.cnc", "--out", out,
                         "--html", f"diff_{x}_{y}.html", "--json", f"rel_{x}_{y}.json"])

    def compose(pairs):
        reports = [a for x, y in pairs for a in ("--report", f"{out}/rel_{x}_{y}.json")]
        return ("compose", ["compose", *reports, "--out", out])

    def eval_(categ, tipo):
        argv = ["eval", "--sys", f"{out}/sys.xml", "--gold", f"{w}/gold.xml",
                "--categ", categ, "--out", out]
        return ("eval", argv + (["--tipo", tipo] if tipo else []))

    main = ["--xml", "sys.xml"]
    if workload == "sparse-news":
        lex = ["lexicon"]
        return [
            apply(G1, lex, "g1.cnc"),
            apply(G2, lex, "g2.cnc"),
            diff("g1", "g2"),
            compose([("g1", "g2")]),
            apply(["out/main", *G1, *G2], lex, "main.cnc", ["--main", "Main", *main]),
            eval_("PESSOA", "INDIVIDUAL"),
        ]
    if workload == "dense-pairs":
        lex = list(data.LEXICON_NAMES)
        pairs = [("g1", "g1e"), ("g1", "g2"), ("g1e", "g2")]
        return [
            apply(G1, lex, "g1.cnc"),
            apply(G1E, lex, "g1e.cnc"),
            apply(G2, lex, "g2.cnc"),
            *(diff(x, y) for x, y in pairs),
            compose(pairs),
            apply(["out/main", *G1, G1E[0], *G2], lex, "main.cnc",
                  ["--main", "Main", *main]),
            eval_("PESSOA", "INDIVIDUAL"),
        ]
    if workload == "gazetteer":
        v = ["GazetteerV1", "GazetteerV2"]
        return [
            apply(v[:1], [], "v1.cnc"),
            apply(v[1:], [], "v2.cnc"),
            diff("v1", "v2"),
            compose([("v1", "v2")]),
            apply(["out/main", *v], [], "main.cnc",
                  ["--main", "Main", *main, "--categ", "LOCAL"]),
            eval_("LOCAL", None),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(inp: Inputs, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    (work / "corpus.txt").write_text(inp.corpus, encoding="utf-8")
    (work / "gold.xml").write_text(inp.gold, encoding="utf-8")
    for name, text in inp.files.items():
        (work / name).write_text(text, encoding="utf-8")
