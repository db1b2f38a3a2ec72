import pytest

from lgw import data, load_grammar_set, merge_lexicons, parse_lexicon
from oracles import oracle_parse_lexicon

G1_FILES = ("ReconheceFormasDeTratamento", "Preposicao", "Abreviacoes")
G1E_FILES = ("ReconheceFormasDeTratamentoEtiquetaAntes", "Preposicao", "Abreviacoes")


@pytest.fixture(scope="session")
def lexicon():
    return merge_lexicons(
        [
            parse_lexicon(data.lexicon_text("portugues"), name="portugues"),
            parse_lexicon(data.lexicon_text("ingles"), name="ingles"),
        ],
        name="portugues+ingles",
    )


@pytest.fixture(scope="session")
def oracle_lexicon():
    """The oracle's parse of the lines of both shipped lexicons."""
    return oracle_parse_lexicon(data.lexicon_text("portugues") + data.lexicon_text("ingles"))


@pytest.fixture(scope="session")
def g1():
    return load_grammar_set(
        [(n, data.grammar_text(n)) for n in G1_FILES], G1_FILES[0]
    )


@pytest.fixture(scope="session")
def g1_enhanced():
    return load_grammar_set(
        [(n, data.grammar_text(n)) for n in G1E_FILES], G1E_FILES[0]
    )


@pytest.fixture(scope="session")
def g2():
    return load_grammar_set(
        [("ReconheceNomesCompostos", data.grammar_text("ReconheceNomesCompostos"))],
        "ReconheceNomesCompostos",
    )


# Reconstruction of the two-grammar comparison scenario: one grammar finds
# four names, the other finds "Michael Jackson" and the shorter "Luther".
FIG2_CORPUS = (
    "O cantor Michael Jackson encontrou Luther King no Rio de Janeiro. "
    "Antonio Ricardo e Chico Buarque cantaram juntos em Lisboa."
)

FIG2_GX = """\
graph FigX
box nome out="<NOME>" "Michael" "Jackson" ; "Luther" "King" ; "Antonio" "Ricardo" ; "Chico" "Buarque"
box fecha out="</NOME>" <E>
init i
final f
edge i nome
edge nome fecha
edge fecha f
"""

FIG2_GY = """\
graph FigY
box nome out="<NOME>" "Michael" "Jackson" ; "Luther"
box fecha out="</NOME>" <E>
init i
final f
edge i nome
edge nome fecha
edge fecha f
"""


@pytest.fixture(scope="session")
def fig2():
    gx = load_grammar_set([("FigX", FIG2_GX)], "FigX")
    gy = load_grammar_set([("FigY", FIG2_GY)], "FigY")
    return FIG2_CORPUS, gx, gy
