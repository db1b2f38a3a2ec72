"""lgw: a workbench for building, comparing and composing finite-state
local grammars for named-entity extraction."""

__version__ = "0.1.0"

from .concordance import (  # noqa: F401
    Concordance,
    ConcordanceLine,
    build_concordance,
    parse_concordance,
    write_concordance,
)
from .concorddiff import (  # noqa: F401
    Action,
    DiffClass,
    DiffLine,
    Relation,
    RelationReport,
    align,
    infer_relation,
    recommend,
    render_html,
)
from .composer import KeepDecision, compose_main, select_keep_set  # noqa: F401
from .evaluator import (  # noqa: F401
    EvalReport,
    GoldAnnotation,
    annotate,
    f_measure,
    parse_gold,
    score,
)
from .grammar import (  # noqa: F401
    Graph,
    GraphBox,
    GrammarSet,
    InputAtom,
    LexicalMask,
    MorphFilter,
    load_grammar_set,
    parse_graph,
    render_graph,
    validate,
    validate_set,
)
from .lexicon import (  # noqa: F401
    LexEntry,
    Lexicon,
    merge_lexicons,
    parse_lexicon,
    render_lexicon,
)
from .matcher import (  # noqa: F401
    ALL_MATCHES,
    LONGEST_ONLY,
    Occurrence,
    apply_grammar,
    filter_longest,
)
