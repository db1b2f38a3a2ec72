"""Exception types shared across the workbench, and the line numbers
their messages give.

Every error carries an ``exit_code`` used by the CLI: 1 for usage errors,
2 for input/parse problems, 3 for semantic mismatches, 4 for empty-result
conditions.
"""

from contextlib import contextmanager


class LgwError(Exception):
    exit_code = 2


@contextmanager
def located(name: str):
    """Prefix ``name: `` to the message of an LgwError raised inside, so an
    error in one of several input files says which file it is in."""
    try:
        yield
    except LgwError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def numbered_lines(text: str):
    """(line number, line) of each line of ``text``.  A line ends only at
    "\\n", "\\r\\n" or "\\r": ``str.splitlines`` would also end one at a
    form feed, "\\x85" or U+2028, which a comment or a literal may hold."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return enumerate(text.split("\n"), 1)


class UsageError(LgwError):
    """A command-line value the command cannot use."""

    exit_code = 1


class LineError(LgwError):
    """An input file's line ``line_no`` cannot be read, for ``reason``."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class MalformedLine(LineError):
    """A lexicon line lacks a separator, its surface or a code."""


class GraphSyntaxError(LineError):
    pass


class DuplicateBoxId(GraphSyntaxError):
    pass


class MissingInitialOrFinal(LgwError):
    pass


class EdgeToUnknownBox(GraphSyntaxError):
    pass


class UnresolvedSubgraph(LgwError):
    def __init__(self, name: str):
        super().__init__(f"unresolved subgraph: {name}")
        self.name = name


class RecursiveCall(LgwError):
    """Grammars must stay finite-state: subgraph calls may not form a cycle."""

    def __init__(self, cycle):
        super().__init__("recursive subgraph call: " + " -> ".join(cycle))
        self.cycle = tuple(cycle)


class SpanOutOfBounds(LgwError):
    pass


class MalformedConcordanceLine(LineError):
    pass


class TextMismatch(LgwError):
    exit_code = 3


class MalformedTag(LgwError):
    def __init__(self, position: int, reason: str = "malformed <EM> tag"):
        super().__init__(f"offset {position}: {reason}")
        self.position = position


class NestedTag(LgwError):
    def __init__(self, position: int):
        super().__init__(f"offset {position}: nested <EM> tags are not allowed")
        self.position = position


class OverlappingOccurrences(LgwError):
    pass


class MissingPair(LgwError):
    def __init__(self, pair):
        super().__init__(f"no relation report for pair {pair[0]!r}/{pair[1]!r}")
        self.pair = tuple(pair)


class EmptyKeepSet(LgwError):
    exit_code = 4
