"""The README's examples stay true as the package changes."""

import re
import shlex
from pathlib import Path

import pytest

from lgw.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_imports():
    # the first python block under "## Library" names the public functions
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert block.startswith("from lgw import (")
    exec(compile(block, "README.md", "exec"), {})


def _tour_commands():
    """The logical lines of the Quick tour's ``sh`` blocks, continuations
    joined; a ``python - <<'EOF'`` heredoc is one entry, its code."""
    tour = README.read_text(encoding="utf-8").split("\n## Quick tour\n", 1)[1]
    tour = tour.split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", tour, re.S):
        lines = iter(block.replace("\\\n", " ").splitlines())
        for line in lines:
            if line.startswith("python - <<'EOF'"):
                code = []
                for body in lines:
                    if body == "EOF":
                        break
                    code.append(body)
                commands.append(("python", "\n".join(code) + "\n"))
            elif line.strip():
                commands.append(("sh", line))
    return commands


def _printf(argv, cwd):
    """``printf 'FORMAT' > FILE`` for a format whose only escape is \\n."""
    assert argv[0] == "printf" and argv[2] == ">" and len(argv) == 4, argv
    fmt = argv[1]
    assert "%" not in fmt and "\\" not in fmt.replace("\\n", ""), fmt
    (cwd / argv[3]).write_text(fmt.replace("\\n", "\n"), encoding="utf-8")


@pytest.mark.parametrize("stamp", [False, True], ids=["as-written", "stamped"])
def test_quick_tour_runs(tmp_path, monkeypatch, capsys, stamp):
    # every command of the tour exits 0, also with --stamp on every
    # command that writes one
    monkeypatch.chdir(tmp_path)
    commands = _tour_commands()
    assert [c for c in commands if c[0] == "python"], "the tour exports the data files"
    ran = []
    for kind, command in commands:
        if kind == "python":
            exec(compile(command, "README.md", "exec"), {})
            continue
        argv = shlex.split(command, comments=True)
        if argv[0] == "printf":
            _printf(argv, tmp_path)
            continue
        assert argv[0] == "lgw", f"the test cannot run {command!r}"
        if stamp and argv[1] in ("apply", "diff", "compose"):
            argv.insert(2, "--stamp")
        rc = main(argv[1:])
        assert rc == 0, (command, capsys.readouterr().err)
        ran.append(argv[1])
    assert ran == ["apply", "apply", "diff", "compose", "apply", "eval"]


def test_quick_tour_second_round_hits_every_sidecar(tmp_path, monkeypatch, capsys):
    # the tour run twice in one directory: the second round loads no
    # lexicon and tokenizes nothing (g1 and the others apply different
    # lexicon lists, and each list keeps its own sidecar of the corpus),
    # and writes the same outputs
    import types

    from lgw import cli, lexicon, matcher

    monkeypatch.chdir(tmp_path)

    def tour():
        for kind, command in _tour_commands():
            if kind == "python":
                exec(compile(command, "README.md", "exec"), {})
                continue
            argv = shlex.split(command, comments=True)
            if argv[0] == "printf":
                _printf(argv, tmp_path)
            else:
                assert main(argv[1:]) == 0, (command, capsys.readouterr().err)
        return {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}

    def no_load(*args, **kwargs):
        raise AssertionError("a lexicon was loaded or a corpus tokenized on the second round")

    first = tour()
    assert len(list((tmp_path / "__lgwcache__").iterdir())) == 2
    assert len(list((tmp_path / "__lgwcache__").glob("corpus.txt.*.lgc"))) == 2
    monkeypatch.setattr(cli, "parse_lexicon", no_load)
    monkeypatch.setattr(lexicon, "_read_lines", no_load)
    monkeypatch.setattr(matcher, "_impl",
                        types.SimpleNamespace(**{**vars(matcher._engine), "tokenize_raw": no_load}))
    assert tour() == first
