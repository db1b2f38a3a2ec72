"""The benchmark workloads' outputs are pinned.  For each workload of
perfbench/gen.py and seeds 1-3, its command sequence runs through
``lgw.cli.main`` twice in one directory: a cold round, which writes the
corpus sidecars, and a warm round, which must read them and rewrite none.
Both rounds must give the exit codes and the SHA-256 digests of stdout
and of every out/ file that tests/golden/workload_outputs.json holds.

A change that alters these outputs on purpose regenerates the table with

    PYTHONPATH=src python tests/test_workload_outputs.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from lgw.cli import main

ROOT = Path(__file__).resolve().parents[1]
GEN_PY = ROOT / "perfbench" / "gen.py"
TABLE = ROOT / "tests" / "golden" / "workload_outputs.json"
SEEDS = (1, 2, 3)


def _load_gen():
    # a unique name, registered before it runs: gen.py declares dataclasses
    spec = importlib.util.spec_from_file_location("lgw_perfbench_gen", GEN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gen = _load_gen()


def _sha(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def _round(workload) -> dict:
    """The exit codes and the digests of stdout and of every out/ file of
    one run of the workload's commands in the working directory."""
    codes = []
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for _, argv in gen.commands(workload, Path(".")):
            codes.append(main(argv))
    row = {"exit": codes, "stdout": _sha(stdout.getvalue().encode("utf-8"))}
    for p in sorted(Path("out").rglob("*")):
        if p.is_file():
            row[p.as_posix()] = _sha(p.read_bytes())
    return row


def _sidecars() -> dict:
    """Each sidecar file's bytes, modification time and inode: a sidecar
    is rewritten by replacing it with a new file."""
    return {
        p.name: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino)
        for p in sorted(Path("__lgwcache__").iterdir())
    }


def _write_inputs(workload, seed):
    gen.write_inputs(gen.GENERATORS[workload](seed), Path("."))


def _table() -> dict:
    table = {}
    home = os.getcwd()
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                try:
                    _write_inputs(workload, seed)
                    table[f"{workload}/{seed}"] = _round(workload)
                finally:
                    os.chdir(home)
    return table


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workload_outputs_match_the_golden_table(workload, seed, tmp_path, monkeypatch):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))[f"{workload}/{seed}"]
    monkeypatch.chdir(tmp_path)
    _write_inputs(workload, seed)
    assert _round(workload) == expected
    cached = _sidecars()
    assert cached
    assert _round(workload) == expected
    assert _sidecars() == cached


if __name__ == "__main__":
    TABLE.write_text(json.dumps(_table(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {os.path.relpath(TABLE)}")
