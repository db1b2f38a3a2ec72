"""The README's examples stay true as the package changes."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_imports():
    # the first python block under "## Library" names the public functions
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert block.startswith("from lgw import (")
    exec(compile(block, "README.md", "exec"), {})
