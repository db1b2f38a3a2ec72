"""Sidecar files: what lgw computed from an input file, kept beside it.

The sidecar of ``dir/name`` is ``dir/__lgwcache__/name.<suffix>``.  It
begins with its key, which names the kind of sidecar, its format number,
the Python ``major.minor`` that wrote it and a blake2b digest of the
content it was computed from; marshal data follows.  A sidecar with any
other key, or one that cannot be read or decoded, is a miss.

There are two kinds:

* ``name.txt.tok``, a corpus file's kernel token columns
  (``lgw.matcher``): its distinct token surfaces and, for each token, the
  number of its surface and its offsets, as array bytes; computed from
  its text;
* ``name.txt.<set>.lex``, a corpus file's text lexicon (``lgw.lexicon``):
  the part of a set of lexicons that the matcher can look up on the
  text, computed from the text and the bytes of the set's files, with
  one sidecar per set.

A corpus file's two sidecars are keyed on one digest of its text, which
``lgw apply`` computes once.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import sys
# hashlib.blake2b is _blake2.blake2b; importing hashlib would also load
# OpenSSL, about 4 MB and 4 ms more for every lgw command
from _blake2 import blake2b
from pathlib import Path


def _path(path, suffix: str) -> Path:
    path = Path(path)
    return path.parent / "__lgwcache__" / f"{path.name}.{suffix}"


def digest(content: bytes) -> bytes:
    return blake2b(content).digest()


def key(kind: bytes, fmt: int, content_digest: bytes) -> bytes:
    """The first bytes of a ``kind`` sidecar in format ``fmt`` computed
    from the content whose ``digest`` is ``content_digest``."""
    head = b"lgw %s %d python %d.%d\n" % (kind, fmt, *sys.version_info[:2])
    return head + content_digest


def read(path, suffix: str, key: bytes):
    """The marshal data after ``key`` in the ``suffix`` sidecar of the file
    at ``path``; None when there is none, it begins otherwise or cannot be
    read or decoded."""
    try:
        blob = _path(path, suffix).read_bytes()
    except OSError:
        return None
    if not blob.startswith(key):
        return None
    try:
        return marshal.loads(memoryview(blob)[len(key):])
    except (EOFError, ValueError, TypeError):
        return None  # truncated or not written by write


def write(path, suffix: str, key: bytes, value) -> None:
    """Make ``key`` and the marshal data of ``value`` the ``suffix`` sidecar
    of the file at ``path``, replacing it whole.  A directory that cannot
    be written gets no sidecar."""
    # version 2 builds no reference table while it writes or reads
    payload = marshal.dumps(value, 2)
    target = _path(path, suffix)
    # a process writes only its own temporary file; os.replace makes the
    # whole new sidecar appear at once
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(key)
            f.write(payload)  # not joined to the key: that copy raised peak memory
        os.replace(tmp, target)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
