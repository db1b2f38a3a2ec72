"""The corpus sidecar: what ``lgw apply`` computed from a corpus file,
kept beside it.

The sidecar of the corpus file ``dir/name`` for a list of lexicon files
is ``dir/__lgwcache__/name.<set>.lgc``, where ``<set>`` is named after
the lexicon files' paths (``lexicon_set``); an empty list is one more
set.  A corpus file keeps its ``KEEP`` newest sidecars, by modification
time.  A sidecar begins with its key: the format number, the Python
``major.minor`` that wrote it, and a blake2b digest of the digests of
the lexicon files' bytes and of the corpus text.  The digest of the
payload follows, then the payload: one marshal tuple of the five values
``lgw apply`` uses, the file's kernel token columns (``lgw.matcher``),
its surfaces and its start offsets as bytes, and its text lexicon's
(``lgw.lexicon.text_lexicon``) symbol index, set of entry prefixes and
longest entry.  Marshal writes a surface or a symbol set that several
tokens or entries share once, and reads it back as one object.

A sidecar with any other key, whose payload does not have its digest
(checked before marshal reads it: a damaged size could make marshal
allocate gigabytes), or that cannot be decoded into values the matcher
can use, is a miss.  Bump ``FORMAT`` whenever these values, what
``tokenize_raw`` makes of a text, what ``parse_lexicon`` makes of a
lexicon or what ``text_lexicon`` keeps change.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import re
import sys
from array import array
# hashlib.blake2b is _blake2.blake2b; importing hashlib would also load
# OpenSSL, about 4 MB and 4 ms more for every lgw command
from _blake2 import blake2b
from pathlib import Path

from .lexicon import Lexicon
from .matcher._engine import OFFSETS

FORMAT = 5
DIGEST_SIZE = 64  # bytes of a blake2b digest
KEEP = 4  # sidecars per corpus file: one per lexicon list an author alternates


def digest(content: bytes) -> bytes:
    return blake2b(content).digest()


def lexicon_set(paths, data) -> tuple:
    """What names the lexicon files at ``paths``, holding ``data``, to a
    corpus sidecar: the name of its set, one per list of paths, and the
    digests of the files' bytes in order, which its key holds."""
    where = b"\0".join(os.fsencode(os.path.abspath(p)) for p in paths)
    return digest(where)[:8].hex(), b"".join(map(digest, data))


def _path(path, lexicons: tuple) -> Path:
    path = Path(path)
    return path.parent / "__lgwcache__" / f"{path.name}.{lexicons[0]}.lgc"


def key(lexicons: tuple, text_digest: bytes) -> bytes:
    """The first bytes of the sidecar, for the ``lexicon_set``
    ``lexicons``, of a corpus file whose text has the ``digest``
    ``text_digest``: the text itself is not digested again."""
    head = b"lgw corpus %d python %d.%d\n" % (FORMAT, *sys.version_info[:2])
    return head + digest(lexicons[1] + text_digest)


def read(path, lexicons: tuple, text_digest: bytes):
    """(token columns, text lexicon) of the corpus file at ``path``, whose
    text has the digest ``text_digest``, for the ``lexicon_set``
    ``lexicons``, from its sidecar; None when there is none for this text
    and these lexicons, or when it cannot be read or holds values the
    matcher could not use."""
    k = key(lexicons, text_digest)
    try:
        blob = _path(path, lexicons).read_bytes()
    except OSError:
        return None
    start = len(k) + DIGEST_SIZE  # the payload's digest comes first
    payload = memoryview(blob)[start:]
    if not blob.startswith(k) or blob[len(k):start] != digest(payload):
        return None
    try:
        surfaces, offsets, symidx, prefixes, longest = marshal.loads(payload)
        starts = array(OFFSETS)
        starts.frombytes(offsets)
        distinct = set(surfaces)  # a few hundred objects to check, not one per token
    except (EOFError, ValueError, TypeError, MemoryError):
        return None  # truncated, not written by write, or claiming a size past memory
    # what the walk indexes: a token's surface by its first character, a
    # surface's symbol sets as a tuple of sets, the prefixes as a set of str
    if not (type(surfaces) is list and len(surfaces) == len(starts)
            and {*map(type, distinct)} <= {str} and "" not in distinct
            and type(symidx) is dict and {*map(type, symidx.values())} <= {tuple}
            and {type(s) for sets in symidx.values() for s in sets} <= {set, frozenset}
            and type(prefixes) in (set, frozenset) and {*map(type, prefixes)} <= {str}
            and type(longest) is int):
        return None
    return (surfaces, starts), Lexicon(symidx, (prefixes, longest))


def write(path, lexicons: tuple, text_digest: bytes, tokens: tuple, lex: Lexicon) -> None:
    """Keep ``tokens``, the kernel token columns, and ``lex``, the text
    lexicon for the ``lexicon_set`` ``lexicons``, of the corpus file at
    ``path`` whose text has the digest ``text_digest``, in its sidecar,
    replacing it whole, then delete all but the ``KEEP`` newest sidecars
    of the file.  A directory that cannot be written gets none."""
    surfaces, starts = tokens
    payload = marshal.dumps((surfaces, starts.tobytes(), lex.symbol_index(), *lex.prefix_index()))
    target = _path(path, lexicons)
    # a process writes only its own temporary file; os.replace makes the
    # whole new sidecar appear at once
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(key(lexicons, text_digest))
            f.write(digest(payload))
            f.write(payload)  # not joined to the key: that copy raised peak memory
        os.replace(tmp, target)
        # the KEEP - 1 newest other sidecars of the file stay
        own = re.compile(re.escape(Path(path).name) + r"\.[0-9a-f]{16}\.lgc")
        others = []
        with os.scandir(target.parent) as entries:
            for entry in entries:
                if own.fullmatch(entry.name) and entry.name != target.name:
                    with contextlib.suppress(FileNotFoundError):  # deleted meanwhile
                        others.append((entry.stat().st_mtime_ns, entry.path))
        for _, old in sorted(others, reverse=True)[KEEP - 1:]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(old)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
