"""The corpus sidecar: what ``lgw apply`` computed from a corpus file,
kept beside it.

The sidecar of the corpus file ``dir/name`` for a list of lexicon files
is ``dir/__lgwcache__/name.<set>.lgc``, where ``<set>`` is named after
the lexicon files' paths (``lexicon_set``), so that applies alternating
lexicon lists each keep their own; an empty list is one more set.  It
begins with its key: the format number, the Python ``major.minor`` that
wrote it, and a blake2b digest of the digests of the lexicon files'
bytes and of the corpus text.  Marshal data of nine columns follows:

* the file's kernel token columns (``lgw.matcher``): its distinct token
  surfaces, first seen first, and for each token the number of its
  surface, its start and its end, each as the bytes of an
  ``array(_engine.OFFSETS)``;
* its text lexicon (``lgw.lexicon.text_lexicon``), the part of the
  merged lexicons that the matcher can look up on its text: the distinct
  symbol-set tuples; the surfaces in index order; for each surface the
  number of its tuple, as bytes when 256 numbers suffice; the head
  widths ``dict.fromkeys(<alphabetic surfaces>, 1)`` does not give; and
  the widest head.

A sidecar with any other key, or one that cannot be read or decoded or
whose columns do not fit together, is a miss.  Bump ``FORMAT`` whenever
these columns, what ``tokenize_raw`` makes of a text, what
``parse_lexicon`` makes of a lexicon or what ``text_lexicon`` keeps
change.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import sys
from array import array
# hashlib.blake2b is _blake2.blake2b; importing hashlib would also load
# OpenSSL, about 4 MB and 4 ms more for every lgw command
from _blake2 import blake2b
from pathlib import Path

from .lexicon import Lexicon
from .matcher._engine import OFFSETS

FORMAT = 1


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
    and these lexicons or it cannot be read.  The values are trusted, as
    the key holds the digests of what they were computed from."""
    k = key(lexicons, text_digest)
    try:
        blob = _path(path, lexicons).read_bytes()
    except OSError:
        return None
    if not blob.startswith(k):
        return None
    try:
        distinct, *data, sets, keys, ids, wider, longest = marshal.loads(
            memoryview(blob)[len(k):])
        if type(distinct) is not tuple or {*map(type, distinct)} - {str}:
            return None
        numbers, starts, ends = arrays = [array(OFFSETS) for _ in range(3)]
        for column, raw in zip(arrays, data, strict=True):
            column.frombytes(raw)
        surfaces = [distinct[i] for i in numbers]  # faster than map(distinct.__getitem__)
        if not len(surfaces) == len(starts) == len(ends):
            return None
        symidx = dict(zip(keys, map(sets.__getitem__, ids), strict=True))
        heads = dict.fromkeys(filter(str.isalpha, keys), 1)
        heads.update(wider)
    except (EOFError, ValueError, TypeError, IndexError, AttributeError):
        return None  # truncated, or not written by write
    return (surfaces, starts, ends), Lexicon(symidx, (heads, longest))


def write(path, lexicons: tuple, text_digest: bytes, tokens: tuple, lex: Lexicon) -> None:
    """Keep ``tokens``, the kernel token columns, and ``lex``, the text
    lexicon for the ``lexicon_set`` ``lexicons``, of the corpus file at
    ``path`` whose text has the digest ``text_digest``, in its sidecar,
    replacing it whole.  A directory that cannot be written gets none."""
    surfaces, starts, ends = tokens
    distinct: dict = {}
    numbers = array(OFFSETS, [distinct.setdefault(s, len(distinct)) for s in surfaces])
    symidx = lex.symbol_index()
    heads, longest = lex.head_index()
    sets: dict = {}
    ids = [sets.setdefault(v, len(sets)) for v in symidx.values()]
    ones = dict.fromkeys(filter(str.isalpha, symidx), 1)
    wider = {w: n for w, n in heads.items() if ones.get(w) != n}
    columns = (tuple(distinct), numbers.tobytes(), starts.tobytes(), ends.tobytes(),
               tuple(sets), tuple(symidx), bytes(ids) if len(sets) <= 256 else tuple(ids),
               wider, longest)
    # version 2 builds no reference table while it writes or reads
    payload = marshal.dumps(columns, 2)
    target = _path(path, lexicons)
    # a process writes only its own temporary file; os.replace makes the
    # whole new sidecar appear at once
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as f:
            f.write(key(lexicons, text_digest))
            f.write(payload)  # not joined to the key: that copy raised peak memory
        os.replace(tmp, target)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
