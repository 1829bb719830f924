"""Code tokenization and BM25 retrieval over knowledge-base code blocks.

Ranking is lexical on purpose: warnings in community discussions tend to
hang off concrete identifiers (``shell=true``, ``pickle.loads``,
``debug=true``), so the tokenizer emits those compounds whole in addition
to their lowercased constituents.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import weakref
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigError, is_int, is_number, is_str, list_of
from .kb import KnowledgeEntry

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that use it, not at module level:
# `import sosec.cli` loads this module, and numpy would add about 0.17 s and
# 10 MB to every CLI start, also for subcommands that never open an index.

INDEX_MAGIC = "SOSEC-IDX-v3"
# The first bytes `_read_header` sees of a file in a format this version refuses.
_OLD_FORMATS = {b'{"magic": "SOSEC-IDX-v1"': "SOSEC-IDX-v1", b"SOSEC-IDX-v2\n": "SOSEC-IDX-v2"}
# The arrays in file order, little-endian, right after the header, which is
# padded so that they start 8-byte aligned. Only the last one is int32, so
# each of them starts aligned. The entry lines follow them.
_ARRAYS = (
    ("offsets", "<i8"),
    ("entry_offsets", "<i8"),
    ("answer_ids", "<i8"),
    ("impacts", "<f8"),
    ("doc_ids", "<i4"),
)

# Values per read when an array is converted as it is loaded.
_READ_CHUNK = 1 << 16

# A term whose postings cover more than this share of the documents is added
# to a query's scores as one dense row of impacts rather than posting by posting.
# At 20k documents (numpy 2.4, one core of a 2-vCPU VM) one np.add of a row
# takes about 2.1 µs, and np.add.at about 0.6 µs per call plus 0.6 ns per
# posting, so the row is the cheaper add from about 1/8 of the documents up.
_DENSE_SHARE = 0.125

# `retrieve` bounds the k-th highest score from below by the k-th highest of
# every this-many-th score.
_SAMPLE_STRIDE = 16

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_TOP_K = 5

# One scan, three shapes: `name=value` argument patterns (== etc. excluded),
# dotted call paths, bare identifiers/numbers. An identifier is matched once
# as `head`; `rhs` then extends it to `name=value` when an `=` follows.
_TOKEN_RE = re.compile(
    r"(?P<head>[A-Za-z_]\w*(?:\.\w+)*)(?P<rhs>[ \t]*=(?!=)[ \t]*\w+(?:\.\w+)*)?"
    r"|(?P<word>\w+)"
)

_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


# One memo for index builds and queries, since the entries and queries about one
# codebase repeat its names. Its lists are shared, so none is ever changed. It
# keeps at most this many, least recently used out first: about 5 MB.
@functools.lru_cache(maxsize=1 << 14)
def _query_word_tokens(word: str) -> list[str]:
    """The identifier lowercased, plus camelCase/snake_case constituents."""
    whole = word.lower()
    pieces = [p.lower() for p in _CAMEL_RE.findall(word)]
    if pieces == [whole]:
        return [whole]
    return [whole] + pieces


def tokenize_code(text: str) -> list[str]:
    """Tokenize source text, keeping appearance order and duplicates."""
    tokens: list[str] = []
    # Each match fills `head` (and maybe `rhs`) or `word`, never both.
    for head, rhs, word in _TOKEN_RE.findall(text):
        if rhs:
            # `rhs` is blanks, one `=`, blanks, then the value, whose first
            # character is a word character.
            value = rhs.lstrip(" \t=")
            compound = f"{head}={value}".lower()
            tokens.append(compound)
            if "." in head:
                tokens.append(compound.split("=", 1)[0])
            for part in head.split("."):
                tokens.extend(_query_word_tokens(part))
            for part in value.split("."):
                tokens.extend(_query_word_tokens(part))
        elif "." in head:
            tokens.append(head.lower())
            for part in head.split("."):
                tokens.extend(_query_word_tokens(part))
        else:
            tokens.extend(_query_word_tokens(head or word))
    return tokens


class _EntryFile:
    """The entry lines of a loaded index file, read with `os.pread` on a descriptor of its own.

    `pread` takes the position as an argument, so threads can share one
    descriptor. The descriptor is closed when the object is collected.
    """

    def __init__(self, path: str | Path, fd: int, start: int):
        self.path = str(path)
        self._start = start
        self._fd = os.dup(fd)
        weakref.finalize(self, os.close, self._fd)

    def __getitem__(self, span: slice) -> bytes:
        return os.pread(self._fd, span.stop - span.start, self._start + span.start)


@dataclass(eq=False)
class RetrievalIndex:
    """Inverted index whose postings carry their BM25 score.

    The term in slot ``s`` occurs in documents ``doc_ids[offsets[s]:offsets[s + 1]]``
    (ascending), and ``impacts`` holds idf(term) x tf-weight(term, doc) for
    each of those postings, computed once by `build_index`. Document ``d`` is
    the KB entry with answer id ``answer_ids[d]``, whose JSONL line is
    ``blob[entry_offsets[d]:entry_offsets[d + 1]]``; `entry` decodes it.

    ``dense`` maps the slot of each term found in more than `_DENSE_SHARE`
    (1/8) of the documents to its impacts as one read-only float64 row over
    all documents, 0.0 where the term is absent. It is built with the index,
    by `build_index` and `load_index` alike, and is not stored in the file.
    """

    k1: float
    b: float
    terms: dict[str, int]
    offsets: np.ndarray  # int64, len(terms) + 1
    doc_ids: np.ndarray  # intp, the index type np.add.at is fastest with; int32 in the file
    impacts: np.ndarray  # float64
    answer_ids: np.ndarray  # int64, one per document
    entry_offsets: np.ndarray  # int64, documents + 1
    blob: bytes | _EntryFile = field(repr=False)
    dense: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        import numpy as np

        count = len(self.answer_ids)
        self.dense = {}
        for slot in np.flatnonzero(np.diff(self.offsets) > _DENSE_SHARE * count).tolist():
            lo, hi = self.offsets[slot], self.offsets[slot + 1]
            row = np.zeros(count)
            row[self.doc_ids[lo:hi]] = self.impacts[lo:hi]
            row.flags.writeable = False
            self.dense[slot] = row

    def entry(self, doc_id: int) -> KnowledgeEntry:
        """Decode the KB entry of one document."""
        line = self.blob[int(self.entry_offsets[doc_id]) : int(self.entry_offsets[doc_id + 1])]
        try:
            entry = KnowledgeEntry.from_jsonl(line.decode("utf-8"))
            if entry.answer_id != self.answer_ids[doc_id]:
                raise ValueError(f"its answer_id {entry.answer_id} is not the indexed {self.answer_ids[doc_id]}")
        except (ValueError, RecursionError) as exc:  # JSONDecodeError and the Unicode errors too
            where = getattr(self.blob, "path", "the index")
            raise ConfigError(f"{where} has a corrupt entry line for document {doc_id}: {exc}") from exc
        return entry


@dataclass
class RetrievalHit:
    entry: KnowledgeEntry
    score: float
    rank: int


def _bm25_fault(k1, b) -> str | None:
    """What is wrong with a k1 and b, for `build_index` and `_read_header` alike; None if nothing.

    k1 must be a finite number above 0 and b a number within [0, 1], not a bool.
    """
    if not (is_number(k1) and k1 > 0):
        return f"k1 {k1!r} is not a positive number"
    if not (is_number(b) and 0 <= b <= 1):
        return f"b {b!r} is not a number within [0, 1]"
    return None


def _impacts_ok(impacts) -> bool:
    """True iff every posting impact is finite and positive, as `retrieve` relies on; a NaN fails."""
    return not len(impacts) or bool(impacts.min() > 0.0 and impacts.max() < math.inf)


def build_index(
    entries: Sequence[KnowledgeEntry],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> RetrievalIndex:
    """Index entry code blocks; deterministic for a fixed entry order."""
    import numpy as np

    if not entries:
        raise ConfigError("cannot build an index over zero documents")
    if fault := _bm25_fault(k1, b):
        raise ConfigError(fault)

    answer_ids = [entry.answer_id for entry in entries]
    if not all(is_int(aid) and -(2**63) <= aid < 2**63 for aid in answer_ids):
        raise ConfigError("every answer id must be an integer that fits in 64 bits")
    lines = [entry.to_jsonl().encode("utf-8") for entry in entries]
    entry_offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum([len(line) for line in lines], out=entry_offsets[1:])

    terms: dict[str, int] = {}
    slots, docs, tfs = array("q"), array("q"), array("q")
    doc_len: list[int] = []
    for doc_id, entry in enumerate(entries):
        tokens = tokenize_code("\n".join(entry.code_blocks))
        doc_len.append(len(tokens))
        for term, tf in Counter(tokens).items():
            slots.append(terms.setdefault(term, len(terms)))
            docs.append(doc_id)
            tfs.append(tf)

    slot_of = np.frombuffer(slots, dtype=np.int64)
    # term-major order; the stable sort keeps each term's documents ascending
    order = np.argsort(slot_of, kind="stable")
    doc_ids = np.frombuffer(docs, dtype=np.int64)[order]
    tf = np.frombuffer(tfs, dtype=np.int64)[order]
    df = np.bincount(slot_of, minlength=len(terms))
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(df, out=offsets[1:])

    n = len(entries)
    # +1 inside the log keeps IDF (and therefore scores) strictly positive
    # even for terms present in more than half the corpus.
    idf = np.array([math.log((n - d + 0.5) / (d + 0.5) + 1.0) for d in df.tolist()])
    avgdl = sum(doc_len) / n
    dl = np.array(doc_len, dtype=np.int64)[doc_ids]
    # Elementwise IEEE operations in the order scalar code would apply them,
    # so every impact is bit-identical to scoring the posting on its own. An
    # overflow is not printed: the impacts it spoils are refused below.
    with np.errstate(all="ignore"):
        impacts = np.repeat(idf, df) * (tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl)))
    if not _impacts_ok(impacts):
        raise ConfigError(f"k1 {k1!r} and b {b!r} give posting impacts that are not finite and positive")
    return RetrievalIndex(
        k1=k1,
        b=b,
        terms=terms,
        offsets=offsets,
        doc_ids=doc_ids.astype(np.intp, copy=False),
        impacts=impacts,
        answer_ids=np.array(answer_ids, dtype=np.int64),
        entry_offsets=entry_offsets,
        blob=b"".join(lines),
    )


def retrieve(index: RetrievalIndex, code: str, k: int = DEFAULT_TOP_K) -> list[RetrievalHit]:
    """Top-k entries by BM25; ties broken by ascending answer id.

    Documents sharing no token with the query score zero and are excluded,
    so fewer than k hits may be returned.
    """
    import numpy as np

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    offsets = index.offsets
    # Each matched term adds its impacts into one score array, in query-term
    # order, so each document's score is the same IEEE sum, starting from
    # +0.0, as scoring its postings one by one. A dense row adds +0.0 where
    # the term is absent, which leaves every score as it was.
    scores = np.zeros(len(index.answer_ids))
    for term in dict.fromkeys(tokenize_code(code)):
        slot = index.terms.get(term)
        if slot is None:
            continue
        row = index.dense.get(slot)
        if row is not None:
            np.add(scores, row, out=scores)
        else:
            lo, hi = offsets[slot], offsets[slot + 1]
            np.add.at(scores, index.doc_ids[lo:hi], index.impacts[lo:hi])

    # Scores are never negative: if the k-th highest is positive, the hits
    # are the documents that reach it, every one tied at the cut included;
    # otherwise every document that scores is a hit. The k-th highest of
    # every _SAMPLE_STRIDE-th score is never above the k-th highest of all,
    # so only the scores at or above it need to be partitioned; with fewer
    # than k samples the bound is 0.0, which every score reaches.
    sample = scores[::_SAMPLE_STRIDE]
    bound = np.partition(sample, len(sample) - k)[len(sample) - k] if len(sample) >= k else 0.0
    docs = np.flatnonzero(scores >= bound)
    candidates = scores[docs]
    n = len(candidates)
    kth = np.partition(candidates, n - k)[n - k] if n > k else 0.0
    hit_docs = docs[candidates >= kth if kth > 0.0 else candidates > 0.0]
    ranked = sorted(
        zip(scores[hit_docs].tolist(), index.answer_ids[hit_docs].tolist(), hit_docs.tolist()),
        key=lambda item: (-item[0], item[1]),
    )
    return [
        RetrievalHit(entry=index.entry(doc_id), score=score, rank=rank)
        for rank, (score, _, doc_id) in enumerate(ranked[:k], start=1)
    ]


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    """Write the magic line, one JSON header line, the arrays, then the entry lines.

    The header holds k1, b, the terms in slot order and the entry count. The
    file is written under a temporary name beside the file that `path`
    resolves to and then renamed over that file, so a symlink stays a link
    to the new index, a reader never sees it half written, and an index
    loaded from the old file keeps reading the old file.
    """
    import numpy as np

    header = {
        "k1": index.k1,
        "b": index.b,
        "terms": sorted(index.terms, key=index.terms.__getitem__),
        "entries": len(index.answer_ids),
    }
    head = f"{INDEX_MAGIC}\n".encode() + json.dumps(header, ensure_ascii=False).encode("utf-8")
    head += b" " * (-(len(head) + 1) % 8) + b"\n"
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(head)
            for name, dtype in _ARRAYS:
                fh.write(np.ascontiguousarray(getattr(index, name), dtype=dtype).tobytes())
            fh.write(index.blob[0 : int(index.entry_offsets[-1])])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(fh, path) -> tuple[float, float, dict[str, int], int]:
    """Check the magic line, then parse the header line: k1, b, terms, entry count."""
    first = fh.readline(max(map(len, _OLD_FORMATS)))
    if first != f"{INDEX_MAGIC}\n".encode():
        if first in _OLD_FORMATS:
            raise ConfigError(
                f"{path} is a {_OLD_FORMATS[first]} index file, which this version cannot read; "
                "rebuild it with `sosec index`"
            )
        raise ConfigError(f"{path} is not a {INDEX_MAGIC} index file")
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise ConfigError(f"{path} is truncated: it ends in the header")
    try:
        header = json.loads(line)
        k1, b, terms, count = header["k1"], header["b"], header["terms"], header["entries"]
        if fault := _bm25_fault(k1, b):
            raise ValueError(fault)
        if not list_of(is_str)(terms):
            raise ValueError("terms is not a list of strings")
        if not is_int(count) or count < 0:
            raise ValueError(f"entry count {count!r} is not a count")
        return k1, b, dict(zip(terms, range(len(terms)))), count
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ConfigError(f"{path} has a corrupt index header: {exc}") from exc


def _read_array(fh, length: int, dtype: str, memory_dtype: type | str) -> np.ndarray:
    """Read `length` values stored as `dtype` into a new array of `memory_dtype`.

    When the two differ the values are read and converted `_READ_CHUNK` at
    a time, so no second whole-size copy is made.
    """
    import numpy as np

    values = np.empty(length, dtype=memory_dtype)
    if values.dtype == np.dtype(dtype):
        fh.readinto(values)
        return values
    chunk = np.empty(min(length, _READ_CHUNK), dtype=dtype)
    for lo in range(0, length, _READ_CHUNK):
        part = chunk[: length - lo]
        fh.readinto(part)
        values[lo : lo + len(part)] = part
    return values


def load_index(path: str | Path) -> RetrievalIndex:
    """Read a file written by `save_index`: the header and the arrays, but no entry line.

    The index keeps a descriptor of the file and reads the line of each
    entry a query returns, when it returns it.
    """
    import numpy as np

    try:
        with open(path, "rb") as fh:
            k1, b, terms, count = _read_header(fh, path)
            file_size = os.fstat(fh.fileno()).st_size
            counts = {"offsets": len(terms) + 1, "entry_offsets": count + 1, "answer_ids": count}
            arrays = {}
            for name, dtype in _ARRAYS:
                length = counts[name]
                size = np.dtype(dtype).itemsize * length
                if file_size - fh.tell() < size:
                    raise ConfigError(f"{path} is truncated: {name} needs {size} bytes at file offset {fh.tell()}")
                values = _read_array(fh, length, dtype, np.intp if name == "doc_ids" else dtype)
                if name in ("offsets", "entry_offsets") and (values[0] != 0 or np.any(values[1:] < values[:-1])):
                    raise ConfigError(f"{path} has corrupt {name}")
                if name == "offsets":  # impacts and doc_ids hold one value per posting
                    counts["impacts"] = counts["doc_ids"] = int(values[-1])
                arrays[name] = values
            blob_size = file_size - fh.tell()
            if blob_size != arrays["entry_offsets"][-1]:
                raise ConfigError(
                    f"{path} has {blob_size} bytes of entry lines, but its entry offsets end at {arrays['entry_offsets'][-1]}"
                )
            blob = _EntryFile(path, fh.fileno(), fh.tell())
    except OSError as exc:
        raise ConfigError(f"cannot read index file {path}: {exc}") from exc

    doc_ids = arrays["doc_ids"]
    if len(doc_ids) and not 0 <= int(doc_ids.min()) <= int(doc_ids.max()) < count:
        raise ConfigError(f"{path} has posting doc ids outside its {count} entries")
    if not _impacts_ok(arrays["impacts"]):
        raise ConfigError(f"{path} has posting impacts that are not finite and positive")
    return RetrievalIndex(k1=k1, b=b, terms=terms, blob=blob, **arrays)
