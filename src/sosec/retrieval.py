"""Code tokenization and BM25 retrieval over knowledge-base code blocks.

Ranking is lexical on purpose: warnings in community discussions tend to
hang off concrete identifiers (``shell=true``, ``pickle.loads``,
``debug=true``), so the tokenizer emits those compounds whole in addition
to their lowercased constituents.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigError
from .kb import KnowledgeEntry

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that use it, not at module level:
# `import sosec.cli` loads this module, and numpy would add about 0.17 s and
# 10 MB to every CLI start, also for subcommands that never open an index.

INDEX_MAGIC = "SOSEC-IDX-v2"
_V1_PREFIX = b'{"magic": "SOSEC-IDX-v1"'
# The posting arrays in file order, little-endian, right after the header
# line. Only the last one is int32, so each starts 8-byte aligned within them.
_ARRAYS = (("offsets", "<i8"), ("impacts", "<f8"), ("doc_ids", "<i4"))

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_TOP_K = 5

# One scan, three shapes: `name=value` argument patterns (== etc. excluded),
# dotted call paths, bare identifiers/numbers.
_TOKEN_RE = re.compile(
    r"(?P<assign>[A-Za-z_]\w*(?:\.\w+)*[ \t]*=(?!=)[ \t]*\w+(?:\.\w+)*)"
    r"|(?P<dotted>[A-Za-z_]\w*(?:\.\w+)+)"
    r"|(?P<word>\w+)"
)

_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")
_WS_RE = re.compile(r"\s+")


def _word_tokens(word: str) -> list[str]:
    """The identifier lowercased, plus camelCase/snake_case constituents."""
    whole = word.lower()
    pieces = [p.lower() for p in _CAMEL_RE.findall(word)]
    if pieces == [whole]:
        return [whole]
    return [whole] + pieces


def tokenize_code(text: str) -> list[str]:
    """Tokenize source text, keeping appearance order and duplicates."""
    tokens: list[str] = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        raw = match.group()
        if group == "assign":
            compound = _WS_RE.sub("", raw).lower()
            tokens.append(compound)
            lhs = compound.split("=", 1)[0]
            if "." in lhs:
                tokens.append(lhs)
            for part in re.findall(r"\w+", raw):
                tokens.extend(_word_tokens(part))
        elif group == "dotted":
            tokens.append(raw.lower())
            for part in raw.split("."):
                tokens.extend(_word_tokens(part))
        else:
            tokens.extend(_word_tokens(raw))
    return tokens


@dataclass(eq=False)
class RetrievalIndex:
    """Inverted index whose postings carry their BM25 score.

    The term in slot ``s`` occurs in documents ``doc_ids[offsets[s]:offsets[s + 1]]``
    (ascending), and ``impacts`` holds idf(term) x tf-weight(term, doc) for
    each of those postings, computed once by `build_index`. A document id is
    a position in `entries`.
    """

    k1: float
    b: float
    terms: dict[str, int]
    offsets: np.ndarray  # int64, len(terms) + 1
    doc_ids: np.ndarray  # int32
    impacts: np.ndarray  # float64
    entries: list[KnowledgeEntry] = field(repr=False)


@dataclass
class RetrievalHit:
    entry: KnowledgeEntry
    score: float
    rank: int


def entry_document_text(entry: KnowledgeEntry) -> str:
    return "\n".join(entry.code_blocks)


def build_index(
    entries: Sequence[KnowledgeEntry],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> RetrievalIndex:
    """Index entry code blocks; deterministic for a fixed entry order."""
    import numpy as np

    if not entries:
        raise ConfigError("cannot build an index over zero documents")
    if k1 <= 0:
        raise ConfigError(f"k1 must be positive, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ConfigError(f"b must be within [0, 1], got {b}")

    terms: dict[str, int] = {}
    slots, docs, tfs = array("q"), array("q"), array("q")
    doc_len: list[int] = []
    for doc_id, entry in enumerate(entries):
        tokens = tokenize_code(entry_document_text(entry))
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
    # so every impact is bit-identical to scoring the posting on its own.
    weight = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return RetrievalIndex(
        k1=k1,
        b=b,
        terms=terms,
        offsets=offsets,
        doc_ids=doc_ids.astype(np.int32),
        impacts=np.repeat(idf, df) * weight,
        entries=list(entries),
    )


def retrieve(index: RetrievalIndex, code: str, k: int = DEFAULT_TOP_K) -> list[RetrievalHit]:
    """Top-k entries by BM25; ties broken by ascending answer id.

    Documents sharing no token with the query score zero and are excluded,
    so fewer than k hits may be returned.
    """
    import numpy as np

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.zeros(len(index.entries))
    offsets = index.offsets
    for term in dict.fromkeys(tokenize_code(code)):
        slot = index.terms.get(term)
        if slot is not None:
            lo, hi = offsets[slot], offsets[slot + 1]
            # doc ids are unique within a term, so no posting is dropped
            scores[index.doc_ids[lo:hi]] += index.impacts[lo:hi]

    hit_docs = np.flatnonzero(scores > 0.0)
    if len(hit_docs) > k:
        hit_scores = scores[hit_docs]
        kth = np.partition(hit_scores, len(hit_docs) - k)[len(hit_docs) - k]
        hit_docs = hit_docs[hit_scores >= kth]  # every document tied at the cut stays
    ranked = sorted(
        zip(scores[hit_docs].tolist(), (index.entries[d] for d in hit_docs.tolist())),
        key=lambda item: (-item[0], item[1].answer_id),
    )
    return [
        RetrievalHit(entry=entry, score=score, rank=rank)
        for rank, (score, entry) in enumerate(ranked[:k], start=1)
    ]


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    """Write the magic line, one JSON header line, then the posting arrays.

    The header holds k1, b, the terms in slot order and the entries.
    """
    import numpy as np

    header = {
        "k1": index.k1,
        "b": index.b,
        "terms": sorted(index.terms, key=index.terms.__getitem__),
        "entries": [entry.to_dict() for entry in index.entries],
    }
    with open(path, "wb") as fh:
        fh.write(f"{INDEX_MAGIC}\n".encode())
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        for name, dtype in _ARRAYS:
            fh.write(np.ascontiguousarray(getattr(index, name), dtype=dtype).tobytes())


def _read_header(fh, path) -> tuple[float, float, dict[str, int], list[KnowledgeEntry]]:
    """Check the magic line, then parse the header line: k1, b, terms, entries."""
    first = fh.readline(len(_V1_PREFIX))
    if first != f"{INDEX_MAGIC}\n".encode():
        if first == _V1_PREFIX:
            raise ConfigError(
                f"{path} is a SOSEC-IDX-v1 index file, which this version cannot read; "
                "rebuild it with `sosec index`"
            )
        raise ConfigError(f"{path} is not a {INDEX_MAGIC} index file")
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise ConfigError(f"{path} is truncated: it ends in the header")
    try:
        header = json.loads(line)
        terms = {term: slot for slot, term in enumerate(header["terms"])}
        entries = [KnowledgeEntry.from_dict(e) for e in header["entries"]]
        return header["k1"], header["b"], terms, entries
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path} has a corrupt index header: {exc}") from exc


def load_index(path: str | Path) -> RetrievalIndex:
    """Read a file written by `save_index`; the arrays are views of the bytes after the header."""
    import numpy as np

    try:
        with open(path, "rb") as fh:
            k1, b, terms, entries = _read_header(fh, path)
            body = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read index file {path}: {exc}") from exc

    arrays = {}
    pos = 0
    count = len(terms) + 1
    for name, dtype in _ARRAYS:
        size = np.dtype(dtype).itemsize * count
        if len(body) - pos < size:
            raise ConfigError(f"{path} is truncated: {name} needs {size} bytes at array offset {pos}")
        arrays[name] = np.frombuffer(body, dtype=dtype, count=count, offset=pos)
        pos += size
        if name == "offsets":
            offsets = arrays[name]
            if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
                raise ConfigError(f"{path} has corrupt posting offsets")
            count = int(offsets[-1])
    if pos != len(body):
        raise ConfigError(f"{path} has {len(body) - pos} bytes after the posting arrays")
    if count and not 0 <= int(arrays["doc_ids"].min()) <= int(arrays["doc_ids"].max()) < len(entries):
        raise ConfigError(f"{path} has posting doc ids outside its {len(entries)} entries")
    return RetrievalIndex(k1=k1, b=b, terms=terms, entries=entries, **arrays)
