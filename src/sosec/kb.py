"""Knowledge-base construction from Stack Exchange data-dump XML.

Filters answers to those that carry at least one community upvote (on the
answer or a comment), contain code and discuss security, then emits them as
normalized JSONL entries that the retrieval index is built from.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter, deque
from concurrent.futures import BrokenExecutor
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from html import unescape
from html.parser import HTMLParser
from itertools import chain, islice
from pathlib import Path
from typing import IO, Iterable, Iterator
from xml.parsers import expat

from .errors import ConfigError, DumpParseError, SosecError, is_int, is_str, jsonl_lines, list_of, read_lines

# Stack Exchange encodes tags either as "<python><flask>" or "|python|flask|".
_TAG_ANGLE_RE = re.compile(r"<([^<>]+)>")

# Inline <code> spans shorter than this are markup noise ("x", "None", ...),
# not retrievable snippets.
MIN_INLINE_CODE_CHARS = 10

DEFAULT_MIN_UPVOTE = 1

_CHUNK_SIZE = 64 * 1024

# build_knowledge_base cuts a dump larger than this into slices of about
# this many bytes, each of which a worker process parses.
_SLICE_BYTES = 1 << 20
# Upvoted answers per task sent to a worker process. Unless the dump slices
# have started the pool, it starts only once this many have been seen.
_JUDGE_CHUNK = 256
_MAX_WORKERS = 4
# Slices, and as many judge chunks, each worker may have queued or running.
# It bounds what is held for the workers to (_SLICE_BYTES plus its rows, and
# _JUDGE_CHUNK answers) x _IN_FLIGHT_PER_WORKER x workers.
_IN_FLIGHT_PER_WORKER = 2


@dataclass
class KnowledgeEntry:
    answer_id: int
    question_id: int
    answer_score: int
    answer_excerpt: str
    code_blocks: list[str]
    comments: list[tuple[str, int]]
    tags: list[str]
    url: str

    def to_dict(self) -> dict:
        """The entry as a JSON object, keys in field order; each comment is a {"text", "score"} object."""
        obj = vars(self).copy()
        obj["comments"] = [{"text": t, "score": s} for t, s in self.comments]
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "KnowledgeEntry":
        """Read a KB record; raise ValueError naming its first field that is missing or of the wrong type."""
        if type(obj) is not dict:
            raise ValueError("a record must be a JSON object")
        for key, (ok, shape) in _RECORD_FIELDS.items():
            if key not in obj:
                raise ValueError(f"missing {key!r}")
            if not ok(obj[key]):
                raise ValueError(f"{key!r} must be {shape}, got {obj[key]!r:.80}")
        entry = cls(**{key: obj[key] for key in _RECORD_FIELDS})
        entry.comments = [(c["text"], c["score"]) for c in entry.comments]
        return entry

    @classmethod
    def from_jsonl(cls, line: str) -> "KnowledgeEntry":
        """Read one KB JSONL line; raise ValueError if it is not JSON or a record, or holds a lone surrogate."""
        entry = cls.from_dict(json.loads(line))
        if "\\u" in line:  # only an escape can decode to a lone surrogate
            entry.to_jsonl().encode("utf-8")
        return entry

    def to_jsonl(self) -> str:
        """The entry's line in a KB JSONL file, newline included, keys in a stable order."""
        return json.dumps(self.to_dict(), ensure_ascii=False) + "\n"


@dataclass(frozen=True)
class KeywordSet:
    """Lowercase phrases matched as substrings against answer and comment text.

    The set may not be empty, and no phrase may contain NUL, the separator
    `is_security_relevant` joins the texts with.
    """

    keywords: frozenset[str]
    # The phrases that hold no other phrase. A text that holds a phrase also
    # holds every phrase inside it, so looking for these alone gives every
    # verdict that looking for all of them gives.
    _scan: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ConfigError("keyword set is empty")
        for phrase in sorted(self.keywords):
            if "\x00" in phrase:
                raise ConfigError(f"keyword phrase {phrase!r} contains a NUL character")
        scan = tuple(p for p in sorted(self.keywords) if not any(q in p for q in self.keywords if q != p))
        object.__setattr__(self, "_scan", scan)

    @classmethod
    def from_iterable(cls, phrases: Iterable[str]) -> "KeywordSet":
        return cls(frozenset(p.strip().lower() for p in phrases if p.strip()))

    @classmethod
    def from_file(cls, path: str | Path) -> "KeywordSet":
        phrases = read_lines(path)
        try:
            return cls.from_iterable(phrases)
        except ConfigError as exc:
            raise ConfigError(f"keyword file {path}: {exc}") from exc


def _parse_tags(raw: str) -> list[str]:
    return _TAG_ANGLE_RE.findall(raw) or [t for t in raw.split("|") if t]


def _post_row(attrs: dict[str, str]) -> tuple | None:
    """A Posts row as `(id, tags)` for a question or `(id, parent id, score, body)` for an answer; None to skip it."""
    try:
        post_id, score = int(attrs["Id"]), int(attrs.get("Score", "0"))
        type_id = attrs.get("PostTypeId")
        if type_id == "1":
            return post_id, _parse_tags(attrs.get("Tags", ""))
        if type_id == "2":
            return post_id, int(attrs["ParentId"]), score, attrs.get("Body", "")
    except (KeyError, ValueError):  # a missing or non-numeric Id, ParentId or Score skips the row, not the stream
        pass
    return None


def _comment_row(attrs: dict[str, str]) -> tuple[int, str, int] | None:
    """A Comments row as `(post id, text, score)`; None to skip it."""
    try:
        int(attrs["Id"])  # not kept, but a row without a numeric Id is skipped
        # Dump exports do not expose comment downvotes; clamp stray negatives.
        return int(attrs["PostId"]), attrs.get("Text", ""), max(0, int(attrs.get("Score", "0")))
    except (KeyError, ValueError):
        return None


def _parse_rows(chunks: Iterable[bytes], kind: str) -> Iterator[tuple | None]:
    """The rows of the XML document that `chunks` hold, as `_post_row` or `_comment_row` tuples; None for a row to skip.

    Parsed one chunk at a time; no chunk may be empty. Malformed XML raises
    DumpParseError with the failing byte offset.
    """
    if kind not in ("posts", "comments"):
        raise ValueError(f"unknown dump kind: {kind!r}")
    make_row = _post_row if kind == "posts" else _comment_row
    parser = expat.ParserCreate()
    pending: list[tuple | None] = []

    def handle_start(name: str, attrs: dict[str, str]) -> None:
        if name == "row":
            pending.append(make_row(attrs))

    parser.StartElementHandler = handle_start

    for chunk in chain(chunks, [b""]):
        try:
            parser.Parse(chunk, not chunk)
        except expat.ExpatError as exc:
            raise DumpParseError(f"malformed {kind} XML at byte {parser.ErrorByteIndex}: {exc}") from exc
        yield from pending
        pending.clear()


def parse_dump_rows(stream: IO[bytes], kind: str) -> Iterator[tuple | None]:
    """Stream the `<row .../>` records of a Posts.xml or Comments.xml dump as tuples, None for a row to skip.

    A Posts dump gives `(id, tags)` for a question and `(id, parent id,
    score, body)` for an answer; a Comments dump gives `(post id, text,
    score)`. Memory use is bounded by one parse chunk, not by file size.
    Rows missing a required attribute (Id; ParentId for answers; PostId for
    comments), holding a non-numeric Id, ParentId, PostId or Score, or of
    another post type are skipped: each gives None in its place.
    Malformed XML raises DumpParseError with the failing byte offset.
    """
    yield from _parse_rows(iter(partial(stream.read, _CHUNK_SIZE), b""), kind)


def is_security_relevant(
    answer_text: str,
    comment_texts: list[str],
    keywords: KeywordSet,
) -> bool:
    """True iff any keyword phrase occurs in the answer text or a comment.

    The texts are joined with NUL, lowercased once and searched once per
    phrase. No phrase holds NUL, so a match never spans two texts. NUL is
    neither cased nor case-ignorable, so lowercasing the join lowercases
    each text as it would alone, final sigma included. Only the phrases
    that hold no other phrase are looked up (see `KeywordSet`).
    """
    haystack = "\x00".join([answer_text, *comment_texts]).lower()
    return any(map(haystack.__contains__, keywords._scan))


def passes_quality_gate(
    answer_score: int,
    comment_scores: list[int],
    min_upvote: int = DEFAULT_MIN_UPVOTE,
) -> bool:
    """True iff the answer or at least one of its comments is upvoted."""
    return answer_score >= min_upvote or any(score >= min_upvote for score in comment_scores)


_BLOCK_TAGS = {"p", "pre", "div", "li", "ul", "ol", "br", "blockquote", "h1", "h2", "h3"}

# One start or end tag that every supported html.parser version reads the
# same way: an ASCII name, then attributes that are each whitespace, a name
# and an optional quoted or unquoted value. No part can match past a "<", so
# a failed attempt costs at most the distance to the next "<". Groups: start
# tag name, "/" when the start tag closes itself, end tag name. Elements whose
# content the HTML5 tokenizer reads as raw text are left out, because
# html.parser versions differ in which of them they honour.
_PLAIN_TAG = re.compile(
    r"<(?:"
    r"(?!(?i:script|style|textarea|title|xmp|iframe|noembed|noframes|noscript|plaintext)[\t\n\f\r />])"
    r"([A-Za-z][A-Za-z0-9]*)"
    r"(?:[\t\n\f\r ]+[A-Za-z_:][-A-Za-z0-9_:.]*"
    r"(?:=(?:\"[^\"<]*\"|'[^'<]*'|[!#-&(-;=?-~]+(?=[\t\n\f\r >])))?)*"
    r"[\t\n\f\r ]*(/?)"
    r"|/([A-Za-z][A-Za-z0-9]*)[\t\n\f\r ]*"
    r")>"
)


def _plain_pieces(body: str) -> list[str] | None:
    """`_PLAIN_TAG.split(body)` if every "<" in `body` starts a plain tag, else None."""
    # "<!" opens a comment or declaration, which is never plain. Declining it
    # before the split spares the html.parser path a wasted pattern pass on
    # bodies such as Stack Overflow's "<!-- language: lang-py -->" ones.
    if "<!" in body:
        return None
    pieces = _PLAIN_TAG.split(body)
    return pieces if body.count("<") == len(pieces) // 4 else None


class _BodyParser(HTMLParser):
    """Collects an answer body's text and its code in one walk over its tokens.

    Fed one whole body. A body that is only `<`-free text and `_PLAIN_TAG`
    tags is tokenized by that one pattern and its events go straight to the
    handlers below (attributes are not decoded; the handlers ignore them).
    Any other body goes through `HTMLParser.feed` unchanged.
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self.blocks: list[str] = []
        self._pre_depth = 0
        self._code_depth = 0
        self._in_pre_code = False
        self._buffer: list[str] = []

    def feed(self, data):
        pieces = _plain_pieces(data)
        if pieces is None:
            super().feed(data)
            return
        handle_data, handle_starttag, handle_endtag = self.handle_data, self.handle_starttag, self.handle_endtag
        it = iter(pieces)
        for text, start, self_closing, end in zip(it, it, it, it):
            if text:
                handle_data(unescape(text))
            if start is None:
                handle_endtag(end.lower())
            else:
                tag = start.lower()
                handle_starttag(tag, [])
                if self_closing:
                    handle_endtag(tag)
        if pieces[-1]:
            handle_data(unescape(pieces[-1]))

    def handle_starttag(self, tag, attrs):
        if tag in _BLOCK_TAGS:
            self.parts.append(" ")
        if tag == "pre":
            self._pre_depth += 1
        elif tag == "code":
            if self._code_depth == 0:
                self._buffer = []
                self._in_pre_code = self._pre_depth > 0
            self._code_depth += 1

    def handle_endtag(self, tag):
        if tag in _BLOCK_TAGS:
            self.parts.append(" ")
        if tag == "pre":
            self._pre_depth = max(0, self._pre_depth - 1)
        elif tag == "code" and self._code_depth > 0:
            self._code_depth -= 1
            if self._code_depth == 0:
                text = "".join(self._buffer).strip()
                if text and (self._in_pre_code or len(text) >= MIN_INLINE_CODE_CHARS):
                    self.blocks.append(text)

    def handle_data(self, data):
        self.parts.append(data)
        if self._code_depth > 0:
            self._buffer.append(data)


def parse_answer_body(body_html: str) -> tuple[str, list[str]] | None:
    """Return a body's whitespace-normalized text and its code snippets in document order.

    Code is every <pre><code> block and every inline <code> span of at least
    MIN_INLINE_CODE_CHARS characters. A body of plain tags is tokenized by
    one compiled pattern; anything else (comments, declarations, script or
    style, a stray "<") by html.parser, with the same result. None means the
    HTML parser raised.
    """
    parser = _BodyParser()
    try:
        parser.feed(body_html)
        parser.close()
    except Exception:
        return None
    return " ".join("".join(parser.parts).split()), parser.blocks


def answer_url(answer_id: int) -> str:
    return f"https://stackoverflow.com/a/{answer_id}"


def _judge_chunk(
    chunk: list[tuple[str, list[str]]],
    keywords: KeywordSet,
) -> list[tuple[str, list[str]] | bool | None]:
    """The code and keyword gates for a chunk of `(body, comment texts)` pairs, in order.

    One verdict per pair: the body's text and code blocks when both gates
    pass, False when one fails, None when the HTML parser gives up. It reads
    nothing but its arguments, so a worker process can run it under any
    start method.
    """
    verdicts: list[tuple[str, list[str]] | bool | None] = []
    for body, comment_texts in chunk:
        parsed = parse_answer_body(body)
        if parsed is not None and not (parsed[1] and is_security_relevant(parsed[0], comment_texts, keywords)):
            parsed = False
        verdicts.append(parsed)
    return verdicts


def _parse_slice(data: bytes, kind: str) -> list[tuple | None] | None:
    """The rows of a slice of a dump's root element, as `_parse_rows` gives them.

    The slice is parsed whole inside a dummy element; None means expat
    rejected it. It reads nothing but its arguments, so a worker process can
    run it under any start method.
    """
    try:
        return list(_parse_rows((b"<slice>", data, b"</slice>"), kind))
    except DumpParseError:
        return None


# What a dump may hold before its first row to be sliced: an optional UTF-8
# byte-order mark, an optional UTF-8 XML declaration, then the root start tag
# with no attribute. Group 4 is the root's name. Compiled on first use (by
# `re`'s cache), not on import.
_DUMP_HEAD = (
    rb"(?:\xef\xbb\xbf)?(?:<\?xml[ \t\r\n]+version=([\"'])1\.0\1"
    rb"(?:[ \t\r\n]+encoding=([\"'])(?i:utf-8)\2)?"
    rb"(?:[ \t\r\n]+standalone=([\"'])(?:yes|no)\3)?[ \t\r\n]*\?>)?"
    rb"[ \t\r\n]*<([A-Za-z_][-A-Za-z0-9_.]*)>"
)


def _dump_body(stream: IO[bytes]) -> tuple[int, int, int] | None:
    """Where a dump to be sliced starts, and where the content of its root element starts and ends.

    None, with the stream where it was, when the dump is to be read
    serially: the stream cannot seek; the dump fits in one slice; its head
    is not `_DUMP_HEAD` (a DOCTYPE, a comment, another encoding) or names a
    `row` root; or it does not end with the root's end tag and optional
    whitespace.
    """
    if not stream.seekable():
        return None
    start = stream.tell()
    end = stream.seek(0, os.SEEK_END)
    body = None
    if end - start > _SLICE_BYTES:
        tail_at = stream.seek(max(start, end - 1024))
        tail = stream.read().rstrip(b" \t\r\n")
        stream.seek(start)
        head = re.match(_DUMP_HEAD, stream.read(1024))
        if head and head[4] != b"row" and tail.endswith(b"</" + head[4] + b">"):
            body = start, start + head.end(), tail_at + len(tail) - len(head[4]) - 3
    stream.seek(start)
    return body


def _slices(stream: IO[bytes], begin: int, end: int) -> Iterator[bytes]:
    """The stream's bytes from `begin` to `end`, in slices of about _SLICE_BYTES, each cut just before a "<row"."""
    stream.seek(begin)
    left, data = end - begin, b""
    while left:
        more = stream.read(min(_SLICE_BYTES, left))
        if not more:
            break
        left -= len(more)
        data += more
        cut = data.rfind(b"<row", 1) if left else len(data)
        if cut > 0:
            yield data[:cut]
            data = data[cut:]
    if data:
        yield data


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


class _Pool:
    """The worker processes of one build, started by the first task submitted."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.executor = None

    def in_order(self, tasks: Iterable[tuple]) -> Iterator[tuple]:
        """Run each `(tag, function, args)` of `tasks` in a worker; yield each `(tag, result)` in task order.

        At most _IN_FLIGHT_PER_WORKER tasks per worker are queued or
        running; `tasks` is drawn from as results are taken. Tasks whose
        result is not taken are cancelled when the caller stops early.
        """
        in_flight: deque = deque()
        try:
            for tag, function, args in tasks:
                if len(in_flight) == self.workers * _IN_FLIGHT_PER_WORKER:
                    done, future = in_flight.popleft()
                    yield done, future.result()
                if self.executor is None:
                    # Imported here, not with this module: it and multiprocessing
                    # would add about 15 ms to the start of every CLI command.
                    from concurrent.futures import ProcessPoolExecutor

                    self.executor = ProcessPoolExecutor(max_workers=self.workers)
                in_flight.append((tag, self.executor.submit(function, *args)))
            while in_flight:
                done, future = in_flight.popleft()
                yield done, future.result()
        finally:
            for _, future in in_flight:
                future.cancel()

    def shutdown(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True, cancel_futures=True)


def _dump_rows(stream: IO[bytes], kind: str, pool: _Pool | None) -> Iterator[tuple | None]:
    """One dump's rows as `parse_dump_rows` gives them, in dump order.

    With a pool, a dump that `_dump_body` lets be sliced is parsed slice by
    slice in the workers. Otherwise, and from the first slice that expat
    rejects, `parse_dump_rows` reads the dump from its start and the rows
    already given are passed over. A slice that parses inside a dummy
    element cannot end inside a tag, comment, CDATA section or processing
    instruction, so the rows given before it are the serial reader's first
    rows; the rows and any DumpParseError are the serial reader's.
    """
    body = None if pool is None else _dump_body(stream)
    given = 0
    if body is not None:
        start, begin, end = body
        tasks = ((None, _parse_slice, (data, kind)) for data in _slices(stream, begin, end))
        with closing(pool.in_order(tasks)) as parsed:
            for _, rows in parsed:
                if rows is None:
                    break
                given += len(rows)
                yield from rows
            else:
                return
        stream.seek(start)
    yield from islice(parse_dump_rows(stream, kind), given, None)


def _judged(batches: Iterable[list], keywords: KeywordSet, pool: _Pool | None) -> Iterator[tuple[list, list]]:
    """Yield each batch of `(answer row, comments, tags)` with its `_judge_chunk` verdicts, in batch order.

    Once the pool has started, or a batch is full, the batches go to the
    pool; until then, and always without a pool, they are judged in this
    process.
    """

    def chunk(batch: list) -> list[tuple[str, list[str]]]:
        return [(row[3], [text for text, _ in attached]) for row, attached, _ in batch]

    batches = iter(batches)
    for batch in batches:
        if pool is not None and (pool.executor is not None or len(batch) == _JUDGE_CHUNK):
            yield from pool.in_order((b, _judge_chunk, (chunk(b), keywords)) for b in chain([batch], batches))
            return
        yield batch, _judge_chunk(chunk(batch), keywords)


class KnowledgeBase(list):
    """The entries `build_knowledge_base` keeps, with the build's ``counts``.

    ``counts`` is a `Counter` of ``posts_skipped`` and ``comments_skipped``
    (the rows `parse_dump_rows` gives as None), ``unparseable_bodies``
    (bodies the HTML parser gives up on, which are dropped) and
    ``duplicate_answers``.
    """

    def __init__(self, entries: Iterable[KnowledgeEntry], counts: Counter):
        super().__init__(entries)
        self.counts = counts


def build_knowledge_base(
    posts: IO[bytes],
    comments: IO[bytes],
    keywords: KeywordSet,
    min_upvote: int = DEFAULT_MIN_UPVOTE,
) -> KnowledgeBase:
    """Read a Posts and a Comments dump, join answers with their comments and keep the security-relevant ones.

    An answer is kept when it passes the upvote gate, contains at least one
    code block, and matches a keyword (in its text or a comment). The gates
    run cheapest first, so a body is parsed only once its upvote gate passes.
    On more than one CPU, up to _MAX_WORKERS worker processes, started by
    the first task that needs them, parse the dumps in slices (see
    `_dump_rows`) and judge the upvoted answers in chunks (see `_judged`).
    This process reads the dump bytes, joins the comments, applies the
    upvote gate and applies the results in dump order, so the output does
    not depend on the workers. Comments referencing unknown posts are
    ignored; on duplicate answer ids the later occurrence wins. The entries
    are returned in ascending answer id order, with the build's counts.
    """
    tally = Counter()
    workers = min(_cpu_count(), _MAX_WORKERS)
    pool = _Pool(workers) if workers > 1 else None
    try:
        # Comments are grouped up front so the (much larger) posts dump can
        # be consumed one row at a time.
        comments_by_post: dict[int, list[tuple[str, int]]] = {}
        for row in _dump_rows(comments, "comments", pool):
            if row is None:
                tally["comments_skipped"] += 1
            else:
                comments_by_post.setdefault(row[0], []).append(row[1:])

        def upvoted_batches() -> Iterator[list[tuple[tuple, list[tuple[str, int]], list[str]]]]:
            question_tags: dict[int, list[str]] = {}
            batch = []
            for row in _dump_rows(posts, "posts", pool):
                if row is None:
                    tally["posts_skipped"] += 1
                    continue
                if len(row) == 2:
                    question_tags[row[0]] = row[1]
                    continue
                attached = comments_by_post.get(row[0], [])
                if passes_quality_gate(row[2], [s for _, s in attached], min_upvote):
                    # The tags are read now, as a question later in the dump must not lend them.
                    batch.append((row, attached, question_tags.get(row[1], [])))
                    if len(batch) == _JUDGE_CHUNK:
                        yield batch
                        batch = []
            if batch:
                yield batch

        entries: dict[int, KnowledgeEntry] = {}
        with closing(_judged(upvoted_batches(), keywords, pool)) as judged:
            for batch, verdicts in judged:
                for ((answer_id, question_id, score, _), attached, tags), verdict in zip(batch, verdicts):
                    if verdict is None:
                        tally["unparseable_bodies"] += 1
                        continue
                    if not verdict:
                        continue
                    excerpt, code_blocks = verdict
                    if answer_id in entries:
                        tally["duplicate_answers"] += 1
                    entries[answer_id] = KnowledgeEntry(
                        answer_id=answer_id,
                        question_id=question_id,
                        answer_score=score,
                        answer_excerpt=excerpt,
                        code_blocks=code_blocks,
                        comments=attached,
                        tags=tags,
                        url=answer_url(answer_id),
                    )
    except BrokenExecutor as exc:
        import multiprocessing

        method = multiprocessing.get_start_method()
        cause = "" if method == "fork" else (
            f"; under the {method!r} start method each worker imports the calling script again,"
            ' so a script must call build-kb from under `if __name__ == "__main__":`'
        )
        raise SosecError(f"a build-kb worker process died: {exc}{cause}") from exc
    finally:
        if pool is not None:
            pool.shutdown()

    return KnowledgeBase((entries[answer_id] for answer_id in sorted(entries)), tally)


def write_kb_jsonl(entries: Iterable[KnowledgeEntry], path: str | Path) -> None:
    """Write entries as JSONL with a stable key order, one line at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(entry.to_jsonl())


def _is_comment(value) -> bool:
    return type(value) is dict and is_str(value.get("text")) and is_int(value.get("score"))


# Each field of a KB record, in `KnowledgeEntry`'s order: its test and what it must be.
_RECORD_FIELDS = {
    "answer_id": (is_int, "an integer"),
    "question_id": (is_int, "an integer"),
    "answer_score": (is_int, "an integer"),
    "answer_excerpt": (is_str, "a string"),
    "code_blocks": (list_of(is_str), "a list of strings"),
    "comments": (list_of(_is_comment), 'a list of {"text": string, "score": integer}'),
    "tags": (list_of(is_str), "a list of strings"),
    "url": (is_str, "a string"),
}


def load_kb_jsonl(path: str | Path) -> list[KnowledgeEntry]:
    """Read a KB JSONL file.

    A record that is not JSON, lacks a field, holds a field of the wrong
    type (see `_RECORD_FIELDS`) or a lone surrogate, or repeats an earlier
    record's answer id is refused by line number.
    """
    entries = []
    first_line: dict[int, int] = {}
    for line_no, line in jsonl_lines(path):
        try:
            entry = KnowledgeEntry.from_jsonl(line)
        except ValueError as exc:  # JSONDecodeError and UnicodeEncodeError too
            raise ConfigError(f"{path}: bad knowledge-base record on line {line_no}: {exc}") from exc
        seen = first_line.setdefault(entry.answer_id, line_no)
        if seen != line_no:
            raise ConfigError(f"{path}: answer_id {entry.answer_id} on line {line_no} repeats line {seen}")
        entries.append(entry)
    return entries
