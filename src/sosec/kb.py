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
from html import unescape
from html.parser import HTMLParser
from pathlib import Path
from typing import IO, Iterable, Iterator
from xml.parsers import expat

from .errors import ConfigError, DumpParseError, SosecError, open_text

POST_TYPE_QUESTION = "question"
POST_TYPE_ANSWER = "answer"

# Stack Exchange encodes tags either as "<python><flask>" or "|python|flask|".
_TAG_ANGLE_RE = re.compile(r"<([^<>]+)>")

# Inline <code> spans shorter than this are markup noise ("x", "None", ...),
# not retrievable snippets.
MIN_INLINE_CODE_CHARS = 10

DEFAULT_MIN_UPVOTE = 1

_CHUNK_SIZE = 64 * 1024

# Upvoted answers per task sent to a worker process. The pool starts only
# once this many have been seen, so a small dump never starts it.
_JUDGE_CHUNK = 256
_MAX_JUDGES = 4
# Tasks each worker may have queued or running. It bounds the answers held
# for the workers to _JUDGE_CHUNK x _IN_FLIGHT_PER_JUDGE x workers.
_IN_FLIGHT_PER_JUDGE = 2


@dataclass(slots=True)
class RawPost:
    id: int
    post_type: str
    parent_id: int | None
    score: int
    body: str
    tags: list[str] = field(default_factory=list)


@dataclass(slots=True)
class RawComment:
    id: int
    post_id: int
    score: int
    text: str


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
        return {
            "answer_id": self.answer_id,
            "question_id": self.question_id,
            "answer_score": self.answer_score,
            "answer_excerpt": self.answer_excerpt,
            "code_blocks": list(self.code_blocks),
            "comments": [{"text": t, "score": s} for t, s in self.comments],
            "tags": list(self.tags),
            "url": self.url,
        }

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
        return cls(
            answer_id=obj["answer_id"],
            question_id=obj["question_id"],
            answer_score=obj["answer_score"],
            answer_excerpt=obj["answer_excerpt"],
            code_blocks=list(obj["code_blocks"]),
            comments=[(c["text"], c["score"]) for c in obj["comments"]],
            tags=list(obj["tags"]),
            url=obj["url"],
        )

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

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ConfigError("keyword set is empty")
        for phrase in sorted(self.keywords):
            if "\x00" in phrase:
                raise ConfigError(f"keyword phrase {phrase!r} contains a NUL character")

    @classmethod
    def from_iterable(cls, phrases: Iterable[str]) -> "KeywordSet":
        return cls(frozenset(p.strip().lower() for p in phrases if p.strip()))

    @classmethod
    def from_file(cls, path: str | Path) -> "KeywordSet":
        with open_text(path) as fh:
            lines = fh.read().splitlines()
        try:
            return cls.from_iterable(line for line in lines if not line.strip().startswith("#"))
        except ConfigError as exc:
            raise ConfigError(f"keyword file {path}: {exc}") from exc


def _parse_tags(raw: str) -> list[str]:
    return _TAG_ANGLE_RE.findall(raw) or [t for t in raw.split("|") if t]


def _post_from_attrs(attrs: dict[str, str]) -> RawPost | None:
    if "Id" not in attrs:
        return None
    type_id = attrs.get("PostTypeId")
    try:
        if type_id == "1":
            post_type = POST_TYPE_QUESTION
            parent_id = None
        elif type_id == "2":
            post_type = POST_TYPE_ANSWER
            if "ParentId" not in attrs:
                return None
            parent_id = int(attrs["ParentId"])
        else:
            return None
        return RawPost(
            id=int(attrs["Id"]),
            post_type=post_type,
            parent_id=parent_id,
            score=int(attrs.get("Score", "0")),
            body=attrs.get("Body", ""),
            tags=_parse_tags(attrs.get("Tags", "")),
        )
    except ValueError:  # non-numeric Id/ParentId/Score: skip, don't abort the stream
        return None


def _comment_from_attrs(attrs: dict[str, str]) -> RawComment | None:
    if "Id" not in attrs or "PostId" not in attrs:
        return None
    try:
        # Dump exports do not expose comment downvotes; clamp stray negatives.
        score = max(0, int(attrs.get("Score", "0")))
        return RawComment(
            id=int(attrs["Id"]),
            post_id=int(attrs["PostId"]),
            score=score,
            text=attrs.get("Text", ""),
        )
    except ValueError:
        return None


def parse_dump_rows(
    stream: IO[bytes],
    kind: str,
    tally: Counter | None = None,
) -> Iterator[RawPost | RawComment]:
    """Stream `<row .../>` records out of a Posts.xml or Comments.xml dump.

    Memory use is bounded by one parse chunk, not by file size. Rows missing a
    required attribute (Id; ParentId for answers; PostId for comments) are
    skipped and counted in ``tally``. Malformed XML raises DumpParseError with
    the failing byte offset.
    """
    if kind not in ("posts", "comments"):
        raise ValueError(f"unknown dump kind: {kind!r}")
    if tally is None:
        tally = Counter()
    make_record = _post_from_attrs if kind == "posts" else _comment_from_attrs

    parser = expat.ParserCreate()
    pending: list[RawPost | RawComment] = []

    def handle_start(name: str, attrs: dict[str, str]) -> None:
        if name != "row":
            return
        record = make_record(attrs)
        if record is None:
            tally["skipped"] += 1
        else:
            pending.append(record)

    parser.StartElementHandler = handle_start

    while True:
        chunk = stream.read(_CHUNK_SIZE)
        try:
            parser.Parse(chunk, not chunk)
        except expat.ExpatError as exc:
            raise DumpParseError(f"malformed {kind} XML at byte {parser.ErrorByteIndex}: {exc}") from exc
        yield from pending
        pending.clear()
        if not chunk:
            return


def is_security_relevant(
    answer_text: str,
    comment_texts: list[str],
    keywords: KeywordSet,
) -> bool:
    """True iff any keyword phrase occurs in the answer text or a comment.

    The texts are joined with NUL, lowercased once and searched once per
    phrase. No phrase holds NUL, so a match never spans two texts. NUL is
    neither cased nor case-ignorable, so lowercasing the join lowercases
    each text as it would alone, final sigma included.
    """
    haystack = "\x00".join([answer_text, *comment_texts]).lower()
    return any(map(haystack.__contains__, keywords.keywords))


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


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _judged(batches: Iterable[list], keywords: KeywordSet) -> Iterator[tuple[list, list]]:
    """Yield each batch of `(post, comments, tags)` with its `_judge_chunk` verdicts, in batch order.

    A full first batch, when this process may run on more than one CPU,
    starts one worker process per such CPU, up to _MAX_JUDGES; otherwise
    every batch is judged in this process. The pool is shut down on the way
    out, also when the batches raise or the caller stops early.
    """
    workers = min(_cpu_count(), _MAX_JUDGES)
    pool = None
    in_flight: deque = deque()
    try:
        for batch in batches:
            chunk = [(post.body, [text for text, _ in attached]) for post, attached, _ in batch]
            if pool is None:
                if workers < 2 or len(batch) < _JUDGE_CHUNK:
                    yield batch, _judge_chunk(chunk, keywords)
                    continue
                # Imported here, not with this module: it and multiprocessing
                # would add about 15 ms to the start of every CLI command.
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(max_workers=workers)
            if len(in_flight) == workers * _IN_FLIGHT_PER_JUDGE:
                done, future = in_flight.popleft()
                yield done, future.result()
            in_flight.append((batch, pool.submit(_judge_chunk, chunk, keywords)))
        while in_flight:
            done, future = in_flight.popleft()
            yield done, future.result()
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
            pool.shutdown(wait=True, cancel_futures=True)


def build_knowledge_base(
    posts: Iterable[RawPost],
    comments: Iterable[RawComment],
    keywords: KeywordSet,
    min_upvote: int = DEFAULT_MIN_UPVOTE,
    tally: Counter | None = None,
) -> list[KnowledgeEntry]:
    """Join answers with their comments and keep the security-relevant ones.

    An answer is kept when it passes the upvote gate, contains at least one
    code block, and matches a keyword (in its text or a comment). The gates
    run cheapest first, so a body is parsed only once its upvote gate passes.
    This process reads the dumps, joins the comments and applies the upvote
    gate; the answers that pass it are parsed and judged in chunks, by worker
    processes when there are enough of them (see `_judged`), and the results
    are applied in dump order. A body the HTML parser gives up on is dropped
    and tallied as ``unparseable_bodies``. Comments referencing unknown posts
    are ignored; on duplicate answer ids the later occurrence wins. Output is
    sorted by ascending answer id.
    """
    if tally is None:
        tally = Counter()

    # Comments are grouped up front so the (much larger) posts stream can be
    # consumed one row at a time.
    comments_by_post: dict[int, list[tuple[str, int]]] = {}
    for comment in comments:
        comments_by_post.setdefault(comment.post_id, []).append((comment.text, comment.score))

    def upvoted_batches() -> Iterator[list[tuple[RawPost, list[tuple[str, int]], list[str]]]]:
        question_tags: dict[int, list[str]] = {}
        batch = []
        for post in posts:
            if post.post_type == POST_TYPE_QUESTION:
                question_tags[post.id] = post.tags
                continue
            attached = comments_by_post.get(post.id, [])
            if passes_quality_gate(post.score, [s for _, s in attached], min_upvote):
                # The tags are read now, as a question later in the dump must not lend them.
                batch.append((post, attached, question_tags.get(post.parent_id or 0, [])))
                if len(batch) == _JUDGE_CHUNK:
                    yield batch
                    batch = []
        if batch:
            yield batch

    entries: dict[int, KnowledgeEntry] = {}
    with closing(_judged(upvoted_batches(), keywords)) as judged:
        for batch, verdicts in judged:
            for (post, attached, tags), verdict in zip(batch, verdicts):
                if verdict is None:
                    tally["unparseable_bodies"] += 1
                    continue
                if not verdict:
                    continue
                excerpt, code_blocks = verdict
                if post.id in entries:
                    tally["duplicate_answers"] += 1
                entries[post.id] = KnowledgeEntry(
                    answer_id=post.id,
                    question_id=post.parent_id or 0,
                    answer_score=post.score,
                    answer_excerpt=excerpt,
                    code_blocks=code_blocks,
                    comments=attached,
                    tags=tags,
                    url=answer_url(post.id),
                )

    return [entries[answer_id] for answer_id in sorted(entries)]


def write_kb_jsonl(entries: Iterable[KnowledgeEntry], path: str | Path) -> None:
    """Write entries as JSONL with a stable key order, one line at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(entry.to_jsonl())


def _is_int(value) -> bool:
    return type(value) is int  # bool is an int subclass, but no id or score


def _is_str(value) -> bool:
    return type(value) is str


def _is_str_list(value) -> bool:
    return type(value) is list and all(map(_is_str, value))


def _is_comment_list(value) -> bool:
    return type(value) is list and all(
        type(c) is dict and _is_str(c.get("text")) and _is_int(c.get("score")) for c in value
    )


# Each field of a KB record: its test and what it must be.
_RECORD_FIELDS = {
    "answer_id": (_is_int, "an integer"),
    "question_id": (_is_int, "an integer"),
    "answer_score": (_is_int, "an integer"),
    "answer_excerpt": (_is_str, "a string"),
    "code_blocks": (_is_str_list, "a list of strings"),
    "comments": (_is_comment_list, 'a list of {"text": string, "score": integer}'),
    "tags": (_is_str_list, "a list of strings"),
    "url": (_is_str, "a string"),
}


def load_kb_jsonl(path: str | Path) -> list[KnowledgeEntry]:
    """Read a KB JSONL file.

    A record that is not JSON, lacks a field, holds a field of the wrong
    type (see `_RECORD_FIELDS`) or a lone surrogate, or repeats an earlier
    record's answer id is refused by line number.
    """
    entries = []
    first_line: dict[int, int] = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = KnowledgeEntry.from_dict(json.loads(line))
                if "\\u" in line:  # only an escape can decode to a lone surrogate
                    entry.to_jsonl().encode("utf-8")
            except ValueError as exc:  # JSONDecodeError and UnicodeEncodeError too
                raise ConfigError(f"{path}: bad knowledge-base record on line {line_no}: {exc}") from exc
            seen = first_line.setdefault(entry.answer_id, line_no)
            if seen != line_no:
                raise ConfigError(f"{path}: answer_id {entry.answer_id} on line {line_no} repeats line {seen}")
            entries.append(entry)
    return entries
