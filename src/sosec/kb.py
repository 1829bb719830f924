"""Knowledge-base construction from Stack Exchange data-dump XML.

Filters answers to those that carry at least one community upvote (on the
answer or a comment), contain code and discuss security, then emits them as
normalized JSONL entries that the retrieval index is built from.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import IO, Iterable, Iterator
from xml.parsers import expat

from .errors import ConfigError, DumpParseError, open_text

POST_TYPE_QUESTION = "question"
POST_TYPE_ANSWER = "answer"

# Stack Exchange encodes tags either as "<python><flask>" or "|python|flask|".
_TAG_ANGLE_RE = re.compile(r"<([^<>]+)>")

# Inline <code> spans shorter than this are markup noise ("x", "None", ...),
# not retrievable snippets.
MIN_INLINE_CODE_CHARS = 10

_CHUNK_SIZE = 64 * 1024


@dataclass
class RawPost:
    id: int
    post_type: str
    parent_id: int | None
    score: int
    body: str
    tags: list[str] = field(default_factory=list)


@dataclass
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
    """Lowercase phrases matched as substrings against answer and comment text."""

    keywords: frozenset[str]

    @classmethod
    def from_iterable(cls, phrases: Iterable[str]) -> "KeywordSet":
        return cls(frozenset(p.strip().lower() for p in phrases if p.strip()))

    @classmethod
    def from_file(cls, path: str | Path) -> "KeywordSet":
        with open_text(path) as fh:
            lines = fh.read().splitlines()
        keywords = cls.from_iterable(line for line in lines if not line.strip().startswith("#"))
        if not keywords.keywords:
            raise ConfigError(f"keyword file {path} contains no phrases")
        return keywords


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
            raise DumpParseError(
                f"malformed {kind} XML at byte {parser.ErrorByteIndex}: {exc}",
                byte_offset=parser.ErrorByteIndex,
            ) from exc
        yield from pending
        pending.clear()
        if not chunk:
            return


def is_security_relevant(
    answer_text: str,
    comment_texts: list[str],
    keywords: KeywordSet,
) -> bool:
    """True iff any keyword phrase occurs in the answer text or a comment."""
    if not keywords.keywords:
        raise ConfigError("keyword set is empty")
    haystacks = [answer_text.lower()] + [t.lower() for t in comment_texts]
    return any(kw in hay for hay in haystacks for kw in keywords.keywords)


def passes_quality_gate(
    answer_score: int,
    comment_scores: list[int],
    min_upvote: int = 1,
) -> bool:
    """True iff the answer or at least one of its comments is upvoted."""
    return answer_score >= min_upvote or any(score >= min_upvote for score in comment_scores)


_BLOCK_TAGS = {"p", "pre", "div", "li", "ul", "ol", "br", "blockquote", "h1", "h2", "h3"}


class _BodyParser(HTMLParser):
    """Collects an answer body's text and its code in one walk over its tokens."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self.blocks: list[str] = []
        self._pre_depth = 0
        self._code_depth = 0
        self._in_pre_code = False
        self._buffer: list[str] = []

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
    MIN_INLINE_CODE_CHARS characters. None means the HTML parser raised.
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


def build_knowledge_base(
    posts: Iterable[RawPost],
    comments: Iterable[RawComment],
    keywords: KeywordSet,
    min_upvote: int = 1,
    tally: Counter | None = None,
) -> list[KnowledgeEntry]:
    """Join answers with their comments and keep the security-relevant ones.

    An answer is kept when it passes the upvote gate, contains at least one
    code block, and matches a keyword (in its text or a comment). The gates
    run cheapest first, so a body is parsed only once its upvote gate passes.
    A body the HTML parser gives up on is dropped and tallied as
    ``unparseable_bodies``. Comments referencing unknown posts are ignored;
    on duplicate answer ids the later occurrence wins. Output is sorted by
    ascending answer id.
    """
    if not keywords.keywords:
        raise ConfigError("keyword set is empty")
    if tally is None:
        tally = Counter()

    # Comments are grouped up front so the (much larger) posts stream can be
    # consumed one row at a time.
    comments_by_post: dict[int, list[tuple[str, int]]] = {}
    for comment in comments:
        comments_by_post.setdefault(comment.post_id, []).append((comment.text, comment.score))

    question_tags: dict[int, list[str]] = {}
    entries: dict[int, KnowledgeEntry] = {}

    for post in posts:
        if post.post_type == POST_TYPE_QUESTION:
            question_tags[post.id] = post.tags
            continue

        attached = comments_by_post.get(post.id, [])
        if not passes_quality_gate(post.score, [s for _, s in attached], min_upvote):
            continue
        parsed = parse_answer_body(post.body)
        if parsed is None:
            tally["unparseable_bodies"] += 1
            continue
        excerpt, code_blocks = parsed
        if not code_blocks:
            continue
        if not is_security_relevant(excerpt, [t for t, _ in attached], keywords):
            continue

        if post.id in entries:
            tally["duplicate_answers"] += 1
        entries[post.id] = KnowledgeEntry(
            answer_id=post.id,
            question_id=post.parent_id or 0,
            answer_score=post.score,
            answer_excerpt=excerpt,
            code_blocks=code_blocks,
            comments=attached,
            tags=question_tags.get(post.parent_id or 0, []),
            url=answer_url(post.id),
        )

    return [entries[answer_id] for answer_id in sorted(entries)]


def write_kb_jsonl(entries: Iterable[KnowledgeEntry], path: str | Path) -> None:
    """Write entries as JSONL with a stable key order, one line at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(entry.to_jsonl())


def load_kb_jsonl(path: str | Path) -> list[KnowledgeEntry]:
    entries = []
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(KnowledgeEntry.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ConfigError(f"{path}: bad knowledge-base record on line {line_no}: {exc}") from exc
    return entries
