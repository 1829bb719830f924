from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import fields
from html.parser import HTMLParser
from pathlib import Path
from typing import Iterator
from xml.sax.saxutils import quoteattr

import pytest

from conftest import FIXTURE_KB_SHA256, raise_in_body_parser_on
from sosec import kb
from sosec.cli import main
from sosec.config import default_data_path
from sosec.errors import ConfigError, DumpParseError, SosecError
from sosec.kb import (
    KeywordSet,
    build_knowledge_base,
    is_security_relevant,
    load_kb_jsonl,
    parse_answer_body,
    parse_dump_rows,
    passes_quality_gate,
    write_kb_jsonl,
)

KW = KeywordSet.from_iterable(["command injection", "sql injection", "pickle"])


def _rows(xml: str, kind: str):
    return list(parse_dump_rows(io.BytesIO(xml.encode("utf-8")), kind))


def _dump(root: str, rows: list[dict]) -> io.BytesIO:
    """A dump stream whose `root` element holds one `<row/>` per dict of attributes, in order."""
    lines = ["<row " + " ".join(f"{k}={quoteattr(str(v))}" for k, v in row.items()) + " />" for row in rows]
    return io.BytesIO(
        "\n".join(['<?xml version="1.0" encoding="utf-8"?>', f"<{root}>", *lines, f"</{root}>"]).encode("utf-8")
    )


def _question(post_id: int, tags=()) -> dict:
    return {"Id": post_id, "PostTypeId": 1, "Score": 5, "Body": "<p>q</p>", "Tags": "".join(f"<{t}>" for t in tags)}


def _answer(post_id: int, parent_id: int, score: int, body: str) -> dict:
    return {"Id": post_id, "PostTypeId": 2, "ParentId": parent_id, "Score": score, "Body": body}


def _kb(posts: list[dict], comments: list[dict], keywords):
    return build_knowledge_base(_dump("posts", posts), _dump("comments", comments), keywords)


def test_parse_single_post_row_decodes_entities():
    xml = '<posts><row Id="7" PostTypeId="2" ParentId="3" Score="4" Body="&lt;p&gt;hi&lt;/p&gt;"/></posts>'
    (post,) = _rows(xml, "posts")
    assert post == (7, 3, 4, "<p>hi</p>")


def test_parse_single_comment_row():
    xml = '<comments><row Id="9" PostId="7" Score="2" Text="careful"/></comments>'
    (comment,) = _rows(xml, "comments")
    assert comment == (7, "careful", 2)


def test_answer_without_parent_id_is_skipped_and_tallied():
    xml = '<posts><row Id="7" PostTypeId="2" Score="4" Body="x"/></posts>'
    assert _rows(xml, "posts") == [None]


def test_comment_without_post_id_is_skipped():
    xml = '<comments><row Id="9" Score="2" Text="careful"/></comments>'
    assert _rows(xml, "comments") == [None]


def test_question_tags_both_encodings():
    angle = '<posts><row Id="1" PostTypeId="1" Tags="&lt;python&gt;&lt;flask&gt;"/></posts>'
    pipe = '<posts><row Id="2" PostTypeId="1" Tags="|python|flask|"/></posts>'
    assert _rows(angle, "posts") == [(1, ["python", "flask"])]
    assert _rows(pipe, "posts") == [(2, ["python", "flask"])]


def test_negative_comment_score_clamps_to_zero():
    xml = '<comments><row Id="9" PostId="7" Score="-3" Text="why?"/></comments>'
    assert _rows(xml, "comments")[0][2] == 0


def test_malformed_xml_raises_with_byte_offset():
    xml = '<posts>\n  <row Id="1"/>\n  <row Id="2" oops</posts>'
    with pytest.raises(DumpParseError, match=r"malformed posts XML at byte [1-9]\d*: "):
        _rows(xml, "posts")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        _rows("<x/>", "users")


def test_fixture_dump_counts_and_skip_tallies(fixtures_dir):
    with open(fixtures_dir / "posts_20.xml", "rb") as fh:
        posts = list(parse_dump_rows(fh, "posts"))
    assert len(posts) == 20
    assert posts.count(None) == 1
    assert sum(1 for p in posts if p is not None and len(p) == 2) == 6  # questions

    with open(fixtures_dir / "comments_20.xml", "rb") as fh:
        comments = list(parse_dump_rows(fh, "comments"))
    assert len(comments) == 8
    assert comments.count(None) == 1


# Each rule a dump reader applies to one element: the kind of dump, the
# element and the rows it gives, None for a row it skips.
_ROW_RULES = [
    pytest.param("posts", '<row Id="1" PostTypeId="1" Score="x" Tags="&lt;a&gt;" />', [None],
                 id="question-score-not-a-number"),
    pytest.param("posts", '<row Id="1" PostTypeId="1" Tags="&lt;a&gt;" />', [(1, ["a"])],
                 id="question-without-score"),
    pytest.param("posts", '<row Id="2" PostTypeId="2" ParentId="x" Score="1" Body="b" />', [None],
                 id="answer-parent-id-not-a-number"),
    pytest.param("posts", '<row Id="2" PostTypeId="2" Score="1" Body="b" />', [None], id="answer-without-parent-id"),
    pytest.param("posts", '<row Id="2" PostTypeId="2" ParentId="1" Score="x" Body="b" />', [None],
                 id="answer-score-not-a-number"),
    pytest.param("posts", '<row Id="2" PostTypeId="2" ParentId="1" />', [(2, 1, 0, "")],
                 id="answer-without-score-or-body"),
    pytest.param("posts", '<row Id="3" PostTypeId="3" ParentId="1" Score="1" Body="b" />', [None],
                 id="other-post-type"),
    pytest.param("posts", '<row Id="x" PostTypeId="1" Score="1" />', [None], id="post-id-not-a-number"),
    pytest.param("posts", '<row PostTypeId="1" Score="1" />', [None], id="post-without-id"),
    pytest.param("posts", '<post Id="1" PostTypeId="1" Score="1" />', [], id="post-not-a-row"),
    pytest.param("comments", '<row Id="x" PostId="1" Score="1" Text="t" />', [None], id="comment-id-not-a-number"),
    pytest.param("comments", '<row PostId="1" Score="1" Text="t" />', [None], id="comment-without-id"),
    pytest.param("comments", '<row Id="5" PostId="x" Score="1" Text="t" />', [None],
                 id="post-id-of-comment-not-a-number"),
    pytest.param("comments", '<row Id="5" Score="1" Text="t" />', [None], id="comment-without-post-id"),
    pytest.param("comments", '<row Id="5" PostId="1" Score="x" Text="t" />', [None], id="comment-score-not-a-number"),
    pytest.param("comments", '<row Id="5" PostId="1" />', [(1, "", 0)], id="comment-without-score-or-text"),
    pytest.param("comments", '<row Id="5" PostId="1" Score="-3" Text="t" />', [(1, "t", 0)],
                 id="negative-comment-score"),
]


@pytest.mark.parametrize("kind, element, rows", _ROW_RULES)
def test_each_row_rule_holds_in_the_serial_and_the_slice_reader(kind, element, rows):
    assert _rows(f"<{kind}>{element}</{kind}>", kind) == rows
    assert kb._parse_slice(element.encode("utf-8"), kind) == rows


def test_is_security_relevant_answer_side():
    assert is_security_relevant("this opens you to command injection", [], KW)


def test_is_security_relevant_no_keyword():
    assert not is_security_relevant("sorts a list", ["nice"], KW)


def test_is_security_relevant_comment_side():
    assert is_security_relevant("sorts a list", ["this is vulnerable to sql injection"], KW)


def test_is_security_relevant_case_insensitive():
    assert is_security_relevant("SQL Injection ahead", [], KW)


def test_empty_keyword_set_is_config_error():
    with pytest.raises(ConfigError):
        is_security_relevant("anything", [], KeywordSet(frozenset()))


def test_keyword_set_refuses_no_phrases():
    with pytest.raises(ConfigError, match="keyword set is empty"):
        KeywordSet(frozenset())
    with pytest.raises(ConfigError, match="keyword set is empty"):
        KeywordSet.from_iterable(["", "  "])


def test_keyword_file_without_phrases_names_the_file(tmp_path):
    path = tmp_path / "keywords.txt"
    path.write_text("# only a comment\n\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="keyword file .*keywords.txt"):
        KeywordSet.from_file(path)


@pytest.mark.parametrize(
    "answer_score,comment_scores,expected",
    [(1, [], True), (0, [0, 1], True), (0, [0, 0], False), (-2, [], False)],
)
def test_passes_quality_gate(answer_score, comment_scores, expected):
    assert passes_quality_gate(answer_score, comment_scores) is expected


def test_quality_gate_min_upvote_override():
    assert passes_quality_gate(1, [], min_upvote=2) is False
    assert passes_quality_gate(0, [2], min_upvote=2) is True


def test_extract_single_pre_code_block():
    assert parse_answer_body("<p>use</p><pre><code>x = 1\n</code></pre>")[1] == ["x = 1"]


def test_extract_blocks_in_document_order():
    html = "<pre><code>first()\n</code></pre><p>then</p><pre><code>second()\n</code></pre>"
    assert parse_answer_body(html)[1] == ["first()", "second()"]


def test_long_inline_code_span_retained():
    html = "<p>call <code>subprocess.call(cmd, shell=True)</code></p>"
    assert parse_answer_body(html)[1] == ["subprocess.call(cmd, shell=True)"]


def test_short_inline_code_span_excluded():
    assert parse_answer_body("<p>set <code>x</code> to 1</p>")[1] == []


def test_unparseable_html_degrades_to_no_blocks():
    assert parse_answer_body("<pre><code>never closed")[1] == []


def test_strip_html_collapses_whitespace():
    assert parse_answer_body("<p>a  b</p>\n<p>c</p>")[0] == "a b c"


def test_parse_answer_body_returns_text_and_code_in_one_call():
    body = "<p>use <code>subprocess.run(args)</code> or <code>x</code></p><pre><code>x = 1\n</code></pre>"
    assert parse_answer_body(body) == ("use subprocess.run(args) or x x = 1", ["subprocess.run(args)", "x = 1"])


def test_unparseable_bodies_are_dropped_and_tallied(monkeypatch):
    raise_in_body_parser_on(monkeypatch, "BROKEN")
    keywords = KeywordSet.from_iterable(["command injection"])
    code = "<pre><code>a = call()\n</code></pre>"
    posts = [
        _question(1),
        _answer(10, 1, 2, "<p>command injection</p>" + code),
        _answer(11, 1, 2, "<p>command injection BROKEN</p>" + code),
        # the upvote gate fails first, so this body is never parsed
        _answer(12, 1, 0, "<p>command injection BROKEN</p>" + code),
    ]
    entries = _kb(posts, [], keywords)
    assert parse_answer_body(posts[2]["Body"]) is None
    assert [e.answer_id for e in entries] == [10]
    assert entries.counts["unparseable_bodies"] == 1


def _kb_from_fixture(fixtures_dir, keywords=None, min_upvote=1):
    keywords = keywords or KeywordSet.from_file(default_data_path("keywords.txt"))
    with open(fixtures_dir / "posts_20.xml", "rb") as posts_fh, open(
        fixtures_dir / "comments_20.xml", "rb"
    ) as comments_fh:
        return build_knowledge_base(posts_fh, comments_fh, keywords, min_upvote=min_upvote)


def test_build_knowledge_base_keeps_expected_answers(fixtures_dir):
    entries = _kb_from_fixture(fixtures_dir)
    assert [e.answer_id for e in entries] == [101, 102, 105, 107, 109, 112, 114]


def test_entry_fields_populated(fixtures_dir):
    entries = _kb_from_fixture(fixtures_dir)
    by_id = {e.answer_id: e for e in entries}
    e = by_id[101]
    assert e.question_id == 1
    assert e.answer_score == 4
    assert e.tags == ["python", "subprocess"]
    assert e.url == "https://stackoverflow.com/a/101"
    assert e.comments == [("thanks", 0)]
    assert "command injection" in e.answer_excerpt
    assert e.code_blocks == ["shell=True", "import subprocess\nsubprocess.call(cmd, shell=True)"]
    # comment-side keyword match and comment-side upvote kept 102
    assert by_id[102].answer_score == 0
    # negative comment score stored clamped
    assert by_id[105].comments == [("why?", 0)]


def test_higher_min_upvote_shrinks_output(fixtures_dir):
    default = {e.answer_id for e in _kb_from_fixture(fixtures_dir)}
    strict = {e.answer_id for e in _kb_from_fixture(fixtures_dir, min_upvote=2)}
    assert strict <= default
    assert 112 not in strict  # kept only through a score-1 comment


def test_gates_drop_unendorsed_keywordless_and_codeless():
    keywords = KeywordSet.from_iterable(["command injection"])
    posts = [
        _question(1, ["python"]),
        # all gates pass
        _answer(10, 1, 2, "<p>command injection</p><pre><code>a = call()\n</code></pre>"),
        # quality gate fails
        _answer(11, 1, 0, "<p>command injection</p><pre><code>b = call()\n</code></pre>"),
        # no code block
        _answer(12, 1, 3, "<p>command injection</p>"),
        # no keyword
        _answer(13, 1, 3, "<p>fine</p><pre><code>c = call()\n</code></pre>"),
    ]
    comments = [{"Id": 100, "PostId": 11, "Score": 0, "Text": "agreed"}]
    entries = _kb(posts, comments, keywords)
    assert [e.answer_id for e in entries] == [10]


def test_duplicate_answer_id_later_wins():
    keywords = KeywordSet.from_iterable(["command injection"])
    body = "<p>command injection</p><pre><code>call_one()\n</code></pre>"
    body2 = "<p>command injection</p><pre><code>call_two()\n</code></pre>"
    posts = [_question(1), _answer(10, 1, 2, body), _answer(10, 1, 4, body2)]
    entries = _kb(posts, [], keywords)
    assert len(entries) == 1
    assert entries[0].answer_score == 4
    assert entries[0].code_blocks == ["call_two()"]
    assert entries.counts["duplicate_answers"] == 1


def test_keyword_superset_never_shrinks_output(fixtures_dir):
    base_keywords = KeywordSet.from_file(default_data_path("keywords.txt"))
    base_ids = {e.answer_id for e in _kb_from_fixture(fixtures_dir, base_keywords)}
    superset = KeywordSet.from_iterable(set(base_keywords.keywords) | {"comprehension", "sorted"})
    super_ids = {e.answer_id for e in _kb_from_fixture(fixtures_dir, superset)}
    assert super_ids >= base_ids
    assert 111 in super_ids  # "comprehension" now matches


def _written_jsonl(entries, path):
    write_kb_jsonl(entries, path)
    return path.read_text(encoding="utf-8")


def test_jsonl_is_deterministic_and_round_trips(fixtures_dir, tmp_path):
    first = _written_jsonl(_kb_from_fixture(fixtures_dir), tmp_path / "first.jsonl")
    second = _written_jsonl(_kb_from_fixture(fixtures_dir), tmp_path / "second.jsonl")
    assert first == second

    entries = _kb_from_fixture(fixtures_dir)
    path = tmp_path / "kb.jsonl"
    write_kb_jsonl(entries, path)
    assert load_kb_jsonl(path) == entries


def test_emitted_entries_recheck_against_gates(fixtures_dir, tmp_path):
    entries = _kb_from_fixture(fixtures_dir)
    path = tmp_path / "kb.jsonl"
    write_kb_jsonl(entries, path)
    keywords = KeywordSet.from_file(default_data_path("keywords.txt"))
    for entry in load_kb_jsonl(path):
        assert is_security_relevant(entry.answer_excerpt, [t for t, _ in entry.comments], keywords)
        assert passes_quality_gate(entry.answer_score, [s for _, s in entry.comments])
        assert entry.code_blocks


def test_keyword_file_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "kw.txt"
    path.write_text("# header\n\nsql injection\n  PICKLE  \n", encoding="utf-8")
    ks = KeywordSet.from_file(path)
    assert ks.keywords == frozenset({"sql injection", "pickle"})


def test_empty_keyword_file_rejected(tmp_path):
    path = tmp_path / "kw.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        KeywordSet.from_file(path)


def test_keyword_phrase_with_nul_is_refused(tmp_path):
    with pytest.raises(ConfigError, match=r"'sql\\x00injection'"):
        KeywordSet.from_iterable(["pickle", "sql\x00injection"])
    path = tmp_path / "kw.txt"
    path.write_text("pickle\nshell\x00true\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"'shell\\x00true'") as exc_info:
        KeywordSet.from_file(path)
    assert str(path) in str(exc_info.value)


def test_joined_keyword_gate_equals_the_per_text_rule():
    # Case mappings that depend on context (final sigma) or change length
    # (dotted capital I, capital sharp s), next to the NUL the gate joins with.
    alphabet = ["Σ", "σ", "ς", "İ", "i", "̇", "ẞ", "ß", "ss", "A", "a", "b", " ", "'", "\x00", "\u0301"]
    rng = random.Random(12)

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))

    matched = 0
    for _ in range(3000):
        answer, comments = text(), [text() for _ in range(rng.randint(0, 3))]
        phrases = {p for p in (text().replace("\x00", "") for _ in range(rng.randint(1, 3))) if p}
        if not phrases:
            continue
        per_text = any(p in t.lower() for t in [answer, *comments] for p in phrases)
        assert is_security_relevant(answer, comments, KeywordSet(frozenset(phrases))) is per_text, (
            answer, comments, phrases)
        matched += per_text
    assert 300 < matched < 2700  # both outcomes are exercised


def test_keyword_gate_scanning_only_the_innermost_phrases_gives_the_full_scan_verdict():
    rng = random.Random(18)
    letters = "abc "

    def text(most):
        return "".join(rng.choice(letters) for _ in range(rng.randint(1, most)))

    # "ab" holds "a" and "b"; the scan keeps "a" and "b" only
    keywords = KeywordSet.from_iterable(["a", "ab", "b"])
    assert keywords._scan == ("a", "b")
    assert not is_security_relevant("cc", [], keywords)
    assert is_security_relevant("cab", [], keywords)
    outcomes = Counter()
    for _ in range(3000):
        keywords = KeywordSet(frozenset(text(4) for _ in range(rng.randint(1, 6))))
        answer, comments = text(12), [text(8) for _ in range(rng.randint(0, 2))]
        full_scan = any(p in t for t in [answer, *comments] for p in keywords.keywords)
        assert is_security_relevant(answer, comments, keywords) is full_scan, (answer, comments, keywords)
        outcomes[full_scan, len(keywords._scan) < len(keywords.keywords)] += 1
    # both verdicts, with and without a phrase that holds another
    assert min(outcomes.values()) > 100, outcomes


class _EventLog(kb._BodyParser):
    """The body parser, also logging its events, with adjacent text merged."""

    def __init__(self):
        super().__init__()
        self.events = []

    def handle_starttag(self, tag, attrs):
        self.events.append(("start", tag))
        super().handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        self.events.append(("end", tag))
        super().handle_endtag(tag)

    def handle_data(self, data):
        merged = self.events.pop()[1] + data if self.events and self.events[-1][0] == "data" else data
        self.events.append(("data", merged))
        super().handle_data(data)


def _parse_with(feed, body):
    parser = _EventLog()
    try:
        feed(parser, body)
        parser.close()
    except Exception as exc:  # the oracle may raise; the fast path must then too
        return type(exc)
    return parser.events, " ".join("".join(parser.parts).split()), parser.blocks


_TAG_NAMES = ["p", "pre", "Pre", "code", "CODE", "div", "Br", "li", "h1", "a", "span",
              "scripts", "script", "style", "title"]
_SPACES = [" ", "\n", "\t", "\r", "\f", "  "]
_VALUES = ['"a"', "'a b'", '"a>b"', '""', "a", "a/", "aaaaaaaaaaaa/", "a=b", "=a", "&amp;",
           '"a<b"', 'a"b', "a\xa0b"]
_ATTR_NAMES = ["x", "class", "data-x", "X", ":y", "'q", "1a"]
_TEXTS = ["run ", "x = 1\n", "subprocess.call(cmd, shell=True)", "&amp;", "&lt;", "&amp", "&gt", "&#60;",
          "&", ">", "/", "=", '"', "Σ", "\xa0", "\n\n"]
_OTHER = ["<!-- note -->", "<!DOCTYPE html>", "<![CDATA[x]]>", "<?pi>", "<", "< b", "</>", "</ p>",
          "<code", "<a x='", "<script>if (a<b) {}</script>"]


def _random_tag(rng):
    name = rng.choice(_TAG_NAMES)
    if rng.random() < 0.4:
        return "</" + name + rng.choice(["", "", " ", "\n", "\v", " x"]) + ">"
    attrs = ""
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        # "\v" and "\xa0" are whitespace to str.split but not to HTML
        sep = rng.choice(_SPACES) if rng.random() < 0.9 else rng.choice(["/", "", "\v", "\xa0"])
        value = "" if rng.random() < 0.3 else rng.choice(["=", "=", " = "]) + rng.choice(_VALUES)
        attrs += sep + rng.choice(_ATTR_NAMES) + value
    return "<" + name + attrs + rng.choice(["", "", " ", "\n", "/", " /", "\v", " / "]) + ">"


def _random_body(rng):
    parts = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.45:
            parts.append(rng.choice(_TEXTS))
        else:
            parts.append(_random_tag(rng) if roll < 0.97 else rng.choice(_OTHER))
    return "".join(parts)


_PLAIN_CASES = [
    # html.parser reads the value as "aaaaaaaaaaaa/", so the code span stays open
    "<code x=aaaaaaaaaaaa/>zzzzzzzzzzzzzz</code>",
    "<p>a &amp b &lt; c &amp;amp;</p><pre><code>if x &lt; 1 &amp;&amp; y:\n</code></pre>",
    "<PRE class=\"lang-py\"><Code data-x='1'>x = 1\n</CODE ></pre\n>",
    "<p>see<br/>then<br />call <code x=\"a>b\">subprocess.run(args)</code></p>",
]
_FALLBACK_CASES = [
    "<!-- language: lang-py -->\n<pre><code>x = 1\n</code></pre>",
    "<p>use</p><script>if (a<b) {}</script><pre><code>x = 1\n</code></pre>",
    "<p>if a < b:</p><pre><code>x = 1\n</code></pre>",
]


def test_plain_bodies_parse_as_html_parser_does():
    assert all(kb._plain_pieces(body) is not None for body in _PLAIN_CASES)
    assert all(kb._plain_pieces(body) is None for body in _FALLBACK_CASES)
    rng = random.Random(7)
    bodies = _PLAIN_CASES + _FALLBACK_CASES + [_random_body(rng) for _ in range(4000)]
    plain = 0
    for body in bodies:
        plain += kb._plain_pieces(body) is not None
        assert _parse_with(kb._BodyParser.feed, body) == _parse_with(HTMLParser.feed, body), body
    assert 1000 < plain < len(bodies) - 1000  # both paths are exercised


def test_long_unclosed_attribute_body_is_declined_in_linear_time():
    # A pattern that could scan past the next "<" would retry to the end of
    # the body from every "<", so eight times the body would cost about 64
    # times as long. The best of three runs keeps a stalled runner from
    # deciding the ratio.
    def best_time(body):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert kb._plain_pieces(body) is None
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = '<code x="' * 2125, '<code x="' * 17000  # 19 kB and 153 kB, no tag ever closes
    assert best_time(large) < 24 * best_time(small)


def test_fixture_bodies_take_the_plain_path(fixtures_dir):
    bodies = [row.get("Body", "") for row in ET.parse(fixtures_dir / "posts_20.xml").getroot().iter("row")]
    assert len(bodies) == 20 and all(kb._plain_pieces(body) is not None for body in bodies)


# --- the worker-process path of build_knowledge_base ---


def _judge_in_pool(monkeypatch) -> list:
    """Judge in chunks of two answers with two worker processes; return the pools started, as they start."""
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        """Also records the most tasks submitted at once whose result was not yet taken."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.in_flight = self.most_in_flight = 0
            self.tasks = []
            started.append(self)

        def submit(self, *args, **kwargs):
            self.tasks.append(args[0].__name__)
            future = super().submit(*args, **kwargs)
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
            result = future.result

            def taken(*a, **kw):
                self.in_flight -= 1
                return result(*a, **kw)

            future.result = taken
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(kb, "_JUDGE_CHUNK", 2)
    monkeypatch.setattr(kb, "_cpu_count", lambda: 2)
    return started


def _build_kb_cli(fixtures_dir, out, capsys) -> tuple[bytes, dict]:
    argv = ["build-kb", "--posts", str(fixtures_dir / "posts_20.xml"),
            "--comments", str(fixtures_dir / "comments_20.xml"), "--out", str(out), "--format", "json"]
    assert main(argv) == 0
    return out.read_bytes(), json.loads(capsys.readouterr().out)


def test_pool_path_writes_the_in_process_bytes(fixtures_dir, tmp_path, capsys, monkeypatch):
    serial_bytes, serial_summary = _build_kb_cli(fixtures_dir, tmp_path / "serial.jsonl", capsys)
    started = _judge_in_pool(monkeypatch)
    pooled_bytes, pooled_summary = _build_kb_cli(fixtures_dir, tmp_path / "pooled.jsonl", capsys)
    assert len(started) == 1
    assert pooled_bytes == serial_bytes
    assert hashlib.sha256(pooled_bytes).hexdigest() == FIXTURE_KB_SHA256
    assert pooled_summary | {"out": ""} == serial_summary | {"out": ""}
    assert multiprocessing.active_children() == []


def test_pool_path_keeps_the_later_duplicate_across_chunks(monkeypatch):
    started = _judge_in_pool(monkeypatch)
    code = "<pre><code>call_{}()\n</code></pre>"
    posts = [
        _question(1, ["first"]),
        _answer(10, 1, 2, "<p>command injection</p>" + code.format("one")),
        _answer(11, 1, 2, "<p>command injection</p>" + code.format("two")),
        # a question that repeats id 1 changes the tags only of answers after it
        _question(1, ["second"]),
        _answer(12, 1, 2, "<p>command injection</p>" + code.format("three")),
        # more chunks than two workers may have in flight lie between the two rows of 10
        *[_answer(i, 1, 2, "<p>no keyword</p>" + code.format(i)) for i in range(20, 32)],
        _answer(10, 1, 4, "<p>command injection</p>" + code.format("four")),
        # two rows of 13 among the last chunks, whose results are collected after the dump ends
        _answer(13, 1, 2, "<p>command injection</p>" + code.format("five")),
        _answer(14, 1, 2, "<p>no keyword</p>" + code.format("six")),
        _answer(13, 1, 3, "<p>command injection</p>" + code.format("seven")),
    ]
    entries = _kb(posts, [], KW)
    assert len(started) == 1
    assert started[0].most_in_flight == 2 * kb._IN_FLIGHT_PER_WORKER  # two workers
    assert [(e.answer_id, e.answer_score, e.code_blocks, e.tags) for e in entries] == [
        (10, 4, ["call_four()"], ["second"]),
        (11, 2, ["call_two()"], ["first"]),
        (12, 2, ["call_three()"], ["second"]),
        (13, 3, ["call_seven()"], ["second"]),
    ]
    assert entries.counts["duplicate_answers"] == 2


def _answers_dump(count: int, tail: str = "") -> bytes:
    """A posts dump of one question and `count` upvoted answers that pass every gate, then `tail`."""
    rows = ['<row Id="1" PostTypeId="1" Score="1" Body="q" Tags="&lt;python&gt;"/>']
    body = "&lt;p&gt;sql injection&lt;/p&gt;&lt;pre&gt;&lt;code&gt;x = 1&lt;/code&gt;&lt;/pre&gt;"
    rows += [f'<row Id="{i}" PostTypeId="2" ParentId="1" Score="3" Body="{body}"/>' for i in range(2, count + 2)]
    return ("<posts>" + "".join(rows) + tail + "</posts>").encode("utf-8")


def _build_from_bytes(posts_xml: bytes, keywords=KW):
    return build_knowledge_base(io.BytesIO(posts_xml), io.BytesIO(b"<comments/>"), keywords)


def test_malformed_posts_after_the_pool_started_raise_at_the_same_offset(monkeypatch):
    monkeypatch.setattr(kb, "_SLICE_BYTES", 512)  # hand the rows over a few at a time
    posts_xml = _answers_dump(40, tail="<row Id=oops/>")
    monkeypatch.setattr(kb, "_cpu_count", lambda: 1)
    with pytest.raises(DumpParseError) as serial:
        _build_from_bytes(posts_xml)
    started = _judge_in_pool(monkeypatch)
    with pytest.raises(DumpParseError) as pooled:
        _build_from_bytes(posts_xml)
    assert len(started) == 1
    assert str(pooled.value) == str(serial.value)
    assert "at byte " in str(serial.value)
    assert multiprocessing.active_children() == []


class _InterruptedRead(io.BytesIO):
    """A stream whose read after the first `reads` raises KeyboardInterrupt, as Ctrl-C would."""

    def __init__(self, data: bytes, reads: int):
        super().__init__(data)
        self.reads = reads

    def read(self, size=-1):
        self.reads -= 1
        if self.reads < 0:
            raise KeyboardInterrupt
        return super().read(size)


def test_an_interrupt_while_the_pool_runs_leaves_no_child(monkeypatch):
    started = _judge_in_pool(monkeypatch)
    monkeypatch.setattr(kb, "_SLICE_BYTES", 512)  # about three rows a read: the interrupt comes near row 20
    posts = _InterruptedRead(_answers_dump(40), reads=6)
    with pytest.raises(KeyboardInterrupt):
        build_knowledge_base(posts, io.BytesIO(b"<comments/>"), KW)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


class _KillsItsUnpickler(KeywordSet):
    """A keyword set that ends the process that unpickles it, as a crashing worker would end."""

    def __reduce__(self):
        return os._exit, (3,)


def test_a_dead_worker_is_a_sosec_error(monkeypatch):
    keywords = _KillsItsUnpickler(frozenset({"sql injection"}))
    monkeypatch.setattr(kb, "_cpu_count", lambda: 1)
    assert [e.answer_id for e in _build_from_bytes(_answers_dump(1), keywords)] == [2]
    started = _judge_in_pool(monkeypatch)
    with pytest.raises(SosecError, match="worker process died"):
        _build_from_bytes(_answers_dump(3), keywords)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_pool_path_raises_no_warning(fixtures_dir, monkeypatch):
    started = _judge_in_pool(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = _kb_from_fixture(fixtures_dir)
    assert len(started) == 1
    assert [e.answer_id for e in entries] == [101, 102, 105, 107, 109, 112, 114]


def test_a_build_whose_every_stream_is_one_task_starts_no_worker(fixtures_dir, monkeypatch):
    chunk = kb._JUDGE_CHUNK  # the fixture's answers in one chunk, as its dumps are one slice each
    started = _judge_in_pool(monkeypatch)
    monkeypatch.setattr(kb, "_JUDGE_CHUNK", chunk)
    assert [e.answer_id for e in _kb_from_fixture(fixtures_dir)] == [101, 102, 105, 107, 109, 112, 114]
    assert started == []


def test_one_cpu_judges_in_process(fixtures_dir, monkeypatch):
    started = _judge_in_pool(monkeypatch)
    monkeypatch.setattr(kb, "_cpu_count", lambda: 1)
    assert [e.answer_id for e in _kb_from_fixture(fixtures_dir)] == [101, 102, 105, 107, 109, 112, 114]
    assert started == []


# --- build_knowledge_base reading the dumps in slices ---


class _Unseekable(io.BytesIO):
    def seekable(self):
        return False


def _serial_and_sliced(monkeypatch, data: bytes, kind: str = "posts", stream=io.BytesIO) -> tuple:
    """`data` read by `parse_dump_rows`, then by `_dump_rows` with two workers and slices of about 300 bytes.

    Each read is its rows, None for each skipped row, or its
    DumpParseError's message. Also returns the names of the tasks the pool
    ran and how many times `_dump_rows` called `parse_dump_rows`.
    """
    try:
        serial = list(parse_dump_rows(io.BytesIO(data), kind))
    except DumpParseError as exc:
        serial = str(exc)
    started = _judge_in_pool(monkeypatch)
    monkeypatch.setattr(kb, "_SLICE_BYTES", 300)
    serial_reads = []
    monkeypatch.setattr(kb, "parse_dump_rows", lambda *args, **kwargs: serial_reads.append(args) or parse_dump_rows(*args, **kwargs))
    pool = kb._Pool(2)
    try:
        sliced = list(kb._dump_rows(stream(data), kind, pool))
    except DumpParseError as exc:
        sliced = str(exc)
    finally:
        pool.shutdown()
    assert multiprocessing.active_children() == []
    tasks = [task for p in started for task in p.tasks]
    return serial, sliced, tasks, len(serial_reads)


@pytest.mark.parametrize("kind", ["posts", "comments"])
def test_sliced_fixture_dumps_give_the_serial_rows_and_tallies(fixtures_dir, monkeypatch, kind):
    data = (fixtures_dir / f"{kind}_20.xml").read_bytes()
    serial, sliced, tasks, serial_reads = _serial_and_sliced(monkeypatch, data, kind)
    assert sliced == serial
    assert serial.count(None) == 1  # a skipped row is given once
    assert tasks.count("_parse_slice") >= len(data) // 300 and serial_reads == 0


def _random_dump(rng: random.Random, kind: str, rows: int) -> bytes:
    """A dump of `rows` rows with entities, character references, non-ASCII text, rows split over
    lines, long rows, escaped "<row" in text and rows that are skipped."""
    pieces = ["a", "b ", "&amp;", "&lt;row Id=&quot;1&quot;/&gt;", "&#10;", "&#x41;", "&#233;", "é", "日本",
              "\n", "\t", "&apos;", "&gt;", " "]

    def text():
        return "".join(rng.choice(pieces) for _ in range(rng.choice([0, 3, 20, 200])))

    lines = ['<?xml version="1.0" encoding="utf-8"?>', f"<{kind}>"]
    for n in range(1, rows + 1):
        if kind == "posts":
            attrs = {"Id": n, "PostTypeId": rng.choice(["1", "2", "2", "2", "3"]), "ParentId": rng.randint(1, n),
                     "Score": rng.choice(["0", "1", "-2", "7", "x"]), "Body": text(), "Tags": "&lt;python&gt;&lt;x&gt;"}
        else:
            attrs = {"Id": n, "PostId": rng.randint(1, rows), "Score": rng.choice(["0", "1", "-1", "3"]), "Text": text()}
        for key in list(attrs):
            if rng.random() < 0.05:
                del attrs[key]
        between = rng.choice([" ", "\n    ", "\r\n\t"])
        row = "<row" + "".join(f'{between}{k}="{v}"' for k, v in attrs.items())
        lines.append(row + rng.choice([" />", "/>", "></row>", ">\n  </row>"]))
    lines.append(f"</{kind}>\n")
    return rng.choice(["\n", "\r\n", "  \n"]).join(lines).encode("utf-8")


@pytest.mark.parametrize("kind", ["posts", "comments"])
def test_sliced_random_dumps_give_the_serial_rows_and_tallies(monkeypatch, kind):
    rng = random.Random(18)
    for _ in range(3):
        data = _random_dump(rng, kind, 150)
        serial, sliced, tasks, serial_reads = _serial_and_sliced(monkeypatch, data, kind)
        assert sliced == serial
        assert type(serial) is list and len(serial) - serial.count(None) > 50 and None in serial
        assert tasks.count("_parse_slice") > 20 and serial_reads == 0
        monkeypatch.undo()


def _posts(*middle: str, head: str = '<?xml version="1.0" encoding="utf-8"?>\n<posts>', tail: str = "</posts>\n") -> bytes:
    """A posts dump of 12 answer rows, the second of which is skipped, with `middle` after the fourth,
    between `head` and `tail`."""
    rows = [f'  <row Id="{i}" PostTypeId="2" ParentId="1" Score="{i}" Body="answer number {i}" />' for i in range(2, 14)]
    rows[1] = rows[1].replace(' ParentId="1"', "")
    return "\n".join([head, *rows[:4], *middle, *rows[4:], tail]).encode("utf-8")


_ROWS_IN_MARKUP = "".join(f'<row Id="{i}" PostTypeId="1" Score="1" Body="hidden" />' for i in range(90, 96))


@pytest.mark.parametrize(
    "data, slices_tried",
    [
        pytest.param(_posts(f"<!-- {_ROWS_IN_MARKUP} -->"), True, id="comment-across-a-cut"),
        pytest.param(_posts(f"<![CDATA[ {_ROWS_IN_MARKUP} ]]>"), True, id="cdata-across-a-cut"),
        pytest.param(
            _posts('<row Id="99" PostTypeId="1" Score="1" Body="&x;" />',
                   head='<?xml version="1.0"?>\n<!DOCTYPE posts [<!ENTITY x "from the DTD">]>\n<posts>'),
            False, id="doctype"),
        # bytes C3 A9 read as Latin-1 are "Ã©", as UTF-8 "é"
        pytest.param(
            _posts('<row Id="99" PostTypeId="1" Score="1" Body="café" />',
                   head='<?xml version="1.0" encoding="ISO-8859-1"?>\n<posts>'),
            False, id="latin-1"),
        pytest.param(_posts(tail="</posts>\n<!-- <row Id='99'/> -->\n"), False, id="comment-after-the-root"),
        pytest.param(_posts(tail="</posts>\njunk\n"), False, id="junk-after-the-root"),
        pytest.param(_posts(head="<row>", tail="</row>"), False, id="root-named-row"),
    ],
)
def test_a_dump_that_cannot_be_sliced_safely_gives_the_serial_result(monkeypatch, data, slices_tried):
    serial, sliced, tasks, serial_reads = _serial_and_sliced(monkeypatch, data)
    assert sliced == serial
    assert serial_reads == 1
    assert ("_parse_slice" in tasks) is slices_tried


def test_a_dump_smaller_than_a_slice_is_sliced(monkeypatch):
    data = b'<posts><row Id="2" PostTypeId="2" ParentId="1" Score="1" Body="x" /></posts>'
    serial, sliced, tasks, serial_reads = _serial_and_sliced(monkeypatch, data)
    assert sliced == serial == [(2, 1, 1, "x")]
    assert tasks == [] and serial_reads == 0  # its one slice is parsed in this process


def test_an_unseekable_dump_is_read_serially(monkeypatch):
    data = _posts()
    serial, sliced, tasks, serial_reads = _serial_and_sliced(monkeypatch, data, stream=_Unseekable)
    assert sliced == serial and len(serial) == 12 and serial.index(None) == 1 and serial.count(None) == 1
    assert tasks == [] and serial_reads == 1


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_a_dump_with_a_byte_order_mark_is_sliced(monkeypatch, newline):
    data = b"\xef\xbb\xbf" + _posts().replace(b"\n", newline)
    serial, sliced, tasks, serial_reads = _serial_and_sliced(monkeypatch, data)
    assert sliced == serial and len(serial) == 12 and serial.index(None) == 1 and serial.count(None) == 1
    assert tasks.count("_parse_slice") >= len(data) // 300 and serial_reads == 0


def test_a_malformed_byte_in_the_third_slice_raises_the_serial_error(monkeypatch):
    data = _posts().replace(b"answer number 9", b"answer number \xff")
    monkeypatch.setattr(kb, "_SLICE_BYTES", 300)
    body = kb._dump_body(io.BytesIO(data))
    slices = list(kb._slices(io.BytesIO(data), *body[1:]))
    assert [b"\xff" in piece for piece in slices[:3]] == [False, False, True]
    serial, sliced, tasks, serial_reads = _serial_and_sliced(monkeypatch, data)
    assert sliced == serial
    assert serial.startswith("malformed posts XML at byte ")
    assert tasks.count("_parse_slice") >= 3 and serial_reads == 1


class _EndsEarly(io.BytesIO):
    """A dump whose reads, after the two with which `_dump_body` measures it, end at byte `cut`, as a file
    cut while it is read would."""

    def __init__(self, data: bytes, cut: int):
        super().__init__(data)
        self.cut, self.reads = cut, 0

    def read(self, size=-1):
        self.reads += 1
        if self.reads > 2:
            left = max(0, self.cut - self.tell())
            size = left if size < 0 else min(size, left)
        return super().read(size)


def _rows_then_error(rows: Iterator) -> tuple[list, str]:
    given = []
    with pytest.raises(DumpParseError) as caught:
        for row in rows:
            given.append(row)
    return given, str(caught.value)


@pytest.mark.parametrize("into_the_row, reason", [(0, "no element found"), (10, "unclosed token")],
                         ids=["at-a-row-boundary", "mid-row"])
def test_a_dump_that_ends_early_while_sliced_raises_the_serial_error(monkeypatch, into_the_row, reason):
    rows = "".join(f'<row Id="{i}" PostId="1" Score="0" Text="comment {i}" />\n' for i in range(1, 200))
    data = f"<comments>\n{rows}</comments>\n".encode()
    cut = data.index(b'<row Id="101"') + into_the_row
    monkeypatch.setattr(kb, "_SLICE_BYTES", 1024)
    serial = _rows_then_error(parse_dump_rows(io.BytesIO(data[:cut]), "comments"))
    assert len(serial[0]) == 100 and reason in serial[1]
    assert _rows_then_error(kb._dump_rows(_EndsEarly(data, cut), "comments", kb._Pool(1))) == serial


def test_sliced_build_kb_writes_the_in_process_bytes(fixtures_dir, tmp_path, capsys, monkeypatch):
    serial_bytes, serial_summary = _build_kb_cli(fixtures_dir, tmp_path / "serial.jsonl", capsys)
    started = _judge_in_pool(monkeypatch)
    monkeypatch.setattr(kb, "_SLICE_BYTES", 300)
    sliced_bytes, sliced_summary = _build_kb_cli(fixtures_dir, tmp_path / "sliced.jsonl", capsys)
    assert len(started) == 1
    assert started[0].tasks.count("_parse_slice") > 10
    assert started[0].most_in_flight <= 2 * 2 * kb._IN_FLIGHT_PER_WORKER  # slices and chunks, two workers
    assert sliced_bytes == serial_bytes
    assert hashlib.sha256(sliced_bytes).hexdigest() == FIXTURE_KB_SHA256
    assert (serial_summary["posts_skipped"], serial_summary["comments_skipped"]) == (1, 1)
    assert sliced_summary | {"out": ""} == serial_summary | {"out": ""}
    assert multiprocessing.active_children() == []


def test_sliced_build_kb_of_dumps_with_a_byte_order_mark_writes_the_golden_bytes(fixtures_dir, tmp_path, capsys,
                                                                                 monkeypatch):
    _, summary = _build_kb_cli(fixtures_dir, tmp_path / "plain.jsonl", capsys)
    marked = tmp_path / "marked"
    marked.mkdir()
    for name in ("posts_20.xml", "comments_20.xml"):
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / name).read_bytes())
    started = _judge_in_pool(monkeypatch)
    monkeypatch.setattr(kb, "_SLICE_BYTES", 300)
    marked_bytes, marked_summary = _build_kb_cli(marked, tmp_path / "marked.jsonl", capsys)
    assert len(started) == 1 and started[0].tasks.count("_parse_slice") > 10
    assert hashlib.sha256(marked_bytes).hexdigest() == FIXTURE_KB_SHA256
    assert marked_summary | {"out": ""} == summary | {"out": ""}
    assert multiprocessing.active_children() == []


def test_an_interrupt_while_slices_are_parsed_leaves_no_child(monkeypatch):
    started = _judge_in_pool(monkeypatch)
    monkeypatch.setattr(kb, "_SLICE_BYTES", 300)
    posts = _InterruptedRead(_answers_dump(40), reads=8)
    with pytest.raises(KeyboardInterrupt):
        build_knowledge_base(posts, io.BytesIO(b"<comments/>"), KW)
    assert len(started) == 1 and "_parse_slice" in started[0].tasks
    assert multiprocessing.active_children() == []


def test_one_cpu_starts_no_worker(fixtures_dir, monkeypatch):
    started = _judge_in_pool(monkeypatch)
    monkeypatch.setattr(kb, "_cpu_count", lambda: 1)
    monkeypatch.setattr(kb, "_SLICE_BYTES", 300)
    serial_reads = []
    monkeypatch.setattr(kb, "parse_dump_rows", lambda *args, **kwargs: serial_reads.append(args) or parse_dump_rows(*args, **kwargs))
    assert [e.answer_id for e in _kb_from_fixture(fixtures_dir)] == [101, 102, 105, 107, 109, 112, 114]
    assert started == [] and serial_reads == []


# A script that runs build-kb on the fixture dump with two workers, in chunks of
# two answers and slices of about 300 bytes, under the start method named by
# its first argument.
_POOL_SCRIPT = """\
import concurrent.futures, multiprocessing, sys
from sosec import kb
from sosec.cli import main

class Pool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        print("pool started", file=sys.stderr, flush=True)

def run():
    multiprocessing.set_start_method(sys.argv[1], force=True)
    concurrent.futures.ProcessPoolExecutor = Pool
    kb._JUDGE_CHUNK, kb._SLICE_BYTES, kb._cpu_count = 2, 300, lambda: 2
    sys.exit(main(sys.argv[2:]))

"""


def _live_in_session(sid: int) -> list[int]:
    """The processes of session `sid` that are not zombies."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, _, session = stat.read_text().rpartition(")")[2].split()[:4]
        except OSError:
            continue
        if int(session) == sid and state != "Z":
            pids.append(int(stat.parent.name))
    return pids


def _run_pool_script(tmp_path, fixtures_dir, method: str, tail: str) -> tuple[int, str, bytes]:
    """Run _POOL_SCRIPT plus `tail` in its own session; return its exit code, stderr and KB bytes.

    Fails if any process of that session is still alive a few seconds after the script exits.
    """
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    script, out = tmp_path / "build.py", tmp_path / "kb.jsonl"
    script.write_text(_POOL_SCRIPT + tail, encoding="utf-8")
    argv = [sys.executable, str(script), method, "build-kb", "--posts", str(fixtures_dir / "posts_20.xml"),
            "--comments", str(fixtures_dir / "comments_20.xml"), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(kb.__file__).parents[1])}
    proc = subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
        deadline = time.monotonic() + 10
        while _live_in_session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_in_session(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, err, out.read_bytes() if out.exists() else b""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table from /proc")
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_a_fresh_interpreter_writes_the_in_process_bytes(tmp_path, fixtures_dir, method):
    code, err, kb_bytes = _run_pool_script(tmp_path, fixtures_dir, method, 'if __name__ == "__main__":\n    run()\n')
    assert code == 0, err
    assert "pool started" in err
    assert hashlib.sha256(kb_bytes).hexdigest() == FIXTURE_KB_SHA256


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table from /proc")
def test_an_unguarded_script_under_spawn_is_told_of_the_guard(tmp_path, fixtures_dir):
    code, err, kb_bytes = _run_pool_script(tmp_path, fixtures_dir, "spawn", "run()\n")
    assert code == 2
    assert "sosec: error: a build-kb worker process died: " in err
    assert 'from under `if __name__ == "__main__":`' in err
    assert kb_bytes == b""


# --- load_kb_jsonl ---


def _kb_file(tmp_path, records: list) -> str:
    path = tmp_path / "kb.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


_GOOD_RECORD = json.loads(
    kb.KnowledgeEntry(1, 2, 3, "text", ["x = 1"], [("ok", 1)], ["python"], kb.answer_url(1)).to_jsonl()
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("code_blocks", "subprocess.call(x, shell=True)"),
        ("code_blocks", ["ok", 1]),
        ("tags", "python"),
        ("answer_score", None),
        ("answer_score", 1.0),
        ("answer_id", True),
        ("answer_id", "1"),
        ("question_id", None),
        ("answer_excerpt", ["text"]),
        ("url", 1),
        ("comments", [["ok", 1]]),
        ("comments", [{"text": "ok", "score": "1"}]),
        ("comments", [{"text": None, "score": 1}]),
        ("comments", [{"score": 1}]),
    ],
)
def test_load_kb_refuses_a_field_of_the_wrong_shape(tmp_path, field, value):
    path = _kb_file(tmp_path, [_GOOD_RECORD, {**_GOOD_RECORD, "answer_id": 5, field: value}])
    with pytest.raises(ConfigError, match=f"on line 2: '{field}' must be"):
        load_kb_jsonl(path)


def test_load_kb_refuses_a_missing_field_or_a_record_that_is_no_object(tmp_path):
    record = dict(_GOOD_RECORD)
    del record["url"]
    with pytest.raises(ConfigError, match="on line 1: missing 'url'"):
        load_kb_jsonl(_kb_file(tmp_path, [record]))
    with pytest.raises(ConfigError, match="on line 1: a record must be a JSON object"):
        load_kb_jsonl(_kb_file(tmp_path, [[1, 2]]))


def test_record_checks_are_the_entry_fields_in_order():
    # from_dict builds an entry from these keys, and to_dict writes its fields in their order
    assert list(kb._RECORD_FIELDS) == [f.name for f in fields(kb.KnowledgeEntry)]


def test_load_kb_refuses_a_repeated_answer_id_naming_both_lines(tmp_path):
    records = [_GOOD_RECORD, {**_GOOD_RECORD, "answer_id": 2}, {**_GOOD_RECORD, "code_blocks": ["y = 2"]}]
    with pytest.raises(ConfigError, match="answer_id 1 on line 3 repeats line 1"):
        load_kb_jsonl(_kb_file(tmp_path, records))


def test_index_refuses_a_string_of_code_blocks(tmp_path, capsys):
    path = _kb_file(tmp_path, [{**_GOOD_RECORD, "code_blocks": "subprocess.call(x, shell=True)"}])
    assert main(["index", "--kb", path, "--out", str(tmp_path / "kb.idx")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 1: 'code_blocks' must be a list of strings" in err
