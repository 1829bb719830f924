from __future__ import annotations

import io
from collections import Counter

import pytest

from conftest import raise_in_body_parser_on
from sosec.config import default_data_path
from sosec.errors import ConfigError, DumpParseError
from sosec.kb import (
    KeywordSet,
    RawComment,
    RawPost,
    build_knowledge_base,
    is_security_relevant,
    load_kb_jsonl,
    parse_answer_body,
    parse_dump_rows,
    passes_quality_gate,
    write_kb_jsonl,
)

KW = KeywordSet.from_iterable(["command injection", "sql injection", "pickle"])


def _rows(xml: str, kind: str, tally=None):
    return list(parse_dump_rows(io.BytesIO(xml.encode("utf-8")), kind, tally=tally))


def test_parse_single_post_row_decodes_entities():
    xml = '<posts><row Id="7" PostTypeId="2" ParentId="3" Score="4" Body="&lt;p&gt;hi&lt;/p&gt;"/></posts>'
    (post,) = _rows(xml, "posts")
    assert post == RawPost(id=7, post_type="answer", parent_id=3, score=4, body="<p>hi</p>", tags=[])


def test_parse_single_comment_row():
    xml = '<comments><row Id="9" PostId="7" Score="2" Text="careful"/></comments>'
    (comment,) = _rows(xml, "comments")
    assert comment == RawComment(id=9, post_id=7, score=2, text="careful")


def test_answer_without_parent_id_is_skipped_and_tallied():
    tally = Counter()
    xml = '<posts><row Id="7" PostTypeId="2" Score="4" Body="x"/></posts>'
    assert _rows(xml, "posts", tally=tally) == []
    assert tally["skipped"] == 1


def test_comment_without_post_id_is_skipped():
    tally = Counter()
    xml = '<comments><row Id="9" Score="2" Text="careful"/></comments>'
    assert _rows(xml, "comments", tally=tally) == []
    assert tally["skipped"] == 1


def test_question_tags_both_encodings():
    angle = '<posts><row Id="1" PostTypeId="1" Tags="&lt;python&gt;&lt;flask&gt;"/></posts>'
    pipe = '<posts><row Id="2" PostTypeId="1" Tags="|python|flask|"/></posts>'
    assert _rows(angle, "posts")[0].tags == ["python", "flask"]
    assert _rows(pipe, "posts")[0].tags == ["python", "flask"]


def test_negative_comment_score_clamps_to_zero():
    xml = '<comments><row Id="9" PostId="7" Score="-3" Text="why?"/></comments>'
    assert _rows(xml, "comments")[0].score == 0


def test_malformed_xml_raises_with_byte_offset():
    xml = '<posts>\n  <row Id="1"/>\n  <row Id="2" oops</posts>'
    with pytest.raises(DumpParseError) as exc_info:
        _rows(xml, "posts")
    assert exc_info.value.byte_offset > 0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        _rows("<x/>", "users")


def test_fixture_dump_counts_and_skip_tallies(fixtures_dir):
    posts_tally = Counter()
    with open(fixtures_dir / "posts_20.xml", "rb") as fh:
        posts = list(parse_dump_rows(fh, "posts", tally=posts_tally))
    assert len(posts) == 19
    assert posts_tally["skipped"] == 1
    assert sum(1 for p in posts if p.post_type == "question") == 6

    comments_tally = Counter()
    with open(fixtures_dir / "comments_20.xml", "rb") as fh:
        comments = list(parse_dump_rows(fh, "comments", tally=comments_tally))
    assert len(comments) == 7
    assert comments_tally["skipped"] == 1


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
        RawPost(1, "question", None, 5, "<p>q</p>", []),
        RawPost(10, "answer", 1, 2, "<p>command injection</p>" + code),
        RawPost(11, "answer", 1, 2, "<p>command injection BROKEN</p>" + code),
        # the upvote gate fails first, so this body is never parsed
        RawPost(12, "answer", 1, 0, "<p>command injection BROKEN</p>" + code),
    ]
    tally = Counter()
    entries = build_knowledge_base(posts, [], keywords, tally=tally)
    assert parse_answer_body(posts[2].body) is None
    assert [e.answer_id for e in entries] == [10]
    assert tally["unparseable_bodies"] == 1


def _kb_from_fixture(fixtures_dir, keywords=None, min_upvote=1, tally=None):
    keywords = keywords or KeywordSet.from_file(default_data_path("keywords.txt"))
    with open(fixtures_dir / "posts_20.xml", "rb") as posts_fh, open(
        fixtures_dir / "comments_20.xml", "rb"
    ) as comments_fh:
        return build_knowledge_base(
            parse_dump_rows(posts_fh, "posts"),
            parse_dump_rows(comments_fh, "comments"),
            keywords,
            min_upvote=min_upvote,
            tally=tally,
        )


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
        RawPost(1, "question", None, 5, "<p>q</p>", ["python"]),
        # all gates pass
        RawPost(10, "answer", 1, 2, "<p>command injection</p><pre><code>a = call()\n</code></pre>"),
        # quality gate fails
        RawPost(11, "answer", 1, 0, "<p>command injection</p><pre><code>b = call()\n</code></pre>"),
        # no code block
        RawPost(12, "answer", 1, 3, "<p>command injection</p>"),
        # no keyword
        RawPost(13, "answer", 1, 3, "<p>fine</p><pre><code>c = call()\n</code></pre>"),
    ]
    comments = [RawComment(100, 11, 0, "agreed")]
    entries = build_knowledge_base(posts, comments, keywords)
    assert [e.answer_id for e in entries] == [10]


def test_duplicate_answer_id_later_wins():
    keywords = KeywordSet.from_iterable(["command injection"])
    body = "<p>command injection</p><pre><code>call_one()\n</code></pre>"
    body2 = "<p>command injection</p><pre><code>call_two()\n</code></pre>"
    posts = [
        RawPost(1, "question", None, 5, "<p>q</p>", []),
        RawPost(10, "answer", 1, 2, body),
        RawPost(10, "answer", 1, 4, body2),
    ]
    tally = Counter()
    entries = build_knowledge_base(posts, [], keywords, tally=tally)
    assert len(entries) == 1
    assert entries[0].answer_score == 4
    assert entries[0].code_blocks == ["call_two()"]
    assert tally["duplicate_answers"] == 1


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
