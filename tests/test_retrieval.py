from __future__ import annotations

import dataclasses
import json
import math
import random
import re
import string
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import DEEP_JSON, bm25_brute_force, make_entry
from sosec import retrieval
from sosec.config import default_data_path
from sosec.errors import ConfigError
from sosec.kb import KeywordSet, KnowledgeEntry, build_knowledge_base, write_kb_jsonl
from sosec.retrieval import (
    INDEX_MAGIC,
    build_index,
    load_index,
    retrieve,
    save_index,
    tokenize_code,
)


def test_tokenize_call_with_keyword_argument():
    assert tokenize_code("subprocess.call(cmd, shell=True)") == [
        "subprocess.call",
        "subprocess",
        "call",
        "cmd",
        "shell=true",
        "shell",
        "true",
    ]


def test_tokenize_empty_input():
    assert tokenize_code("") == []


def test_tokenize_camel_case():
    assert tokenize_code("myVarName") == ["myvarname", "my", "var", "name"]


def test_tokenize_snake_case():
    assert tokenize_code("load_user_input") == ["load_user_input", "load", "user", "input"]


def test_tokenize_dotted_path():
    assert tokenize_code("pickle.loads(blob)") == ["pickle.loads", "pickle", "loads", "blob"]


def test_tokenize_comparison_is_not_a_compound():
    assert "x==1" not in tokenize_code("if x == 1: pass")
    assert "x=1" not in tokenize_code("if x == 1: pass")


def test_tokenize_assignment_with_spaces_normalized():
    assert "debug=true" in tokenize_code("app.run(debug = True)")


def test_tokenize_duplicates_kept_in_order():
    assert tokenize_code("a a b a") == ["a", "a", "b", "a"]


# A reference tokenizer that `tokenize_code` must equal token for token:
# one Match object per token, its group read by name, every word split anew.
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<assign>[A-Za-z_]\w*(?:\.\w+)*[ \t]*=(?!=)[ \t]*\w+(?:\.\w+)*)"
    r"|(?P<dotted>[A-Za-z_]\w*(?:\.\w+)+)"
    r"|(?P<word>\w+)"
)
_REFERENCE_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def _reference_word_tokens(word):
    whole = word.lower()
    pieces = [p.lower() for p in _REFERENCE_CAMEL_RE.findall(word)]
    if pieces == [whole]:
        return [whole]
    return [whole] + pieces


def _reference_tokenize(text):
    tokens = []
    for match in _REFERENCE_TOKEN_RE.finditer(text):
        group = match.lastgroup
        raw = match.group()
        if group == "assign":
            compound = re.sub(r"\s+", "", raw).lower()
            tokens.append(compound)
            lhs = compound.split("=", 1)[0]
            if "." in lhs:
                tokens.append(lhs)
            for part in re.findall(r"\w+", raw):
                tokens.extend(_reference_word_tokens(part))
        elif group == "dotted":
            tokens.append(raw.lower())
            for part in raw.split("."):
                tokens.extend(_reference_word_tokens(part))
        else:
            tokens.extend(_reference_word_tokens(raw))
    return tokens


_TOKENIZER_ALPHABET = (
    list(string.ascii_letters + string.digits)
    + ["_", ".", "=", "==", "\t", " ", "\n", "(", ")", ",", "é", "ß", "İ", "ǅ", "Σ"]
)


def test_tokenize_matches_the_per_match_reference_on_random_text():
    rng = random.Random(26)
    for _ in range(2000):
        text = "".join(rng.choice(_TOKENIZER_ALPHABET) for _ in range(rng.randint(0, 40)))
        assert tokenize_code(text) == _reference_tokenize(text), repr(text)


def test_tokenize_matches_the_per_match_reference_on_every_fixture_code_block(fixtures_dir):
    keywords = KeywordSet.from_file(default_data_path("keywords.txt"))
    with open(fixtures_dir / "posts_20.xml", "rb") as posts, open(fixtures_dir / "comments_20.xml", "rb") as comments:
        entries = build_knowledge_base(posts, comments, keywords)
    blocks = [block for entry in entries for block in entry.code_blocks]
    assert blocks
    for text in blocks + ["\n".join(entry.code_blocks) for entry in entries]:
        assert tokenize_code(text) == _reference_tokenize(text)


def test_tokenize_with_the_shared_memo_matches_a_fresh_memo_per_call():
    # Snippets over a small vocabulary, so that later calls reuse the splits
    # of earlier ones, each tokenized twice, then random texts over the
    # alphabet above, Unicode letters included.
    rng = random.Random(28)
    names = ["fooBar", "foo_bar", "HTTPServer", "x1", "shell", "True", "pickle", "loads", "ǅx", "İd", "straße"]
    snippets = []
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 6)):
            a, b = rng.choice(names), rng.choice(names)
            parts.append(rng.choice([f"{a}.{b}({a})", f"{a} = {b}", f"{a}.{b}={b}.{a}", f"{a} == {b}", a]))
        snippets.append("\n".join(parts))
    texts = snippets + snippets
    for _ in range(500):
        texts.append("".join(rng.choice(_TOKENIZER_ALPHABET) for _ in range(rng.randint(0, 40))))
    retrieval._query_word_tokens.cache_clear()
    for text in texts:
        assert tokenize_code(text) == _reference_tokenize(text), repr(text)


def test_tokenize_with_more_distinct_identifiers_than_the_memo_holds():
    # The second pass finds each identifier evicted by the ones after it.
    bound = retrieval._query_word_tokens.cache_info().maxsize
    text = "\n".join(f"fooBar{i}.HTTPx{i} = snake_{i}" for i in range(bound // 2 + 100))
    expected = _reference_tokenize(text)
    assert tokenize_code(text) == expected
    assert retrieval._query_word_tokens.cache_info().currsize == bound
    assert tokenize_code(text) == expected


def test_the_shared_tokenizer_memo_is_bounded():
    memo = retrieval._query_word_tokens
    bound = memo.cache_info().maxsize
    assert bound is not None and bound > 0
    for i in range(bound + 10):
        tokenize_code(f"ident{i}")
    assert memo.cache_info().currsize == bound
    assert tokenize_code("pickle.loads(fooBar)") == ["pickle.loads", "pickle", "loads", "foobar", "foo", "bar"]


def test_build_index_twice_gives_the_same_file_with_the_memo_cold_and_then_warm_and_evicting(tmp_path):
    rng = random.Random(30)
    bound = retrieval._query_word_tokens.cache_info().maxsize
    # Identifiers in many entries and identifiers in one, more of them than the memo holds.
    common = [f"{rng.choice(['get', 'set', 'is'])}{rng.choice(['Name', 'Value', 'URL'])}{i}" for i in range(50)]
    entries = [
        make_entry(i, [f"x{i}_{j}.camelCase{j} = {rng.choice(common)}({rng.choice(common)}_{i})" for j in range(30)])
        for i in range(bound // 40)
    ]
    retrieval._query_word_tokens.cache_clear()
    save_index(build_index(entries), tmp_path / "cold.idx")
    assert retrieval._query_word_tokens.cache_info().currsize == bound
    save_index(build_index(entries), tmp_path / "warm.idx")
    assert (tmp_path / "cold.idx").read_bytes() == (tmp_path / "warm.idx").read_bytes()


def _index_abc(k1=1.2, b=0.75):
    entries = [
        make_entry(1, ["a b"]),
        make_entry(2, ["a a"]),
        make_entry(3, ["c"]),
    ]
    return build_index(entries, k1=k1, b=b)


def _postings(index, term):
    slot = index.terms[term]
    lo, hi = index.offsets[slot], index.offsets[slot + 1]
    return index.doc_ids[lo:hi].tolist(), index.impacts[lo:hi].tolist()


def test_build_index_counts():
    # corpus ["a b", "a a", "c"]: N=3, dl=[2, 2, 1], avgdl=5/3; "a" has df=2, tf=[1, 2]
    index = _index_abc()
    assert [index.entry(d).answer_id for d in range(len(index.answer_ids))] == [1, 2, 3]
    doc_ids, impacts = _postings(index, "a")
    assert doc_ids == [0, 1]
    idf = math.log((3 - 2 + 0.5) / (2 + 0.5) + 1.0)
    norm = 1.2 * (1.0 - 0.75 + 0.75 * 2 / (5 / 3))
    assert impacts == pytest.approx([idf * 1 * 2.2 / (1 + norm), idf * 2 * 2.2 / (2 + norm)], abs=1e-12)


def test_build_index_singleton_average():
    # dl == avgdl == 3 makes every tf-weight exactly (k1 + 1) / (1 + k1) = 1
    index = build_index([make_entry(1, ["x y z"])])
    assert index.impacts.tolist() == pytest.approx([math.log(0.5 / 1.5 + 1.0)] * 3, abs=1e-12)


def test_build_index_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        build_index([])


@pytest.mark.parametrize(
    "k1,b", [(0.0, 0.75), (-1.0, 0.5), (1.2, 1.5), (1.2, -0.1), (math.nan, 0.75), (math.inf, 0.75)]
)
def test_build_index_parameter_validation(k1, b):
    with pytest.raises(ConfigError):
        build_index([make_entry(1, ["a"])], k1=k1, b=b)


def test_build_index_refuses_a_k1_whose_impacts_overflow_and_prints_nothing():
    # tf 2 makes tf * (k1 + 1) overflow; a lone "a" would give a weight of exactly 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="give posting impacts that are not finite and positive"):
            build_index([make_entry(1, ["a a"])], k1=1e308)


def test_bm25_score_worked_example():
    # corpus ["a b", "a a", "c"], query [c], doc 2: dl=1, avgdl=5/3, df=1, N=3
    hits = retrieve(_index_abc(), "c")
    assert [h.entry.answer_id for h in hits] == [3]
    assert hits[0].score == pytest.approx(1.1727306286009773, abs=1e-9)


def test_bm25_score_tf_monotonicity():
    # answers 1 and 2 have the same length; "a" occurs once in 1 and twice in 2
    hits = retrieve(_index_abc(), "a")
    assert [h.entry.answer_id for h in hits] == [2, 1]
    assert hits[0].score > hits[1].score


def test_retrieve_excludes_zero_score_documents():
    entries = [make_entry(i, [f"w{i} filler"]) for i in range(10)]
    entries[3] = make_entry(3, ["needle filler"])
    entries[7] = make_entry(7, ["needle other"])
    index = build_index(entries)
    hits = retrieve(index, "needle", k=5)
    assert sorted(h.entry.answer_id for h in hits) == [3, 7]


def test_retrieve_default_k_is_five():
    entries = [make_entry(i, ["needle surrounded by filler"]) for i in range(8)]
    index = build_index(entries)
    hits = retrieve(index, "needle")
    assert len(hits) == 5


def test_retrieve_tie_break_by_ascending_answer_id():
    entries = [make_entry(42, ["same text"]), make_entry(7, ["same text"])]
    index = build_index(entries)
    hits = retrieve(index, "same", k=2)
    assert [h.entry.answer_id for h in hits] == [7, 42]
    assert hits[0].score == hits[1].score


def test_retrieve_ranks_and_scores_are_consistent():
    entries = [make_entry(i, ["shared token"]) for i in range(3)]
    entries.append(make_entry(99, ["shared shared shared token"]))
    index = build_index(entries)
    hits = retrieve(index, "shared token", k=10)
    assert [h.rank for h in hits] == list(range(1, len(hits) + 1))
    assert all(a.score >= b.score for a, b in zip(hits, hits[1:]))
    assert all(h.score > 0 for h in hits)


def test_retrieve_k_must_be_positive():
    with pytest.raises(ValueError):
        retrieve(_index_abc(), "a", k=0)


def test_rare_token_precedence():
    entries = [make_entry(i, ["alpha beta gamma"]) for i in range(20)]
    entries[11] = make_entry(11, ["subprocess.call(cmd, shell=True)"])
    index = build_index(entries)
    hits = retrieve(index, "run(shell=True)", k=5)
    assert hits[0].entry.answer_id == 11


def test_scores_non_negative_on_common_terms():
    # "a" occurs in every document; the +1 smoothing keeps IDF positive
    entries = [make_entry(i, ["a a a"]) for i in range(6)]
    index = build_index(entries)
    hits = retrieve(index, "a", k=6)
    assert len(hits) == 6
    assert all(h.score > 0 for h in hits)


def test_retrieve_deterministic_across_runs():
    rng = random.Random(7)
    entries = [
        make_entry(i, [" ".join(rng.choice("abcdefgh") for _ in range(12))]) for i in range(30)
    ]
    index = build_index(entries)
    first = [(h.entry.answer_id, h.score) for h in retrieve(index, "a b c", k=10)]
    second = [(h.entry.answer_id, h.score) for h in retrieve(index, "a b c", k=10)]
    assert first == second


def test_ranking_matches_brute_force_oracle_small():
    rng = random.Random(1234)
    vocab = [f"tok{i}" for i in range(12)]
    for _ in range(10):
        num_docs = rng.randint(1, 12)
        docs = [[rng.choice(vocab) for _ in range(rng.randint(1, 15))] for _ in range(num_docs)]
        entries = [make_entry(100 + i, [" ".join(doc)]) for i, doc in enumerate(docs)]
        index = build_index(entries)
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        oracle = bm25_brute_force(docs, query.split(), k1=1.2, b=0.75)
        expected = sorted(
            ((100 + i, s) for i, s in enumerate(oracle) if s > 0),
            key=lambda item: (-item[1], item[0]),
        )
        got = [(h.entry.answer_id, h.score) for h in retrieve(index, query, k=num_docs)]
        assert [aid for aid, _ in got] == [aid for aid, _ in expected]
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert got_score == pytest.approx(want_score, abs=1e-9)


def test_index_persistence_round_trip(tmp_path):
    entries = [
        make_entry(5, ["subprocess.call(cmd, shell=True)"], excerpt="watch out", comments=[("bad", 2)]),
        make_entry(9, ["sorted(values)"]),
    ]
    index = build_index(entries)
    path = tmp_path / "kb.idx"
    save_index(index, path)
    loaded = load_index(path)
    assert path.read_bytes().startswith(INDEX_MAGIC.encode() + b"\n")
    assert loaded.terms == index.terms
    for name in ("offsets", "doc_ids", "impacts"):
        assert getattr(loaded, name).tolist() == getattr(index, name).tolist()
    decoded = [[ix.entry(d) for d in range(len(ix.answer_ids))] for ix in (loaded, index)]
    assert decoded[0] == decoded[1]
    original = [(h.entry.answer_id, h.score) for h in retrieve(index, "shell=True", k=2)]
    reloaded = [(h.entry.answer_id, h.score) for h in retrieve(loaded, "shell=True", k=2)]
    assert original == reloaded


def _placed(count: int, texts: dict[int, str]) -> list[str]:
    """`count` documents, each a one-word filler of its own unless `texts` gives its text."""
    return [texts.get(d, f"filler{d}") for d in range(count)]


# With k = 3, an index of 64 documents samples the scores at 0, 16, 32 and 48
# for the lower bound on the k-th highest; one of 20 samples fewer than k.
@pytest.mark.parametrize(
    "docs, query, k",
    [
        (["needle a", "needle b", "needle c", "x", "y", "z", "w", "v"], "needle", 3),
        (["needle a", "x", "needle b", "y", "z", "w", "v", "u"], "needle b", 5),
        (["needle a", "x", "needle needle"], "needle", 5),
        (["needle a", "x", "needle needle"], "needle", 3),
        (["x", "needle a", "needle b", "needle needle", "needle c", "y", "needle d", "z"], "needle", 3),
        (_placed(64, {**{d: "needle a" for d in (0, 16, 32, 48)}, 5: "needle needle", 21: "needle needle",
                      37: "needle needle"}), "needle", 3),
        (_placed(64, {**{d: "needle a" for d in (0, 16, 32, 48)}, 5: "needle needle", 7: "needle b",
                      40: "needle b"}), "needle", 3),
        (_placed(64, {3: "needle a", 20: "needle needle"}), "needle", 3),
        (_placed(64, {0: "needle a", 16: "needle b", 32: "needle c"}), "needle", 3),
        (_placed(20, {0: "needle needle", 4: "needle a", 9: "needle b", 16: "needle c"}), "needle", 3),
    ],
    ids=["exactly-k-hits", "fewer-hits-than-k", "fewer-documents-than-k", "k-documents", "tie-at-the-cut",
         "top-k-off-the-sample", "tie-at-the-sampled-bound", "fewer-scores-than-k-in-16k-documents",
         "only-k-reach-the-sampled-bound", "fewer-samples-than-k"],
)
def test_top_k_cut_matches_a_brute_force_ranking(docs, query, k):
    tokens = [doc.split() for doc in docs]
    oracle = bm25_brute_force(tokens, query.split(), k1=1.2, b=0.75)
    expected = sorted(((10 + d, s) for d, s in enumerate(oracle) if s > 0), key=lambda item: (-item[1], item[0]))[:k]
    hits = retrieve(build_index([make_entry(10 + d, [doc]) for d, doc in enumerate(docs)]), query, k=k)
    assert [h.entry.answer_id for h in hits] == [aid for aid, _ in expected]
    assert [h.rank for h in hits] == list(range(1, len(expected) + 1))
    for hit, (_, want) in zip(hits, expected):
        assert hit.score == pytest.approx(want, abs=1e-12)


def test_load_index_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.idx"
    path.write_text('{"magic": "SOMETHING-ELSE"}', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_index(path)


def test_load_index_rejects_garbage(tmp_path):
    path = tmp_path / "bogus.idx"
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_index(path)


def test_top_k_cut_through_a_tie_keeps_the_lowest_answer_ids():
    entries = [make_entry(aid, ["same text"]) for aid in range(9, 0, -1)]
    hits = retrieve(build_index(entries), "same", k=3)
    assert [h.entry.answer_id for h in hits] == [1, 2, 3]
    assert [h.rank for h in hits] == [1, 2, 3]


@pytest.mark.parametrize(
    "content",
    [
        json.dumps({"magic": "SOSEC-IDX-v1", "k1": 1.2, "b": 0.75, "postings": {}}),
        "SOSEC-IDX-v2\n" + json.dumps({"k1": 1.2, "b": 0.75, "terms": ["a"], "entries": []}) + "\n",
    ],
    ids=["v1", "v2"],
)
def test_load_index_rejects_old_formats_with_rebuild_hint(tmp_path, content):
    path = tmp_path / "old.idx"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError, match="rebuild it with `sosec index`"):
        load_index(path)


def test_load_index_rejects_truncated_arrays(tmp_path):
    path = tmp_path / "kb.idx"
    save_index(_index_abc(), path)
    data = path.read_bytes()
    arrays_start = data.index(b"\n", len(INDEX_MAGIC) + 1) + 1
    for cut in range(arrays_start, len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ConfigError):
            load_index(path)


def test_index_file_ends_with_the_kb_jsonl_lines_of_its_entries(tmp_path):
    entries = [make_entry(5, ["x = 1"], excerpt="naïve → ok", comments=[("ü", 2)]), make_entry(9, ["y"])]
    save_index(build_index(entries), tmp_path / "kb.idx")
    write_kb_jsonl(entries, tmp_path / "kb.jsonl")
    assert (tmp_path / "kb.idx").read_bytes().endswith((tmp_path / "kb.jsonl").read_bytes())


def _saved_abc(tmp_path):
    """An index file of `_index_abc`, its bytes, and the file offset of entry_offsets."""
    path = tmp_path / "kb.idx"
    index = _index_abc()
    save_index(index, path)
    data = path.read_bytes()
    arrays_start = data.index(b"\n", len(INDEX_MAGIC) + 1) + 1
    assert arrays_start % 8 == 0
    return path, data, arrays_start + 8 * (len(index.terms) + 1)


def test_load_index_rejects_non_monotone_entry_offsets(tmp_path):
    path, data, at = _saved_abc(tmp_path)
    entry_offsets = np.frombuffer(data, dtype="<i8", count=4, offset=at).copy()
    entry_offsets[1] = entry_offsets[2] + 1
    path.write_bytes(data[:at] + entry_offsets.tobytes() + data[at + 32 :])
    with pytest.raises(ConfigError, match="corrupt entry_offsets"):
        load_index(path)


@pytest.mark.parametrize("impact", [math.nan, -1.0, 0.0, math.inf], ids=["nan", "negative", "zero", "infinite"])
def test_load_index_rejects_impacts_that_are_not_finite_and_positive(tmp_path, impact):
    path, data, at = _saved_abc(tmp_path)
    at += 8 * (4 + 3) + 8  # past entry_offsets and answer_ids, to the second of the four impacts
    path.write_bytes(data[:at] + np.array([impact], dtype="<f8").tobytes() + data[at + 8 :])
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))} has posting impacts that are not finite"):
        load_index(path)


@pytest.mark.parametrize("change", ["shorter", "longer"])
def test_load_index_rejects_entry_lines_not_matching_their_offsets(tmp_path, change):
    path, data, _ = _saved_abc(tmp_path)
    path.write_bytes(data[:-1] if change == "shorter" else data + b"\n")
    with pytest.raises(ConfigError, match="bytes of entry lines"):
        load_index(path)


@pytest.mark.parametrize("count", [2, 4])
def test_load_index_rejects_an_entry_count_the_arrays_disagree_with(tmp_path, count):
    path, data, _ = _saved_abc(tmp_path)
    assert data.count(b'"entries": 3') == 1
    path.write_bytes(data.replace(b'"entries": 3', f'"entries": {count}'.encode()))
    with pytest.raises(ConfigError):
        load_index(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda data, at: data[: len(INDEX_MAGIC) + 10], "is truncated: it ends in the header"),
        (lambda data, at: data.replace(b'{"', b"{", 1), "has a corrupt index header: Expecting property name"),
        (lambda data, at: data.replace(b'"entries": 3', b'"entries": -1'),
         "has a corrupt index header: entry count -1 is not a count"),
        (lambda data, at: data.replace(b'"entries": 3', b'"entries": 3.0'),
         "has a corrupt index header: entry count 3.0 is not a count"),
        (lambda data, at: data.replace(b'"k1": 1.2', b'"k1": "x"'),
         "has a corrupt index header: k1 'x' is not a positive number"),
        (lambda data, at: data.replace(b'"k1": 1.2', b'"k1": NaN'),
         "has a corrupt index header: k1 nan is not a positive number"),
        (lambda data, at: data.replace(b'"k1": 1.2', b'"k1": 0.0'),
         "has a corrupt index header: k1 0.0 is not a positive number"),
        (lambda data, at: data.replace(b'"b": 0.75', b'"b": null'),
         "has a corrupt index header: b None is not a number within [0, 1]"),
        (lambda data, at: data.replace(b'"b": 0.75', b'"b": 1.01'),
         "has a corrupt index header: b 1.01 is not a number within [0, 1]"),
        (lambda data, at: data.replace(b'"terms": [', b'"terms": [7, '),
         "has a corrupt index header: terms is not a list of strings"),
        (lambda data, at: f"{INDEX_MAGIC}\n{DEEP_JSON}\n".encode(),
         "has a corrupt index header: maximum recursion depth"),
        # the last of the four doc ids, past entry_offsets, answer_ids and impacts
        (lambda data, at: data[: at + 100] + np.array([3], dtype="<i4").tobytes() + data[at + 104 :],
         "has posting doc ids outside its 3 entries"),
        (lambda data, at: None, "cannot read index file"),
    ],
    ids=["ends-in-header", "header-not-json", "negative-entry-count", "float-entry-count", "k1-a-string", "k1-nan",
         "k1-zero", "b-null", "b-above-one", "term-not-a-string", "header-nested-too-deep", "doc-id-outside",
         "missing-file"],
)
def test_load_index_refuses_a_corrupt_or_missing_file(tmp_path, corrupt, message):
    path, data, at = _saved_abc(tmp_path)
    changed = corrupt(data, at)
    if changed is None:
        path.unlink()
    else:
        path.write_bytes(changed)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_index(path)


def test_load_index_decodes_no_entry_and_retrieve_only_the_hits(tmp_path, monkeypatch):
    rng = random.Random(5)
    entries = [make_entry(i, [" ".join(rng.choice("abcdefgh") for _ in range(6))]) for i in range(40)]
    entries[17] = make_entry(17, ["needle = haystack"])
    path = tmp_path / "kb.idx"
    save_index(build_index(entries), path)
    decoded = []
    from_dict = KnowledgeEntry.from_dict

    def counting_from_dict(obj):
        decoded.append(obj["answer_id"])
        return from_dict(obj)

    monkeypatch.setattr(KnowledgeEntry, "from_dict", staticmethod(counting_from_dict))
    index = load_index(path)
    assert decoded == []
    hits = retrieve(index, "a b c d", k=3)
    assert len(hits) == 3
    assert decoded == [h.entry.answer_id for h in hits]

    other_hits = [(h.entry.answer_id, h.score) for h in retrieve(index, "a b", k=3)]
    line = entries[17].to_jsonl().encode()
    data = path.read_bytes()
    assert data.count(line) == 1
    path.write_bytes(data.replace(line, b"[" + line[1:]))
    index = load_index(path)
    assert [(h.entry.answer_id, h.score) for h in retrieve(index, "a b", k=3)] == other_hits
    with pytest.raises(ConfigError, match="kb.idx has a corrupt entry line"):
        retrieve(index, "needle", k=3)


@pytest.mark.parametrize(
    "edited, reason",
    [
        (b'"tags": "python"  ', "'tags' must be"),
        (b'"tags": ["\\ud800"]', "'utf-8' codec can't encode character '\\ud800'"),
    ],
    ids=["tags-not-a-list", "lone-surrogate"],
)
def test_retrieve_refuses_an_index_entry_line_of_the_wrong_shape(tmp_path, edited, reason):
    path = tmp_path / "kb.idx"
    save_index(build_index([make_entry(3, ["needle = 1"], tags=["python"])]), path)
    data = path.read_bytes()
    assert data.count(b'"tags": ["python"]') == 1
    # the same byte length, so the entry offsets still hold
    path.write_bytes(data.replace(b'"tags": ["python"]', edited))
    index = load_index(path)
    with pytest.raises(ConfigError) as caught:
        retrieve(index, "needle", k=1)
    assert str(caught.value).startswith(f"{path} has a corrupt entry line for document 0: {reason}")


def test_retrieve_refuses_an_index_entry_line_nested_too_deep(tmp_path):
    path = tmp_path / "kb.idx"
    entry = make_entry(3, ["needle = 1", "x" * len(DEEP_JSON)])
    save_index(build_index([entry]), path)
    data, line = path.read_bytes(), entry.to_jsonl().encode()
    assert data.count(line) == 1
    # the same byte length, so the entry offsets still hold
    path.write_bytes(data.replace(line, DEEP_JSON.encode().ljust(len(line) - 1) + b"\n"))
    index = load_index(path)
    with pytest.raises(ConfigError) as caught:
        retrieve(index, "needle", k=1)
    assert str(caught.value).startswith(f"{path} has a corrupt entry line for document 0: maximum recursion depth")


def test_retrieve_refuses_an_index_entry_line_whose_answer_id_was_edited(tmp_path):
    path = tmp_path / "kb.idx"
    save_index(build_index([make_entry(3, ["needle = 1"]), make_entry(5, ["needle = 2"])]), path)
    data = path.read_bytes()
    assert data.count(b'"answer_id": 3,') == 1
    # the same byte length, so the entry offsets still hold
    path.write_bytes(data.replace(b'"answer_id": 3,', b'"answer_id": 4,'))
    index = load_index(path)
    with pytest.raises(ConfigError) as caught:
        retrieve(index, "needle", k=2)
    assert str(caught.value) == (
        f"{path} has a corrupt entry line for document 0: its answer_id 4 is not the indexed 3"
    )


def test_save_index_replaces_the_file_and_leaves_a_loaded_index_working(tmp_path):
    path = tmp_path / "kb.idx"
    save_index(_index_abc(), path)
    loaded = load_index(path)
    before = [(h.entry.answer_id, h.score) for h in retrieve(loaded, "a b c", k=3)]
    other = build_index([make_entry(50, ["a z"]), make_entry(60, ["c c c"])])
    save_index(other, path)
    assert [(h.entry.answer_id, h.score) for h in retrieve(loaded, "a b c", k=3)] == before
    assert [h.entry.answer_id for h in retrieve(load_index(path), "a b c", k=3)] == [60, 50]

    class FailingBlob:
        def __getitem__(self, span):
            raise OSError("disk full")

    saved = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        save_index(dataclasses.replace(other, blob=FailingBlob()), path)
    assert path.read_bytes() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["kb.idx"]

    # through a symlink, the link's target is replaced and the link stays
    link = tmp_path / "link.idx"
    link.symlink_to(path)
    loaded = load_index(link)
    save_index(_index_abc(), link)
    assert link.is_symlink()
    assert [h.entry.answer_id for h in retrieve(loaded, "a b c", k=3)] == [60, 50]
    assert [(h.entry.answer_id, h.score) for h in retrieve(load_index(path), "a b c", k=3)] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.idx", "link.idx"]


@pytest.mark.parametrize("answer_id", ["5", 5.0, True, 2**63])
def test_build_index_rejects_answer_ids_that_are_not_int64(answer_id):
    with pytest.raises(ConfigError, match="answer id"):
        build_index([make_entry(answer_id, ["a"])])


def test_retrieve_from_threads_sharing_one_index(tmp_path):
    rng = random.Random(11)
    entries = [make_entry(i, [" ".join(rng.choice("abcdefgh") for _ in range(12))]) for i in range(200)]
    path = tmp_path / "kb.idx"
    save_index(build_index(entries), path)
    index = load_index(path)
    queries = [" ".join(rng.choice("abcdefgh") for _ in range(4)) for _ in range(20)]

    def ranks():
        return [[(h.entry.answer_id, h.score) for h in retrieve(index, q, k=5)] for q in queries]

    expected = ranks()
    results = [None] * 8

    def worker(slot):
        results[slot] = ranks()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [expected] * 8


def test_cli_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import sosec.cli; "
        "print([m for m in ('numpy', 'requests', '_hashlib', 'uuid') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_retrieve_scores_equal_the_per_posting_sum_exactly():
    # the scalar BM25 loop, operation for operation: build-time impacts must not move a bit
    rng = random.Random(99)
    vocab = [f"tok{i}" for i in range(30)]
    docs = [[rng.choice(vocab) for _ in range(rng.randint(1, 25))] for _ in range(40)]
    k1, b = 1.2, 0.75
    index = build_index([make_entry(i, [" ".join(doc)]) for i, doc in enumerate(docs)], k1=k1, b=b)
    n, avgdl = len(docs), sum(len(d) for d in docs) / len(docs)
    for _ in range(20):
        query = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        scores: dict[int, float] = {}
        for term in dict.fromkeys(query):
            holders = [i for i, doc in enumerate(docs) if term in doc]
            idf = math.log((n - len(holders) + 0.5) / (len(holders) + 0.5) + 1.0)
            for i in holders:
                tf = docs[i].count(term)
                norm = k1 * (1.0 - b + b * len(docs[i]) / avgdl)
                scores[i] = scores.get(i, 0.0) + idf * (tf * (k1 + 1.0) / (tf + norm))
        got = {h.entry.answer_id: h.score for h in retrieve(index, " ".join(query), k=n)}
        assert got == scores


def _per_posting_sum(docs: list[list[str]], query: list[str], k1: float = 1.2, b: float = 0.75) -> dict[int, float]:
    """Each document's score as the scalar BM25 loop adds it up, posting by posting in query-term order."""
    n, avgdl = len(docs), sum(len(d) for d in docs) / len(docs)
    scores: dict[int, float] = {}
    for term in dict.fromkeys(query):
        holders = [i for i, doc in enumerate(docs) if term in doc]
        idf = math.log((n - len(holders) + 0.5) / (len(holders) + 0.5) + 1.0)
        for i in holders:
            tf = docs[i].count(term)
            norm = k1 * (1.0 - b + b * len(docs[i]) / avgdl)
            scores[i] = scores.get(i, 0.0) + idf * (tf * (k1 + 1.0) / (tf + norm))
    return scores


def test_retrieve_scores_dense_and_sparse_terms_as_the_per_posting_sum_exactly(tmp_path):
    # Two terms in more than the dense share of the documents, one in exactly
    # that share (the boundary, which stays sparse), the rest each in two.
    count = 40
    edge = retrieval._DENSE_SHARE * count
    assert edge.is_integer() and 2 < edge < count - 3
    rng = random.Random(23)
    share = {"wide": count - 3, "most": int(edge) + 1, "edge": int(edge)}
    rare = [f"rare{i}" for i in range(count)]
    docs = []
    for i in range(count):
        doc = [term for term, holders in share.items() if i < holders for _ in range(rng.randint(1, 3))]
        doc += [rare[i]] * rng.randint(1, 3) + [rare[(i + 1) % count]] * rng.randint(0, 2)
        rng.shuffle(doc)
        docs.append(doc)
    built = build_index([make_entry(i, [" ".join(doc)]) for i, doc in enumerate(docs)])
    assert sorted(built.dense) == sorted([built.terms["wide"], built.terms["most"]])
    save_index(built, tmp_path / "kb.idx")
    loaded = load_index(tmp_path / "kb.idx")
    assert sorted(loaded.dense) == sorted(built.dense)
    assert not any(row.flags.writeable for row in loaded.dense.values())
    vocab = list(share) + rare + ["absent"]
    for _ in range(60):
        query = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        want = {i: score.hex() for i, score in _per_posting_sum(docs, query).items()}
        for index in (built, loaded):
            got = {h.entry.answer_id: h.score.hex() for h in retrieve(index, " ".join(query), k=len(docs))}
            assert got == want


def test_retrieve_adds_a_dense_term_from_its_row():
    index = build_index([make_entry(i, ["common" + " rare" * (i == 0)]) for i in range(4)])
    slot = index.terms["common"]
    assert slot in index.dense
    index.dense[slot] = np.array([0.0, 0.0, 0.0, 5.0])  # not the term's postings, which cover every document
    assert [(h.entry.answer_id, h.score) for h in retrieve(index, "common")] == [(3, 5.0)]


def test_one_document_index_scores_every_term_through_its_dense_row():
    index = build_index([make_entry(7, ["subprocess.call(cmd, shell=True)"])])
    assert sorted(index.dense) == sorted(index.terms.values())
    query = "os.system(cmd); subprocess.call(x, shell=True)"
    [hit] = retrieve(index, query)
    assert (hit.entry.answer_id, hit.rank) == (7, 1)
    assert hit.score == _per_posting_sum([tokenize_code("subprocess.call(cmd, shell=True)")], tokenize_code(query))[0]
    assert retrieve(index, "unrelated_name") == []


def test_retrieve_with_no_indexed_token_returns_no_hits():
    index = build_index([make_entry(1, ["os.system(cmd)"]), make_entry(2, ["pickle.loads(data)"])])
    assert retrieve(index, "unrelated_name + another_one") == []
    assert retrieve(index, "") == []


def test_loaded_index_scores_equal_the_built_index_bit_for_bit(tmp_path):
    # the corpus and the 20 queries of the exact-sum test above
    rng = random.Random(99)
    vocab = [f"tok{i}" for i in range(30)]
    docs = [[rng.choice(vocab) for _ in range(rng.randint(1, 25))] for _ in range(40)]
    built = build_index([make_entry(i, [" ".join(doc)]) for i, doc in enumerate(docs)])
    save_index(built, tmp_path / "kb.idx")
    loaded = load_index(tmp_path / "kb.idx")
    assert loaded.doc_ids.dtype == np.intp
    for _ in range(20):
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        want = [(h.entry.answer_id, h.score.hex(), h.rank) for h in retrieve(built, query, k=len(docs))]
        got = [(h.entry.answer_id, h.score.hex(), h.rank) for h in retrieve(loaded, query, k=len(docs))]
        assert want and got == want


def test_load_index_widens_doc_ids_across_read_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(retrieval, "_READ_CHUNK", 7)  # several chunks, the last one partial
    entries = [make_entry(i, [f"tok{i % 5} tok{i % 3} shared w{i}"]) for i in range(12)]
    built = build_index(entries)
    assert len(built.doc_ids) % 7
    save_index(built, tmp_path / "kb.idx")
    loaded = load_index(tmp_path / "kb.idx")
    assert loaded.doc_ids.dtype == np.intp
    assert loaded.doc_ids.tolist() == built.doc_ids.tolist()
    assert loaded.impacts.tolist() == built.impacts.tolist()


def test_an_index_without_postings_round_trips(tmp_path):
    built = build_index([make_entry(1, ["+ - ("]), make_entry(2, [""])])
    save_index(built, tmp_path / "kb.idx")
    loaded = load_index(tmp_path / "kb.idx")
    assert (len(loaded.doc_ids), loaded.doc_ids.dtype, loaded.terms) == (0, np.intp, {})
    assert retrieve(loaded, "os.system(cmd)") == []
