"""Seeded synthetic inputs for the benchmark workloads, and the outputs they imply.

Every generator takes a ``random.Random`` built from the workload seed and
never iterates a set or dict of strings in hash order, so the same seed
gives byte-identical files. Each generator returns a plan: the facts about
its inputs that the output checks in ``checks.py`` compare against.
"""

from __future__ import annotations

import bisect
import html
import json
import random
import re
from pathlib import Path
from xml.sax.saxutils import escape

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"


def load_plan() -> dict:
    return json.loads((BENCH_DIR / "plan.json").read_text(encoding="utf-8"))


def load_keywords() -> list[str]:
    lines = (DATA_DIR / "keywords.txt").read_text(encoding="utf-8").splitlines()
    return [line.strip().lower() for line in lines if line.strip() and not line.startswith("#")]


KEYWORDS = load_keywords()


def has_keyword(lowered: str) -> bool:
    """The keyword gate's rule: any keyword is a substring of the lowercased text."""
    return any(k in lowered for k in KEYWORDS)


# Patterns the stub analyzers flag. Generic code must never match them, so
# that only the planted risky lines decide a sample's findings.
STUB_RE = re.compile(r"shell\s*=\s*True|pickle\.loads|\beval\(|tempfile\.mktemp|random\.random\(")

NAME_PARTS = (
    "user data item list value config path file name count total buffer stream node client "
    "server record entry table row column index key token request response handler manager "
    "cache queue result output input payload message event task job worker pool batch chunk "
    "frame image text line word char page view model form field schema query filter sort map "
    "reduce parse load save read write open close build make create update delete fetch send "
    "recv emit check validate format render convert encode decode merge split join scan find "
    "match apply start stop reset init setup clear flush sync lock wait notify retry limit "
    "offset size width height depth level score rank weight ratio rate delta step epoch state "
    "mode flag option param arg env host port url route account order invoice price amount "
    "customer product cart stock report metric sample label group member role policy rule "
    "target source dest local remote temp backup archive folder upload download image thumb "
    "video audio track album artist playlist comment post thread topic tag vote edit draft"
).split()

PROSE_WORDS = (
    "the a this that you can should would use using call returns value when then with without "
    "your code function method class object list string number loop file line variable result "
    "example works here instead first second also only just simple better faster cleaner way "
    "approach answer question problem solution version library module package import output "
    "input argument parameter default option case change update note keep make sure check "
    "always never often usually because since which where what how why it is are was be been "
    "have has do does done get got set put run runs ran try tried see seen look looks fine good"
).split()

PY_WORDS = ("None", "True", "False", "self", "len", "range", "str", "int", "dict", "list", "print")

# Risky calls seen in community code; every one of them contains a keyword.
RISKY_LINES = (
    "subprocess.call({a}, shell=True)",
    "{a} = pickle.loads({b})",
    "{a} = eval({b})",
    "os.system({a})",
    "{a} = yaml.load({b})",
    "{a} = hashlib.md5({b}).hexdigest()",
    "{a} = requests.get({b}, verify=False)",
    "app.run(debug=True)",
    "{a} = tempfile.mktemp()",
    "exec({a})",
    "{a} = marshal.loads({b})",
)


def _clean(text: str) -> bool:
    return not has_keyword(text.lower()) and STUB_RE.search(text) is None


def _name_parts(rng: random.Random, size: int) -> list[str]:
    """NAME_PARTS plus made-up syllable words, `size` in all.

    Identifiers are split into their parts by the tokenizer, so the number
    of distinct parts, not only of names, sets how many documents a query
    term hits.
    """
    parts, seen = list(NAME_PARTS), set(NAME_PARTS)
    while len(parts) < size:
        word = "".join(rng.choice("bcdfghklmnprstvwz") + rng.choice("aeiou") for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            parts.append(word)
    return parts


def identifier_vocabulary(rng: random.Random, size: int) -> list[str]:
    """`size` distinct snake_case/camelCase names, none containing a keyword."""
    pool = _name_parts(rng, size // 2)
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < size:
        parts = [rng.choice(pool) for _ in range(rng.choice((1, 2, 2, 3)))]
        if rng.random() < 0.3:
            name = parts[0] + "".join(p.capitalize() for p in parts[1:])
        else:
            name = "_".join(parts)
        if name in seen or not _clean(name + "(") or not _clean(name + "=1"):
            continue
        seen.add(name)
        names.append(name)
    # Frequent names dominate document sizes, so which length lands on which
    # Zipf rank must not depend on the seed: sort by length, then deal the
    # names to ranks in an order fixed for every seed.
    names.sort(key=lambda n: (len(n), n))
    order = list(range(size))
    random.Random(size).shuffle(order)
    return [names[i] for i in order]


class Zipf:
    """Draws from a list with probability proportional to 1 / rank**exponent."""

    def __init__(self, items: list[str], exponent: float):
        self.items = items
        total, self.cum = 0.0, []
        for rank in range(1, len(items) + 1):
            total += 1.0 / rank**exponent
            self.cum.append(total)

    def draw(self, rng: random.Random) -> str:
        return self.items[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


# Statement shapes 0..8 and how often each occurs; plain calls and
# assignments dominate, as in real snippets.
_STATEMENT_WEIGHTS = (30, 20, 15, 8, 7, 5, 5, 5, 5)
_STATEMENT_CUM = [sum(_STATEMENT_WEIGHTS[: i + 1]) for i in range(len(_STATEMENT_WEIGHTS))]


def _statement(rng: random.Random, z: Zipf) -> str:
    a, b, c, d = (z.draw(rng) for _ in range(4))
    kind = bisect.bisect_right(_STATEMENT_CUM, rng.randrange(_STATEMENT_CUM[-1]))
    if kind == 0:
        return f"{a} = {b}({c}, {d})"
    if kind == 1:
        return f"{a} = {b}.{c}({d})"
    if kind == 2:
        return f"{a}.{b}({c}={d})"
    if kind == 3:
        return f"if {a} is not None: {b} = {c}"
    if kind == 4:
        return f"for {a} in {b}: {c}.append({a})"
    if kind == 5:
        return f"{a} = [{b} for {b} in {c} if {d}]"
    if kind == 6:
        return f"self.{a} = {rng.choice(PY_WORDS)}"
    if kind == 7:
        return f"{a} += len({b})"
    return f"return {a}"


def _risky(rng: random.Random, z: Zipf) -> str:
    return rng.choice(RISKY_LINES).format(a=z.draw(rng), b=z.draw(rng))


# Share of identifier uses that repeat one of the snippet's own names.
LOCAL_NAME_SHARE = 0.7


class _Local:
    """Names of one snippet: a few local names reused, the rest from the vocabulary."""

    def __init__(self, rng: random.Random, z: Zipf):
        self.z = z
        self.names = [z.draw(rng) for _ in range(rng.randint(3, 8))]

    def draw(self, rng: random.Random) -> str:
        return rng.choice(self.names) if rng.random() < LOCAL_NAME_SHARE else self.z.draw(rng)


def code_block(rng: random.Random, z: Zipf, lines: int, risky: bool) -> str:
    local = _Local(rng, z)
    body = [_statement(rng, local) for _ in range(lines)]
    if risky:
        body[rng.randrange(lines)] = _risky(rng, local)
    return "\n".join(body)


def function_source(rng: random.Random, z: Zipf, lines: int, risky: bool) -> str:
    """A Python function of exactly `lines` lines (the def line included)."""
    args = ", ".join(z.draw(rng) for _ in range(rng.randint(0, 3)))
    body = code_block(rng, z, lines - 1, risky)
    return f"def {z.draw(rng)}({args}):\n" + "\n".join("    " + line for line in body.split("\n"))


def prose(rng: random.Random, words: int) -> str:
    return " ".join(rng.choices(PROSE_WORDS, k=words)).capitalize() + "."


def _attr(value: str) -> str:
    return escape(value, {'"': "&quot;", "\n": "&#10;"})


def _row(attrs: list[tuple[str, object]]) -> str:
    return "  <row " + " ".join(f'{k}="{_attr(str(v))}"' for k, v in attrs) + " />\n"


def _normalized(parts: list[str]) -> str:
    return " ".join(" ".join(parts).split()).lower()


# ---------------------------------------------------------------- kb_build


def _answer(rng, z, inputs, keyword_gate, upvote_gate, code_gate):
    """One answer: (score, body_html, [(comment_text, score)]), gates as planned.

    Text that must not pass the keyword gate is redrawn until it holds no
    keyword, so an accidental hit cannot make the planted set wrong.
    """
    lo, hi = inputs["code_lines"]
    keyword_in_comment = keyword_gate and rng.random() < inputs["keyword_only_in_comment_share"]
    upvote_by_comment = upvote_gate and rng.random() < inputs["upvote_only_from_comment_share"]
    while True:
        paragraph = prose(rng, rng.randint(8, 30))
        if keyword_gate and not keyword_in_comment:
            words = paragraph.split(" ")
            words.insert(rng.randrange(len(words) + 1), rng.choice(KEYWORDS))
            paragraph = " ".join(words)
        blocks, inline = [], None
        if code_gate:
            if rng.random() < inputs["inline_code_only_share"]:
                inline = f"{z.draw(rng)}.{z.draw(rng)}({z.draw(rng)})"
            else:
                risky = keyword_gate and not keyword_in_comment and rng.random() < 0.5
                blocks = [code_block(rng, z, rng.randint(lo, hi), risky)
                          for _ in range(rng.choice((1, 1, 2)))]
        elif rng.random() < 0.5:
            inline = rng.choice(("x", "None", "self", "i += 1", "f(x)"))  # under 10 chars
        n_comments = rng.randint(*inputs["comments_per_answer"])
        if (keyword_in_comment or upvote_by_comment) and n_comments == 0:
            n_comments = 1
        comments = [prose(rng, rng.randint(5, 25)) for _ in range(n_comments)]
        if keyword_in_comment:
            comments[0] = f"{comments[0]} {rng.choice(KEYWORDS)} {prose(rng, 3)}"
        # The text strip_html makes of the body below.
        answer_text = [paragraph] + ([f"Try {inline} here."] if inline else []) + blocks
        if keyword_gate and not keyword_in_comment:
            break
        must_be_clean = answer_text if keyword_gate else answer_text + comments
        if not has_keyword(_normalized(must_be_clean)):
            break
    if upvote_gate and not upvote_by_comment:
        score, comment_scores = rng.randint(1, 25), [rng.randint(0, 3) for _ in comments]
    elif upvote_gate:
        score = rng.randint(-2, 0)
        comment_scores = [rng.randint(-1, 0) for _ in comments]
        comment_scores[rng.randrange(len(comments))] = rng.randint(1, 6)
    else:
        score, comment_scores = rng.randint(-3, 0), [rng.randint(-1, 0) for _ in comments]
    body = f"<p>{html.escape(paragraph, quote=False)}</p>"
    if inline:
        body += f"<p>Try <code>{html.escape(inline, quote=False)}</code> here.</p>"
    for block in blocks:
        body += f"<pre><code>{html.escape(block, quote=False)}\n</code></pre>"
    # The entry's code blocks and excerpt as build-kb reads them from the body.
    code = blocks or [inline]
    excerpt = " ".join(" ".join(answer_text).split())
    return score, body, list(zip(comments, comment_scores)), code, excerpt


def make_dump(seed: int, inputs: dict, out_dir: Path) -> dict:
    """Write posts.xml and comments.xml; return the plan, with the KB record of each kept answer."""
    rng = random.Random(f"kb_build:{seed}")
    z = Zipf(identifier_vocabulary(rng, inputs["identifier_vocabulary"]), inputs["zipf_exponent"])
    share = inputs["gate_share"]
    posts = ['<?xml version="1.0" encoding="utf-8"?>\n<posts>\n']
    comments: list[tuple[int, str, int]] = []  # (post_id, text, score)
    expected: dict[int, dict] = {}
    question_ids: list[int] = []
    next_id, answers = 1, 0
    while answers < inputs["answers"]:
        qid, next_id = next_id, next_id + 1
        question_ids.append(qid)
        tags = [z.draw(rng).lower() for _ in range(rng.randint(1, 3))]
        posts.append(_row([("Id", qid), ("PostTypeId", 1), ("Score", rng.randint(-1, 30)),
                           ("Body", f"<p>{prose(rng, rng.randint(10, 40))}</p>"),
                           ("Tags", "".join(f"<{t}>" for t in tags))]))
        for _ in range(min(rng.randint(*inputs["answers_per_question"]), inputs["answers"] - answers)):
            aid, next_id = next_id, next_id + 1
            answers += 1
            gates = [rng.random() < share[g] for g in ("keyword", "upvote", "code")]
            score, body, attached, code, excerpt = _answer(rng, z, inputs, *gates)
            posts.append(_row([("Id", aid), ("PostTypeId", 2), ("ParentId", qid),
                               ("Score", score), ("Body", body)]))
            comments.extend((aid, text, s) for text, s in attached)
            if all(gates):
                # The KB record, in the schema's key order; comments are
                # filled in below, once their order in the dump is known.
                expected[aid] = {"answer_id": aid, "question_id": qid, "answer_score": score,
                                 "answer_excerpt": excerpt, "code_blocks": code, "comments": [],
                                 "tags": tags, "url": f"https://stackoverflow.com/a/{aid}"}
    posts.append("</posts>\n")
    # Comments on questions: real dumps have them, and they never reach an
    # entry. Some carry keywords and upvotes, so a join that attached them
    # to answers would change the kept set.
    answer_comments = len(comments)
    q_share = inputs["question_comment_share"]
    question_comments = round(answer_comments * q_share / (1.0 - q_share))
    for _ in range(question_comments):
        text = prose(rng, rng.randint(5, 25))
        if rng.random() < 0.5:
            text += f" {rng.choice(KEYWORDS)}"
        comments.append((rng.choice(question_ids), text, rng.randint(0, 5)))
    rng.shuffle(comments)  # dumps are in comment-id order, not grouped by post
    for pid, text, s in comments:
        if pid in expected:  # a kept answer's comments, in dump order, scores clamped at 0
            expected[pid]["comments"].append({"text": text, "score": max(0, s)})
    rows = ['<?xml version="1.0" encoding="utf-8"?>\n<comments>\n']
    rows += [_row([("Id", i), ("PostId", pid), ("Score", s), ("Text", text)])
             for i, (pid, text, s) in enumerate(comments, start=1)]
    rows.append("</comments>\n")
    (out_dir / "posts.xml").write_text("".join(posts), encoding="utf-8")
    (out_dir / "comments.xml").write_text("".join(rows), encoding="utf-8")
    return {
        "answer_rows": answers,
        "question_rows": len(question_ids),
        "answer_comments": answer_comments,
        "question_comments": question_comments,
        "expected": {str(aid): e for aid, e in sorted(expected.items())},
    }


# ------------------------------------------------------- retrieval corpus


def make_kb_entries(rng: random.Random, corpus: dict, count: int, planted: int) -> tuple[list[dict], list[int], Zipf]:
    """KB records in the JSONL schema, the positions of planted entries, and the vocabulary.

    A planted entry's first code block carries identifiers that occur
    nowhere else, so a query copied from that block must rank it first.
    """
    z = Zipf(identifier_vocabulary(rng, corpus["identifier_vocabulary"]), corpus["zipf_exponent"])
    lo, hi = corpus["code_lines"]
    planted_at = sorted(rng.sample(range(count), planted))
    entries = []
    answer_id = 1000
    for pos in range(count):
        answer_id += rng.randint(1, 9)
        risky = rng.random() < corpus["risky_entry_share"]
        blocks = [code_block(rng, z, rng.randint(lo, hi), risky and i == 0)
                  for i in range(rng.randint(*corpus["code_blocks_per_entry"]))]
        if pos in planted_at:
            n = planted_at.index(pos)
            blocks[0] += f"\nplantedq{n}v = uniqueplant{n}x(markerplant{n}y, {z.draw(rng)})"
        excerpt = " ".join((prose(rng, rng.randint(10, 50)) + " " + " ".join(blocks)).split())
        entries.append({
            "answer_id": answer_id,
            "question_id": answer_id - rng.randint(1, 500),
            "answer_score": rng.randint(0, 40),
            "answer_excerpt": excerpt,
            "code_blocks": blocks,
            "comments": [{"text": prose(rng, rng.randint(5, 30)), "score": rng.randint(0, 8)}
                         for _ in range(rng.randint(0, 3))],
            "tags": [z.draw(rng).lower() for _ in range(rng.randint(1, 3))],
            "url": f"https://stackoverflow.com/a/{answer_id}",
        })
    return entries, planted_at, z


def write_jsonl(records: list[dict], path: Path) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


def make_retrieval_inputs(seed: int, inputs: dict, out_dir: Path) -> dict:
    """Write kb.jsonl and queries.jsonl; return the plan (planted and checked queries)."""
    rng = random.Random(f"retrieve_query:{seed}")
    n_planted = inputs["planted_queries"]
    entries, planted_at, z = make_kb_entries(rng, inputs["corpus"], inputs["entries"], n_planted)
    write_jsonl(entries, out_dir / "kb.jsonl")
    lo, hi = inputs["query_lines"]
    n_generated = inputs["queries"] - n_planted
    # Lengths are log-uniform over the range (short snippets are the common
    # case) and fixed per size, so every seed has the same length mix and
    # only the content varies.
    lengths = [round(lo * (hi / lo) ** ((i + 0.5) / n_generated)) for i in range(n_generated)]
    queries, seen = [], set()
    for lines in lengths:
        while True:
            code = function_source(rng, z, lines, rng.random() < inputs["risky_query_share"])
            if code not in seen:
                break
        seen.add(code)
        queries.append({"code": code, "planted_answer_id": None})
    for pos in planted_at:
        queries.append({"code": entries[pos]["code_blocks"][0], "planted_answer_id": entries[pos]["answer_id"]})
    rng.shuffle(queries)
    for number, query in enumerate(queries):
        query["query_no"] = number
    write_jsonl(queries, out_dir / "queries.jsonl")
    planted = [q["query_no"] for q in queries if q["planted_answer_id"] is not None]
    others = [q["query_no"] for q in queries if q["planted_answer_id"] is None]
    checked = sorted(planted + rng.sample(others, inputs["oracle_checked_queries"]))
    return {
        "entries": len(entries),
        "queries": len(queries),
        "k": inputs["k"],
        "planted": {str(q["query_no"]): q["planted_answer_id"] for q in queries if q["planted_answer_id"]},
        "checked_queries": checked,
    }


# ---------------------------------------------------------------- eval_arms

# Sample kinds: what the stubs flag on the original code, and what the mock
# provider does to it. Before-CWEs follow the benchmark's CWE map.
SAMPLE_KINDS = {
    "changed": (("subprocess.call({a}, shell=True)", "CWE-78", ("CWE-78",)),
                ("subprocess.run(\"ls \" + {a}, shell=True)", "CWE-78", ("CWE-78",)),
                ("{b} = subprocess.check_output({a}, shell=True)", "CWE-78", ("CWE-78",))),
    "unchanged": (("{b} = pickle.loads({a})", "CWE-502", ("CWE-502",)),
                  ("{b} = eval({a})", "CWE-94", ("CWE-78", "CWE-94"))),
    # Flagged by one stub only, so the dual-tool filter drops them.
    "filtered": (("{b} = tempfile.mktemp()", "CWE-377", ("CWE-377",)),
                 ("{b} = random.random()", "CWE-330", ("CWE-330",))),
}


def make_eval_inputs(seed: int, inputs: dict, out_dir: Path) -> dict:
    """Write dataset.jsonl and index_kb.jsonl; return the per-sample plan."""
    rng = random.Random(f"eval_arms:{seed}")
    entries, _, z = make_kb_entries(rng, inputs["corpus"], inputs["index_entries"], 0)
    write_jsonl(entries, out_dir / "index_kb.jsonl")
    n = inputs["samples"]
    counts = {"changed": round(n * inputs["share"]["changed"]),
              "unchanged": round(n * inputs["share"]["unchanged"])}
    counts["filtered"] = n - counts["changed"] - counts["unchanged"]
    kinds = [kind for kind in ("changed", "unchanged", "filtered") for _ in range(counts[kind])]
    rng.shuffle(kinds)
    lo, hi = inputs["code_lines"]
    # `duplicate_samples` kept samples copy the code of an earlier sample of
    # their kind; the first sample of each kind is never a copy.
    firsts = {kinds.index(kind) for kind in ("changed", "unchanged")}
    candidates = [i for i, kind in enumerate(kinds) if kind != "filtered" and i not in firsts]
    duplicates = set(rng.sample(candidates, inputs["duplicate_samples"]))
    samples, plan = [], []
    for i, kind in enumerate(kinds):
        sample_id = f"s{i + 1:03d}"
        if i in duplicates:
            source = rng.choice([p for p in plan if p["kind"] == kind and not p["duplicate_of"]])
            code, label, cwes, dup = source["code"], source["labeled_cwe"], source["before_cwes"], source["sample_id"]
        else:
            template, label, cwes = rng.choice(SAMPLE_KINDS[kind])
            while True:  # only the planted line may be flagged
                lines = [_statement(rng, z) for _ in range(rng.randint(lo, hi) - 1)]
                lines.insert(rng.randrange(len(lines) + 1), template.format(a=z.draw(rng), b=z.draw(rng)))
                body = "\n".join("    " + line for line in lines)
                code = f"import subprocess\n\ndef {z.draw(rng)}({z.draw(rng)}):\n{body}\n"
                if len(STUB_RE.findall(code)) == 1:
                    break
            cwes, dup = list(cwes), None
        plan.append({"sample_id": sample_id, "kind": kind, "code": code, "labeled_cwe": label,
                     "before_cwes": list(cwes), "duplicate_of": dup})
        samples.append({"sample_id": sample_id, "dataset": "custom", "language": "python",
                        "prompt": prose(rng, rng.randint(5, 12)), "code": code, "labeled_cwe": label})
    write_jsonl(samples, out_dir / "dataset.jsonl")
    return {
        "samples": [{k: p[k] for k in ("sample_id", "kind", "before_cwes", "duplicate_of")} for p in plan],
        "arms": inputs["arms"],
        "index_entries": len(entries),
    }
